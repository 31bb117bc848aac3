"""The repository benchmark: six workloads, end-to-end and per-layer metrics.

One run of one workload (what the driver in ``BENCHMARK.json`` invokes)::

    python3 benchmarks/e2e/run.py --workload serve_read --seed 1 --seconds 15 --trace 0

prints the metrics by name and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
measures the end-to-end metrics against the stock program; ``--trace 1``
runs the same workload with the layer boundaries wrapped (:mod:`tracing`)
and reports the per-layer metrics instead.

Without ``--workload`` every workload is run ``--repeat`` times untraced and
once traced, each run in a fresh child process, and the medians are printed
with their run-to-run spread; ``--out`` keeps the record, ``--compare``
judges two records against the bounds in ``BENCHMARK.json``, and ``--smoke``
runs everything at toy size to check the plumbing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import metrics  # noqa: E402


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    """One run in this process; the result's ``metrics`` follow ``BENCHMARK.json``."""
    # Imported here so that a checkout without ``src/`` fails before any output.
    import library
    import serving

    if name in library.EVAL_WORKLOADS:
        result = library.run_eval(name, seed, seconds, trace, small)
    elif name in serving.SERVE_WORKLOADS:
        result = asyncio.run(serving.run_serve(name, seed, seconds, trace, small))
    else:
        raise SystemExit(f"unknown workload {name!r}")
    section = "per_layer" if trace else "end_to_end"
    block = metrics.metric_block(metrics.load_spec(), section, result.pop("values"))
    for metric, entry in block.items():
        if not math.isfinite(entry["value"]):
            raise ValueError(f"{name}: {metric} is not finite")
    result["metrics"] = block
    return result


def _print_metrics(result: dict) -> None:
    for name, entry in result["metrics"].items():
        print(f"{name:48s} {entry['value']:>14.6g} {entry['unit']}")


# -- every workload, each run in a fresh child process ---------------------------------


def _child(name: str, seed: int, seconds: float, trace: bool, small: bool) -> subprocess.Popen:
    command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(int(trace))]
    if small:
        command.append("--small")
    return subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _result_of(child: subprocess.Popen) -> dict:
    output, errors = child.communicate()
    if child.returncode != 0:
        raise RuntimeError(f"{' '.join(child.args)} exited with {child.returncode}:\n{errors}")
    sys.stderr.write(errors)
    return json.loads(output.strip().splitlines()[-1])


def environment(seed: int, seconds: float) -> dict:
    """The stamp every record carries."""
    import serving

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "connections": serving.CONNECTIONS,
        "rate_ladder": list(serving.RATE_LADDER),
        "reference_rate": serving.REFERENCE_RATE,
        "slo": {
            "query_p95_ms": serving.SLO_QUERY_P95_MS,
            "failed_fraction": serving.SLO_FAILED_FRACTION,
        },
    }


def run_all(names: "list[str]", seed: int, seconds: float, repeat: int) -> dict:
    """*repeat* untraced runs and one traced run per workload, one child at a time."""
    record = {"environment": environment(seed, seconds), "workloads": {}}
    for name in names:
        runs = [_result_of(_child(name, seed, seconds, False, False)) for _ in range(repeat)]
        traced = _result_of(_child(name, seed, seconds, True, False))
        end_to_end = {}
        for metric, entry in runs[0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in runs]
            end_to_end[metric] = {
                "unit": entry["unit"],
                "values": values,
                "median": metrics.median(values),
                "iqr": metrics.iqr(values),
            }
        attempted = sum(run["attempted"] for run in runs + [traced])
        failed = sum(run["failed"] for run in runs + [traced])
        record["workloads"][name] = {
            "correct": all(run["correct"] for run in runs + [traced]),
            "attempted": attempted,
            "failed": failed,
            "failed_fraction": failed / attempted,
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
        print(f"\n== {name}: {attempted} attempted, {failed} failed ==")
        for metric, entry in end_to_end.items():
            print(
                f"{metric:48s} {entry['median']:>14.6g} {entry['unit']:6s} "
                f"(IQR {entry['iqr']:.3g} over {repeat} runs)"
            )
        for metric, entry in traced["metrics"].items():
            print(f"{metric:48s} {entry['value']:>14.6g} {entry['unit']}")
    return record


def smoke(names: "list[str]") -> dict:
    """Every workload, traced and untraced, at toy size, all children at once."""
    children = {
        (name, trace): _child(name, 0, 1.0, trace, True) for name in names for trace in (False, True)
    }
    return {key: _result_of(child) for key, child in children.items()}


def print_comparison(first_path: str, second_path: str) -> bool:
    """Print the verdict table for two records; ``True`` when any row is worse."""
    first = json.loads(Path(first_path).read_text(encoding="utf-8"))
    second = json.loads(Path(second_path).read_text(encoding="utf-8"))
    rows, any_worse = metrics.compare(first, second, metrics.load_spec())
    print(f"{'workload':16s} {'metric':20s} {'first':>12s} {'second':>12s} {'change':>8s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for row in rows:
        print(
            f"{row['workload']:16s} {row['metric']:20s} {row['first']:>12.5g} {row['second']:>12.5g} "
            f"{row['change']:>+8.1%} {row['spread']:>7.1%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    return any_worse


def main(argv: "list[str] | None" = None) -> int:
    spec = metrics.load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=5, help="untraced runs per workload")
    parser.add_argument("--out", help="write the all-workloads record here as JSON")
    parser.add_argument("--small", action="store_true", help="toy-sized inputs (used by --smoke)")
    parser.add_argument("--smoke", action="store_true", help="all workloads at toy size")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return 1 if print_comparison(*args.compare) else 0
    if args.smoke:
        results = smoke(names)
        for (name, trace), result in results.items():
            print(f"{name} trace={int(trace)}: {result['attempted']} attempted, "
                  f"{result['failed']} failed, correct={result['correct']}")
        return 0 if all(result["correct"] for result in results.values()) else 1
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
        _print_metrics(result)
        print(json.dumps(result))
        return 0
    record = run_all(names, args.seed, args.seconds, args.repeat)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all(entry["correct"] for entry in record["workloads"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
