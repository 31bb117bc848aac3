"""Alternating parent / change pairs of the repository benchmark, and their table.

Runs ``benchmarks/e2e/run.py --workload W --seed S --trace 0`` once on a
parent tree and once on a change tree per seed and workload, one run at a
time: even pairs run the parent first, odd pairs the change first.  Every
run is appended to ``prN_pairs.jsonl`` (in ``--out``) as it finishes, and
the table of this set's runs in that file — the body of ``prN_pairs.txt`` —
is printed at the end::

    python benchmarks/pairs.py --parent ../parent --change . --pr N \\
        --workloads serve_write --seeds FIRST-LAST --out benchmarks/history
    python benchmarks/pairs.py --table benchmarks/history/prN_pairs.jsonl

Per workload and end-to-end metric of ``BENCHMARK.json`` the table gives
each side's median and inclusive quartiles, how many pairs the change won,
and a verdict (:func:`verdict`).  ``steadiness`` is the change's q3 − q1
against the limit the benchmark's acceptance check puts on it: the metric's
bound times the *parent's* median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    """``(q1, median, q3)``, inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: "list[float]", change: "list[float]", bound: float, higher: bool) -> str:
    """The verdict on one metric's pairs (*parent*[i] beside *change*[i]).

    ``worse``: the change's median is worse than the parent's by more than
    *bound* (a fraction).  ``better``: the change wins at least nine pairs
    in ten and the medians differ by more than the parent's q3 − q1.
    ``all-better``: every change run beats every parent run.
    ``unresolved``: either side's q3 − q1 is wider than *bound* of its median.
    ``same`` otherwise.
    """
    sign = 1 if higher else -1
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse"
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if wins * 10 >= 9 * len(parent) and sign * (cm - pm) > p3 - p1:
        return "better"
    if (p3 - p1) > bound * abs(pm) or (c3 - c1) > bound * abs(cm):
        if min(sign * value for value in change) > max(sign * value for value in parent):
            return "all-better"
        return "unresolved"
    return "same"


def table(records: "list[dict]", spec: dict) -> str:
    """The text table of *records*, one row per workload and end-to-end metric."""
    workloads = list(dict.fromkeys(record["workload"] for record in records))
    lines = [
        f"{'workload':15} {'metric':18} {'parent med [q1, q3]':>34} {'change med [q1, q3]':>34}"
        f" {'change':>7} {'wins':>5} {'bound':>5} {'verdict':10} steadiness"
    ]
    for metric in spec["end_to_end"]:
        name, bound, higher = metric["name"], metric["bound"], metric["better"] == "higher"
        for workload in workloads:
            sides: dict = {"parent": {}, "change": {}}
            for record in records:
                if record["workload"] == workload and name in record["metrics"]:
                    sides[record["side"]][record["seed"]] = record["metrics"][name]
            seeds = sorted(sides["parent"].keys() & sides["change"].keys())
            if not seeds:
                continue
            parent = [sides["parent"][seed] for seed in seeds]
            change = [sides["change"][seed] for seed in seeds]
            (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
            sign = 1 if higher else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            lines.append(
                f"{workload:15} {name:18} {pm:11.5g} [{p1:.5g}, {p3:.5g}]".ljust(69)
                + f" {cm:11.5g} [{c1:.5g}, {c3:.5g}]".rjust(35)
                + f" {100 * (cm - pm) / pm:+6.1f}% {wins:2}/{len(seeds):<2} {100 * bound:4.0f}%"
                + f"  {verdict(parent, change, bound, higher):10} {c3 - c1:.5g} / {bound * pm:.5g}"
            )
    total = {
        (side, key): sum(r[key] for r in records if r["side"] == side)
        for side in ("parent", "change")
        for key in ("attempted", "failed")
    }
    bad = [
        f"{r['side']} {r['workload']} seed {r['seed']}"
        for r in records
        if not r["correct"] or r["failed"]
    ]
    lines.append("")
    lines.append(
        f"runs: {len(records)}; operations attempted parent {total['parent', 'attempted']},"
        f" change {total['change', 'attempted']}; failed parent {total['parent', 'failed']},"
        f" change {total['change', 'failed']};"
        f" runs not correct or with failures: {', '.join(bad) or 'none'}"
    )
    return "\n".join(lines)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` run in *tree*: its result line, each metric as a plain number."""
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["metrics"] = {name: metric["value"] for name, metric in result["metrics"].items()}
    return result


def seed_range(text: str) -> "list[int]":
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout of the change")
    parser.add_argument("--pr", type=int, help="names prN_pairs.jsonl / .txt")
    parser.add_argument(
        "--workloads",
        default="eval_sequences,eval_graph,serve_read,serve_write,serve_mixed,serve_goal",
    )
    parser.add_argument("--seeds", help="FIRST-LAST: one pair per seed")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--set", default="main", help="the jsonl 'set' field of these runs")
    parser.add_argument("--out", type=Path, default=Path("."), help="directory of the jsonl / txt")
    parser.add_argument("--table", type=Path, help="only print the table of this jsonl")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.table is not None:
        records = [json.loads(line) for line in args.table.read_text().splitlines() if line]
        print(table(records, spec))
        return 0
    if args.parent is None or args.pr is None or args.seeds is None:
        parser.error("--parent, --pr and --seeds are required unless --table is given")
    jsonl = args.out / f"pr{args.pr}_pairs.jsonl"
    for pair, seed in enumerate(seed_range(args.seeds)):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in args.workloads.split(","):
            for side in order:
                tree = args.parent if side == "parent" else args.change
                result = run_once(tree, workload, seed, args.seconds)
                record = {"pair": pair, "seed": seed, "first": order[0], "side": side}
                record["workload"] = workload
                record.update(result, set=args.set)
                with jsonl.open("a") as out:
                    out.write(json.dumps(record) + "\n")
                print(f"pair {pair} seed {seed} {workload} {side}: {result['metrics']}", flush=True)
    records = [json.loads(line) for line in jsonl.read_text().splitlines() if line]
    print(table([r for r in records if r.get("set", "main") == args.set], spec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
