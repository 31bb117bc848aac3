"""CI benchmark-regression gate.

Compares the ``BENCH_<name>.json`` files written by a ``--json`` smoke run
against the committed baselines in ``benchmarks/baselines/`` and fails when

* an expected result file is missing — the exact failure mode that left the
  benchmark trajectory empty before the reporter was anchored to the repo
  root, or
* any wall-time field (``*_seconds``) regressed by more than the tolerance
  (default 25%, override with ``--tolerance`` or the
  ``BENCH_REGRESSION_TOLERANCE`` environment variable), or
* any throughput field (``*_per_second``) fell more than the tolerance
  below its baseline (after the same fleet calibration, applied inversely —
  a uniformly slower runner is not a regression), or
* an absolute speedup floor (``coalescing_speedup`` ≥ 2×, ``restore_speedup``
  ≥ 5×) was missed on a run whose own record says the gate should be armed:
  every record now carries ``cpu_count``/``python_version``/``timed`` stamps
  (written by ``benchmarks/conftest.py``), so the decision reads the
  machine that *produced* the numbers, not the machine running this gate.

A result file with **no committed baseline** — the first PR that adds a new
benchmark — is *reported and skipped*: it cannot be gated (there is nothing
to compare against) and it must not feed the calibration median, but it
must not crash the gate either.  Commit it under ``benchmarks/baselines/``
to start gating it.

Measured wall times below a small floor never fail the gate — at that scale
one bad scheduling quantum on a loaded runner dwarfs the engine, so only
runs that are both slower than the scaled baseline *and* above the noise
floor count as regressions.  Counter fields are reported for context but
not gated: they move deliberately with engine changes, and the benchmarks
themselves assert the ratios that matter.

With ``--calibrate`` (what CI passes) every baseline is first rescaled by
the *median* measured/baseline wall-time ratio across all benchmarks: the
committed baselines were captured on one machine and CI runners are
uniformly slower or faster, which is not a regression — one benchmark
drifting >25% away from the rest of the fleet is.  Without the flag the
comparison is absolute, for runs on the machine that produced the
baselines.  After an intentional performance change, refresh the baselines
with::

    PYTHONPATH=src python -m pytest -q --benchmark-disable --json \
        --json-dir benchmarks/baselines benchmarks/bench_*.py
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: A measured wall time below this never fails the gate: at this scale a
#: single bad scheduling quantum on a loaded runner dwarfs the engine.
GATE_FLOOR_SECONDS = 0.25
#: Pairs whose baseline is shorter than this do not inform the calibration
#: median — their ratios are dominated by the same noise.
CALIBRATION_FLOOR_SECONDS = 0.05
#: Absolute speedup gates armed from the *result record's own stamps* —
#: ``field: (minimum, min_cpus)``.  A record produced by a real timing run
#: (``timed`` true) on a machine with at least ``min_cpus`` cores must show
#: at least ``minimum`` on the field; records from ``--benchmark-disable``
#: smoke runs or small machines are disarmed.  Reading ``cpu_count`` from
#: the record instead of re-probing here matters because the gate may run on
#: a different machine than the one that produced the numbers.
SPEEDUP_GATED_FIELDS: "dict[str, tuple[float, int]]" = {
    # write coalescing must beat serialized per-request updates ≥2× anywhere
    "coalescing_speedup": (2.0, 1),
    # snapshot + WAL-tail restore must beat a scratch rebuild ≥5× anywhere
    "restore_speedup": (5.0, 1),
    # fsync-on-commit must keep ≥90% of plain coalescing throughput (a
    # ratio, not a speedup — the floor below 1 encodes the ≤10% tax)
    "wal_throughput_ratio": (0.9, 1),
}


def load_pairs(
    baseline_path: Path, results_dir: Path
) -> "tuple[list[str], list[tuple[str, float, float, str]]]":
    """Failures (missing files/fields, speedup regressions) plus
    the calibration-gated (key, expected, measured, kind) pairs, where kind
    is ``"seconds"`` (lower is better) or ``"per_second"`` (higher is
    better)."""
    result_path = results_dir / baseline_path.name
    if not result_path.exists():
        return (
            [
                f"{baseline_path.name}: expected result file {result_path} is missing "
                f"(did the smoke run pass --json, and did the reporter write to the "
                f"repo root?)"
            ],
            [],
        )
    baseline = json.loads(baseline_path.read_text())
    result = json.loads(result_path.read_text())
    failures: list[str] = []
    pairs: list[tuple[str, float, float, str]] = []
    # Speedup gates arm from the result record's own environment stamps: a
    # --benchmark-disable smoke run (timed false) or a machine below the
    # gate's core floor never asserts an absolute speedup.
    result_timed = bool(result.get("timed", False))
    result_cpus = int(result.get("cpu_count", result.get("cpus", 1)) or 1)
    for key, expected in sorted(baseline.items()):
        if not isinstance(expected, (int, float)):
            continue
        if key not in result:
            failures.append(f"{baseline_path.name}: field {key!r} missing from the result")
            continue
        if key in SPEEDUP_GATED_FIELDS:
            minimum, min_cpus = SPEEDUP_GATED_FIELDS[key]
            measured = float(result[key])
            if result_timed and result_cpus >= min_cpus and measured < minimum:
                failures.append(
                    f"{baseline_path.name}: {key} below its floor — {measured:.2f}× "
                    f"vs the required {minimum:.1f}× (timed run on {result_cpus} "
                    f"cores, gate armed at ≥{min_cpus})"
                )
            continue
        if key.endswith("per_second"):
            pairs.append(
                (f"{baseline_path.name}: {key}", float(expected), float(result[key]), "per_second")
            )
            continue
        if not key.endswith("seconds"):
            continue  # other counters are asserted by the benchmarks themselves
        pairs.append(
            (f"{baseline_path.name}: {key}", float(expected), float(result[key]), "seconds")
        )
    return failures, pairs


def gate(
    pairs: "list[tuple[str, float, float, str]]", tolerance: float, calibrate: bool
) -> list[str]:
    """Gate every wall-time and throughput pair, optionally rescaled by the
    fleet median.

    The calibration scale is estimated from the wall-time pairs only (they
    are the direct speed measurement) and applied to both kinds: on a
    machine that runs the fleet ``scale``× slower, wall times may grow by
    ``scale`` and throughputs may shrink by the same factor before the
    tolerance band even starts.
    """
    scale = 1.0
    if calibrate:
        ratios = [
            measured / expected
            for _, expected, measured, kind in pairs
            if kind == "seconds" and expected >= CALIBRATION_FLOOR_SECONDS
        ]
        if ratios:
            scale = statistics.median(ratios)
            print(f"calibration: median measured/baseline wall-time ratio = {scale:.2f}")
    failures = []
    noise_floor = GATE_FLOOR_SECONDS * max(scale, 1.0)
    for label, expected, measured, kind in pairs:
        if kind == "per_second":
            limit = expected / max(scale, 1e-9) * (1.0 - tolerance)
            if measured < limit:
                failures.append(
                    f"{label} regressed — {measured:.1f}/s vs baseline {expected:.1f}/s "
                    f"(limit {limit:.1f}/s at {tolerance:.0%} tolerance"
                    f"{f', calibration {scale:.2f}' if calibrate else ''})"
                )
            continue
        if measured <= noise_floor:
            continue  # scheduler-noise scale: a spike here is not a regression
        limit = expected * scale * (1.0 + tolerance)
        if measured > limit:
            failures.append(
                f"{label} regressed — {measured:.3f}s vs baseline {expected:.3f}s "
                f"(limit {limit:.3f}s at {tolerance:.0%} tolerance"
                f"{f', calibration {scale:.2f}' if calibrate else ''})"
            )
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "baselines",
        help="directory of committed BENCH_<name>.json baselines",
    )
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory the smoke run wrote its BENCH_<name>.json files to",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_REGRESSION_TOLERANCE", "0.25")),
        help="allowed wall-time regression as a fraction (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--calibrate",
        action="store_true",
        help="rescale the baselines by the median wall-time ratio (cross-machine runs)",
    )
    args = parser.parse_args(argv)

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines found under {args.baseline_dir}", file=sys.stderr)
        return 2

    # New benchmarks (a result with no committed baseline) are reported and
    # skipped: nothing to gate against, and — crucially for the calibration
    # median — nothing to rescale by.  Commit the file to start gating it.
    baseline_names = {path.name for path in baselines}
    for result_path in sorted(args.results_dir.glob("BENCH_*.json")):
        if result_path.name not in baseline_names:
            print(
                f"NEW {result_path.name}: no committed baseline — skipped "
                f"(commit it as benchmarks/baselines/{result_path.name} to gate it)"
            )

    failures: list[str] = []
    pairs: list[tuple[str, float, float]] = []
    for baseline_path in baselines:
        found, file_pairs = load_pairs(baseline_path, args.results_dir)
        failures.extend(found)
        pairs.extend(file_pairs)
        print(f"checked {baseline_path.name}: {'FAIL' if found else 'ok'}")
    failures.extend(gate(pairs, args.tolerance, args.calibrate))
    if failures:
        print()
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print(f"all {len(baselines)} benchmark baselines within {args.tolerance:.0%} tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
