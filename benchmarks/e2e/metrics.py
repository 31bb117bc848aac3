"""Metric declarations (``BENCHMARK.json``), order statistics, the machine-speed
reference loop, and run comparison."""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

__all__ = [
    "REPO_ROOT",
    "better_quartile",
    "compare",
    "iqr",
    "load_spec",
    "median",
    "metric_block",
    "percentile",
    "reference_loop",
    "slowdown",
]

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_spec() -> dict:
    """The benchmark declaration at the root of the repository."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1); 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


#: The reference loop (:func:`reference_loop`) takes this long on the box the
#: benchmark was defined on, at the speed that box usually runs at.
REFERENCE_LOOP_S = 0.85e-3


def reference_loop() -> float:
    """Seconds this process needs for a fixed piece of pure-Python arithmetic.

    The box changes speed by a quarter or more for seconds to minutes at a
    time with no steal time reported (neighbours on the host: the same loop
    reads 0.67, 0.85 or 1.2 ms), and whole runs land in one regime, so ten
    honest runs of a CPU-bound metric disagree by more than any bound the
    driver accepts.  Timed *while* a round runs, in the measuring process,
    this loop tracks the regime (it halves the round-to-round variation of
    every workload), so each round's times are reported at the reference
    speed: divided by :func:`slowdown`.
    """
    started = time.perf_counter()
    total = 0
    for index in range(20_000):
        total += index * index
    return time.perf_counter() - started


def slowdown(loop_seconds) -> float:
    """How much slower than the reference speed the machine ran (1.0: at it, or unknown)."""
    return median(loop_seconds) / REFERENCE_LOOP_S or 1.0


def better_quartile(values, better: str) -> float:
    """The quartile of per-round values on the good side: p25 if lower is better, else p75.

    What the reference loop does not explain still comes in bursts; the
    good-side quartile of a run's rounds sits outside them whenever a quarter
    of the rounds did, and unlike the single best round it is not an extreme
    value of a noisy estimate.
    """
    values = list(values)
    if better == "lower":
        return percentile(values, 0.25)
    return -percentile([-value for value in values], 0.25)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def iqr(values) -> float:
    """Distance between the first and third quartile (0.0 below two samples)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def metric_block(spec: dict, section: str, values: "dict[str, float]") -> dict:
    """``{name: {"value", "unit"}}`` for every metric *section* declares.

    A declared metric the workload did not produce reads 0 — on a workload
    that bypasses a layer that is the measurement.  A produced metric that is
    not declared is a bug in the benchmark, so it raises.
    """
    declared = {metric["name"]: metric["unit"] for metric in spec[section]}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json {section}: {unknown}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }


def compare(first: dict, second: dict, spec: dict) -> "tuple[list[dict], bool]":
    """Row per (workload, end-to-end metric) of two ``run.py --out`` records.

    ``worse`` — *second*'s median is worse than *first*'s by more than the
    metric's bound; ``unresolved`` — either record's own run-to-run spread
    (IQR ÷ median) is wider than the bound, so the difference cannot be
    judged; ``same`` otherwise.  Returns the rows and whether any is worse.
    """
    rows = []
    any_worse = False
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in (w["name"] for w in spec["workloads"]):
            a = first["workloads"].get(workload, {}).get("end_to_end", {}).get(name)
            b = second["workloads"].get(workload, {}).get("end_to_end", {}).get(name)
            if a is None or b is None or not a["median"]:
                continue
            change = (b["median"] - a["median"]) / a["median"]
            worsening = change if metric["better"] == "lower" else -change
            spread = max(
                record["iqr"] / record["median"] if record["median"] else 0.0 for record in (a, b)
            )
            if spread > bound:
                verdict = "unresolved"
            elif worsening > bound:
                verdict = "worse"
                any_worse = True
            else:
                verdict = "same"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "first": a["median"],
                    "second": b["median"],
                    "change": change,
                    "spread": spread,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
    return rows, any_worse
