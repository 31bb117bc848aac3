"""JOIN — storage ablation: scan vs indexed join evaluation at 10× scale.

Not a paper experiment: this benchmark justifies the indexed relation storage
and the bound-aware greedy join planner described in DESIGN.md.  It runs the
recursive reachability and NFA-acceptance workloads on instances ten times
larger than ``bench_engine_scaling.py``'s and compares the seed nested-loop
strategy (``execution="scan"``) against the indexed planner
(``execution="indexed"``).  Both must produce identical fixpoints; the
indexed mode must attempt at least 3× fewer valuation extensions (the
``extension_attempts`` statistics counter) on both workloads.

The compiled id-space backend (``execution="compiled"``) is ablated here as
well: it must produce the same fixpoints and beat the scan evaluator — the
oracle, whose speed no performance change moves — by at least 20× wall time
on the dense recursive reachability workload; its ratio to the indexed
interpreter is recorded, not gated.  Its wall
times are recorded under ``join_planning_compiled`` with
``execution="compiled"``, so the regression gate tracks the compiled tier
separately and never compares it against an indexed baseline.
"""

import time

import pytest

from repro.engine import EvaluationStatistics, evaluate_program
from repro.queries import get_query
from repro.workloads import (
    layered_graph_instance,
    random_graph_instance,
    random_nfa_instance,
)

# 10× the sizes used by bench_engine_scaling.py.
GRAPH_10X = dict(nodes=80, edges=200, seed=5, ensure_path=("a", "b"))
NFA_10X = dict(seed=3, words=80, max_word_length=6, states=3)
# A denser reachability graph for the compiled-vs-indexed wall-time bar: the
# indexed interpreter's per-candidate valuation cost grows with join fan-out,
# which is exactly what the id-space loops amortise.
GRAPH_DENSE = dict(nodes=60, edges=300, seed=5, ensure_path=("a", "b"))


def _reachability_workload():
    return get_query("reachability").program(), random_graph_instance(**GRAPH_10X)


def _nfa_workload():
    return get_query("nfa_acceptance").program(), random_nfa_instance(**NFA_10X)


@pytest.mark.parametrize("execution", ["scan", "indexed", "compiled"])
def test_reachability_10x(benchmark, execution):
    program, instance = _reachability_workload()
    result = benchmark.pedantic(
        lambda: evaluate_program(program, instance, execution=execution),
        rounds=1,
        iterations=1,
    )
    assert result.contains("S")


@pytest.mark.parametrize("execution", ["scan", "indexed", "compiled"])
def test_nfa_acceptance_10x(benchmark, execution):
    program, instance = _nfa_workload()
    result = benchmark.pedantic(
        lambda: evaluate_program(program, instance, execution=execution),
        rounds=1,
        iterations=1,
    )
    assert result.relation_names >= {"A"}


def test_layered_graph_indexed_scaling(benchmark):
    """Indexed-only data point on a deeper layered DAG (scan is impractical here)."""
    program = get_query("reachability").program()
    instance = layered_graph_instance(layers=12, width=10, seed=2)
    result = benchmark.pedantic(
        lambda: evaluate_program(program, instance, execution="indexed"),
        rounds=1,
        iterations=1,
    )
    assert result.contains("S")


def test_indexed_planning_prunes_at_least_3x(bench_report):
    """The acceptance bar: ≥3× fewer valuation extensions, identical fixpoints."""
    print()
    for name, (program, instance) in {
        "reachability": _reachability_workload(),
        "nfa_acceptance": _nfa_workload(),
    }.items():
        scan_stats = EvaluationStatistics()
        indexed_stats = EvaluationStatistics()
        started = time.perf_counter()
        scan = evaluate_program(program, instance, execution="scan", statistics=scan_stats)
        scan_seconds = time.perf_counter() - started
        started = time.perf_counter()
        indexed = evaluate_program(
            program, instance, execution="indexed", statistics=indexed_stats
        )
        indexed_seconds = time.perf_counter() - started
        assert scan == indexed
        assert indexed_stats.extension_attempts * 3 <= scan_stats.extension_attempts
        ratio = scan_stats.extension_attempts / max(1, indexed_stats.extension_attempts)
        bench_report(
            f"join_planning_{name}",
            execution="indexed",  # the mode of the gated wall, named explicitly above
            scan_seconds=scan_seconds,
            indexed_seconds=indexed_seconds,
            extension_attempts=indexed_stats.extension_attempts,
            scan_extension_attempts=scan_stats.extension_attempts,
            plan_cache_hits=indexed_stats.plan_cache_hits,
        )
        print(
            f"{name}: extension attempts scan = {scan_stats.extension_attempts}, "
            f"indexed = {indexed_stats.extension_attempts} ({ratio:.1f}× fewer); "
            f"wall time {scan_seconds:.2f}s → {indexed_seconds:.2f}s "
            f"({scan_seconds / max(indexed_seconds, 1e-9):.1f}× faster, identical fixpoints)"
        )


def _best_of(action, repeats=3):
    """The fastest of *repeats* runs — the standard noise-robust wall time."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = action()
        best = min(best, time.perf_counter() - started)
    return best, result


#: The compiled tier's acceptance bar on dense reachability, against the scan
#: evaluator — the oracle, which no performance change moves.  Fixed from the
#: commit before the bar was re-stated: ten runs of this measurement read
#: 33.8 / 37.9 / 40.1 (quartiles); 20 is the lower quartile × 0.6, the margin
#: the old ≥5× bar against the indexed interpreter had under its recorded 8.3×.
COMPILED_VS_SCAN_BAR = 20.0


def test_compiled_backend_beats_scan_20x(bench_report):
    """The compiled-tier acceptance bar: ≥20× faster than scan on reachability.

    Best-of-three walls on the dense recursive reachability workload,
    identical fixpoints required.  The ratio to the indexed interpreter and
    the 10× ablation graph are measured and recorded alongside, ungated:
    they move whenever the interpreter does.
    """
    program = get_query("reachability").program()
    print()
    recorded: dict = {}
    for label, spec in (("dense", GRAPH_DENSE), ("10x", GRAPH_10X)):
        instance = random_graph_instance(**spec)
        indexed_seconds, indexed = _best_of(
            lambda: evaluate_program(program, instance.copy(), execution="indexed")
        )
        compiled_seconds, compiled = _best_of(
            lambda: evaluate_program(program, instance.copy(), execution="compiled")
        )
        assert indexed == compiled
        speedup = indexed_seconds / max(compiled_seconds, 1e-9)
        recorded[label] = (indexed_seconds, compiled_seconds, speedup)
        print(
            f"reachability ({label}): indexed {indexed_seconds:.3f}s → "
            f"compiled {compiled_seconds:.3f}s ({speedup:.1f}× faster, "
            f"identical fixpoints)"
        )
        if label == "dense":
            scan_seconds, scan = _best_of(
                lambda: evaluate_program(program, instance.copy(), execution="scan")
            )
            assert scan == compiled
            speedup_vs_scan = scan_seconds / max(compiled_seconds, 1e-9)
            print(
                f"reachability (dense): scan {scan_seconds:.3f}s "
                f"({speedup_vs_scan:.1f}× the compiled wall)"
            )
    bench_report(
        "join_planning_compiled",
        execution="compiled",
        workload="unary reachability, dense graph (60 nodes, 300 edges) and 10x graph (80 nodes, 200 edges)",
        compiled_seconds=recorded["dense"][1],
        speedup_vs_scan=speedup_vs_scan,
        speedup_vs_indexed=recorded["dense"][2],
        compiled_10x_seconds=recorded["10x"][1],
        speedup_vs_indexed_10x=recorded["10x"][2],
    )
    # The acceptance bar is asserted on the dense workload, where join
    # fan-out (not fixpoint bookkeeping) dominates every mode.
    assert speedup_vs_scan >= COMPILED_VS_SCAN_BAR, (
        f"compiled backend only {speedup_vs_scan:.1f}x faster than scan "
        f"(need >= {COMPILED_VS_SCAN_BAR:.0f}x)"
    )
