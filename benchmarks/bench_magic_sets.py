"""MAGIC — goal-directed ablation: full fixpoint vs magic-set evaluation.

Not a paper experiment: this benchmark justifies the adornment / magic-set
pipeline described in DESIGN.md.  The workload is *selective single-source
reachability*: the layered-graph generator's DAG, re-encoded as a binary edge
relation, queried for the nodes reachable from the single source ``a``.  Full
evaluation materialises the all-pairs transitive closure and then filters;
goal-directed evaluation (``mode="goal"``) seeds a magic fact for the source
and derives only the demanded slice.

This file reports the wall-clock ratio, the ``extension_attempts`` and
``facts_derived`` counters of both modes, and the compiled-plan statistics of
repeated queries through a :class:`~repro.engine.QuerySession`.  The
deterministic gate on the same workload — identical answers, at least 5×
fewer extension attempts and derived facts, warm sessions mostly hitting the
plan cache — is ``tests/engine/test_goal_directed.py::TestSelectiveReachability``.
"""

import time

import pytest

from repro.engine import ProgramQuery
from repro.parser import parse_program
from repro.workloads import as_edge_pairs, layered_graph_instance

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""

GRAPH = dict(layers=10, width=10, edges_per_node=2, seed=2)
SOURCE = "a"


def _workload():
    program = parse_program(REACHABILITY_PAIRS)
    instance = as_edge_pairs(layered_graph_instance(**GRAPH))
    query = ProgramQuery(program, {"E": 2}, "T", require_monadic=False)
    return query, instance


@pytest.mark.parametrize("mode", ["full", "goal"])
def test_single_source_reachability(benchmark, mode):
    query, instance = _workload()
    result = benchmark.pedantic(
        lambda: query.run(instance, binding={0: SOURCE}, mode=mode),
        rounds=1,
        iterations=1,
    )
    assert result.output.relation("T")
    assert result.mode == mode and result.fallback_reason is None


def test_goal_directed_pruning(bench_report):
    """Report how much goal-directed evaluation prunes (gated in tier-1)."""
    query, instance = _workload()
    started = time.perf_counter()
    full = query.run(instance, binding={0: SOURCE}, mode="full")
    full_seconds = time.perf_counter() - started
    started = time.perf_counter()
    goal = query.run(instance, binding={0: SOURCE}, mode="goal")
    goal_seconds = time.perf_counter() - started

    ratio = full.statistics.extension_attempts / max(1, goal.statistics.extension_attempts)
    bench_report(
        "magic_sets",
        full_seconds=full_seconds,
        goal_seconds=goal_seconds,
        extension_attempts=goal.statistics.extension_attempts,
        full_extension_attempts=full.statistics.extension_attempts,
        plan_cache_hits=goal.statistics.plan_cache_hits,
    )
    print()
    print(
        f"single-source reachability: extension attempts full = "
        f"{full.statistics.extension_attempts}, goal = "
        f"{goal.statistics.extension_attempts} ({ratio:.1f}× fewer); facts derived "
        f"{full.statistics.facts_derived} → {goal.statistics.facts_derived}; "
        f"wall time {full_seconds:.2f}s → {goal_seconds:.2f}s "
        f"({full_seconds / max(goal_seconds, 1e-9):.1f}× faster, identical answers)"
    )


def test_session_plan_reuse():
    """Report plans compiled vs cache hits of repeated session queries (gated in tier-1)."""
    query, instance = _workload()
    session = query.session(instance)
    sources = [SOURCE] + [f"l1n{i}" for i in range(5)]
    compiled = []
    hits = []
    for source in sources:
        result = session.run(binding={0: source}, mode="goal")
        compiled.append(result.statistics.plans_compiled)
        hits.append(result.statistics.plan_cache_hits)
    print()
    print(f"plans compiled per query: {compiled}; plan cache hits per query: {hits}")
