"""NEG — stratified negation end-to-end: goal-directed + maintained.

Not a paper experiment: this benchmark demonstrates the stratified-negation
story described in DESIGN.md on one workload — "reachable but not blocked":
``Blocked`` is an IDB relation read under negation *inside* the recursion,
the exact shape every fast path used to refuse (goal mode fell back to full
evaluation, and maintenance raised on any update that could reach the
negated relation).

Two measurements, one per lifted restriction, both on the same program and
graph: a bound-source goal on the goal pipeline against full evaluation, and
an update stream through ``Blocklist`` (both signed directions: additions
retract downstream, retractions rederive) maintained against per-step
re-evaluation.  This file reports the wall times and the counters; the
deterministic gate on the same workload — no fallback, answers identical to
scratch, at least 3× fewer extension attempts on both — is
``tests/engine/test_negated_streams.py``.  With ``--json`` the harness
writes the measured numbers to ``BENCH_negation.json``.
"""

import time

import pytest

from repro.engine import EvaluationStatistics, ProgramQuery, evaluate_program
from repro.model import Fact
from repro.parser import parse_program
from repro.workloads import as_edge_pairs, layered_graph_instance

BLOCKED_REACHABILITY = """
Blocked(@x) :- Blocklist(@x).
T(@x, @y) :- E(@x, @y), not Blocked(@y).
T(@x, @z) :- T(@x, @y), E(@y, @z), not Blocked(@z).
"""

GRAPH = dict(layers=10, width=12, edges_per_node=2, seed=2)
STEPS = 4
SOURCES = ["a", "l1n0", "l2n1", "l3n2", "l5n5"]


def _workload():
    program = parse_program(BLOCKED_REACHABILITY)
    instance = as_edge_pairs(layered_graph_instance(**GRAPH))
    nodes = sorted({row[0] for row in instance.relation("E")}, key=repr)
    instance.ensure_relation("Blocklist")
    for node in nodes[5::17][:6]:  # a handful of blocked mid-graph nodes
        instance.add("Blocklist", node)
    query = ProgramQuery(
        program, {"E": 2, "Blocklist": 1}, "T", require_monadic=False
    )
    return program, query, instance


def _blocklist_steps(instance):
    """Each step blocks one more node and unblocks one blocked from the start."""
    nodes = sorted({row[0] for row in instance.relation("E")}, key=repr)
    blocked = sorted(instance.relation("Blocklist"), key=repr)
    fresh = [node for node in nodes[9::13] if (node,) not in instance.relation("Blocklist")]
    return [
        ([Fact("Blocklist", (fresh[index],))], [Fact("Blocklist", blocked[index])])
        for index in range(STEPS)
    ]


def test_goal_directed_negation_takes_the_fast_path(bench_report):
    """Negation over a demanded IDB relation stays on the goal pipeline."""
    _, query, instance = _workload()
    full = query.run(instance.copy(), binding={0: SOURCES[0]}, mode="full")
    started = time.perf_counter()
    goal = query.run(instance.copy(), binding={0: SOURCES[0]}, mode="goal")
    goal_seconds = time.perf_counter() - started
    bench_report(
        "negation",
        workload=(
            "layered-graph reachability avoiding blocked nodes (negated IDB "
            f"relation inside the recursion); {STEPS}-step Blocklist stream"
        ),
        goal_seconds=goal_seconds,
        goal_extension_attempts=goal.statistics.extension_attempts,
        full_extension_attempts=full.statistics.extension_attempts,
    )
    print()
    print(
        f"goal-directed negation: {goal.statistics.extension_attempts} extension "
        f"attempts vs full's {full.statistics.extension_attempts} "
        f"({full.statistics.extension_attempts / max(1, goal.statistics.extension_attempts):.1f}× "
        f"pruned), fallback {goal.fallback_reason}, identical answers: {goal.output == full.output}"
    )


def test_updates_through_the_negated_relation_stay_maintained(bench_report):
    """Blocklist churn: signed deltas propagate, answers match scratch."""
    program, query, instance = _workload()
    steps = _blocklist_steps(instance)

    session = query.session(instance.copy())
    scratch_instance = instance.copy()
    session.run(binding={0: SOURCES[0]})
    incremental_attempts = 0
    maintained_answers = []
    started = time.perf_counter()
    for additions, retractions in steps:
        update = session.update(additions, retractions)
        incremental_attempts += update.statistics.extension_attempts
        for source in SOURCES:
            maintained_answers.append(session.run(binding={0: source}).output.relation("T"))
    incremental_seconds = time.perf_counter() - started

    scratch_attempts = 0
    scratch_answers = []
    started = time.perf_counter()
    for additions, retractions in steps:
        delta = scratch_instance.begin_delta()
        for fact in additions:
            delta.add_fact(fact)
        for fact in retractions:
            delta.retract_fact(fact)
        delta.apply()
        statistics = EvaluationStatistics()
        rebuilt = evaluate_program(program, scratch_instance, statistics=statistics)
        scratch_attempts += statistics.extension_attempts
        for source in SOURCES:
            scratch_answers.append(
                frozenset(
                    row
                    for row in rebuilt.relation("T")
                    if row[0].elements == (source,)
                )
            )
    scratch_seconds = time.perf_counter() - started

    bench_report(
        "negation",
        maintained_seconds=incremental_seconds,
        scratch_seconds=scratch_seconds,
        maintained_extension_attempts=incremental_attempts,
        scratch_extension_attempts=scratch_attempts,
    )
    print()
    print(
        f"Blocklist stream ({STEPS} steps): maintained {incremental_attempts} "
        f"extension attempts vs per-step re-evaluation {scratch_attempts} "
        f"({scratch_attempts / max(1, incremental_attempts):.1f}× pruned), "
        f"answers match scratch at every step: {maintained_answers == scratch_answers}"
    )


@pytest.mark.parametrize("mode", ["goal"])
def test_goal_latency(benchmark, mode):
    """Per-goal latency of the stratified rewrite (pytest-benchmark)."""
    _, query, instance = _workload()
    session = query.session(instance.copy())

    def goal():
        return session.run(binding={0: SOURCES[0]}, mode=mode)

    result = benchmark.pedantic(goal, rounds=1, iterations=1)
    assert result.fallback_reason is None
