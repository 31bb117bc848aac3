"""Negation inside the recursion: reachability avoiding blocked nodes.

``Blocked`` is an IDB relation read under negation inside the recursion.  A
bound-source goal stays on the goal pipeline and attempts at least
``GOAL_PRUNING_FACTOR``× fewer extensions than full evaluation.  Every update
of a ``Blocklist`` stream (additions kill derivations through the negated
literal, retractions admit them) is maintained with no fallback, every answer
equals a scratch evaluation, and the stream attempts at least
``MAINTENANCE_PRUNING_FACTOR``× fewer extensions than re-evaluating at every
step.  The last wall-clock report on this workload, from the deleted
``benchmarks/bench_negation.py``, is kept in ``benchmarks/history/``.
"""

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
GOAL_PRUNING_FACTOR = 3
MAINTENANCE_PRUNING_FACTOR = 3


def workload():
    program = parse_program(BLOCKED_REACHABILITY)
    instance = as_edge_pairs(layered_graph_instance(**GRAPH))
    nodes = sorted({row[0] for row in instance.relation("E")}, key=repr)
    instance.ensure_relation("Blocklist")
    for node in nodes[5::17][:6]:  # a handful of blocked mid-graph nodes
        instance.add("Blocklist", node)
    query = ProgramQuery(program, {"E": 2, "Blocklist": 1}, "T", require_monadic=False)
    return program, query, instance


def blocklist_steps(instance):
    """Each step blocks one more node and unblocks one blocked from the start.

    Both signed directions every step: the addition kills derivations
    through ``not Blocked`` (delete–rederive's kill seeds), the retraction
    admits them.
    """
    nodes = sorted({row[0] for row in instance.relation("E")}, key=repr)
    blocked = sorted(instance.relation("Blocklist"), key=repr)
    fresh = [node for node in nodes[9::13] if (node,) not in instance.relation("Blocklist")]
    return [
        ([Fact("Blocklist", (fresh[index],))], [Fact("Blocklist", blocked[index])])
        for index in range(STEPS)
    ]


def test_goal_directed_negation_takes_the_fast_path():
    _, query, instance = workload()
    full = query.run(instance.copy(), binding={0: SOURCES[0]}, mode="full")
    goal = query.run(instance.copy(), binding={0: SOURCES[0]}, mode="goal")
    assert goal.mode == "goal" and goal.fallback_reason is None
    assert goal.output == full.output
    assert (
        goal.statistics.extension_attempts * GOAL_PRUNING_FACTOR
        <= full.statistics.extension_attempts
    )


def test_updates_through_the_negated_relation_stay_maintained():
    program, query, instance = workload()
    steps = blocklist_steps(instance)
    session = query.session(instance.copy())
    session.run(binding={0: SOURCES[0]})
    scratch = instance.copy()
    maintained_attempts = scratch_attempts = 0
    for additions, retractions in steps:
        update = session.update(additions, retractions)
        assert update.maintained and update.fallback_reason is None
        maintained_attempts += update.statistics.extension_attempts
        for fact in retractions:
            scratch.discard_fact(fact)
        for fact in additions:
            scratch.add_fact(fact)
        statistics = EvaluationStatistics()
        rebuilt = evaluate_program(program, scratch, statistics=statistics)
        scratch_attempts += statistics.extension_attempts
        for source in SOURCES:
            result = session.run(binding={0: source})
            assert result.served_by == "maintained"
            expected = {row for row in rebuilt.relation("T") if row[0].elements == (source,)}
            assert result.output.relation("T") == expected
    assert 0 < maintained_attempts * MAINTENANCE_PRUNING_FACTOR <= scratch_attempts
