"""Property-based agreement of goal-directed and full query evaluation.

The acceptance bar of the goal-directed pipeline: ``mode="goal"`` must return
exactly the answers of ``mode="full"``, and both those of the reference
fixpoint (:mod:`repro.engine.reference`) — whether the magic rewriting
applies, is statically refused, or falls back at runtime — on the existing
workload generators.
"""

from hypothesis import given, settings, strategies as st

from repro.engine import EvaluationLimits, ProgramQuery
from repro.model import path
from repro.parser import parse_program
from repro.queries import CANONICAL_QUERIES
from repro.workloads import (
    as_edge_pairs,
    random_graph_instance,
    random_positive_program,
    random_string_instance,
)

#: Small limits keep the runtime-fallback path fast when a rewriting that
#: passed the static checks still needs more rounds than the full fixpoint.
SMALL_LIMITS = EvaluationLimits(max_iterations=400, max_facts=40_000, max_path_length=128)

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""


def query_of(program, input_schema, output, **options):
    return ProgramQuery(program, input_schema, output, limits=SMALL_LIMITS, **options)


@given(program_seed=st.integers(0, 50), instance_seed=st.integers(0, 50))
@settings(max_examples=20, deadline=None)
def test_goal_mode_agrees_on_random_positive_programs(
    oracle_output, program_seed, instance_seed
):
    program = random_positive_program(seed=program_seed)
    instance = random_string_instance(paths=4, max_length=3, seed=instance_seed)
    query = query_of(program, {"R": 1}, "S")
    full_answer = query.answer(instance)
    assert full_answer == oracle_output(query, instance).paths("S")
    # All-free goal: pure relevance filtering.
    assert query.answer(instance, mode="goal") == full_answer
    # Bound goal: membership of one present and one absent path.
    probes = sorted(full_answer, key=str)[:1] + [path(*"zz")]
    for probe in probes:
        expected = frozenset({probe}) & full_answer
        assert query.answer(instance, binding={0: probe}, mode="goal") == expected


@given(seed=st.integers(0, 100))
@settings(max_examples=15, deadline=None)
def test_single_source_reachability_agrees_on_random_graphs(oracle_output, seed):
    program = parse_program(REACHABILITY_PAIRS)
    instance = as_edge_pairs(random_graph_instance(nodes=9, edges=20, seed=seed))
    query = query_of(program, {"E": 2}, "T", require_monadic=False)
    expected = oracle_output(query, instance, {0: "a"})
    assert query.run(instance, binding={0: "a"}).output == expected
    goal = query.run(instance, binding={0: "a"}, mode="goal")
    assert goal.output == expected
    assert goal.mode == "goal" and goal.fallback_reason is None


@given(seed=st.integers(0, 60))
@settings(max_examples=10, deadline=None)
def test_canonical_queries_agree_in_goal_mode(oracle_output, seed):
    """Canonical queries — including those that must fall back — agree."""
    instance = random_string_instance(paths=5, max_length=4, seed=seed)
    for name in ("only_as_equation", "reversal", "process_compliance"):
        query = CANONICAL_QUERIES[name].make_query(limits=SMALL_LIMITS)
        expected = oracle_output(query, instance)
        assert query.run(instance).output == expected, name
        assert query.run(instance, mode="goal").output == expected, name
