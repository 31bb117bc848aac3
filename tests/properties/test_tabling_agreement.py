"""Property-based agreement of tabled, goal-directed, and full evaluation.

The acceptance bar of the tabling layer: on recursive programs whose bound
goals previously recorded the expanding-magic-recursion ``fallback_reason``
— and on ordinary magic-supported goals — a session's tabled answers, a
one-shot goal-directed run, and full evaluation must agree exactly with the
reference fixpoint (:mod:`repro.engine.reference`), including across
incremental updates of the pinned instance.
"""

from hypothesis import given, settings, strategies as st

from repro.engine import EvaluationLimits, ProgramQuery
from repro.errors import ExpandingMagicRecursionError
from repro.model import Fact, path
from repro.parser import parse_program
from repro.transform import magic_rewrite
from repro.workloads import as_edge_pairs, prefix_tree_instance, random_graph_instance

SMALL_LIMITS = EvaluationLimits(max_iterations=400, max_facts=40_000, max_path_length=128)

#: Single-source descendant reachability in a prefix hierarchy: the bound
#: source adornment ``bf`` is refused as expanding magic recursion, so this
#: program used to fall back to full evaluation in goal mode.
DESCENDANTS = """
D($t, $t) :- N($t).
D($s, $t) :- D($s.a, $t).
D($s, $t) :- D($s.b, $t).
"""

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""


def query_of(program, input_schema, output):
    return ProgramQuery(
        program, input_schema, output, limits=SMALL_LIMITS, require_monadic=False
    )


def test_the_descendants_goal_is_the_previously_refused_shape():
    """Guard the premise: the bound adornment is (still) statically expanding."""
    try:
        magic_rewrite(parse_program(DESCENDANTS), "D", "bf")
    except ExpandingMagicRecursionError:
        pass
    else:
        raise AssertionError("expected the bf adornment of D to be refused as expanding")


@given(seed=st.integers(0, 60), source=st.sampled_from(["", "a", "b", "ab", "ba", "aab"]))
@settings(max_examples=15, deadline=None)
def test_previously_refused_goals_agree_everywhere(oracle_output, seed, source):
    program = parse_program(DESCENDANTS)
    instance = prefix_tree_instance(depth=4, seed=seed)
    binding = {0: path(*source)}
    query = query_of(program, {"N": 1}, "D")
    expected = oracle_output(query, instance, binding)
    assert query.run(instance, binding=binding, mode="full").output == expected
    goal = query.run(instance, binding=binding, mode="goal")
    assert goal.mode == "goal" and goal.fallback_reason is None
    assert goal.output == expected
    session = query.session(instance)
    tabled_cold = session.run(binding=binding, mode="goal")
    tabled_warm = session.run(binding=binding, mode="goal")
    assert tabled_warm.served_by == "tabled"
    assert tabled_cold.output == expected
    assert tabled_warm.output == expected


@given(seed=st.integers(0, 60))
@settings(max_examples=10, deadline=None)
def test_tabled_goals_agree_across_updates(oracle_output, seed):
    program = parse_program(REACHABILITY_PAIRS)
    instance = as_edge_pairs(random_graph_instance(nodes=8, edges=16, seed=seed))
    query = query_of(program, {"E": 2}, "T")
    expected = instance.copy()
    session = query.session(instance)
    session.run(binding={0: "a"}, mode="goal")
    retired = sorted(expected.relation("E"), key=repr)[0]
    session.update(
        additions=[Fact("E", (path("b"), path("a")))],
        retractions=[Fact("E", retired)],
    )
    expected.discard_fact(Fact("E", retired))
    expected.add_fact(Fact("E", (path("b"), path("a"))))
    for binding in ({0: "a"}, {0: "b"}, {0: "a", 1: "b"}):
        tabled = session.run(binding=binding, mode="goal")
        assert tabled.output == oracle_output(query, expected, binding)
