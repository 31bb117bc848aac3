"""Property-based agreement for programs with stratified negation.

Negation used to be the construct every fast path refused; now it must be
indistinguishable from the slow paths it replaced.  For the canonical
"reachable but not blocked" workload (negation over a demanded IDB
relation) and the set-difference shape (negation over an EDB relation),
these sweeps check the two agreement contracts against the reference
fixpoint (:mod:`repro.engine.reference`):

* maintained ≡ reference — update streams through the *negated* relation in
  both directions (additions produce downstream retractions and vice
  versa), including retraction-only streams;
* tabled ≡ goal ≡ full ≡ reference — the goal pipeline handles the
  stratified rewrite with no ``fallback_reason``, cold and warm.
"""

from hypothesis import given, settings, strategies as st

from repro.engine import MaintainedFixpoint, ProgramQuery, apply_delta
from repro.engine.reference import reference_fixpoint
from repro.model import Fact, path
from repro.parser import parse_program
from repro.workloads import (
    as_edge_pairs,
    churn_stream,
    random_graph_instance,
    update_stream,
)

#: Reachability avoiding blocked nodes: ``Blocked`` is a demanded IDB
#: relation read under negation inside the recursion — the exact shape
#: every layer used to refuse.
BLOCKED_REACHABILITY = """
Blocked(@x) :- Blocklist(@x).
T(@x, @y) :- E(@x, @y), not Blocked(@y).
T(@x, @z) :- T(@x, @y), E(@y, @z), not Blocked(@z).
"""

#: Set difference: negation over a plain EDB relation, the minimal
#: stratified-negation program.
SET_DIFFERENCE = """
S($x) :- R($x), not Q($x).
"""


def blocked_instance(seed, *, blocked_nodes=2):
    instance = as_edge_pairs(random_graph_instance(nodes=8, edges=16, seed=seed))
    nodes = sorted({row[0] for row in instance.relation("E")}, key=repr)
    instance.ensure_relation("Blocklist")
    for node in nodes[:blocked_nodes]:
        instance.add("Blocklist", node)
    return instance


def apply_steps_and_check(program, base, steps):
    """Drive one maintained fixpoint through *steps*, checking every state."""
    maintained = MaintainedFixpoint.evaluate(program, base)
    current = base.copy()
    assert maintained.materialized == reference_fixpoint(program, current)
    for additions, retractions in steps:
        maintained.update(apply_delta(maintained.materialized, additions, retractions))
        for fact in retractions:
            current.discard_fact(fact)
        for fact in additions:
            current.add_fact(fact)
        assert maintained.materialized == reference_fixpoint(program, current)


@given(seed=st.integers(0, 60), stream_seed=st.integers(0, 10))
@settings(max_examples=10, deadline=None)
def test_streams_through_the_negated_relation_stay_in_sync(seed, stream_seed):
    """Blocklist churn — both signed directions."""
    program = parse_program(BLOCKED_REACHABILITY)
    base = blocked_instance(seed, blocked_nodes=3)
    steps = list(
        update_stream(
            base,
            relation="Blocklist",
            steps=3,
            additions_per_step=1,
            retractions_per_step=1,
            seed=stream_seed,
        )
    )
    apply_steps_and_check(program, base, steps)


@given(seed=st.integers(0, 60))
@settings(max_examples=10, deadline=None)
def test_mixed_churn_on_both_sides_of_the_negation(seed):
    """Deletion-heavy churn on E interleaved with Blocklist flips."""
    program = parse_program(BLOCKED_REACHABILITY)
    base = blocked_instance(seed, blocked_nodes=2)
    edge_steps = list(
        churn_stream(
            base, relation="E", steps=3, retractions_per_step=3, seed=seed + 3
        )
    )
    block_steps = list(
        update_stream(base, relation="Blocklist", steps=3, seed=seed + 5)
    )
    steps = [
        (edge_add + block_add, edge_del + block_del)
        for (edge_add, edge_del), (block_add, block_del) in zip(edge_steps, block_steps)
    ]
    apply_steps_and_check(program, base, steps)


@given(seed=st.integers(0, 60))
@settings(max_examples=8, deadline=None)
def test_retraction_only_streams_through_negation(seed):
    """Pure deletions from the negated side: insertion seeds on their own."""
    program = parse_program(BLOCKED_REACHABILITY)
    base = blocked_instance(seed, blocked_nodes=4)
    rows = sorted(base.relation("Blocklist"), key=repr)
    steps = [([], [Fact("Blocklist", row)]) for row in rows[:3]]
    apply_steps_and_check(program, base, steps)


@given(seed=st.integers(0, 40))
@settings(max_examples=10, deadline=None)
def test_set_difference_streams_agree(seed):
    """The minimal stratified program, streams on both relations."""
    program = parse_program(SET_DIFFERENCE)
    base = as_edge_pairs(random_graph_instance(nodes=6, edges=10, seed=seed))
    base = base.copy()
    nodes = sorted({row[0] for row in base.relation("E")}, key=repr)
    base.ensure_relation("R")
    base.ensure_relation("Q")
    for node in nodes:
        base.add("R", node)
    for node in nodes[::2]:
        base.add("Q", node)
    steps = []
    for (r_add, r_del), (q_add, q_del) in zip(
        update_stream(base, relation="R", steps=3, seed=seed + 1),
        update_stream(base, relation="Q", steps=3, seed=seed + 2),
    ):
        steps.append((r_add + q_add, r_del + q_del))
    apply_steps_and_check(program, base, steps)


@given(
    seed=st.integers(0, 60),
    source=st.sampled_from(["a", "b", "n2", "n4"]),
)
@settings(max_examples=10, deadline=None)
def test_goal_tabled_and_full_agree_with_negation(oracle_output, seed, source):
    """tabled ≡ goal ≡ full: the stratified rewrite takes the goal pipeline."""
    program = parse_program(BLOCKED_REACHABILITY)
    instance = blocked_instance(seed, blocked_nodes=2)
    binding = {0: path(source)}
    query = ProgramQuery(program, {"E": 2, "Blocklist": 1}, "T", require_monadic=False)
    expected = oracle_output(query, instance, binding)
    full = query.run(instance.copy(), binding=binding, mode="full")
    assert full.output == expected
    goal = query.run(instance.copy(), binding=binding, mode="goal")
    assert goal.mode == "goal" and goal.fallback_reason is None
    assert goal.output == expected
    session = query.session(instance.copy())
    cold = session.run(binding=binding, mode="goal")
    warm = session.run(binding=binding, mode="goal")
    assert warm.served_by == "tabled"
    assert cold.output == expected
    assert warm.output == expected


@given(seed=st.integers(0, 40))
@settings(max_examples=8, deadline=None)
def test_tabled_negation_goals_survive_updates_through_the_negated_relation(oracle_output, seed):
    program = parse_program(BLOCKED_REACHABILITY)
    instance = blocked_instance(seed, blocked_nodes=2)
    query = ProgramQuery(
        program, {"E": 2, "Blocklist": 1}, "T", require_monadic=False
    )
    expected = instance.copy()
    session = query.session(instance)
    session.run(binding={0: path("a")}, mode="goal")
    retired = sorted(expected.relation("Blocklist"), key=repr)[0]
    session.update(
        additions=[Fact("Blocklist", (path("n2"),))],
        retractions=[Fact("Blocklist", retired)],
    )
    expected.discard_fact(Fact("Blocklist", retired))
    expected.add_fact(Fact("Blocklist", (path("n2"),)))
    for binding in ({0: path("a")}, {0: path("b")}):
        served = session.run(binding=binding, mode="goal")
        assert served.output == oracle_output(query, expected, binding)
