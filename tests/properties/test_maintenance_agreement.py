"""Property-based agreement of maintained and from-scratch fixpoints.

The maintained materialization (:class:`repro.engine.MaintainedFixpoint`)
must stay extensionally identical to the reference fixpoint
(:mod:`repro.engine.reference`) of the program on the updated base instance —
for random positive programs and graph workloads, and through update streams
that mix additions with retractions.  This is the safety net under the
incremental-maintenance refactor, the analogue of
``test_fixpoint_agreement.py`` for the update path.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import EvaluationStatistics, MaintainedFixpoint, apply_delta
from repro.engine.reference import reference_fixpoint
from repro.io import instance_from_text
from repro.model import Fact
from repro.parser import parse_program
from repro.queries import get_query
from repro.workloads import (
    as_edge_pairs,
    random_graph_instance,
    random_positive_program,
    random_string_instance,
    update_stream,
)

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""


def apply_steps_and_check(program, base, steps):
    """Drive one maintained fixpoint through *steps*, checking every state.

    Returns, per step, ``(facts_retracted counted, facts the oracle lost)``.
    """
    maintained = MaintainedFixpoint.evaluate(program, base)
    current = base.copy()
    scratch = reference_fixpoint(program, current)
    assert maintained.materialized == scratch
    retracted = []
    for additions, retractions in steps:
        statistics = EvaluationStatistics()
        maintained.update(
            apply_delta(maintained.materialized, additions, retractions), statistics=statistics
        )
        for fact in retractions:
            current.discard_fact(fact)
        for fact in additions:
            current.add_fact(fact)
        before, scratch = scratch, reference_fixpoint(program, current)
        assert maintained.materialized == scratch
        retracted.append(
            (statistics.facts_retracted, len(set(before.facts()) - set(scratch.facts())))
        )
    return retracted


@given(
    program_seed=st.integers(0, 40),
    instance_seed=st.integers(0, 40),
    stream_seed=st.integers(0, 10),
)
@settings(max_examples=20, deadline=None)
def test_random_positive_programs_stay_in_sync(program_seed, instance_seed, stream_seed):
    program = random_positive_program(seed=program_seed)
    base = random_string_instance(paths=5, max_length=4, seed=instance_seed)
    steps = list(
        update_stream(
            base,
            relation="R",
            steps=3,
            additions_per_step=1,
            retractions_per_step=1,
            seed=stream_seed,
        )
    )
    apply_steps_and_check(program, base, steps)


@given(seed=st.integers(0, 60))
@settings(max_examples=12, deadline=None)
def test_reachability_streams_agree_across_all_variants(seed):
    program = parse_program(REACHABILITY_PAIRS)
    base = as_edge_pairs(random_graph_instance(nodes=8, edges=14, seed=seed))
    steps = list(
        update_stream(base, relation="E", steps=2, seed=seed + 1000)
    )
    apply_steps_and_check(program, base, steps)


@given(seed=st.integers(0, 60))
@settings(max_examples=10, deadline=None)
def test_retraction_only_streams_agree(seed):
    """Pure deletions: the delete–rederive half on its own."""
    program = parse_program(REACHABILITY_PAIRS)
    base = as_edge_pairs(random_graph_instance(nodes=8, edges=16, seed=seed))
    rows = sorted(base.relation("E"), key=repr)
    steps = [([], [Fact("E", row)]) for row in rows[:4]]
    apply_steps_and_check(program, base, steps)


@given(seed=st.integers(0, 60))
@settings(max_examples=10, deadline=None)
def test_unary_reachability_with_strata_stays_in_sync(seed):
    """The canonical unary reachability query (multiple IDB relations)."""
    program = get_query("reachability").program()
    base = random_graph_instance(nodes=7, edges=12, seed=seed)
    steps = list(update_stream(base, relation="R", steps=3, seed=seed + 7))
    apply_steps_and_check(program, base, steps)


@given(seed=st.integers(0, 40))
@settings(max_examples=10, deadline=None)
def test_session_answers_survive_update_streams(seed):
    """End-to-end: session updates + maintained serving ≡ one-shot queries."""
    from repro.engine import ProgramQuery

    program = parse_program(REACHABILITY_PAIRS)
    base = as_edge_pairs(random_graph_instance(nodes=8, edges=14, seed=seed))
    query = ProgramQuery(program, {"E": 2}, "T", require_monadic=False)
    session = query.session(base.copy())
    session.run()
    current = base.copy()
    for additions, retractions in update_stream(base, relation="E", steps=3, seed=seed):
        session.update(additions, retractions)
        for fact in retractions:
            current.discard_fact(fact)
        for fact in additions:
            current.add_fact(fact)
        served = session.run(binding={0: "a"})
        assert served.served_by == "maintained"
        assert served.output == query.run(current.copy(), binding={0: "a"}).output


# -- directed retraction cases ---------------------------------------------------------
#
# Shapes of delete–rederive the random generators above do not reach.  Each
# case is ``(program, base facts, update steps)``; a fact is written
# ``"E(a, b)"`` and parsed like an instance file.

DIRECTED_RETRACTIONS = {
    # The second rule's head literal is also its body literal: an over-deleted
    # T(a) must not count as its own support.
    "tautological rule": (
        """
        T(@x) :- R(@x).
        T(@x) :- T(@x).
        """,
        ["R(a)", "R(b)"],
        [([], ["R(a)"]), (["R(a)"], ["R(b)"])],
    ),
    # b and c lie on a cycle: once E(a, b) goes, T(a, b) and T(a, c) are each
    # other's only support, both over-deleted — neither may come back.
    "support only from an over-deleted fact on a cycle": (
        """
        T(@x, @y) :- E(@x, @y).
        T(@x, @z) :- T(@x, @y), E(@y, @z).
        """,
        ["E(a, b)", "E(b, c)", "E(c, b)", "E(d, a)"],
        [([], ["E(a, b)"])],
    ),
    # T(a, b) survives through T(a, c), E(c, b); T(a, d) is derivable only
    # from T(a, b), which is itself missing while rederivation is evaluated —
    # it has to come back through the propagation that follows.
    "support returns through a later rederivation": (
        """
        T(@x, @y) :- E(@x, @y).
        T(@x, @z) :- T(@x, @y), E(@y, @z).
        """,
        ["E(a, b)", "E(a, c)", "E(c, b)", "E(b, d)", "E(d, e)"],
        [([], ["E(a, b)"]), ([], ["E(c, b)"])],
    ),
    "constructing head": (
        """
        T(@x.@y) :- E(@x, @y).
        T(@x.@z) :- T(@x.@y), E(@y, @z).
        """,
        ["E(a, b)", "E(a, c)", "E(c, b)", "E(b, d)", "E(d, b)"],
        [([], ["E(a, b)"]), (["E(a, d)"], ["E(a, c)"])],
    ),
    "constant and repeated variable in an arity-3 head": (
        """
        P(@x, mark, @x) :- N(@x).
        P(@y, mark, @y) :- P(@x, mark, @x), E(@x, @y).
        """,
        ["N(n0)", "E(n0, n1)", "E(n1, n2)", "E(n0, n2)", "E(n2, n3)", "E(n3, n1)"],
        [([], ["E(n0, n1)"]), ([], ["E(n0, n2)"])],
    ),
    # The second rule holds an equation; since equations lower (PR 21) both
    # rules answer rederivation with an id-space join led by the head rows,
    # where the head's @z makes the equation bind $w.
    "equation beside a rule that lowers": (
        """
        T(@x, @y) :- E(@x, @y).
        T(@x, @z) :- T(@x, @y), E(@y, $w), $w = @z.
        """,
        ["E(a, b)", "E(a, c)", "E(c, b)", "E(b, d)", "E(d, b)"],
        [([], ["E(a, b)"]), ([], ["E(a, c)"])],
    ),
    # $x.$y does not destructure deterministically: the head leads the join
    # bound whole, and a binding equation tries every split of each fact;
    # S(a.b.c) keeps the support S(a), L(a, b.c) when S(a.b) goes.
    "two path variables in one head component": (
        """
        S($x) :- R($x).
        S($x.$y) :- S($x), L($x, $y).
        """,
        ["R(a)", "R(b)", "L(a, b)", "L(a.b, c)", "L(a, b.c)", "L(b, c)", "L(a.b.c, d)"],
        [([], ["L(a, b)"]), ([], ["L(a, b.c)"])],
    ),
    # Example 4.6's recursion: a destructuring step and a nonequality filter
    # under the head-led join.  U(a.b, a.b) is needed by two chains; the
    # equal pair of R(a.a) never peels.
    "nonequality filter in a recursive rule": (
        """
        U($x, $x) :- R($x).
        U($x, $y) :- U($x, @a.$y.@b), @a != @b.
        S($x) :- U($x, eps).
        """,
        ["R(a.b)", "R(a.a.b.b)", "R(a.a)", "R(b.a.b.a)"],
        [([], ["R(a.a.b.b)"]), (["R(a.b.a.b)"], ["R(a.b)"])],
    ),
    # A binding equation with a choice point in a recursive rule whose head
    # ($u.$v) leads the join through a second one: W(b.b.a.c) is an R-fact and also
    # b.a.b.a.c without its first a, so it survives the first step and
    # loses its other support in the second.
    "binding equation in a recursive rule": (
        """
        W($x) :- R($x).
        W($u.$v) :- W($x), $x = $u.a.$v.
        """,
        ["R(b.a.b.a.c)", "R(b.b.a.c)", "R(a.c)"],
        [([], ["R(b.b.a.c)"]), ([], ["R(b.a.b.a.c)"]), (["R(a.a)"], ["R(a.c)"])],
    ),
    # The head leads and binds $x; the equation then splits it into $u and
    # $v, and both T literals become membership tests.
    "binding equation under a head that leads": (
        """
        T($x) :- R($x).
        T($x) :- T($u), T($v), $x = $u.a.$v, L($x).
        """,
        ["R(b)", "R(c)", "L(b.a.c)", "L(c.a.b)", "L(b.a.c.a.b)", "L(c.a.b.a.c)"],
        [([], ["R(c)"]), (["R(c)"], ["L(b.a.c)"])],
    ),
    "retraction and addition of one relation in one batch": (
        """
        T(@x, @y) :- E(@x, @y).
        T(@x, @z) :- T(@x, @y), E(@y, @z).
        """,
        ["E(a, b)", "E(b, c)", "E(c, d)", "E(a, d)"],
        [(["E(a, c)", "E(d, e)"], ["E(a, b)", "E(c, d)"]), (["E(c, d)"], ["E(a, c)", "E(a, d)"])],
    ),
}


def _directed_case(name):
    def facts(texts):
        return list(instance_from_text("".join(f"{text}.\n" for text in texts)).facts())

    program_text, base, steps = DIRECTED_RETRACTIONS[name]
    return (
        parse_program(program_text),
        instance_from_text("".join(f"{text}.\n" for text in base)),
        [(facts(additions), facts(retractions)) for additions, retractions in steps],
    )


@pytest.mark.parametrize("name", DIRECTED_RETRACTIONS)
def test_directed_retractions_agree_in_every_execution(name):
    program, base, steps = _directed_case(name)
    retracted = apply_steps_and_check(program, base, steps)
    assert all(counted == lost for counted, lost in retracted)
    assert any(counted for counted, _ in retracted)  # every case retracts something
