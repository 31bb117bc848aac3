"""Property-based agreement of snapshot-restored and from-scratch sessions.

:meth:`QuerySession.export_state` → JSON → :meth:`QuerySession.restore`
must reproduce a session that is *observably identical* to the reference
fixpoint (:mod:`repro.engine.reference`) of the same base, on update streams
that mix additions with retractions through a stratified-negation program.  And a restored session
is not a read-only museum piece: it must keep absorbing updates through
the normal maintenance path and stay in agreement afterwards.

The state document is round-tripped through ``json.dumps``/``loads`` in
every check, so exactly what a snapshot file stores is what is proven
equivalent.  Restores always target a *fresh* :class:`ProgramQuery` — no
cached rewritings or evaluators from the exporting session may be relied
on.  The crash sweep (``tests/io/test_crash_recovery.py``) covers *which*
prefix survives a failure; this module covers that restoring any given
prefix is exact.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.engine import ProgramQuery, QuerySession
from repro.model import path
from repro.parser import parse_program
from repro.workloads import as_edge_pairs, random_graph_instance, update_stream

#: Reachability avoiding blocked nodes — recursion over pairs with a
#: demanded IDB relation under negation, the hardest shape every layer
#: (maintenance, tabling) has to round-trip through a snapshot.
BLOCKED_REACHABILITY = """
Blocked(@x) :- Blocklist(@x).
T(@x, @y) :- E(@x, @y), not Blocked(@y).
T(@x, @z) :- T(@x, @y), E(@y, @z), not Blocked(@z).
"""


def build_query():
    return ProgramQuery(
        parse_program(BLOCKED_REACHABILITY),
        {"E": 2, "Blocklist": 1},
        "T",
        require_monadic=False,
    )


def blocked_instance(seed, *, blocked_nodes=3):
    instance = as_edge_pairs(random_graph_instance(nodes=8, edges=16, seed=seed))
    nodes = sorted({row[0] for row in instance.relation("E")}, key=repr)
    instance.ensure_relation("Blocklist")
    for node in nodes[:blocked_nodes]:
        instance.add("Blocklist", node)
    return instance


def mixed_stream(base, seed, *, steps=2):
    """Interleaved churn on both sides of the negation, with retractions."""
    interleaved = []
    for edge_step, blocked_step in zip(
        update_stream(
            base,
            relation="E",
            steps=steps,
            additions_per_step=2,
            retractions_per_step=1,
            seed=seed + 11,
        ),
        update_stream(
            base,
            relation="Blocklist",
            steps=steps,
            additions_per_step=1,
            retractions_per_step=1,
            seed=seed + 13,
        ),
    ):
        interleaved.append(edge_step)
        interleaved.append(blocked_step)
    return interleaved


def apply_to(instance, additions, retractions):
    for fact in retractions:
        instance.discard_fact(fact)
    for fact in additions:
        instance.add_fact(fact)


@given(seed=st.integers(0, 40))
@settings(max_examples=4, deadline=None)
def test_restore_agrees_across_strategy_and_execution(oracle_output, seed):
    """Snapshot mid-stream; the restored session must equal the oracle, then
    keep tracking it through the rest of the stream."""
    base = blocked_instance(seed)
    steps = mixed_stream(base, seed)
    split = len(steps) // 2
    query = build_query()
    session = query.session(base.copy())
    session.run()  # establish the maintained materialization
    current = base.copy()
    for additions, retractions in steps[:split]:
        session.update(additions, retractions)
        apply_to(current, additions, retractions)
    state = json.loads(json.dumps(session.export_state()))
    restored = QuerySession.restore(build_query(), state)
    try:
        expected = oracle_output(query, current)
        answered = restored.run()
        # Serving from the restored materialization, not a re-evaluation.
        assert answered.served_by == "maintained"
        assert answered.output == expected
        assert session.run().output == expected
        # The restored session keeps absorbing the remaining stream.
        for additions, retractions in steps[split:]:
            session.update(additions, retractions)
            restored.update(additions, retractions)
            apply_to(current, additions, retractions)
        final = oracle_output(query, current)
        assert restored.run().output == final
        assert session.run().output == final
    finally:
        session.close()
        restored.close()


@given(
    seed=st.integers(0, 40),
    source=st.sampled_from(["a", "b", "n2", "n4"]),
)
@settings(max_examples=8, deadline=None)
def test_tabled_goals_restore_and_keep_serving(oracle_output, seed, source):
    """A goal-only session's answer table survives the round-trip: the
    restored session serves the same binding from the table, and updates
    through the negated relation keep it correct afterwards."""
    base = blocked_instance(seed, blocked_nodes=2)
    query = build_query()
    session = query.session(base.copy())
    binding = {0: path(source)}
    cold = session.run(binding=binding, mode="goal")
    assert cold.fallback_reason is None
    assert cold.output == oracle_output(query, base, binding)
    state = json.loads(json.dumps(session.export_state()))
    assert state["table"], "the goal run must have seeded the answer table"
    restored = QuerySession.restore(build_query(), state)
    try:
        served = restored.run(binding=binding, mode="goal")
        assert served.served_by == "tabled"
        assert served.output == cold.output
        # Churn the negated relation on the restored session only.
        current = base.copy()
        steps = list(
            update_stream(
                base,
                relation="Blocklist",
                steps=2,
                additions_per_step=1,
                retractions_per_step=1,
                seed=seed + 7,
            )
        )
        for additions, retractions in steps:
            restored.update(additions, retractions)
            apply_to(current, additions, retractions)
        expected = oracle_output(query, current, binding)
        assert restored.run(binding=binding, mode="goal").output == expected
    finally:
        session.close()
        restored.close()


@given(seed=st.integers(0, 20))
@settings(max_examples=4, deadline=None)
def test_tampered_version_is_refused(seed):
    from repro.errors import SnapshotUnsupportedError

    base = blocked_instance(seed)
    query = build_query()
    session = query.session(base.copy())
    session.run()
    state = session.export_state()
    session.close()
    state["version"] = 99
    try:
        QuerySession.restore(build_query(), state)
    except SnapshotUnsupportedError as error:
        assert "snapshot_unsupported" in str(error)
    else:  # pragma: no cover - the guard must fire
        raise AssertionError("an unknown state version was accepted")
