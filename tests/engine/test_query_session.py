"""Tests for the serving behaviour of QuerySession.

Covers the maintained-materialization path (memoized full fixpoints,
incremental updates, a session owning a copy of its instance), the ``served_by``
bookkeeping, and the fallback contracts: ``fallback_reason`` on goal-mode
budget breaches and unsupported rewritings, maintenance fallbacks with
recorded reasons, and the plan-cache counters across repeated ``run()``
calls.
"""

from collections import Counter

import pytest

from repro.engine import (
    CompiledProgram,
    EvaluationLimits,
    EvaluationStatistics,
    ProgramQuery,
    QueryResult,
    QuerySession,
    evaluate_program,
)
from repro.engine.reference import reference_fixpoint
from repro.errors import EvaluationBudgetExceeded, EvaluationError, ModelError, SubgoalTableError
from repro.io.serialization import fact_from_json
from repro.model import Fact, Instance, path, unary_instance
from repro.parser import parse_program
from repro.queries import get_query
from repro.storage import Relation
from repro.workloads import as_edge_pairs, random_graph_instance

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""


def pair_query(**overrides):
    options = dict(require_monadic=False)
    options.update(overrides)
    return ProgramQuery(parse_program(REACHABILITY_PAIRS), {"E": 2}, "T", **options)


def line_instance(length=6):
    instance = Instance()
    nodes = ["a"] + [f"n{i}" for i in range(1, length)]
    for source, target in zip(nodes, nodes[1:]):
        instance.add("E", source, target)
    return instance


def edge(source, target):
    return Fact("E", (path(source), path(target)))


class TestServedBy:
    def test_first_full_run_is_full_then_maintained(self):
        session = pair_query().session(line_instance())
        first = session.run(binding={0: "a"})
        assert first.served_by == "full" and first.mode == "full"
        second = session.run(binding={0: "n1"})
        assert second.served_by == "maintained"
        # Binding-only change: zero evaluation work was done.
        assert second.statistics.rule_applications == 0
        assert second.output == pair_query().run(line_instance(), binding={0: "n1"}).output

    def test_goal_mode_served_from_memo_after_a_full_run(self):
        session = pair_query().session(line_instance())
        session.run()  # materializes the full fixpoint
        result = session.run(binding={0: "a"}, mode="goal")
        # Regression: the warm-materialization serve used to drop the goal
        # request's identity and report mode="full".
        assert result.served_by == "maintained" and result.mode == "goal"
        assert result.fallback_reason is None
        assert result.output == pair_query().run(line_instance(), binding={0: "a"}).output

    def test_goal_mode_served_from_memo_threads_the_compile_reason(self):
        # The rewriting for this query is statically refused; a goal request
        # served from the warm materialization must still surface why a cold
        # goal run would have fallen back.
        query = get_query("only_as_air").make_query()
        instance = unary_instance("R", ["aa", "ab"])
        session = query.session(instance)
        session.run()  # materializes the full fixpoint
        result = session.run(mode="goal")
        assert result.served_by == "maintained" and result.mode == "goal"
        assert "grow paths without bound" in result.fallback_reason

    def test_goal_mode_with_stratified_negation_runs_goal_directed(self):
        # Negation over a demanded IDB relation used to be the canonical
        # fallback; the stratified rewrite now keeps it on the goal pipeline.
        query = get_query("black_neighbours").make_query()
        instance = random_graph_instance(nodes=6, edges=10, seed=3)
        instance.add("B", path("a"))
        session = query.session(instance)
        result = session.run(mode="goal")
        assert result.mode == "goal" and result.fallback_reason is None
        assert result.served_by == "goal"
        assert result.output == query.run(instance.copy()).output

    def test_goal_only_sessions_keep_the_goal_pipeline(self):
        session = pair_query().session(line_instance())
        result = session.run(binding={0: "a"}, mode="goal")
        assert result.served_by == "goal" and result.mode == "goal"

    def test_repeated_goal_is_served_from_the_table(self):
        session = pair_query().session(line_instance())
        first = session.run(binding={0: "a"}, mode="goal")
        assert first.served_by == "goal"
        second = session.run(binding={0: "a"}, mode="goal")
        assert second.served_by == "tabled" and second.mode == "goal"
        assert second.statistics.subgoal_table_hits == 1
        assert second.statistics.extension_attempts == 0
        assert second.output == first.output

    def test_one_shot_queries_are_unaffected(self):
        result = pair_query().run(line_instance(), binding={0: "a"})
        assert result.served_by == "full"


def test_an_instance_contradicting_the_schema_arities_is_refused():
    with pytest.raises(EvaluationError, match="arity 1"):
        pair_query().session(Instance({"E": [("a",)]}))
    # An empty relation has no arity to contradict.
    empty = Instance()
    empty.ensure_relation("E")
    assert pair_query().session(empty).run().paths() == frozenset()


class TestSessionUpdate:
    def test_update_maintains_and_serves_incrementally(self):
        instance = line_instance()
        expected = instance.copy()
        session = pair_query().session(instance)
        session.run()
        update = session.update(additions=[edge("n2", "a")], retractions=[edge("a", "n1")])
        expected.discard_fact(edge("a", "n1"))
        expected.add_fact(edge("n2", "a"))
        assert update.maintained and update.fallback_reason is None
        assert update.added == {edge("n2", "a")}
        assert update.removed == {edge("a", "n1")}
        result = session.run(binding={0: "a"})
        assert result.served_by == "maintained"
        assert result.output == pair_query().run(expected, binding={0: "a"}).output

    def test_update_before_any_run_is_not_maintained(self):
        session = pair_query().session(line_instance())
        update = session.update(additions=[edge("n2", "a")])
        assert not update.maintained and update.fallback_reason is None
        assert session.run(binding={0: "a"}).served_by == "full"

    def test_update_outside_schema_is_rejected(self):
        session = pair_query().session(line_instance())
        with pytest.raises(EvaluationError, match="outside"):
            session.update(additions=[Fact("Unknown", [path("a")])])

    def test_an_addition_contradicting_the_schema_arity_is_rejected(self):
        # Even into a relation with no rows left to contradict: a session
        # holding it could not be restored from its exported state.
        session = pair_query().session(line_instance(2))
        session.update(retractions=[edge("a", "n1")])
        with pytest.raises(EvaluationError, match="outside the input schema"):
            session.update(additions=[Fact("E", (path("a"),))])
        assert session.instance.relation("E") == frozenset()
        restored = QuerySession.restore(pair_query(), session.export_state())
        assert restored.run().output.relation("T") == frozenset()

    def test_a_packed_addition_is_refused_and_the_state_still_restores(self):
        session = pair_query().session(line_instance(3))
        session.run()
        exported = session.export_state()
        with pytest.raises(ModelError, match="flat instances"):
            session.update(additions=[edge("n2", "c"), fact_from_json(["E", "b", "<c>"])])
        assert session.export_state() == exported
        restored = QuerySession.restore(pair_query(), session.export_state())
        assert restored.run().output == session.run().output

    def test_retractions_outside_schema_are_rejected_before_applying(self):
        instance = line_instance()
        session = pair_query().session(instance)
        session.run()
        snapshot = instance.copy()
        with pytest.raises(EvaluationError, match="outside"):
            # Retracting the output relation is a caller error, and must not
            # mutate the pinned instance or drop the materialization.
            session.update(retractions=[Fact("T", (path("a"), path("n1")))])
        assert instance == snapshot
        assert session.run(binding={0: "a"}).served_by == "maintained"

    def test_update_through_negated_relation_is_maintained(self):
        # Retracting from the relation read under negation used to be the
        # canonical maintenance fallback; signed deltas now cover it.
        query = get_query("black_neighbours").make_query()
        instance = random_graph_instance(nodes=6, edges=10, seed=3)
        instance.add("B", path("a"))
        expected = instance.copy()
        session = query.session(instance)
        baseline = session.run()
        assert baseline.served_by == "full"
        update = session.update(retractions=[Fact("B", [path("a")])])
        expected.discard_fact(Fact("B", [path("a")]))
        assert update.maintained and update.fallback_reason is None
        assert session.last_maintenance_fallback is None
        result = session.run()
        assert result.served_by == "maintained"
        assert result.output == query.run(expected).output

    def test_maintenance_covers_both_sides_of_a_negation(self):
        # set_difference negates Q: updates to R and to Q both maintain, in
        # either direction, and keep agreeing with a scratch run.
        query = get_query("set_difference").make_query()
        instance = Instance({"R": ["a", "b"], "Q": ["b"]})
        expected = instance.copy()
        session = query.session(instance)
        session.run()
        update = session.update(additions=[Fact("Q", [path("a")])])
        expected.add_fact(Fact("Q", [path("a")]))
        assert update.maintained and path("a") not in session.run().paths()
        update = session.update(additions=[Fact("R", [path("c")])])
        expected.add_fact(Fact("R", [path("c")]))
        assert update.maintained
        update = session.update(retractions=[Fact("Q", [path("b")])])
        expected.discard_fact(Fact("Q", [path("b")]))
        assert update.maintained and path("b") in session.run().paths()
        result = session.run()
        assert result.served_by == "maintained"
        assert result.paths() == query.run(expected).paths()


BLOCKED_PAIRS = """
T(@x, @y) :- E(@x, @y), not B(@y).
T(@x, @z) :- T(@x, @y), E(@y, @z), not B(@z).
"""


def blocked_query():
    program = parse_program(BLOCKED_PAIRS)
    return ProgramQuery(program, {"E": 2, "B": 1}, "T", require_monadic=False)


def blocked_instance():
    instance = line_instance()
    instance.add("E", "n3", "n1")
    instance.add("B", "n4")
    return instance


def goal_session(query, instance):
    """A goal-only session holding two table entries."""
    session = query.session(instance)
    for source in ("a", "n2"):
        assert session.run(binding={0: source}, mode="goal").served_by == "goal"
    assert len(list(session._tables)) == 2
    return session


class TestSharedBaseRelations:
    """Every fixpoint of a session reads the session's base relations in place."""

    def test_every_table_entry_reads_the_base_relations(self):
        session = goal_session(blocked_query(), blocked_instance())
        for entry in session._tables:
            for name in ("E", "B"):
                assert entry.answers.storage(name) is session.instance.storage(name)

    def test_a_fresh_and_a_restored_materialization_read_the_base_relations(self):
        query = blocked_query()
        session = query.session(blocked_instance())
        session.run()
        restored = QuerySession.restore(query, session.export_state())
        for served in (session, restored):
            for name in ("E", "B"):
                assert served.materialized.storage(name) is served.instance.storage(name)
        assert restored.materialized == session.materialized

    def test_an_update_changes_each_touched_base_relation_once(self, monkeypatch):
        query = blocked_query()
        session = goal_session(query, blocked_instance())
        watched = {
            id(holder.storage(name)): name
            for holder in (session.instance, *(entry.answers for entry in session._tables))
            for name in ("E", "B")
        }
        calls = Counter()
        for method in ("add", "discard", "add_rows", "discard_rows"):

            def spy(relation, *args, _original=getattr(Relation, method), _method=method):
                if id(relation) in watched:
                    calls[watched[id(relation)], _method] += 1
                return _original(relation, *args)

            monkeypatch.setattr(Relation, method, spy)
        session.update(
            additions=[edge("n4", "a"), Fact("B", [path("n2")])], retractions=[edge("a", "n1")]
        )
        assert calls == {("E", "add_rows"): 1, ("E", "discard_rows"): 1, ("B", "add_rows"): 1}
        expected = blocked_instance()
        expected.add("E", "n4", "a")
        expected.add("B", "n2")
        expected.discard_fact(edge("a", "n1"))
        for source in ("a", "n2"):
            result = session.run(binding={0: source}, mode="goal")
            assert result.served_by == "tabled"
            assert result.output == query.run(expected, binding={0: source}).output


def mutate(instance, kind):
    """Change *instance* in place behind any session opened over it."""
    if kind == "add":
        instance.add("E", path("n2"), path("a"))
    elif kind == "retract":
        instance.discard_fact(edge("a", "n1"))
    elif kind == "rewrite":
        instance.storage("E").set_rows(set(instance.relation("E")) | {(path("n2"), path("a"))})
    elif kind == "drop_relation":
        for fact in list(instance.facts()):
            instance.discard_fact(fact)  # the last one takes "E" away
    elif kind == "new_relation":
        instance.ensure_relation("F")
    else:  # no net change
        instance.add("E", path("n2"), path("a"))
        instance.discard_fact(edge("n2", "a"))


class TestSessionOwnsItsInstance:
    """A session pins a copy of the instance it is given; only ``update``
    changes what it answers."""

    @pytest.mark.parametrize(
        "kind", ["add", "retract", "rewrite", "drop_relation", "new_relation", "no_net"]
    )
    @pytest.mark.parametrize("mode", ["full", "goal"])
    def test_mutating_the_given_instance_leaves_the_session_serving(
        self, oracle_output, mode, kind
    ):
        query = pair_query()
        instance = line_instance(3)
        original = instance.copy()
        session = query.session(instance)
        session.run(binding={0: "a"}, mode=mode)
        mutate(instance, kind)
        result = session.run(binding={0: "a"}, mode=mode)
        assert result.served_by == ("maintained" if mode == "full" else "tabled")
        assert result.output == oracle_output(query, original, {0: "a"})
        assert session.instance == original
        assert session.last_maintenance_fallback is None

    def test_an_update_leaves_the_given_instance_alone(self):
        instance = line_instance(3)
        original = instance.copy()
        session = pair_query().session(instance)
        session.run()
        update = session.update(additions=[edge("n2", "a")], retractions=[edge("a", "n1")])
        assert update.maintained
        assert instance == original


class TestGoalFallbackContract:
    def test_unsupported_rewriting_records_reason(self):
        query = get_query("only_as_air").make_query()
        instance = unary_instance("R", ["aa", "ab"])
        session = query.session(instance)
        result = session.run(mode="goal")
        assert result.mode == "full"
        assert "grow paths without bound" in result.fallback_reason

    def test_budget_breach_records_reason(self):
        baseline = pair_query().run(line_instance(), binding={0: "a"})
        tight = pair_query(
            limits=EvaluationLimits(max_iterations=baseline.statistics.iterations)
        )
        session = tight.session(line_instance())
        result = session.run(binding={0: "a"}, mode="goal")
        assert result.mode == "full"
        assert "exceeded the limits" in result.fallback_reason
        assert result.output == baseline.output

    def test_fallback_reason_is_none_on_clean_goal_runs(self):
        instance = as_edge_pairs(random_graph_instance(nodes=8, edges=16, seed=2))
        session = pair_query().session(instance)
        result = session.run(binding={0: "a"}, mode="goal")
        assert result.mode == "goal" and result.fallback_reason is None


class TestPlanCacheCounters:
    def test_distinct_goal_runs_hit_the_plan_cache(self):
        # Distinct bindings cannot be served from the subgoal table, so the
        # second run evaluates its magic program — with warm compiled plans.
        instance = as_edge_pairs(random_graph_instance(nodes=10, edges=25, seed=5))
        session = pair_query().session(instance)
        first = session.run(binding={0: "a"}, mode="goal")
        second = session.run(binding={0: "b"}, mode="goal")
        assert second.served_by == "goal"
        assert second.statistics.plans_compiled < first.statistics.plans_compiled
        assert second.statistics.plan_cache_hits > 0

    def test_tabled_serving_does_no_planning(self):
        instance = as_edge_pairs(random_graph_instance(nodes=10, edges=25, seed=5))
        session = pair_query().session(instance)
        session.run(binding={0: "a"}, mode="goal")
        repeat = session.run(binding={0: "a"}, mode="goal")
        assert repeat.served_by == "tabled"
        assert repeat.statistics.plans_compiled == 0
        assert repeat.statistics.extension_attempts == 0

    def test_maintained_serving_does_no_planning(self):
        session = pair_query().session(line_instance())
        session.run()
        result = session.run(binding={0: "a"})
        assert result.served_by == "maintained"
        assert result.statistics.plans_compiled == 0
        assert result.statistics.extension_attempts == 0

    def test_updates_reuse_compiled_plans(self):
        instance = as_edge_pairs(random_graph_instance(nodes=10, edges=25, seed=5))
        session = pair_query().session(instance)
        session.run()
        session.update(additions=[edge("a", "n9")])
        update = session.update(additions=[edge("n9", "n2")])
        assert update.maintained
        assert update.statistics.plan_cache_hits >= update.statistics.plans_compiled


class TestCompiledProgramSharing:
    """A query lowers each program it evaluates once; its sessions share the plans."""

    def test_a_second_session_reuses_the_first_sessions_plans(self):
        query = pair_query()
        instance = line_instance()
        first = query.session(instance).run()
        assert first.statistics.plans_compiled > 0
        second = query.session(instance).run()
        assert second.served_by == "full"
        assert second.statistics.plans_compiled == 0
        assert second.output == first.output

    def test_sessions_share_the_goal_programs_plans_too(self):
        query = pair_query()
        instance = line_instance()
        query.session(instance).run(binding={0: "a"}, mode="goal")
        second = query.session(instance).run(binding={0: "a"}, mode="goal")
        assert second.served_by == "goal"
        assert second.statistics.plans_compiled == 0

    def test_one_compiled_program_serves_any_limits(self):
        """No limits live in a compiled program: each evaluation brings its own."""
        program = parse_program(REACHABILITY_PAIRS)
        compiled = CompiledProgram(program)
        instance = line_instance()
        with pytest.raises(EvaluationBudgetExceeded):
            evaluate_program(program, instance, EvaluationLimits(max_iterations=2), compiled=compiled)
        assert evaluate_program(program, instance, compiled=compiled) == reference_fixpoint(
            program, instance
        )

    def test_a_compiled_program_of_another_program_is_refused(self):
        compiled = CompiledProgram(parse_program(REACHABILITY_PAIRS))
        with pytest.raises(EvaluationError, match="different program"):
            evaluate_program(parse_program(REACHABILITY_PAIRS), line_instance(), compiled=compiled)


class TestPathsAmbiguityMessage:
    def test_candidates_are_listed_in_the_error(self):
        output = unary_instance("S", ["a"])
        output.add("T", path("b"))
        output.add("U", path("c"))
        result = QueryResult(
            output=output, full_instance=output, statistics=EvaluationStatistics()
        )
        with pytest.raises(EvaluationError, match="several relations") as excinfo:
            result.paths()
        message = str(excinfo.value)
        assert "'S'" in message and "'T'" in message and "'U'" in message
        assert "relation=" in message


def test_table_capacity_is_threaded_through():
    session = pair_query().session(line_instance(), table_capacity=2)
    assert session.table_capacity == 2
    assert session._tables.max_entries == 2
    # the LRU bound is enforced: a third distinct goal evicts the coldest
    for source in ("a", "n1", "n2"):
        session.run(binding={0: source}, mode="goal")
    assert len(session._tables) <= 2
    with pytest.raises(SubgoalTableError):
        pair_query().session(line_instance(), table_capacity=0)


class TestSessionClose:
    def test_close_is_idempotent(self):
        session = pair_query().session(line_instance())
        session.run()
        session.close()
        session.close()  # double close must be a no-op
        # A closed session still answers from its materialization.
        assert session.run(binding={0: "a"}).served_by == "maintained"
