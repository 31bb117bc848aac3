"""Tests for the serving behaviour of QuerySession.

Covers the maintained-materialization path (memoized full fixpoints,
incremental updates, out-of-band mutations dropping the memo), the ``served_by``
bookkeeping, and the fallback contracts: ``fallback_reason`` on goal-mode
budget breaches and unsupported rewritings, maintenance fallbacks with
recorded reasons, and the plan-cache counters across repeated ``run()``
calls.
"""

import pytest

from repro.engine import (
    CompiledProgram,
    EvaluationLimits,
    EvaluationStatistics,
    ProgramQuery,
    QueryResult,
    evaluate_program,
)
from repro.engine.reasons import OUT_OF_BAND_MUTATION, reason_code
from repro.engine.reference import reference_fixpoint
from repro.errors import EvaluationBudgetExceeded, EvaluationError, SubgoalTableError
from repro.model import Fact, Instance, path, unary_instance
from repro.parser import parse_program
from repro.queries import get_query
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


class TestSessionUpdate:
    def test_update_maintains_and_serves_incrementally(self):
        instance = line_instance()
        session = pair_query().session(instance)
        session.run()
        update = session.update(additions=[edge("n2", "a")], retractions=[edge("a", "n1")])
        assert update.maintained and update.fallback_reason is None
        assert update.added == {edge("n2", "a")}
        assert update.removed == {edge("a", "n1")}
        result = session.run(binding={0: "a"})
        assert result.served_by == "maintained"
        assert result.output == pair_query().run(instance.copy(), binding={0: "a"}).output

    def test_update_before_any_run_is_not_maintained(self):
        session = pair_query().session(line_instance())
        update = session.update(additions=[edge("n2", "a")])
        assert not update.maintained and update.fallback_reason is None
        assert session.run(binding={0: "a"}).served_by == "full"

    def test_update_outside_schema_is_rejected(self):
        session = pair_query().session(line_instance())
        with pytest.raises(EvaluationError, match="outside"):
            session.update(additions=[Fact("Unknown", [path("a")])])

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
        session = query.session(instance)
        baseline = session.run()
        assert baseline.served_by == "full"
        update = session.update(retractions=[Fact("B", [path("a")])])
        assert update.maintained and update.fallback_reason is None
        assert session.last_maintenance_fallback is None
        result = session.run()
        assert result.served_by == "maintained"
        assert result.output == query.run(instance.copy()).output

    def test_maintenance_covers_both_sides_of_a_negation(self):
        # set_difference negates Q: updates to R and to Q both maintain, in
        # either direction, and keep agreeing with a scratch run.
        query = get_query("set_difference").make_query()
        instance = Instance({"R": ["a", "b"], "Q": ["b"]})
        session = query.session(instance)
        session.run()
        update = session.update(additions=[Fact("Q", [path("a")])])
        assert update.maintained and path("a") not in session.run().paths()
        update = session.update(additions=[Fact("R", [path("c")])])
        assert update.maintained
        update = session.update(retractions=[Fact("Q", [path("b")])])
        assert update.maintained and path("b") in session.run().paths()
        result = session.run()
        assert result.served_by == "maintained"
        assert result.paths() == query.run(instance.copy()).paths()


class TestOutOfBandMutations:
    """A mutation of the pinned instance that bypasses ``update`` drops what
    the session memoized; the next answer is a scratch evaluation."""

    def test_a_mutation_drops_the_materialization(self, oracle_output):
        query = pair_query()
        instance = line_instance()
        session = query.session(instance)
        session.run()
        instance.add("E", path("n2"), path("a"))  # bypasses session.update
        result = session.run(binding={0: "n2"})
        assert result.served_by == "full"
        assert reason_code(session.last_maintenance_fallback) == OUT_OF_BAND_MUTATION
        assert result.output == oracle_output(query, instance, {0: "n2"})
        assert session.run(binding={0: "n2"}).served_by == "maintained"

    def test_an_update_after_drift_is_unmaintained(self, oracle_output):
        # An out-of-band mutation followed by session.update must not be
        # buried under the basis the update records: the update reports
        # that nothing was maintained, and why.
        query = pair_query()
        instance = line_instance()
        session = query.session(instance)
        session.run()
        instance.add("E", path("n3"), path("a"))  # out-of-band
        update = session.update(additions=[edge("n4", "n1")])  # in-band
        assert not update.maintained
        assert reason_code(update.fallback_reason) == OUT_OF_BAND_MUTATION
        assert update.fallback_reason == session.last_maintenance_fallback
        assert update.added == {edge("n4", "n1")}
        result = session.run(binding={0: "n3"})
        assert result.served_by == "full"
        assert result.output == oracle_output(query, instance, {0: "n3"})
        follow_up = session.update(retractions=[edge("n4", "n1")])
        assert follow_up.maintained and follow_up.fallback_reason is None

    def test_wholesale_rewrite_forces_reevaluation(self, oracle_output):
        query = pair_query()
        instance = line_instance()
        session = query.session(instance)
        session.run()
        rows = set(instance.relation("E"))
        rows.add((path("n2"), path("a")))
        instance.storage("E").set_rows(rows)
        result = session.run(binding={0: "a"})
        assert result.served_by == "full"
        assert reason_code(session.last_maintenance_fallback) == OUT_OF_BAND_MUTATION
        assert result.output == oracle_output(query, instance, {0: "a"})

    @pytest.mark.parametrize("mutation", ["retract", "drop_relation", "new_relation", "no_net"])
    def test_every_kind_of_drift_is_caught(self, oracle_output, mutation):
        query = pair_query()
        instance = line_instance(3)
        session = query.session(instance)
        session.run()
        if mutation == "retract":
            instance.discard_fact(edge("a", "n1"))
        elif mutation == "drop_relation":
            for fact in list(instance.facts()):
                instance.discard_fact(fact)  # the last one takes "E" away
        elif mutation == "new_relation":
            instance.ensure_relation("F")
        else:
            instance.add("E", path("n2"), path("a"))
            instance.discard_fact(edge("n2", "a"))
        result = session.run()
        assert result.served_by == "full"
        assert reason_code(session.last_maintenance_fallback) == OUT_OF_BAND_MUTATION
        assert result.output == oracle_output(query, instance)


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
