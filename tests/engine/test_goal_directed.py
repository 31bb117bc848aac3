"""Tests for goal-directed query evaluation: modes, bindings, sessions, fallback."""

import pytest

from repro import Instance, ProgramQuery, parse_program
from repro.engine import EvaluationLimits, EvaluationStatistics, QueryResult, QuerySession
from repro.errors import EvaluationError
from repro.model import path, unary_instance
from repro.queries import get_query
from repro.workloads import as_edge_pairs, layered_graph_instance, random_graph_instance

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


class TestBindings:
    def test_full_mode_filters_output_by_binding(self):
        query = pair_query()
        result = query.run(line_instance(), binding={0: "a"})
        assert result.mode == "full"
        assert all(row[0] == path("a") for row in result.output.relation("T"))
        assert len(result.output.relation("T")) == 5

    def test_goal_mode_returns_identical_answers(self):
        query = pair_query()
        instance = as_edge_pairs(random_graph_instance(nodes=10, edges=25, seed=1))
        full = query.run(instance, binding={0: "a"})
        goal = query.run(instance, binding={0: "a"}, mode="goal")
        assert goal.mode == "goal" and goal.fallback_reason is None
        assert goal.output == full.output
        assert goal.statistics.extension_attempts < full.statistics.extension_attempts

    def test_constructor_mode_sets_the_default(self):
        query = pair_query(mode="goal")
        result = query.run(line_instance(), binding={0: "a"})
        assert result.mode == "goal"

    def test_binding_positions_are_validated(self):
        query = pair_query()
        with pytest.raises(EvaluationError):
            query.run(line_instance(), binding={2: "a"})
        with pytest.raises(EvaluationError):
            query.run(line_instance(), binding={"x": "a"})

    def test_unknown_mode_rejected(self):
        with pytest.raises(EvaluationError):
            pair_query(mode="sideways")
        with pytest.raises(EvaluationError):
            pair_query().run(line_instance(), mode="sideways")

    def test_unary_binding_acts_as_membership_test(self):
        query = get_query("only_as_equation").make_query()
        instance = unary_instance("R", ["aa", "ab", "a"])
        assert query.answer(instance, binding={0: path(*"aa")}) == {path(*"aa")}
        assert query.answer(instance, binding={0: path(*"ab")}) == frozenset()


class TestFallback:
    def test_negation_over_derived_relation_runs_goal_directed(self):
        # Stratified negation no longer falls back: the rewrite evaluates
        # the negated relation's support rules fully and demand-restricts
        # only the positive slice.
        query = get_query("black_neighbours").make_query()
        instance = random_graph_instance(nodes=6, edges=10, seed=3)
        instance.add("B", path("a"))
        result = query.run(instance, mode="goal")
        assert result.mode == "goal"
        assert result.fallback_reason is None
        assert result.output == query.run(instance).output

    def test_expanding_recursion_falls_back(self):
        query = get_query("only_as_air").make_query()
        instance = unary_instance("R", ["aa", "ab"])
        result = query.run(instance, mode="goal")
        assert result.mode == "full"
        assert "grow paths without bound" in result.fallback_reason
        assert result.paths() == query.answer(instance)

    def test_budget_breach_falls_back_to_full(self):
        query = pair_query()
        instance = line_instance()
        baseline = query.run(instance, binding={0: "a"})
        # The magic pipeline needs a couple of extra rounds (magic seeding and
        # the bridge copy); capping at the full-mode iteration count forces
        # the goal-directed run over budget.
        tight = pair_query(limits=EvaluationLimits(max_iterations=baseline.statistics.iterations))
        result = tight.run(instance, binding={0: "a"}, mode="goal")
        assert result.mode == "full"
        assert "exceeded the limits" in result.fallback_reason
        assert result.output == baseline.output

    def test_rewriting_failure_is_cached(self):
        query = get_query("only_as_air").make_query()
        compiled, reason = query.goal_program()
        assert compiled is None and "grow paths without bound" in reason
        again, reason_again = query.goal_program()
        assert again is None and reason_again == reason


class TestQuerySession:
    def test_session_reuses_compiled_plans(self):
        query = pair_query()
        instance = as_edge_pairs(random_graph_instance(nodes=10, edges=25, seed=5))
        session = query.session(instance)
        first = session.run(binding={0: "a"}, mode="goal")
        second = session.run(binding={0: "a"}, mode="goal")
        assert second.output == first.output
        # The second identical query reuses the evaluators: every plan it
        # needs is already compiled and still in the same cardinality regime.
        assert second.statistics.plans_compiled < first.statistics.plans_compiled

    def test_session_answers_match_one_shot_queries(self):
        query = pair_query()
        instance = as_edge_pairs(random_graph_instance(nodes=9, edges=18, seed=8))
        session = query.session(instance)
        for source in ("a", "b", "n2"):
            assert session.run(binding={0: source}, mode="goal").output == query.run(
                instance, binding={0: source}
            ).output

    def test_session_validates_instance_once(self):
        query = pair_query()
        bad = Instance()
        bad.add("Unknown", "a")
        with pytest.raises(EvaluationError):
            query.session(bad)

    def test_session_boolean_and_answer_helpers(self):
        query = get_query("reachability").make_query()
        instance = random_graph_instance(nodes=6, edges=12, seed=0, ensure_path=("a", "b"))
        session = QuerySession(query, instance)
        assert session.boolean() is True
        assert session.boolean(mode="goal") is True


class TestSelectiveReachability:
    """Single-source reachability on a layered DAG (``bench_magic_sets``'s workload).

    Full evaluation materialises the all-pairs closure and filters; goal
    mode derives only the slice the source demands.
    """

    GRAPH = dict(layers=10, width=10, edges_per_node=2, seed=2)

    def workload(self):
        return pair_query(), as_edge_pairs(layered_graph_instance(**self.GRAPH))

    def test_goal_mode_prunes_at_least_5x_with_identical_answers(self):
        query, instance = self.workload()
        full = query.run(instance, binding={0: "a"}, mode="full")
        goal = query.run(instance, binding={0: "a"}, mode="goal")
        assert goal.mode == "goal" and goal.fallback_reason is None
        assert goal.output == full.output
        assert goal.statistics.extension_attempts * 5 <= full.statistics.extension_attempts
        assert goal.statistics.facts_derived * 5 <= full.statistics.facts_derived

    def test_session_reuse_keeps_plans_compiled(self):
        query, instance = self.workload()
        session = query.session(instance)
        compiled, hits = [], []
        for source in ["a"] + [f"l1n{i}" for i in range(5)]:
            result = session.run(binding={0: source}, mode="goal")
            assert result.mode == "goal"
            compiled.append(result.statistics.plans_compiled)
            hits.append(result.statistics.plan_cache_hits)
        # After the first query the evaluators are warm: later queries replan
        # only on cardinality-regime changes and mostly hit the cache.
        assert sum(hits[1:]) > sum(compiled[1:])


class TestQueryResultPaths:
    def test_paths_defaults_to_the_output_relation(self):
        query = get_query("nfa_acceptance").make_query()
        from repro.workloads import random_nfa_instance

        instance = random_nfa_instance(seed=2, words=6, max_word_length=4)
        result = query.run(instance)
        # The full instance holds several relations; the result must default
        # to the query's output relation rather than an arbitrary one.
        assert result.paths() == result.paths("A")

    def test_handmade_result_with_single_relation_still_works(self):
        output = unary_instance("S", ["a"])
        result = QueryResult(output=output, full_instance=output, statistics=EvaluationStatistics())
        assert result.paths() == {path("a")}

    def test_handmade_result_with_several_relations_raises(self):
        output = unary_instance("S", ["a"])
        output.add("T", path("b"))
        result = QueryResult(output=output, full_instance=output, statistics=EvaluationStatistics())
        with pytest.raises(EvaluationError, match="several relations"):
            result.paths()
        assert result.paths("T") == {path("b")}
