"""Tests for rule evaluation, stratified fixpoints, and queries (Section 2.3)."""

import pytest

from repro.engine import (
    CompiledProgram,
    EvaluationLimits,
    ProgramQuery,
    evaluate_program,
    evaluate_rule,
    evaluate_stratum,
)
from repro.engine.reference import reference_fixpoint
from repro.errors import EvaluationBudgetExceeded, EvaluationError, ModelError
from repro.model import Fact, Instance, graph_instance, pack, path, unary_instance
from repro.parser import parse_program, parse_rule
from repro.syntax.rules import plan_body_order


class TestRuleEvaluation:
    def test_single_rule_derivation(self):
        rule = parse_rule("S($x.$x) :- R($x).")
        derived = evaluate_rule(rule, unary_instance("R", ["ab"]))
        assert derived == {Fact("S", [path("a", "b", "a", "b")])}

    def test_equation_binds_variables(self):
        rule = parse_rule("S($y) :- R($x), $x = a.$y.")
        derived = evaluate_rule(rule, unary_instance("R", ["ab", "ba"]))
        assert derived == {Fact("S", [path("b")])}

    def test_negated_predicates_filter(self):
        rule = parse_rule("S($x) :- R($x), not Q($x).")
        instance = unary_instance("R", ["a", "b"])
        instance.add("Q", path("a"))
        derived = evaluate_rule(rule, instance)
        assert derived == {Fact("S", [path("b")])}

    def test_all_nonequalities_are_checked(self):
        """Regression test: each nonequality literal must be checked independently."""
        rule = parse_rule("A :- T($x), T($y), T($z), $x != $y, $x != $z, $y != $z.")
        two = unary_instance("T", ["a", "b"])
        three = unary_instance("T", ["a", "b", "c"])
        assert evaluate_rule(rule, two) == set()
        assert evaluate_rule(rule, three) == {Fact("A", [])}

    def test_body_order_places_negations_last(self):
        rule = parse_rule("S($x) :- not Q($x), R($x), a.$x = $x.a.")
        ordered = plan_body_order(rule)
        assert ordered[0].is_predicate() and ordered[0].positive
        assert ordered[-1].negative

    def test_path_length_limit_enforced(self):
        rule = parse_rule("S($x.$x.$x.$x) :- R($x).")
        limits = EvaluationLimits(max_path_length=5)
        with pytest.raises(EvaluationBudgetExceeded):
            evaluate_rule(rule, unary_instance("R", ["abc"]), limits)


class TestFixpoint:
    def test_transitive_closure_terminates(self):
        program = parse_program("T(@x.@y) :- R(@x.@y).\nT(@x.@z) :- T(@x.@y), R(@y.@z).")
        instance = Instance()
        for edge in [("a", "c"), ("c", "d"), ("d", "b")]:
            instance.add("R", path(*edge))
        result = evaluate_program(program, instance)
        assert result.contains("T", path("a", "b"))
        assert not result.contains("T", path("b", "a"))

    def test_nonterminating_program_hits_budget(self):
        program = parse_program("T(a).\nT(a.$x) :- T($x).")
        with pytest.raises(EvaluationBudgetExceeded):
            evaluate_program(program, Instance(), EvaluationLimits(max_iterations=30))

    def test_naive_and_seminaive_agree(self):
        program = parse_program(
            "T($x, eps) :- R($x).\nT($x, $y.@u) :- T($x.@u, $y).\nS($x) :- T(eps, $x)."
        )
        instance = unary_instance("R", ["abc", "ab", ""])
        naive = reference_fixpoint(program, instance)
        seminaive = evaluate_program(program, instance)
        assert naive == seminaive

    def test_strata_applied_in_order(self):
        program = parse_program("W($x) :- R($x), not B($x).\nS($x) :- R($x), not W($x).")
        instance = unary_instance("R", ["a", "b"])
        instance.add("B", path("a"))
        result = evaluate_program(program, instance)
        assert result.paths("S") == frozenset({path("a")})

    def test_idb_relations_present_even_when_empty(self):
        program = parse_program("S($x) :- R($x), not R($x).")
        result = evaluate_program(program, unary_instance("R", ["a"]))
        assert "S" in result.relation_names
        assert result.paths("S") == frozenset()


class TestProgramQuery:
    def test_answers_and_statistics(self):
        query = ProgramQuery(parse_program("S($x) :- R($x), a.$x = $x.a."), {"R": 1}, "S")
        result = query.run(unary_instance("R", ["aa", "ab", ""]))
        assert result.paths() == frozenset({path("a", "a"), path()})
        assert result.statistics.iterations >= 1

    def test_rejects_non_flat_input(self):
        query = ProgramQuery(parse_program("S($x) :- R($x)."), {"R": 1}, "S")
        bad = Instance()
        bad.add("R", path(pack("a")))
        with pytest.raises(ModelError):
            query.run(bad)

    def test_rejects_instances_outside_schema(self):
        query = ProgramQuery(parse_program("S($x) :- R($x)."), {"R": 1}, "S")
        bad = unary_instance("Q", ["a"])
        with pytest.raises(EvaluationError):
            query.run(bad)

    def test_rejects_program_not_over_schema(self):
        with pytest.raises(EvaluationError):
            ProgramQuery(parse_program("S($x) :- R($x)."), {"R": 1, "S": 1}, "S")

    def test_boolean_queries(self):
        query = ProgramQuery(parse_program("A :- R(a.$x)."), {"R": 1}, "A")
        assert query.boolean(unary_instance("R", ["ab"]))
        assert not query.boolean(unary_instance("R", ["ba"]))


class TestResidentFixpoint:
    """The fixpoint loop stays in id space; what callers can observe around
    that loop is what the valuation-level reference shows."""

    EXAMPLE_23 = "T(a).\nT(a.$x) :- T($x)."
    CLOSURE = "T(@x.@y) :- R(@x.@y).\nT(@x.@z) :- T(@x.@y), R(@y.@z)."
    EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]

    def test_the_default_lowers_these_programs(self):
        for text in (self.EXAMPLE_23, self.CLOSURE):
            for stratum in CompiledProgram(parse_program(text)).strata:
                assert all(plan.lowering_refusal is None for plan in stratum.rules)
                assert all(plan.head_step for plan in stratum.rules)

    @pytest.mark.parametrize(
        "limits",
        [
            EvaluationLimits(max_iterations=30),
            EvaluationLimits(max_path_length=12),
            EvaluationLimits(max_facts=20),
        ],
        ids=["max_iterations", "max_path_length", "max_facts"],
    )
    def test_example_23_is_cut_off_as_under_indexed(self, limits):
        program = parse_program(self.EXAMPLE_23)
        with pytest.raises(EvaluationBudgetExceeded) as default:
            evaluate_program(program, Instance(), limits)
        with pytest.raises(EvaluationBudgetExceeded) as reference:
            reference_fixpoint(program, Instance(), limits)
        assert default.value.limit_name == reference.value.limit_name
        assert str(default.value) == str(reference.value)

    def test_a_watched_relation_logs_the_rows_the_fixpoint_added(self):
        current = graph_instance("R", self.EDGES)
        current.ensure_relation("T")
        table = current.term_table()
        storage = current.storage("T")
        storage.columnar(table)
        evaluate_stratum(parse_program(self.CLOSURE).strata[0], current, copy=False)
        assert len(current.relation("T")) == 16
        assert storage._pending == {}  # every batch advanced the view itself
        view = storage.columnar(table)
        assert view.id_row_set == {table.intern_row(row) for row in current.relation("T")}

    def test_a_batch_of_the_wrong_arity_is_refused_like_a_fact(self):
        instance = Instance({"R": [("a", "b")]})
        with pytest.raises(ModelError) as single:
            instance.add_fact(Fact("R", [path("c")]))
        with pytest.raises(ModelError) as batch:
            instance.add_rows("R", {(path("c"),)})
        assert str(batch.value) == str(single.value)
        assert instance.relation("R") == {(path("a"), path("b"))}

    def test_a_run_leaves_nothing_on_the_input_instance(self):
        instance = graph_instance("R", self.EDGES)
        query = ProgramQuery(parse_program(self.CLOSURE), {"R": 1}, "T")
        assert len(query.run(instance).paths()) == 16
        assert instance._terms is None
        for name in instance.relation_names:
            storage = instance.storage(name)
            assert storage._columnar is None
            assert storage._pending is None  # nor a pending delta for one
