"""Tests for the static body order and the bound-aware greedy join planner."""

import pytest

from repro.engine import evaluate_rule, plan_body_order, plan_literal_sequence
from repro.engine.reasons import LOWERING_UNSAFE_NEGATION
from repro.errors import UnsafeRuleError
from repro.model import Instance, path, unary_instance
from repro.parser import parse_rule


def plan_of(rule_text, instance, frontier=None):
    rule = parse_rule(rule_text)
    order = plan_body_order(rule)
    sequence = plan_literal_sequence(order, instance, frontier)
    return [order[position] for position in sequence], order, sequence


class TestGreedyPlanner:
    def test_sequence_is_a_permutation(self):
        instance = unary_instance("R", ["a"])
        instance.add("Q", path("b"))
        _, order, sequence = plan_of("S($x.$y) :- R($x), Q($y), not R($x.$y).", instance)
        assert sorted(sequence) == list(range(len(order)))

    def test_smaller_relation_is_scheduled_first(self):
        instance = unary_instance("R", [f"r{i}" for i in range(20)])
        instance.add("Q", path("q"))
        literals, _, _ = plan_of("S($x.$y) :- R($x), Q($y).", instance)
        assert literals[0].atom.name == "Q"

    def test_negation_runs_as_soon_as_its_variables_are_bound(self):
        instance = unary_instance("R", ["a", "b"])
        instance.add("Q", path("a"))
        for i in range(6):
            instance.add("T", path(f"t{i}"))
        literals, _, _ = plan_of("S($x.$y) :- R($x), not Q($x), T($y).", instance)
        names = [literal.atom.name for literal in literals]
        # not Q($x) filters immediately after R binds $x, before T multiplies.
        assert names.index("Q") == names.index("R") + 1
        assert names.index("Q") < names.index("T")

    def test_equation_filter_runs_before_further_joins(self):
        instance = unary_instance("R", ["aa", "ab"])
        for i in range(6):
            instance.add("T", path(f"t{i}"))
        literals, _, _ = plan_of("S($x.$y) :- R($x), $x = a.a, T($y).", instance)
        assert literals[1].is_equation()

    def test_frontier_cardinality_informs_the_plan(self):
        rule = parse_rule("T(@x.@z) :- T(@x.@y), R(@y.@z).")
        order = plan_body_order(rule)
        instance = Instance()
        for i in range(50):
            instance.add("T", path(f"n{i}", f"n{i + 1}"))
            instance.add("R", path(f"n{i}", f"n{i + 1}"))
        delta = Instance()
        delta.add("T", path("n0", "n1"))
        position = next(
            index for index, literal in enumerate(order) if literal.atom.name == "T"
        )
        sequence = plan_literal_sequence(order, instance, {position: delta})
        # The single-row delta is far cheaper than the 50-row scan of R.
        assert sequence[0] == position

    def test_unsafe_equation_still_raises(self):
        rule = parse_rule("S($x) :- R($y), $x.b = a.$z.")
        order = [literal for literal in rule.body]
        with pytest.raises(UnsafeRuleError):
            plan_literal_sequence(order, unary_instance("R", ["a"]))


class TestPlannerFailurePaths:
    """The planner's error branches: unbindable equations and stuck negations."""

    def test_equation_with_no_bindable_side_raises_unsafe(self):
        # Neither side of $x.a = $y.b ever becomes fully bound: no positive
        # predicate mentions $x or $y.
        from repro.syntax.expressions import path_var
        from repro.syntax.literals import eq, pos

        order = [pos(eq((path_var("x"), "a"), (path_var("y"), "b")))]
        with pytest.raises(UnsafeRuleError, match="no side becomes fully bound"):
            plan_literal_sequence(order, Instance())

    def test_static_order_raises_for_unbindable_equations_too(self):
        from repro.syntax.expressions import path_var
        from repro.syntax.literals import eq, pos, pred
        from repro.syntax.rules import Rule

        rule = Rule(
            pred("S", path_var("x")),
            [pos(eq((path_var("x"), "a"), (path_var("y"), "b")))],
        )
        with pytest.raises(UnsafeRuleError, match="no side becomes fully bound"):
            plan_body_order(rule)

    def test_negations_with_unbound_variables_are_appended_not_raised(self):
        # The fallback branch: only negations remain and their variables are
        # unbound.  The planner must append them (preserving the positions)
        # rather than raise, so evaluation reports the runtime error the
        # static order would.
        from repro.syntax.expressions import path_var
        from repro.syntax.literals import neg, pred

        order = [neg(pred("Q", path_var("x"))), neg(pred("P", path_var("y")))]
        sequence = plan_literal_sequence(order, Instance())
        assert sorted(sequence) == [0, 1]

    def test_unbound_negation_fails_at_evaluation_time(self):
        from repro.syntax.literals import neg, pred, pos
        from repro.syntax.expressions import path_var
        from repro.syntax.rules import Rule

        # Unsafe on purpose (bypasses Stratum validation): nothing binds the
        # $y of ¬Q($y), so the rule has no plan and says so when evaluated.
        rule = Rule(
            pred("S", path_var("x")),
            [pos(pred("R", path_var("x"))), neg(pred("Q", path_var("y")))],
        )
        instance = unary_instance("R", ["a"])
        instance.add("Q", path("b"))
        with pytest.raises(UnsafeRuleError, match=LOWERING_UNSAFE_NEGATION):
            evaluate_rule(rule, instance)
