"""Tests for the binding-pattern (adornment) analysis."""

import pytest

from repro.analysis import Adornment, adorn_program, adornment_from_binding, sips_order
from repro.errors import EvaluationError, UnsafeRuleError
from repro.parser import parse_program, parse_rule


class TestAdornment:
    def test_string_round_trip(self):
        adornment = Adornment.from_string("bfb")
        assert adornment.suffix() == "bfb"
        assert adornment.bound_positions == (0, 2)
        assert adornment.free_positions == (1,)
        assert adornment.arity == 3

    def test_from_positions_and_binding(self):
        assert Adornment.from_positions(2, [1]).suffix() == "fb"
        assert adornment_from_binding(2, {0: "a"}).suffix() == "bf"
        assert adornment_from_binding(2, None) == Adornment.all_free(2)

    def test_invalid_inputs_raise(self):
        with pytest.raises(EvaluationError):
            Adornment.from_string("bx")
        with pytest.raises(EvaluationError):
            Adornment.from_positions(1, [3])

    def test_subsumption_is_bound_position_containment(self):
        assert Adornment.from_string("bf").subsumes(Adornment.from_string("bb"))
        assert Adornment.from_string("ff").subsumes(Adornment.from_string("bf"))
        assert Adornment.from_string("bf").subsumes(Adornment.from_string("bf"))
        assert not Adornment.from_string("bb").subsumes(Adornment.from_string("bf"))
        assert not Adornment.from_string("fb").subsumes(Adornment.from_string("bf"))
        assert not Adornment.from_string("f").subsumes(Adornment.from_string("ff"))

    def test_weakenings_are_exactly_the_strictly_subsuming_adornments(self):
        # The generalization retry relies on this pairing: every weakening
        # subsumes the original (its answers can serve the original call),
        # ordered most specific first, ending with all-free.
        original = Adornment.from_string("bfb")
        weakenings = list(original.weakenings())
        assert [w.suffix() for w in weakenings] == ["bff", "ffb", "fff"]
        assert all(w.subsumes(original) and w != original for w in weakenings)
        assert not list(Adornment.all_free(2).weakenings())

    def test_subsumption_mirrors_the_table_seed_ordering(self):
        # Adornment.subsumes is the adornment half of the answer tables'
        # seed subsumption: entry positions ⊆ call positions.
        from types import SimpleNamespace

        from repro.engine import TableEntry
        from repro.model import Instance, path

        stand_in = SimpleNamespace(materialized=Instance())  # the entry's fixpoint
        entry = TableEntry("S", (0,), (path("a"),), None, stand_in)
        general = adornment_from_binding(2, {0: "a"})
        specific = adornment_from_binding(2, {0: "a", 1: "b"})
        assert general.subsumes(specific)
        assert entry.subsumes(specific.bound_positions, {0: path("a"), 1: path("b")})


class TestSipsOrder:
    def test_fully_bound_literals_run_first(self):
        rule = parse_rule("S(@x.$y) :- R(@x), T($y), not Q(@x).")
        order = sips_order(rule, parse_rule("S(@x) :- R(@x).").head.variables())
        names = [literal.atom.name for literal in order]
        # With @x pre-bound, both R(@x) and ¬Q(@x) are filters and run first.
        assert set(names[:2]) == {"R", "Q"}

    def test_equation_binds_before_predicates(self):
        rule = parse_rule("S($x) :- R($y), $x = $y.a.")
        head_vars = rule.head.variables()
        order = sips_order(rule, head_vars)
        # $x bound ⇒ the equation runs first and binds $y, making R($y) a filter.
        assert order[0].is_equation()
        assert order[1].atom.name == "R"

    def test_unbindable_body_raises(self):
        # Built without validation: the rule is unsafe on purpose.
        from repro.syntax.literals import eq, pos, pred
        from repro.syntax.expressions import path_var
        from repro.syntax.rules import Rule

        rule = Rule(pred("S", path_var("x")), [pos(eq(path_var("x"), path_var("y")))])
        with pytest.raises(UnsafeRuleError):
            sips_order(rule)


REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""


class TestAdornProgram:
    def test_bound_source_propagates_bf(self):
        program = parse_program(REACHABILITY_PAIRS)
        adorned = adorn_program(program, "T", Adornment.from_string("bf"))
        keys = {(name, adornment.suffix()) for name, adornment in adorned.rules}
        # The recursive call T(@x, @y) keeps @x bound and leaves @y free.
        assert keys == {("T", "bf")}
        recursive = [entry for entry in adorned.reachable_rules() if len(entry.rule.body) == 2]
        (entry,) = recursive
        assert [a.suffix() for a in entry.body_adornments if a is not None] == ["bf"]

    def test_all_free_goal_is_reachability_closure(self):
        program = parse_program(
            "A($x) :- R($x).\nB($x) :- A($x).\nC($x) :- R($x)."
        )
        adorned = adorn_program(program, "B", Adornment.all_free(1))
        reached = {name for name, _ in adorned.rules}
        # C is never demanded by the goal B; its rules are not analysed.
        assert reached == {"A", "B"}

    def test_path_encoded_recursion_loses_the_binding(self):
        # In the length-2-path encoding the recursive call mixes a bound and
        # an unbound variable in one component, so the call is all-free.
        program = parse_program(
            "T(@x.@y) :- R(@x.@y).\nT(@x.@z) :- T(@x.@y), R(@y.@z).\nS :- T(a.b)."
        )
        adorned = adorn_program(program, "S", Adornment.all_free(0))
        suffixes = {(name, adornment.suffix()) for name, adornment in adorned.rules}
        assert ("T", "f") in suffixes and ("T", "b") in suffixes

    def test_arity_mismatch_raises(self):
        program = parse_program(REACHABILITY_PAIRS)
        with pytest.raises(EvaluationError):
            adorn_program(program, "T", Adornment.from_string("b"))
        with pytest.raises(EvaluationError):
            adorn_program(program, "E", Adornment.from_string("bf"))
