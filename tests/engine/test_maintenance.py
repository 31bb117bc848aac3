"""Unit tests for incremental view maintenance (counting + delete–rederive)."""

import pytest

from repro.engine import (
    EvaluationStatistics,
    CompiledRule,
    MaintainedFixpoint,
    evaluate_program,
)
from repro.engine.reference import reference_fixpoint
from repro.errors import EvaluationError, MaintenanceUnsupportedError
from repro.io import instance_from_text
from repro.model import Fact, Instance, path, unary_instance
from repro.parser import parse_program, parse_rule
from repro.syntax.programs import Program
from repro.workloads import as_edge_pairs, layered_graph_instance, update_stream

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""

NON_RECURSIVE = """
A($x) :- R($x.a).
Bq($x) :- A($x), R($x).
S($x) :- Bq($x).
"""


def edge(source, target):
    return Fact("E", (path(source), path(target)))


def line_instance(*nodes):
    instance = Instance()
    instance.ensure_relation("E")
    for source, target in zip(nodes, nodes[1:]):
        instance.add_fact(edge(source, target))
    return instance


def assert_maintained_matches_scratch(maintained, program, base):
    assert maintained.materialized == reference_fixpoint(program, base)


class TestInitialEvaluation:
    def test_matches_evaluate_program(self):
        program = parse_program(REACHABILITY_PAIRS)
        instance = as_edge_pairs(layered_graph_instance(layers=4, width=3, seed=0))
        maintained = MaintainedFixpoint.evaluate(program, instance)
        assert maintained.materialized == evaluate_program(program, instance)
        assert_maintained_matches_scratch(maintained, program, instance)

    def test_counting_strata_match_evaluate_program(self):
        program = parse_program(NON_RECURSIVE)
        instance = unary_instance("R", ["aa", "aba", "ba", "a"])
        maintained = MaintainedFixpoint.evaluate(program, instance)
        assert maintained.materialized == evaluate_program(program, instance)
        assert_maintained_matches_scratch(maintained, program, instance)

    def test_input_instance_is_not_mutated(self):
        program = parse_program(REACHABILITY_PAIRS)
        instance = line_instance("a", "b", "c")
        before = instance.copy()
        MaintainedFixpoint.evaluate(program, instance)
        assert instance == before

    def test_relation_defined_in_two_strata_is_refused(self):
        rules = parse_program("S($x) :- R($x).").rules()
        program = Program([rules, rules])
        with pytest.raises(MaintenanceUnsupportedError, match="several strata"):
            MaintainedFixpoint.evaluate(program, unary_instance("R", ["a"]))


class TestCountingMaintenance:
    def test_addition_and_retraction_agree_with_scratch(self):
        program = parse_program(NON_RECURSIVE)
        base = unary_instance("R", ["aa", "aba", "ba", "a"])
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        added = Fact("R", [path(*"baa")])
        removed = Fact("R", [path(*"aa")])
        maintained.update(additions=[added], retractions=[removed])
        base.add_fact(added)
        base.discard_fact(removed)
        assert_maintained_matches_scratch(maintained, program, base)

    def test_fact_survives_while_it_has_another_derivation(self):
        # S is derived from both R1 and R2; retracting one leaves it alive.
        program = parse_program("S($x) :- R1($x).\nS($x) :- R2($x).")
        base = Instance()
        base.add("R1", path("a"))
        base.add("R2", path("a"))
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        maintained.update(retractions=[Fact("R1", [path("a")])])
        assert maintained.materialized.contains("S", path("a"))
        maintained.update(retractions=[Fact("R2", [path("a")])])
        assert not maintained.materialized.contains("S", path("a"))

    def test_multiple_body_occurrences_of_the_changed_relation(self):
        # R occurs twice; the telescoped delta joins must count each lost
        # and gained valuation exactly once.
        program = parse_program("S($x.$y) :- R($x), R($y).")
        base = unary_instance("R", ["a", "b"])
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        maintained.update(
            additions=[Fact("R", [path("c")])], retractions=[Fact("R", [path("a")])]
        )
        base.add("R", path("c"))
        base.discard_fact(Fact("R", [path("a")]))
        assert_maintained_matches_scratch(maintained, program, base)

    def test_statistics_counters_move(self):
        program = parse_program(NON_RECURSIVE)
        base = unary_instance("R", ["aa", "ab", "ba"])
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        statistics = EvaluationStatistics()
        maintained.update(
            retractions=[Fact("R", [path(*"aa")])], statistics=statistics
        )
        assert statistics.maintenance_rounds > 0
        assert statistics.facts_retracted >= 1


class TestDeleteRederive:
    def test_edge_removal_agrees_with_scratch(self):
        program = parse_program(REACHABILITY_PAIRS)
        base = as_edge_pairs(layered_graph_instance(layers=5, width=4, seed=1))
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        victim = Fact("E", next(iter(base.relation("E"))))
        maintained.update(retractions=[victim])
        base.discard_fact(victim)
        assert_maintained_matches_scratch(maintained, program, base)

    def test_rederivation_keeps_alternative_paths_alive(self):
        # Diamond a→b→d and a→c→d: removing one edge must keep T(a, d).
        program = parse_program(REACHABILITY_PAIRS)
        base = Instance()
        for fact in (edge("a", "b"), edge("b", "d"), edge("a", "c"), edge("c", "d")):
            base.add_fact(fact)
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        statistics = EvaluationStatistics()
        maintained.update(retractions=[edge("a", "b")], statistics=statistics)
        assert maintained.materialized.contains("T", path("a"), path("d"))
        assert not maintained.materialized.contains("T", path("a"), path("b"))
        assert statistics.rederivation_attempts > 0
        base.discard_fact(edge("a", "b"))
        assert_maintained_matches_scratch(maintained, program, base)

    def test_cycle_removal_deletes_the_whole_loop(self):
        program = parse_program(REACHABILITY_PAIRS)
        base = line_instance("a", "b", "c", "a")  # a → b → c → a
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        maintained.update(retractions=[edge("c", "a")])
        base.discard_fact(edge("c", "a"))
        assert_maintained_matches_scratch(maintained, program, base)
        assert not maintained.materialized.contains("T", path("a"), path("a"))

    def test_mixed_addition_and_retraction(self):
        program = parse_program(REACHABILITY_PAIRS)
        base = line_instance("a", "b", "c", "d")
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        maintained.update(additions=[edge("b", "d")], retractions=[edge("c", "d")])
        base.add_fact(edge("b", "d"))
        base.discard_fact(edge("c", "d"))
        assert_maintained_matches_scratch(maintained, program, base)

    def test_update_stream_stays_in_sync(self):
        program = parse_program(REACHABILITY_PAIRS)
        base = as_edge_pairs(layered_graph_instance(layers=5, width=4, seed=3))
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        for additions, retractions in update_stream(base, relation="E", steps=6, seed=11):
            maintained.update(additions, retractions)
            for fact in retractions:
                base.discard_fact(fact)
            for fact in additions:
                base.add_fact(fact)
            assert_maintained_matches_scratch(maintained, program, base)


class TestStratifiedNegationMaintenance:
    def test_retraction_through_negated_edb_revives_answers(self):
        # Removing b from B unblocks S(b) — signed counting turns the
        # negated relation's retraction into a downstream insertion.
        program = parse_program("A($x) :- R($x).\nS($x) :- A($x), not B($x).")
        base = Instance()
        base.add("R", path("a"))
        base.add("R", path("b"))
        base.add("B", path("b"))
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        assert not maintained.materialized.contains("S", path("b"))
        maintained.update(retractions=[Fact("B", [path("b")])])
        base.discard_fact(Fact("B", [path("b")]))
        assert maintained.materialized.contains("S", path("b"))
        assert_maintained_matches_scratch(maintained, program, base)

    def test_addition_through_negated_edb_retracts_answers(self):
        program = parse_program("A($x) :- R($x).\nS($x) :- A($x), not B($x).")
        base = Instance()
        base.add("R", path("a"))
        base.add("B", path("b"))
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        assert maintained.materialized.contains("S", path("a"))
        result = maintained.update(additions=[Fact("B", [path("a")])])
        base.add("B", path("a"))
        assert Fact("S", (path("a"),)) in result.removed
        assert not maintained.materialized.contains("S", path("a"))
        assert_maintained_matches_scratch(maintained, program, base)

    def test_transitive_reach_into_negation_is_maintained(self):
        # R feeds A, and A is negated downstream: the signed delta flows
        # through the intermediate stratum and flips S's membership.
        program = parse_program("A($x) :- R($x).\nS($x) :- Q($x), not A($x).")
        base = Instance()
        base.add("R", path("a"))
        base.add("Q", path("b"))
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        assert maintained.materialized.contains("S", path("b"))
        maintained.update(additions=[Fact("R", [path("b")])])
        base.add("R", path("b"))
        assert not maintained.materialized.contains("S", path("b"))
        assert_maintained_matches_scratch(maintained, program, base)
        maintained.update(retractions=[Fact("R", [path("b")])])
        base.discard_fact(Fact("R", [path("b")]))
        assert maintained.materialized.contains("S", path("b"))
        assert_maintained_matches_scratch(maintained, program, base)

    def test_recursion_over_stratified_negation_is_maintained(self):
        # A recursive stratum reading a negated relation exercises the
        # delete–rederive kill/insertion seeds, not just signed counting.
        program = parse_program(
            "Blocked($x) :- Block($x).\n"
            "T(@x, @y) :- E(@x, @y), not Blocked(@y).\n"
            "T(@x, @z) :- T(@x, @y), E(@y, @z), not Blocked(@z)."
        )
        base = line_instance("a", "b", "c", "d")
        base.add("Block", path("c"))
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        assert not maintained.materialized.contains("T", path("a"), path("d"))
        # Unblocking c revives the whole suffix of the chain...
        maintained.update(retractions=[Fact("Block", [path("c")])])
        base.discard_fact(Fact("Block", [path("c")]))
        assert maintained.materialized.contains("T", path("a"), path("d"))
        assert_maintained_matches_scratch(maintained, program, base)
        # ...and re-blocking b kills it again through the kill seeds.
        maintained.update(additions=[Fact("Block", [path("b")])])
        base.add("Block", path("b"))
        assert not maintained.materialized.contains("T", path("a"), path("d"))
        assert_maintained_matches_scratch(maintained, program, base)

    def test_unstratifiable_program_is_refused_at_build_time(self):
        # S negates itself through W: no stratification order exists, so the
        # fixpoint is ambiguous.  The stratifier refuses at parse time (and
        # evaluate() keeps a defensive check for hand-built stratum lists).
        from repro.errors import StratificationError

        with pytest.raises(StratificationError, match="cycle through negation"):
            parse_program(
                "W($x) :- R($x), not S($x).\nS($x) :- R($x), not W($x)."
            )


class TestUnsupportedAndErrors:
    def test_updating_idb_relations_is_rejected(self):
        program = parse_program(REACHABILITY_PAIRS)
        maintained = MaintainedFixpoint.evaluate(program, line_instance("a", "b"))
        with pytest.raises(EvaluationError, match="derived by the"):
            maintained.update(additions=[Fact("T", (path("a"), path("b")))])

    def test_unknown_relation_is_refused_not_silently_accepted(self):
        # Regression: facts of a relation the program never mentions used to
        # be absorbed into the materialization without any maintenance,
        # silently desynchronising it from a from-scratch evaluation.
        program = parse_program(REACHABILITY_PAIRS)
        maintained = MaintainedFixpoint.evaluate(program, line_instance("a", "b"))
        snapshot = maintained.materialized.copy()
        with pytest.raises(MaintenanceUnsupportedError, match="never mentions"):
            maintained.update(additions=[Fact("Stray", [path("z")])])
        # Refused upfront: no state was touched and later updates still work.
        assert maintained.materialized == snapshot
        maintained.update(additions=[edge("b", "c")])
        assert maintained.materialized.contains("T", path("a"), path("c"))

    def test_unknown_relation_retraction_is_refused(self):
        program = parse_program(REACHABILITY_PAIRS)
        maintained = MaintainedFixpoint.evaluate(program, line_instance("a", "b"))
        with pytest.raises(MaintenanceUnsupportedError, match="never mentions"):
            maintained.update(retractions=[Fact("Stray", [path("z")])])

    def test_chained_negation_propagates_the_signed_delta(self):
        # W reads A only under negation and S reads W only under negation:
        # an R addition flips W, whose flip flips S back — two sign changes
        # chained through consecutive strata.
        program = parse_program(
            "A($x) :- R($x).\n"
            "W($x) :- Q($x), not A($x).\n"
            "S($x) :- Q($x), not W($x)."
        )
        base = Instance()
        base.add("R", path("a"))
        base.add("Q", path("b"))
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        assert maintained.materialized.contains("W", path("b"))
        assert not maintained.materialized.contains("S", path("b"))
        maintained.update(additions=[Fact("R", [path("b")])])
        base.add("R", path("b"))
        assert not maintained.materialized.contains("W", path("b"))
        assert maintained.materialized.contains("S", path("b"))
        assert_maintained_matches_scratch(maintained, program, base)

    def test_noop_update_returns_empty_result(self):
        program = parse_program(REACHABILITY_PAIRS)
        base = line_instance("a", "b")
        maintained = MaintainedFixpoint.evaluate(program, base)
        result = maintained.update(
            additions=[edge("a", "b")],  # already present
            retractions=[edge("x", "y")],  # absent
        )
        assert not result.added and not result.removed


class TestPinnedFacts:
    def test_input_idb_facts_are_never_retracted(self):
        # The input instance already contains a T fact; maintenance must
        # treat it as an axiom, exactly like from-scratch evaluation does.
        program = parse_program(REACHABILITY_PAIRS)
        base = line_instance("a", "b", "c")
        base.add("T", path("q"), path("r"))
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        maintained.update(retractions=[edge("a", "b")])
        base.discard_fact(edge("a", "b"))
        assert maintained.materialized.contains("T", path("q"), path("r"))
        assert_maintained_matches_scratch(maintained, program, base)


def facts_of(text):
    return list(instance_from_text(text).facts())


def counts_of(maintained, stratum=0):
    """The support counts of one counting stratum, keyed by the fact's text."""
    return {str(fact): count for fact, count in maintained.support_state()[stratum][1].items()}


class TestIdSpaceCounting:
    """Derivation counts are tallied over id rows, one per valuation of *all*
    the rule's variables — also those only a binding equation mentions."""

    def test_counts_under_a_binding_equation(self):
        rule = parse_rule("S($x) :- R($x), $x = $u·a·$v.")
        instance = instance_from_text("R(a·b·a). R(b). R(a·a·a).")
        plan = CompiledRule(rule)
        counts = {str(fact): n for fact, n in plan.derivation_counts(instance).items()}
        assert counts == {"S(a·b·a)": 2, "S(a·a·a)": 3}
        # One application derives each fact once, however many valuations.
        assert {str(fact) for fact in plan.derive(instance)} == set(counts)
        # A frontier restricts the count like it restricts the join.
        delta = instance_from_text("R(a·a·a).")
        (position,) = plan.predicate_positions["R"]
        restricted = plan.derivation_counts(instance, frontier={position: delta})
        assert {str(fact): n for fact, n in restricted.items()} == {"S(a·a·a)": 3}

    def test_a_constructing_head_sums_the_valuations_it_collapses(self):
        rule = parse_rule("T($u·$v) :- A($u), B($v).")
        instance = instance_from_text("A(a). A(a·b). B(b·c). B(c).")
        counts = CompiledRule(rule).derivation_counts(instance)
        assert {str(fact): n for fact, n in counts.items()} == {
            "T(a·b·c)": 2,  # a + b·c and a·b + c
            "T(a·c)": 1,
            "T(a·b·b·c)": 1,
        }

    def test_maintained_counts_follow_updates_through_the_equation(self):
        program = parse_program("S($x) :- R($x), $x = $u·a·$v.")
        base = instance_from_text("R(a·b·a). R(b).")
        maintained = MaintainedFixpoint.evaluate(program, base)
        assert counts_of(maintained) == {"S(a·b·a)": 2}
        maintained.update(facts_of("R(a·a)."), facts_of("R(a·b·a)."))
        assert counts_of(maintained) == {"S(a·a)": 2}
        maintained.update(facts_of("R(a·b·a)."), [])
        assert counts_of(maintained) == {"S(a·a)": 2, "S(a·b·a)": 2}
        assert_maintained_matches_scratch(
            maintained, program, instance_from_text("R(a·a). R(b). R(a·b·a).")
        )


class TestNegatedPivots:
    """A changed negated relation is a pivot of its own: the literal flipped
    positive (``CompiledRule.pivoted``), restricted to the delta rows."""

    TWO_NEGATIONS = "S($x) :- R($x), not P($x), not Q($x)."

    def drive(self, program_text, base_text, steps):
        program = parse_program(program_text)
        current = instance_from_text(base_text)
        for relation in program.relation_names():
            current.ensure_relation(relation)
        maintained = MaintainedFixpoint.evaluate(program, current)
        for additions, retractions in steps:
            added, removed = facts_of(additions), facts_of(retractions)
            maintained.update(added, removed)
            for fact in removed:
                current.discard_fact(fact, keep_empty=True)
            for fact in added:
                current.add_fact(fact)
            assert_maintained_matches_scratch(maintained, program, current)
            yield maintained

    def test_a_counting_stratum_pivots_on_each_changed_negation_once(self):
        """Both negated relations change in one update: the pivot on ``P`` must
        read ``Q`` as it was (the telescope's ``later_old``), or S(c)'s one
        derivation is lost twice — or never."""
        states = self.drive(
            self.TWO_NEGATIONS,
            "R(a). R(b). R(c). R(d). P(a). Q(b).",
            [
                ("P(c). Q(c).", ""),  # c blocked by both at once
                ("", "P(c). Q(c)."),  # and released by both at once
                ("P(d).", ""),  # an addition to one negated relation
                ("", "Q(b)."),  # a retraction from the other
                ("Q(d). P(b).", "P(d). R(c)."),  # everything moves
            ],
        )
        expected = [
            {"S(d)": 1},
            {"S(c)": 1, "S(d)": 1},
            {"S(c)": 1},
            {"S(b)": 1, "S(c)": 1},
            {},
        ]
        for maintained, counts in zip(states, expected, strict=True):
            assert counts_of(maintained) == counts

    def test_the_pivoted_plan_is_lowered_once_per_position(self):
        plan = CompiledRule(parse_rule(self.TWO_NEGATIONS))
        first, second = [
            position
            for position, literal in enumerate(plan.order)
            if literal.negative
        ]
        assert [negation.position for negation in plan.negations] == [first, second]
        assert plan.pivoted(first) is plan.pivoted(first)
        assert plan.pivoted(first) is not plan.pivoted(second)
        # The flipped literal is a join step at its own static position.
        assert first in {step.position for step in plan.pivoted(first).steps}
        assert first not in {step.position for step in plan.steps}

    def test_kill_seeds_read_the_other_negation_before_the_update(self):
        """Delete–rederive: T(b, c) held before both blockers arrived.  The kill
        seeds of ``B1``'s pivot are derivations of the *old* state, so they read
        ``B2`` through the pre-update overlay; read new, neither pivot would
        see a derivation to kill and T(·, c) would stay."""
        program_text = (
            "T(@x, @y) :- E(@x, @y), not B1(@y), not B2(@y).\n"
            "T(@x, @z) :- T(@x, @y), E(@y, @z), not B1(@z), not B2(@z).\n"
        )
        states = list(
            self.drive(
                program_text,
                "E(a, b). E(b, c). E(c, d).",
                [("B1(c). B2(c).", ""), ("", "B1(c). B2(c)."), ("B2(d).", "E(a, b).")],
            )
        )
        reached = {str(fact) for fact in states[-1].materialized.facts() if fact.relation == "T"}
        assert reached == {"T(b, c)"}


class TestHeadLedRederivation:
    def test_derivable_takes_a_head_of_two_path_variables_apart(self):
        """``T($u·$v)`` does not destructure deterministically: the head step
        binds the argument whole and a binding equation tries every split."""
        plan = CompiledRule(parse_rule("T($u·$v) :- A($u), B($v)."))
        assert plan.head_step is not None
        assert len(plan.head_equations) == 1
        instance = instance_from_text("A(a). A(a·b). B(b·c). B(c).")
        table = instance.term_table()
        asked = facts_of("T(a·b·c). T(a·c). T(b·c). T(c·a). T(eps).")
        derivable = plan.derivable_rows(instance, [table.intern_row(f.paths) for f in asked])
        assert {str(Fact("T", row)) for row in table.decode_rows(derivable)} == {
            "T(a·b·c)",
            "T(a·c)",
        }
        assert plan.derivable_rows(instance, []) == set()
