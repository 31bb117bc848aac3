"""Unit tests for incremental view maintenance (counting + delete–rederive)."""

import pytest

from repro.engine import (
    EvaluationLimits,
    EvaluationStatistics,
    CompiledRule,
    MaintainedFixpoint,
    ProgramQuery,
    apply_delta,
    evaluate_program,
)
from repro.engine.reference import reference_fixpoint
from repro.errors import (
    EvaluationBudgetExceeded, EvaluationError, MaintenanceUnsupportedError, ModelError
)
from repro.io import instance_from_text
from repro.model import Fact, Instance, path, unary_instance
from repro.parser import parse_program, parse_rule
from repro.storage import Relation
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


def update(maintained, additions=(), retractions=(), **options):
    """Apply a delta to *maintained*'s instance once, then maintain the fixpoint."""
    change = apply_delta(maintained.materialized, additions, retractions)
    return maintained.update(change, **options)


def net_change(maintained, additions=(), retractions=(), **options):
    """Run one update; return the facts it added to and removed from the materialization."""
    before = set(maintained.materialized.facts())
    update(maintained, additions, retractions, **options)
    after = set(maintained.materialized.facts())
    return after - before, before - after


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
        update(maintained, additions=[added], retractions=[removed])
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
        update(maintained, retractions=[Fact("R1", [path("a")])])
        assert maintained.materialized.contains("S", path("a"))
        update(maintained, retractions=[Fact("R2", [path("a")])])
        assert not maintained.materialized.contains("S", path("a"))

    def test_multiple_body_occurrences_of_the_changed_relation(self):
        # R occurs twice; the telescoped delta joins must count each lost
        # and gained valuation exactly once.
        program = parse_program("S($x.$y) :- R($x), R($y).")
        base = unary_instance("R", ["a", "b"])
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        update(maintained, 
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
        update(maintained, 
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
        update(maintained, retractions=[victim])
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
        update(maintained, retractions=[edge("a", "b")], statistics=statistics)
        assert maintained.materialized.contains("T", path("a"), path("d"))
        assert not maintained.materialized.contains("T", path("a"), path("b"))
        assert statistics.rederivation_attempts > 0
        base.discard_fact(edge("a", "b"))
        assert_maintained_matches_scratch(maintained, program, base)

    def test_cycle_removal_deletes_the_whole_loop(self):
        program = parse_program(REACHABILITY_PAIRS)
        base = line_instance("a", "b", "c", "a")  # a → b → c → a
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        update(maintained, retractions=[edge("c", "a")])
        base.discard_fact(edge("c", "a"))
        assert_maintained_matches_scratch(maintained, program, base)
        assert not maintained.materialized.contains("T", path("a"), path("a"))

    def test_mixed_addition_and_retraction(self):
        program = parse_program(REACHABILITY_PAIRS)
        base = line_instance("a", "b", "c", "d")
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        update(maintained, additions=[edge("b", "d")], retractions=[edge("c", "d")])
        base.add_fact(edge("b", "d"))
        base.discard_fact(edge("c", "d"))
        assert_maintained_matches_scratch(maintained, program, base)

    def test_update_stream_stays_in_sync(self):
        program = parse_program(REACHABILITY_PAIRS)
        base = as_edge_pairs(layered_graph_instance(layers=5, width=4, seed=3))
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        for additions, retractions in update_stream(base, relation="E", steps=6, seed=11):
            update(maintained, additions, retractions)
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
        update(maintained, retractions=[Fact("B", [path("b")])])
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
        _, removed = net_change(maintained, additions=[Fact("B", [path("a")])])
        base.add("B", path("a"))
        assert Fact("S", (path("a"),)) in removed
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
        update(maintained, additions=[Fact("R", [path("b")])])
        base.add("R", path("b"))
        assert not maintained.materialized.contains("S", path("b"))
        assert_maintained_matches_scratch(maintained, program, base)
        update(maintained, retractions=[Fact("R", [path("b")])])
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
        update(maintained, retractions=[Fact("Block", [path("c")])])
        base.discard_fact(Fact("Block", [path("c")]))
        assert maintained.materialized.contains("T", path("a"), path("d"))
        assert_maintained_matches_scratch(maintained, program, base)
        # ...and re-blocking b kills it again through the kill seeds.
        update(maintained, additions=[Fact("Block", [path("b")])])
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
        base = line_instance("a", "b")
        maintained = MaintainedFixpoint.evaluate(program, base)
        with pytest.raises(EvaluationError, match="derived by the"):
            maintained.update(apply_delta(base, additions=[Fact("T", (path("a"), path("b")))]))
        # The base changed before the refusal, so the fixpoint is stale.
        with pytest.raises(EvaluationError, match="stale"):
            update(maintained, additions=[edge("b", "c")])

    def test_a_stray_relation_changes_in_the_base_and_moves_nothing_derived(self):
        program = parse_program(REACHABILITY_PAIRS)
        base = line_instance("a", "b")
        base.add("Stray", path("y"))
        maintained = MaintainedFixpoint.evaluate(program, base)
        change = apply_delta(
            base,
            additions=[Fact("Stray", [path("z")]), edge("b", "c")],
            retractions=[Fact("Stray", [path("y")])],
        )
        maintained.update(change)
        assert base.paths("Stray") == {path("z")}
        assert maintained.materialized.storage("Stray") is base.storage("Stray")
        expected = line_instance("a", "b", "c")
        expected.add("Stray", path("z"))
        assert_maintained_matches_scratch(maintained, program, expected)

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
        update(maintained, additions=[Fact("R", [path("b")])])
        base.add("R", path("b"))
        assert not maintained.materialized.contains("W", path("b"))
        assert maintained.materialized.contains("S", path("b"))
        assert_maintained_matches_scratch(maintained, program, base)

    def test_noop_update_returns_empty_result(self):
        program = parse_program(REACHABILITY_PAIRS)
        base = line_instance("a", "b")
        maintained = MaintainedFixpoint.evaluate(program, base)
        before = set(maintained.materialized.facts())
        statistics = update(maintained, 
            additions=[edge("a", "b")],  # already present
            retractions=[edge("x", "y")],  # absent
        )
        assert statistics == EvaluationStatistics()
        assert set(maintained.materialized.facts()) == before


class TestPinnedFacts:
    def test_input_idb_facts_are_never_retracted(self):
        # The input instance already contains a T fact; maintenance must
        # treat it as an axiom, exactly like from-scratch evaluation does.
        program = parse_program(REACHABILITY_PAIRS)
        base = line_instance("a", "b", "c")
        base.add("T", path("q"), path("r"))
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        update(maintained, retractions=[edge("a", "b")])
        base.discard_fact(edge("a", "b"))
        assert maintained.materialized.contains("T", path("q"), path("r"))
        assert_maintained_matches_scratch(maintained, program, base)


def facts_of(text):
    return list(instance_from_text(text).facts())


def counts_of(maintained, stratum=0):
    """The support counts of one counting stratum, keyed by the fact's text."""
    return {str(fact): count for fact, count in maintained.support_state()[stratum][1].items()}


def edges_instance(*pairs):
    instance = Instance()
    for source, target in pairs:
        instance.add_fact(edge(source, target))
    return instance


class TestHiddenNotDeleted:
    """Delete–rederive hides its over-deleted rows and touches only its net
    change: a row that ends up present is never discarded or re-added."""

    def maintain(self, monkeypatch, base, additions, retractions):
        program = parse_program(REACHABILITY_PAIRS)
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        reached = maintained.materialized.storage("T")
        generation, view = reached.generation, reached.columnar(
            maintained.materialized.term_table()
        )
        touched = []
        discard, add_rows = Relation.discard, Relation.add_rows
        discard_rows = Relation.discard_rows

        def spy_discard(relation, row):
            if relation is reached:
                touched.append(("discard", row))
            return discard(relation, row)

        def spy_add_rows(relation, rows, *args):
            if relation is reached:
                touched.extend(("add", row) for row in rows)
            return add_rows(relation, rows, *args)

        def spy_discard_rows(relation, rows, *args):
            if relation is reached:
                touched.extend(("discard", row) for row in rows)
            return discard_rows(relation, rows, *args)

        monkeypatch.setattr(Relation, "discard", spy_discard)
        monkeypatch.setattr(Relation, "add_rows", spy_add_rows)
        monkeypatch.setattr(Relation, "discard_rows", spy_discard_rows)
        statistics = EvaluationStatistics()
        result = net_change(maintained, additions, retractions, statistics=statistics)
        for fact in retractions:
            base.discard_fact(fact)
        for fact in additions:
            base.add_fact(fact)
        return maintained, reached, generation, view, touched, result, statistics

    def test_a_retraction_whose_rows_all_come_back_leaves_the_head_unmutated(
        self, monkeypatch, oracle_output
    ):
        """A diamond a→b→d / a→c→d plus a parallel path a→e→b: retracting
        E(a, b) over-deletes T(a, b) and T(a, d), and both are rederived —
        from the survivors, not from themselves."""
        base = edges_instance(
            ("a", "b"), ("a", "e"), ("e", "b"), ("b", "d"), ("a", "c"), ("c", "d")
        )
        maintained, reached, generation, view, touched, result, statistics = self.maintain(
            monkeypatch, base, [], [edge("a", "b")]
        )
        assert statistics.rederivation_attempts >= 2  # T(a, b) and T(a, d) were asked about
        assert touched == []
        assert reached.generation == generation
        assert reached.columnar(maintained.materialized.term_table()) is view
        assert result == (set(), {edge("a", "b")})
        query = ProgramQuery(
            parse_program(REACHABILITY_PAIRS), {"E": 2}, "T", require_monadic=False
        )
        assert Instance({"T": reached.rows}) == oracle_output(query, base)
        # Retracting E(e, b) too: T(e, b) and T(e, d) lose their last
        # support, and T(e, d) must not lean on the hidden T(e, b).
        _, removed = net_change(maintained, [], [edge("e", "b")])
        base.discard_fact(edge("e", "b"))
        assert Instance({"T": reached.rows}) == oracle_output(query, base)
        assert {fact for fact in removed if fact.relation == "T"} == {
            Fact("T", (path("e"), path(t))) for t in ("b", "d")
        } | {Fact("T", (path("a"), path("b")))}

    def test_only_the_net_change_is_discarded_or_added(self, monkeypatch, oracle_output):
        """Retracting E(a, b) while adding a detour a→c→b: T(a, b) and T(a, d)
        are over-deleted and only the insertion brings them back — shown
        again, not discarded and re-added — while T(a, c), T(c, b) and
        T(c, d) are new."""
        base = edges_instance(("a", "b"), ("b", "d"), ("x", "d"))
        maintained, reached, _, _, touched, result, _ = self.maintain(
            monkeypatch, base, [edge("a", "c"), edge("c", "b")], [edge("a", "b"), edge("x", "d")]
        )
        new = {("a", "c"), ("c", "b"), ("c", "d")}
        assert sorted(touched, key=repr) == sorted(
            [("add", (path(s), path(t))) for s, t in new] + [("discard", (path("x"), path("d")))],
            key=repr,
        )
        added, _ = result
        assert {fact for fact in added if fact.relation == "T"} == {
            Fact("T", (path(s), path(t))) for s, t in new
        }
        query = ProgramQuery(
            parse_program(REACHABILITY_PAIRS), {"E": 2}, "T", require_monadic=False
        )
        assert Instance({"T": reached.rows}) == oracle_output(query, base)


def decoded_counts(plan, instance, **options):
    """``plan.derivation_counts``, its head id rows decoded to the facts' text."""
    path_of = instance.term_table().path
    return {
        str(Fact(plan.head_name, tuple(map(path_of, row)))): count
        for row, count in plan.derivation_counts(instance, **options).items()
    }


class TestIdSpaceCounting:
    """Derivation counts are tallied over id rows, one per valuation of *all*
    the rule's variables — also those only a binding equation mentions."""

    def test_counts_under_a_binding_equation(self):
        rule = parse_rule("S($x) :- R($x), $x = $u·a·$v.")
        instance = instance_from_text("R(a·b·a). R(b). R(a·a·a).")
        plan = CompiledRule(rule)
        counts = decoded_counts(plan, instance)
        assert counts == {"S(a·b·a)": 2, "S(a·a·a)": 3}
        # One application derives each fact once, however many valuations.
        assert {str(fact) for fact in plan.derive(instance)} == set(counts)
        # A frontier restricts the count like it restricts the join.
        delta = instance_from_text("R(a·a·a).")
        (position,) = plan.predicate_positions["R"]
        restricted = decoded_counts(plan, instance, frontier={position: delta})
        assert restricted == {"S(a·a·a)": 3}

    def test_a_constructing_head_sums_the_valuations_it_collapses(self):
        rule = parse_rule("T($u·$v) :- A($u), B($v).")
        instance = instance_from_text("A(a). A(a·b). B(b·c). B(c).")
        assert decoded_counts(CompiledRule(rule), instance) == {
            "T(a·b·c)": 2,  # a + b·c and a·b + c
            "T(a·c)": 1,
            "T(a·b·b·c)": 1,
        }

    def test_maintained_counts_follow_updates_through_the_equation(self):
        program = parse_program("S($x) :- R($x), $x = $u·a·$v.")
        base = instance_from_text("R(a·b·a). R(b).")
        maintained = MaintainedFixpoint.evaluate(program, base)
        assert counts_of(maintained) == {"S(a·b·a)": 2}
        update(maintained, facts_of("R(a·a)."), facts_of("R(a·b·a)."))
        assert counts_of(maintained) == {"S(a·a)": 2}
        update(maintained, facts_of("R(a·b·a)."), [])
        assert counts_of(maintained) == {"S(a·a)": 2, "S(a·b·a)": 2}
        assert_maintained_matches_scratch(
            maintained, program, instance_from_text("R(a·a). R(b). R(a·b·a).")
        )


class TestCountingAdmission:
    """A counted row enters its relation where every derived row does
    (``fixpoint.admit_rows``): decoded once, its path length checked there,
    and the relation's columnar view advanced by the id rows."""

    def test_a_head_path_over_the_limit_is_refused_at_build_and_on_update(self):
        program = parse_program("S($x.$x) :- R($x).")
        limits = EvaluationLimits(max_path_length=4)
        with pytest.raises(EvaluationBudgetExceeded) as built:
            MaintainedFixpoint.evaluate(program, instance_from_text("R(a·b·c)."), limits)
        assert built.value.limit_name == "max_path_length"
        maintained = MaintainedFixpoint.evaluate(program, instance_from_text("R(a·b)."), limits)
        assert maintained.materialized.contains("S", path("a", "b", "a", "b"))
        with pytest.raises(EvaluationBudgetExceeded) as updated:
            update(maintained, facts_of("R(a·b·c)."))
        assert updated.value.limit_name == "max_path_length"

    def test_the_head_relation_keeps_no_pending_path_rows(self):
        program = parse_program("S($u, $v) :- R($x), $x = $u.a.$v.")
        base = instance_from_text("R(b·a·b). R(a·a).")
        maintained = MaintainedFixpoint.evaluate(program, base.copy())
        materialized = maintained.materialized
        table = materialized.term_table()
        storage = materialized.storage("S")
        assert storage._columnar_table is table  # the build founded the view with its id rows
        known = storage.columnar(table).id_row_set
        update(maintained, facts_of("R(b·a)."), facts_of("R(b·a·b)."))
        view = storage.columnar(table)
        assert view.id_row_set is known  # rows entered and left by their id rows
        assert view.id_row_set == {table.intern_row(row) for row in materialized.relation("S")}
        assert_maintained_matches_scratch(
            maintained, program, instance_from_text("R(a·a). R(b·a).")
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
            update(maintained, added, removed)
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


class TestApplyDelta:
    """``apply_delta`` nets a delta against the base and applies it there once."""

    def test_the_change_holds_the_net_facts(self):
        instance = unary_instance("R", ["a", "b"])
        change = apply_delta(
            instance,
            additions=[Fact("R", [path("c")]), Fact("R", [path("a")]), Fact("R", [path("d")])],
            retractions=[Fact("R", [path("b")]), Fact("R", [path("x")]), Fact("R", [path("d")])],
        )
        assert change.added_facts == {Fact("R", [path("c")]), Fact("R", [path("d")])}
        assert change.removed_facts == {Fact("R", [path("b")])}
        assert instance.paths("R") == {path("a"), path("c"), path("d")}
        table = instance.term_table()
        assert change.names == {"R"}
        assert change.removed["R"] == {table.intern_row((path("b"),))}
        assert instance.storage("R").columnar(table).id_row_set == {
            table.intern_row(row) for row in instance.relation("R")
        }

    def test_a_wrong_arity_is_refused_before_anything_changes(self):
        instance = unary_instance("R", ["a"])
        instance.add("S", path("s"))
        with pytest.raises(ModelError):
            apply_delta(
                instance,
                additions=[Fact("S", [path("t")]), Fact("R", [path("b"), path("c")])],
                retractions=[Fact("S", [path("s")])],
            )
        assert instance.paths("R") == {path("a")} and instance.paths("S") == {path("s")}

    def test_an_emptied_relation_stays_present(self):
        instance = unary_instance("R", ["a"])
        storage = instance.storage("R")
        apply_delta(instance, retractions=[Fact("R", [path("a")])])
        assert instance.storage("R") is storage and not storage

    def test_retract_then_add_of_the_same_fact_nets_out(self):
        instance = unary_instance("R", ["a"])
        generation = instance.storage("R").generation
        fact = Fact("R", [path("a")])
        change = apply_delta(instance, additions=[fact], retractions=[fact])
        assert not change.added_facts and not change.removed_facts
        assert not change.names
        assert instance.contains("R", path("a"))
        assert instance.storage("R").generation == generation

    def test_mixed_arities_within_the_delta_are_refused(self):
        instance = Instance()
        with pytest.raises(ModelError):
            apply_delta(
                instance, additions=[Fact("S", [path("a")]), Fact("S", [path("a"), path("b")])]
            )
        assert len(instance) == 0

    def test_an_addition_to_an_absent_relation_creates_it_with_a_fresh_view(self):
        instance = unary_instance("R", ["a"])
        change = apply_delta(instance, additions=[Fact("T", [path("t"), path("u")])])
        table = instance.term_table()
        assert change.names == {"T"}
        assert change.added["T"] == {table.intern_row((path("t"), path("u")))}
        assert instance.arity_of("T") == 2
        assert instance.storage("T").columnar(table).id_row_set == change.added["T"]

    def test_each_touched_relation_moves_once_and_others_not_at_all(self):
        instance = unary_instance("R", ["a", "b"])
        instance.add("S", path("s"))
        generations = {name: instance.storage(name).generation for name in ("R", "S")}
        apply_delta(
            instance,
            additions=[Fact("R", [path("c")]), Fact("R", [path("d")])],
            retractions=[Fact("R", [path("a")])],
        )
        assert instance.storage("R").generation == generations["R"] + 2  # one discard, one add
        assert instance.storage("S").generation == generations["S"]

    def test_a_fixpoint_over_the_instance_is_maintained_from_the_change(self):
        program = parse_program(REACHABILITY_PAIRS)
        instance = instance_from_text("E(a, b). E(b, c).")
        fixpoint = MaintainedFixpoint.evaluate(program, instance)
        change = apply_delta(instance, additions=[edge("c", "d")], retractions=[edge("a", "b")])
        fixpoint.update(change)
        expected = instance_from_text("E(b, c). E(c, d).")
        assert fixpoint.materialized == reference_fixpoint(program, expected)
