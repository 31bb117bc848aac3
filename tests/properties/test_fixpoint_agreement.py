"""Property-based agreement of the evaluator with the reference fixpoint.

The engine computes the semantics of Section 2.3 one way — lowered id-space
plans under a resident semi-naive loop; :mod:`repro.engine.reference` computes
it the way the paper defines it — naive rounds of full scans over valuations.
These tests drive both over random programs and random workload instances
(from :mod:`repro.workloads.generators`) and require extensionally identical
results — the key safety net under any engine refactor.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    EvaluationLimits,
    CompiledProgram,
    CompiledRule,
    EvaluationStatistics,
    evaluate_program,
)
from repro.engine.reference import reference_fixpoint
from repro.errors import EvaluationBudgetExceeded
from repro.io import instance_from_text
from repro.model import path
from repro.parser import parse_program
from repro.queries import get_query
from repro.transform import eliminate_equations
from repro.workloads import (
    random_event_log_instance,
    random_graph_instance,
    random_nfa_instance,
    random_positive_program,
    random_string_instance,
)

def all_variants(program, instance):
    """The evaluator's result and the oracle's."""
    return [evaluate_program(program, instance), reference_fixpoint(program, instance)]


@given(program_seed=st.integers(0, 50), instance_seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_random_positive_programs_agree(program_seed, instance_seed):
    program = random_positive_program(seed=program_seed)
    instance = random_string_instance(paths=5, max_length=4, seed=instance_seed)
    first, *rest = all_variants(program, instance)
    assert all(result == first for result in rest)
    # Every drawn rule shape lowers, and its head can lead a rederivation join.
    for evaluator in map(CompiledRule, program.rules()):
        assert evaluator.head_step is not None


@given(seed=st.integers(0, 100))
@settings(max_examples=15, deadline=None)
def test_reachability_agrees_on_random_graphs(seed):
    program = get_query("reachability").program()
    instance = random_graph_instance(nodes=8, edges=14, seed=seed)
    first, *rest = all_variants(program, instance)
    assert all(result == first for result in rest)


@given(seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_nfa_acceptance_agrees_on_random_nfas(seed):
    program = get_query("nfa_acceptance").program()
    instance = random_nfa_instance(seed=seed, words=6, max_word_length=4)
    first, *rest = all_variants(program, instance)
    assert all(result == first for result in rest)


@given(seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_negation_agrees_on_random_graphs(seed):
    """Stratified negation: black_neighbours mixes joins, negation, and strata."""
    program = get_query("black_neighbours").program()
    instance = random_graph_instance(nodes=6, edges=10, seed=seed)
    colours = random_graph_instance(nodes=6, edges=4, seed=seed + 1000)
    for fact in colours.facts():
        instance.add("B", fact.paths[0][0:1])
    first, *rest = all_variants(program, instance)
    assert all(result == first for result in rest)


@given(seed=st.integers(0, 30))
@settings(max_examples=10, deadline=None)
def test_indexed_extension_attempts_never_exceed_scan(seed):
    """Probing a hash grouping looks at a subset of the rows a scan would, never more:
    a nested loop tries every R row against every valuation of every round."""
    program = get_query("reachability").program()
    instance = random_graph_instance(nodes=10, edges=25, seed=seed)
    statistics = EvaluationStatistics()
    result = evaluate_program(program, instance, statistics=statistics)
    assert result == reference_fixpoint(program, instance)
    edges, closure = len(instance.relation("R")), len(result.relation("T"))
    assert 0 < statistics.extension_attempts <= statistics.iterations * (edges + closure * edges)


# -- directed cases the random generators do not reach --------------------------------------------
#
# Each runs the evaluator against the reference fixpoint; the loop stays in
# id space (engine/fixpoint.py), so these pin the places it has to get right.

REACHABILITY = "T(@x, @y) :- E(@x, @y).\nT(@x, @z) :- T(@x, @y), E(@y, @z).\n"
CHAIN = "E(a, b). E(b, c). E(c, d). E(d, b)."

DIRECTED_CASES = {
    # The known id rows must be seeded from the rows the head already holds:
    # T(a, c) is stored *and* derivable, T(q, a) is stored only.
    "head_relation_holds_edb_rows": (REACHABILITY, CHAIN + " T(a, c). T(q, a)."),
    # E and F both put T(a, b) into the first round; the closure rule then
    # reaches T(a, c) through either side in the same round.
    "two_rules_one_head_same_row_same_round": (
        "T(@x, @y) :- E(@x, @y).\nT(@x, @y) :- F(@x, @y).\n"
        "T(@x, @z) :- T(@x, @y), T(@y, @z).\n",
        "E(a, b). E(b, c). F(a, b). F(b, c). F(c, a).",
    ),
    "nullary_head": (REACHABILITY + "S :- T(@x, @x).\n", CHAIN),
    "arity_three": (
        "P(@x, @y, @z) :- E(@x, @y), E(@y, @z).\n"
        "Q(@x, @y, @z) :- P(@x, @y, @z).\n"
        "Q(@x, @y, @w) :- Q(@x, @y, @z), E(@z, @w).\n",
        CHAIN,
    ),
    # The head builds a path: the projection (@x, $y) is deduplicated in id
    # space before anything is concatenated.
    "constructing_head": (
        "W($x) :- R($x).\nW(@x·a·$y) :- W(@x·b·$y).\nV(@x·a·$y) :- W(@x·$y).\n",
        "R(c·b·b). R(c·b). R(b·b·<b>). R(c). R(eps).",
    ),
    "negation_on_a_lower_idb": (
        "Blocked(@x) :- Blocklist(@x).\n"
        "T(@x, @y) :- E(@x, @y), not Blocked(@y).\n"
        "T(@x, @z) :- T(@x, @y), E(@y, @z), not Blocked(@z).\n",
        CHAIN + " E(a, d). Blocklist(c).",
    ),
    # A holds an equation and is mutually recursive with B.  Until equations
    # lowered (PR 21) this stratum was mixed and its loop stayed on facts —
    # hence the name, kept for the test ids; now all three rules lower.
    "mixed_stratum": (
        "A($x) :- R($x).\nA($y) :- B($x), $x = a·$y.\nB($x) :- A($x).\n",
        "R(a·a·b). R(b·a). R(a).",
    ),
    # A binding equation with a real choice point inside a recursive stratum:
    # every round splits the delta's paths around each of their a's.
    "binding_equation_in_recursion": (
        "W($x) :- R($x).\nW($u·$v) :- W($x), $x = $u·a·$v.\n",
        "R(b·a·b·a·c). R(a·a). R(c).",
    ),
    # The open side is anchored on a *bound* path variable; S(ϵ) makes the
    # anchor empty, which must fall back to trying every split.
    "open_side_anchored_on_a_bound_path_variable": (
        "P($u, $v) :- R($x), S($s), $x = $u·$s·$v.\n",
        "R(a·b·a·b·c). R(b). S(a·b). S(b). S(eps). S(c·c).",
    ),
    # @x ranges over atomic values only, in the middle of a pattern and as a
    # whole side: the packed <a> binds neither.
    "atom_variable_never_binds_a_packed_value": (
        "P(@x, $z) :- R($y), $y = @x·$z.\nQ(@x) :- R($y), @x = $y.\n",
        "R(<a>·b). R(a·b). R(<a>). R(a). R(eps).",
    ),
    "epsilon_splits": (
        "P($u, $v) :- R($x), $x = $u·$v.\nE($u) :- R($x), $x = $u·$x.\n",
        "R(eps). R(a·b).",
    ),
    # Filters: an equation between two bound sides, nonequalities between
    # path variables and between atom variables, a ground equation.
    "bound_sides_are_compared_as_ids": (
        "F($x) :- R($x), R($y), $x = $y·b.\nN($x, $y) :- R($x), R($y), $x != $y·b.\n"
        "M(@a·@b) :- R(@a·@b·$z), @a != @b.\nG($x) :- R($x), a·b = a·b, a != b.\n",
        "R(a·b). R(a). R(b·b·a). R(a·a·b).",
    ),
    # Example 2.2's first rule and friends: a positive component with three
    # path variables, a packing head built from variables, a non-ground
    # packed item matched in the body and constructed under negation.
    "non_deterministic_component_and_non_ground_packing": (
        "T($u·<$s>·$v) :- R($u·$s·$v), S($s).\nU($s, $v) :- T($u·<$s>·$v).\n"
        "D($x) :- R($x·$x).\nV($s) :- S($s), R($x), not T(<$s>·$x).\n",
        "R(c·d·a·c·d). R(a·b·a·b). R(a·c·d). S(c·d). S(a).",
    ),
    # The only positive literal is an equation: its ground side binds.
    "equation_without_a_predicate": ("G($x, @y) :- $x·@y = a·b·c.\n", "R(a)."),
}

@pytest.mark.parametrize("name", DIRECTED_CASES)
def test_directed_cases_agree_with_equal_counters(name):
    program_text, instance_text = DIRECTED_CASES[name]
    program = parse_program(program_text)
    instance = instance_from_text(instance_text)
    statistics = EvaluationStatistics()
    result = evaluate_program(program, instance, statistics=statistics)
    assert result == reference_fixpoint(program, instance)
    # The counters a caller reads off a run: every derived fact counted once
    # (a row the head relation already held is not), every round in a stratum.
    assert statistics.facts_derived == result.fact_count() - instance.fact_count() > 0
    assert statistics.iterations == sum(statistics.per_stratum_iterations)
    assert len(statistics.per_stratum_iterations) == len(program.strata)
    assert statistics.rule_applications <= statistics.iterations * sum(
        len(stratum.rules) for stratum in program.strata
    )


def test_directed_cases_cover_resident_and_mixed_strata():
    """Every rule of the table lowers, heads included: none is refused, and
    each can lead its join with the head (delete–rederive needs that)."""
    for name, (program_text, _) in DIRECTED_CASES.items():
        for stratum in CompiledProgram(parse_program(program_text)).strata:
            for evaluator in stratum.rules:
                assert evaluator.lowering_refusal is None, (name, str(evaluator.rule))
                assert evaluator.head_step is not None


def test_derivation_limit_trips_inside_a_binding_equation():
    """``max_derivations_per_rule`` counts what an equation step produces: the
    one R-row is under the cap, its six splits are over it."""
    program = parse_program("P($u, $v) :- R($x), $x = $u·$v.\n")
    instance = instance_from_text("R(a·a·a·a·a).")
    limits = EvaluationLimits(max_derivations_per_rule=5)
    for fixpoint in (evaluate_program, reference_fixpoint):
        with pytest.raises(EvaluationBudgetExceeded) as caught:
            fixpoint(program, instance, limits)
        assert caught.value.limit_name == "max_derivations_per_rule"
        roomy = EvaluationLimits(max_derivations_per_rule=6)
        assert len(fixpoint(program, instance, roomy).relation("P")) == 6


# -- Theorem 4.7 as a metamorphic oracle ----------------------------------------------------------
#
# Equations are redundant given intermediate predicates: a program and its
# equation-free rewrite (Example 4.4, Lemma 4.5) define the same output
# relation.  Both run the fast path, so an equation step is checked against
# plain joins over the auxiliary relations — and against the independent
# reference implementation where the query has one.


def _equation_free_rewrite_agrees(program, instance):
    """The original's result; the rewrite must define each of its relations alike."""
    rewritten = eliminate_equations(program)
    assert not any(rule.has_equation() for stratum in rewritten.strata for rule in stratum)
    direct = evaluate_program(program, instance)
    through_predicates = evaluate_program(rewritten, instance)
    for name in program.idb_relation_names():
        assert direct.relation(name) == through_predicates.relation(name), name
    return direct


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["process_compliance", "only_as_equation", "unequal_palindrome"])
def test_canonical_queries_agree_with_their_equation_free_rewrite(name, seed):
    query = get_query(name)
    if name == "process_compliance":
        instance = random_event_log_instance(logs=8, max_events=6, seed=seed)
    else:
        instance = random_string_instance(paths=8, max_length=6, seed=seed)
        instance.add("R", path("a", "a", "a"))
        instance.add("R", path("a", "b", "a", "b"))
    result = _equation_free_rewrite_agrees(query.program(), instance)
    assert result.paths(query.output_relation) == query.run_reference(instance)


@given(program_seed=st.integers(0, 50), instance_seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_random_programs_agree_with_their_equation_free_rewrite(program_seed, instance_seed):
    program = random_positive_program(seed=program_seed)
    instance = random_string_instance(paths=5, max_length=4, seed=instance_seed)
    _equation_free_rewrite_agrees(program, instance)
