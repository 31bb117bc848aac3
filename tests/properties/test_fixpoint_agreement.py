"""Property-based agreement of fixpoint strategies and execution modes.

The engine offers four ways to compute the same semantics (Section 2.3):
{naive, semi-naive} fixpoint strategies × {scan, indexed, compiled}
execution modes.
These tests drive all four over random programs and random workload instances
(from :mod:`repro.workloads.generators`) and require extensionally identical
results — the key safety net under the storage/planner refactor.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    EvaluationStatistics,
    ProgramEvaluators,
    evaluate_program,
    propagate_delta,
)
from repro.io import instance_from_text
from repro.model import Fact, Instance, path
from repro.parser import parse_program
from repro.queries import get_query
from repro.workloads import (
    random_graph_instance,
    random_nfa_instance,
    random_positive_program,
    random_string_instance,
)

STRATEGIES = ("naive", "seminaive")
EXECUTIONS = ("scan", "indexed", "compiled")


def all_variants(program, instance):
    results = []
    for strategy in STRATEGIES:
        for execution in EXECUTIONS:
            results.append(
                evaluate_program(program, instance, strategy=strategy, execution=execution)
            )
    return results


@given(program_seed=st.integers(0, 50), instance_seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_random_positive_programs_agree(program_seed, instance_seed):
    program = random_positive_program(seed=program_seed)
    instance = random_string_instance(paths=5, max_length=4, seed=instance_seed)
    first, *rest = all_variants(program, instance)
    assert all(result == first for result in rest)


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
    """Index pruning yields a subset of the scan candidates, never more."""
    program = get_query("reachability").program()
    instance = random_graph_instance(nodes=10, edges=25, seed=seed)
    scan_stats = EvaluationStatistics()
    indexed_stats = EvaluationStatistics()
    scan = evaluate_program(program, instance, execution="scan", statistics=scan_stats)
    indexed = evaluate_program(program, instance, execution="indexed", statistics=indexed_stats)
    assert scan == indexed
    assert indexed_stats.extension_attempts <= scan_stats.extension_attempts


# -- directed cases the random generators do not reach --------------------------------------------
#
# Each runs scan ≡ indexed ≡ compiled under the semi-naive strategy; where
# every rule of a stratum lowers, "compiled" keeps the loop in id space
# (engine/fixpoint.py), so these pin the places that loop has to get right.

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
    # A holds an equation (stays interpreted) and is mutually recursive with
    # B (lowers): the stratum is mixed, so its loop stays on facts.
    "mixed_stratum": (
        "A($x) :- R($x).\nA($y) :- B($x), $x = a·$y.\nB($x) :- A($x).\n",
        "R(a·a·b). R(b·a). R(a).",
    ),
}

MODE_INDEPENDENT_COUNTERS = (
    "iterations",
    "per_stratum_iterations",
    "rule_applications",
    "delta_restricted_applications",
    "facts_derived",
)


@pytest.mark.parametrize("name", DIRECTED_CASES)
def test_directed_cases_agree_with_equal_counters(name):
    program_text, instance_text = DIRECTED_CASES[name]
    program = parse_program(program_text)
    instance = instance_from_text(instance_text)
    results, counters = [], []
    for execution in EXECUTIONS:
        statistics = EvaluationStatistics()
        results.append(
            evaluate_program(program, instance, execution=execution, statistics=statistics)
        )
        counters.append({field: getattr(statistics, field) for field in MODE_INDEPENDENT_COUNTERS})
    assert results[0] == results[1] == results[2]
    assert counters[0] == counters[1] == counters[2]
    assert results[0].fact_count() > instance.fact_count()  # the case derives something


def test_directed_cases_cover_resident_and_mixed_strata():
    """The table holds strata on both sides of the all-rules-lower choice."""
    lowered = {}
    for name, (program_text, _) in DIRECTED_CASES.items():
        evaluators = ProgramEvaluators(execution="compiled")
        lowered[name] = [
            [evaluator.compiled_plan is not None for evaluator in evaluators.for_stratum(stratum)]
            for stratum in parse_program(program_text).strata
        ]
    assert all(all(stratum) for stratum in lowered["negation_on_a_lower_idb"])
    assert all(all(stratum) for stratum in lowered["constructing_head"])
    assert [sorted(stratum) for stratum in lowered["mixed_stratum"]] == [[False, True, True]]


@pytest.mark.parametrize("case", ["head_relation_holds_edb_rows", "mixed_stratum"])
def test_propagate_delta_collects_exactly_the_facts_added(case):
    program_text = DIRECTED_CASES[case][0]
    program = parse_program(program_text)
    instance = instance_from_text(CHAIN + " R(a·b).")
    seeds = {Fact("E", [path("d"), path("e")]), Fact("R", [path("a", "a", "c")])}
    outcomes = []
    for execution in EXECUTIONS:
        evaluators = ProgramEvaluators(execution=execution)
        current = evaluate_program(program, instance, execution=execution, evaluators=evaluators)
        for fact in seeds:
            current.add_fact(fact)
        before = set(current.facts())
        statistics = EvaluationStatistics()
        rounds, added = propagate_delta(
            evaluators.for_stratum(program.strata[0]), current, set(seeds), statistics=statistics,
            collect=True,
        )
        assert added == set(current.facts()) - before
        assert added and statistics.facts_derived == len(added)
        assert current == evaluate_program(program, instance.union(Instance(seeds)))
        outcomes.append((rounds, added))
    assert outcomes[0] == outcomes[1] == outcomes[2]
