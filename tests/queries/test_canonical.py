"""Every canonical query must agree with its independent reference implementation."""

import pytest

from repro.model import Instance, string_path
from repro.queries import CANONICAL_QUERIES, get_query, query_names
from repro.workloads import (
    random_event_log_instance,
    random_graph_instance,
    random_nfa_instance,
    random_string_instance,
    sales_instance,
)


def instance_for(name: str, seed: int) -> Instance:
    """Build a suitable random instance for the named canonical query."""
    if name in {"only_as_equation", "only_as_air", "reversal", "reversal_no_arity",
                "unequal_palindrome"}:
        return random_string_instance(seed=seed, paths=6, max_length=4)
    if name == "squaring":
        return random_string_instance(seed=seed, paths=3, max_length=3, alphabet=("a",))
    if name == "nfa_acceptance":
        return random_nfa_instance(seed=seed, words=5, max_word_length=4)
    if name == "three_occurrences":
        instance = Instance()
        instance.add("S", string_path("ab"))
        base = random_string_instance(seed=seed, paths=3, max_length=6)
        for fact in base.facts():
            if len(fact.paths[0]):
                instance.add("R", fact.paths[0])
        instance.add("R", string_path("ababab"))
        return instance
    if name in {"reachability", "black_neighbours"}:
        instance = random_graph_instance(nodes=5, edges=8, seed=seed, ensure_path=("a", "b"))
        colours = random_graph_instance(nodes=5, edges=3, seed=seed + 17)
        for fact in colours.facts():
            instance.add("B", fact.paths[0][0:1])
        if name == "reachability":
            return instance.restricted(["R"])
        return instance
    if name == "set_difference":
        instance = random_string_instance(seed=seed, paths=5, max_length=3)
        extra = random_string_instance(relation="Q", seed=seed + 1, paths=4, max_length=3)
        return instance.union(extra)
    if name == "json_regroup":
        return sales_instance(seed=seed)
    if name == "process_compliance":
        return random_event_log_instance(seed=seed, logs=5, max_events=5)
    raise AssertionError(f"no workload for query {name}")


@pytest.mark.parametrize("name", query_names())
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("strategy", ["naive", "seminaive"])
@pytest.mark.parametrize("execution", ["scan", "indexed", "compiled"])
def test_program_agrees_with_reference(name, seed, strategy, execution):
    query = get_query(name)
    instance = instance_for(name, seed)
    program = query.make_query(execution=execution, strategy=strategy)
    answer = program.boolean(instance) if query.boolean else program.answer(instance)
    assert answer == query.run_reference(instance)


@pytest.mark.parametrize("name", query_names())
def test_declared_fragment_is_consistent(name):
    query = get_query(name)
    fragment = query.fragment()
    letters = "".join(sorted(fragment.letters))
    assert letters == fragment.letters
    # The paper reference mentions the fragment for the flagship examples.
    if name == "only_as_equation":
        assert fragment.letters == "E"
    if name == "reversal_no_arity":
        assert fragment.letters == "IR"


def test_registry_lookup_errors():
    with pytest.raises(KeyError):
        get_query("does_not_exist")
    assert set(query_names()) == set(CANONICAL_QUERIES)


def test_every_canonical_rule_lowers_to_an_id_space_plan():
    """31/31: the whole language of the paper's own programs is on the fast
    path — equations (only_as_equation, unequal_palindrome,
    process_compliance), several path variables in one body component
    (reversal_no_arity, three_occurrences) and packing built from variables
    (three_occurrences) included."""
    from repro.engine.compiled import compile_rule
    from repro.engine.evaluation import plan_body_order

    rules = [
        (name, rule)
        for name in query_names()
        for stratum in get_query(name).program().strata
        for rule in stratum
    ]
    assert len(rules) == 31
    refused = [
        (name, str(rule))
        for name, rule in rules
        if compile_rule(rule.head, plan_body_order(rule)) is None
    ]
    assert refused == []
