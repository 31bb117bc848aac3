"""Every canonical query must agree with its independent reference implementation."""

import json
from itertools import combinations

import pytest

from repro.engine import MaintainedFixpoint, QuerySession, apply_delta
from repro.engine.reasons import REWRITE_UNSUPPORTED, reason_code
from repro.engine.reference import reference_fixpoint
from repro.model import Fact, Instance, path, string_path
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


# -- six roads to one answer -------------------------------------------------------------------------
#
# Each takes a canonical query and an instance and produces the query's answer
# by a different part of the system; every one must match the hand-written
# Python implementation of the query.  The oracle of the agreement suites
# (``reference_fixpoint``) is one of the roads, so it is itself held to the
# independent implementations here.


def _read(query, materialized):
    """The query's answer, read off a materialized fixpoint."""
    if query.boolean:
        return bool(materialized.relation(query.output_relation))
    return materialized.paths(query.output_relation)


def _result(query, result):
    return result.boolean() if query.boolean else result.paths()


def _oracle(query, instance):
    return _read(query, reference_fixpoint(query.program(), instance, query.limits))


def _full(query, instance):
    return _result(query, query.make_query().run(instance))


def _goal(query, instance):
    return _result(query, query.make_query().run(instance, mode="goal"))


def _maintained(query, instance):
    """The counting / delete–rederive build of the maintained materialization."""
    maintained = MaintainedFixpoint.evaluate(query.program(), instance, query.limits)
    return _read(query, maintained.materialized)


def _maintained_round_trip(query, instance):
    """Every EDB relation retracted whole and added back, one relation at a time."""
    maintained = MaintainedFixpoint.evaluate(query.program(), instance, query.limits)
    for name in sorted(instance.relation_names):
        facts = [Fact(name, row) for row in instance.relation(name)]
        maintained.update(apply_delta(maintained.materialized, retractions=facts))
        maintained.update(apply_delta(maintained.materialized, additions=facts))
    return _read(query, maintained.materialized)


def _restored(query, instance):
    """A session exported to JSON and restored over a fresh query object."""
    session = query.make_query().session(instance.copy())
    session.run()
    state = json.loads(json.dumps(session.export_state()))
    restored = QuerySession.restore(query.make_query(), state)
    result = restored.run()
    assert result.served_by == "maintained"
    return _result(query, result)


#: The ids are the ones these cases have always had — they used to name the
#: execution mode and fixpoint strategy the sweep crossed — so that a case's
#: history stays comparable across the change of what it compares.
ROADS = [
    pytest.param(_oracle, id="scan-naive"),
    pytest.param(_restored, id="scan-seminaive"),
    pytest.param(_goal, id="indexed-naive"),
    pytest.param(_maintained_round_trip, id="indexed-seminaive"),
    pytest.param(_maintained, id="compiled-naive"),
    pytest.param(_full, id="compiled-seminaive"),
]


@pytest.mark.parametrize("name", query_names())
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("road", ROADS)
def test_program_agrees_with_reference(name, seed, road):
    query = get_query(name)
    instance = instance_for(name, seed)
    assert road(query, instance) == query.run_reference(instance)


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
    from repro.engine.compiled import CompiledRule

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
        if CompiledRule(rule).lowering_refusal is not None
        or CompiledRule(rule).head_step is None
    ]
    assert refused == []


def test_every_accepted_goal_rewriting_is_maintainable():
    """A tabled goal is a maintained fixpoint: every magic program the goal
    rewriting accepts for a canonical query, over every adornment of its
    output, is one :meth:`MaintainedFixpoint.evaluate` takes with the seed
    planted.  The rest are refused at rewriting, before any evaluation."""
    accepted, refused = 0, set()
    for name in query_names():
        query = get_query(name).make_query()
        instance = instance_for(name, 0)
        for bound in range(query.output_arity + 1):
            for positions in combinations(range(query.output_arity), bound):
                binding = {position: path("a") for position in positions}
                magic, refusal = query.goal_program(binding)
                if magic is None:
                    assert reason_code(refusal) == REWRITE_UNSUPPORTED
                    refused.add((name, positions))
                    continue
                seed = magic.seed_fact(binding)
                MaintainedFixpoint.evaluate(
                    magic.program, instance, query.limits, seed_facts=(seed,)
                )
                accepted += 1
    assert refused == {
        ("nfa_acceptance", ()),
        ("only_as_air", ()),
        ("only_as_air", (0,)),
        ("squaring", ()),
        ("squaring", (0,)),
    }
    assert accepted == 19
