"""Every evaluation counter, pinned to literals on fixed inputs.

The semi-naive loop and the maintenance phases share their counters with
the benchmark's per-layer report, so a refactor of either must leave every
:class:`~repro.engine.EvaluationStatistics` field — and the fact count —
exactly where it was.  The table covers a cold evaluation of each
``eval_sequences`` program of :mod:`repro.queries.canonical`, the three
graph programs, and a maintained stream of mixed batches on both graph
programs (delete–rederive, and counting for ``Blocked``).  Inputs come from
the seeded generators of :mod:`repro.workloads`.
"""

from dataclasses import astuple

import pytest

from repro.engine import EvaluationStatistics, MaintainedFixpoint, evaluate_program
from repro.engine.limits import DEFAULT_LIMITS
from repro.model import Fact, path
from repro.parser import parse_program
from repro.queries.canonical import get_query
from repro.workloads import (
    all_as_instance,
    as_edge_pairs,
    layered_graph_instance,
    power_law_graph_instance,
    random_event_log_instance,
    random_nfa_instance,
    random_string_instance,
    update_stream,
)

REACHABILITY = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""

BLOCKED_REACHABILITY = """
Blocked(@x) :- Blocklist(@x).
T(@x, @y) :- E(@x, @y), not Blocked(@y).
T(@x, @z) :- T(@x, @y), E(@y, @z), not Blocked(@z).
"""

SEQUENCE_PROGRAMS = (
    "nfa_acceptance",
    "reversal",
    "squaring",
    "process_compliance",
    "unequal_palindrome",
    "three_occurrences",
)
STREAM_BATCHES = 40


def sequence_input(name):
    if name == "nfa_acceptance":
        return random_nfa_instance(states=4, transitions=10, words=20, max_word_length=8, seed=46)
    if name == "squaring":
        return all_as_instance(6)
    if name == "process_compliance":
        return random_event_log_instance(logs=30, max_events=8, seed=46)
    instance = random_string_instance(paths=20, max_length=10, seed=46)
    if name == "three_occurrences":
        instance.add("S", path("a", "b"))
    return instance


def layered_edges():
    return as_edge_pairs(layered_graph_instance(layers=5, width=5, seed=46))


def blocked_input():
    instance = layered_edges()
    instance.ensure_relation("Blocklist")
    for node in ("l2n1", "l3n3"):
        instance.add("Blocklist", path(node))
    return instance


GRAPH_INPUTS = {
    "reachability_cyclic": (
        REACHABILITY,
        lambda: as_edge_pairs(power_law_graph_instance(nodes=24, edges=72, seed=46)),
    ),
    "reachability_layered": (REACHABILITY, layered_edges),
    "blocked_reachability": (BLOCKED_REACHABILITY, blocked_input),
}


def pinned(statistics, instance):
    """The fact count followed by every statistics field, in declaration order."""
    return (instance.fact_count(), *astuple(statistics))


def evaluated(program, instance, limits=DEFAULT_LIMITS):
    statistics = EvaluationStatistics()
    return pinned(statistics, evaluate_program(program, instance, limits, statistics=statistics))


def batches(name, instance):
    """*STREAM_BATCHES* mixed batches; on the blocked program every fourth
    also toggles a blocked node, so negation seeds both DRed phases."""
    stream = list(
        update_stream(
            instance,
            relation="E",
            steps=STREAM_BATCHES,
            additions_per_step=2,
            retractions_per_step=2,
            seed=46,
        )
    )
    if name != "blocked_reachability":
        return stream
    toggled = [Fact("Blocklist", [path(node)]) for node in ("l1n2", "l2n1", "l3n0")]
    mixed = []
    for index, (additions, retractions) in enumerate(stream):
        if index % 4 == 1:
            additions = additions + [toggled[index // 4 % 3]]
        elif index % 4 == 3:
            retractions = retractions + [toggled[index // 4 % 3]]
        mixed.append((additions, retractions))
    return mixed


# (fact count, *EvaluationStatistics fields) on the inputs above.
EVALUATED = {
    "nfa_acceptance": (157, 11, 21, 18, 130, 384, 7, 12, 0, 0, 0, 0, [11]),
    "reversal": (148, 12, 23, 20, 130, 148, 9, 12, 0, 0, 0, 0, [12]),
    "squaring": (9, 9, 17, 14, 8, 8, 3, 12, 0, 0, 0, 0, [9]),
    "process_compliance": (70, 6, 3, 0, 41, 87, 3, 0, 0, 0, 0, 0, [2, 2, 2]),
    "unequal_palindrome": (49, 5, 9, 6, 31, 49, 7, 0, 0, 0, 0, 0, [5]),
    "three_occurrences": (41, 3, 3, 3, 22, 27865, 4, 0, 0, 0, 0, 0, [3]),
    "reachability_cyclic": (426, 6, 7, 5, 378, 1109, 4, 2, 0, 0, 0, 0, [6]),
    "reachability_layered": (188, 5, 6, 4, 151, 345, 3, 2, 0, 0, 0, 0, [5]),
    "blocked_reachability": (171, 7, 7, 4, 132, 302, 4, 2, 0, 0, 0, 0, [2, 5]),
}

MAINTAINED = {
    "reachability_layered": (
        (188, 5, 6, 4, 151, 345, 3, 2, 0, 0, 0, 0, [5]),
        (132, 0, 561, 561, 400, 28375, 21, 620, 527, 4201, 534, 0, []),
    ),
    "blocked_reachability": (
        (171, 6, 7, 4, 132, 302, 4, 2, 0, 0, 0, 0, [1, 5]),
        (116, 0, 483, 529, 348, 14876, 35, 572, 444, 2187, 490, 0, []),
    ),
}


@pytest.mark.parametrize("name", SEQUENCE_PROGRAMS)
def test_sequence_program_counters(name):
    canonical = get_query(name)
    assert evaluated(canonical.program(), sequence_input(name), canonical.limits) == EVALUATED[name]


@pytest.mark.parametrize("name", sorted(GRAPH_INPUTS))
def test_graph_program_counters(name):
    text, make = GRAPH_INPUTS[name]
    assert evaluated(parse_program(text), make()) == EVALUATED[name]


@pytest.mark.parametrize("name", sorted(MAINTAINED))
def test_maintained_stream_counters(name):
    text, make = GRAPH_INPUTS[name]
    instance = make()
    build = EvaluationStatistics()
    maintained = MaintainedFixpoint.evaluate(parse_program(text), instance, statistics=build)
    built = pinned(build, maintained.materialized)
    stream = EvaluationStatistics()
    for additions, retractions in batches(name, instance):
        maintained.update(additions, retractions, statistics=stream)
    assert (built, pinned(stream, maintained.materialized)) == MAINTAINED[name]
