"""Every evaluation counter, pinned to literals on fixed inputs.

The semi-naive loop and the maintenance phases share their counters with
the benchmark's per-layer report, so a refactor of either must leave every
:class:`~repro.engine.EvaluationStatistics` field — and the fact count —
exactly where it was.  The table covers a cold evaluation of each
``eval_sequences`` program of :mod:`repro.queries.canonical`, the three
graph programs, and a maintained stream of mixed batches on two graph
programs (delete–rederive, and counting for ``Blocked``) and on the two
counting shapes of ``benchmarks/history/pr46_counting.txt``: a two-hop join
under negation and a one-rule sequence program with a binding equation.
Inputs come from the seeded generators of :mod:`repro.workloads`.
"""

import random
from dataclasses import astuple

import pytest

from repro.engine import (
    EvaluationStatistics, MaintainedFixpoint, apply_delta, evaluate_program
)
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
    random_word,
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

TWO_HOP_NEGATION = "H(@x, @z) :- E(@x, @y), E(@y, @z), not B(@z)."

SEQUENCE_BINDING_EQUATION = "S($u, $v) :- R($x), $x = $u.a.$v."

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


def blocked_input(relation="Blocklist"):
    instance = layered_edges()
    instance.ensure_relation(relation)
    for node in ("l2n1", "l3n3"):
        instance.add(relation, path(node))
    return instance


def words_input():
    return random_string_instance(paths=20, max_length=8, seed=46)


GRAPH_INPUTS = {
    "reachability_cyclic": (
        REACHABILITY,
        lambda: as_edge_pairs(power_law_graph_instance(nodes=24, edges=72, seed=46)),
    ),
    "reachability_layered": (REACHABILITY, layered_edges),
    "blocked_reachability": (BLOCKED_REACHABILITY, blocked_input),
}

MAINTAINED_INPUTS = {
    "reachability_layered": GRAPH_INPUTS["reachability_layered"],
    "blocked_reachability": GRAPH_INPUTS["blocked_reachability"],
    "two_hop_negation": (TWO_HOP_NEGATION, lambda: blocked_input("B")),
    "sequence_binding_equation": (SEQUENCE_BINDING_EQUATION, words_input),
}


def pinned(statistics, instance):
    """The fact count followed by every statistics field, in declaration order."""
    return (instance.fact_count(), *astuple(statistics))


def evaluated(program, instance, limits=DEFAULT_LIMITS):
    statistics = EvaluationStatistics()
    return pinned(statistics, evaluate_program(program, instance, limits, statistics=statistics))


#: The negated relation a graph stream toggles nodes of.
TOGGLED = {"blocked_reachability": "Blocklist", "two_hop_negation": "B"}


def word_batches(instance):
    """*STREAM_BATCHES* batches, each adding a random word and retracting one held."""
    generator = random.Random(46)
    held = sorted(instance.relation("R"), key=repr)
    stream = []
    for _ in range(STREAM_BATCHES):
        word = (random_word(generator, ("a", "b"), 8),)
        gone = held.pop(generator.randrange(len(held)))
        held.append(word)
        stream.append(([Fact("R", word)], [Fact("R", gone)]))
    return stream


def batches(name, instance):
    """*STREAM_BATCHES* mixed batches; on a program with negation every
    fourth also toggles a node of the negated relation, so negation seeds
    both DRed phases, or pivots a counting join."""
    if name == "sequence_binding_equation":
        return word_batches(instance)
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
    if name not in TOGGLED:
        return stream
    toggled = [Fact(TOGGLED[name], [path(node)]) for node in ("l1n2", "l2n1", "l3n0")]
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
    "two_hop_negation": (
        (81, 1, 1, 0, 42, 94, 1, 0, 0, 0, 0, 0, [1]),
        (83, 0, 40, 179, 196, 881, 5, 174, 40, 0, 281, 0, []),
    ),
    "sequence_binding_equation": (
        (44, 1, 1, 0, 30, 14, 1, 0, 0, 0, 0, 0, [1]),
        (34, 0, 39, 67, 64, 67, 1, 66, 39, 0, 105, 0, []),
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
    text, make = MAINTAINED_INPUTS[name]
    instance = make()
    build = EvaluationStatistics()
    maintained = MaintainedFixpoint.evaluate(parse_program(text), instance, statistics=build)
    built = pinned(build, maintained.materialized)
    stream = EvaluationStatistics()
    for additions, retractions in batches(name, instance):
        maintained.update(
            apply_delta(maintained.materialized, additions, retractions), statistics=stream
        )
    assert (built, pinned(stream, maintained.materialized)) == MAINTAINED[name]
