"""Published views stay readable while later passes advance their relations.

A committed read runs on the event loop while the next maintenance pass
advances the same relations' columnar views in the executor thread.  The
storage layer makes that safe by never mutating what a published view reads:
an advance copies each grouping and replaces the buckets it touches.  This
test drops the interpreter's switch interval so the reader threads are
interrupted inside a probe as often as possible, and holds every read of a
held view to its generation's oracle rows.
"""

import random
import sys
import threading

from repro.engine import ProgramQuery
from repro.io.serialization import rows_to_json
from repro.model import Fact, Instance, path
from repro.parser import parse_program
from repro.service import CommittedView

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""

NODES = [f"n{index}" for index in range(16)]
PASSES = 60
READERS = 3


def edge(source, target):
    return Fact("E", (path(source), path(target)))


def instance_from_edges(edges):
    instance = Instance()
    for source, target in edges:
        instance.add("E", source, target)
    return instance


def edb_states(rng):
    """The EDB of every generation, and the update batch that leads to each."""
    pairs = [(s, t) for s in NODES for t in NODES if s != t]
    current = set(rng.sample(pairs, 28))
    states, batches = [frozenset(current)], []
    for _ in range(PASSES):
        retracts = rng.sample(sorted(current), 2)
        adds = rng.sample(sorted(set(pairs) - current), 2)
        current.difference_update(retracts)
        current.update(adds)
        states.append(frozenset(current))
        batches.append(([edge(*pair) for pair in adds], [edge(*pair) for pair in retracts]))
    return states, batches


#: Every read the threads make: unbound, one bound position per node (and a
#: value nothing holds), and both positions; of both relations.
BINDINGS = [
    {},
    *({position: path(node)} for node in [*NODES, "unseen"] for position in (0, 1)),
    {0: path("n0"), 1: path("n1")},
]
READS = [(name, binding) for name in ("E", "T") for binding in BINDINGS]


def key(name, binding):
    return name, tuple(sorted(binding.items()))


def oracle_reads(query, state, oracle_output):
    """``(relation, binding)`` → the wire rows the oracle selects at *state*."""
    instance = instance_from_edges(state)
    relations = {"E": instance.relation("E"), "T": oracle_output(query, instance).relation("T")}
    return {
        key(name, binding): rows_to_json(
            row
            for row in relations[name]
            if all(row[position] == value for position, value in binding.items())
        )
        for name, binding in READS
    }


def test_held_views_answer_their_generation_while_passes_advance_them(oracle_output):
    states, batches = edb_states(random.Random(37))
    query = ProgramQuery(parse_program(REACHABILITY_PAIRS), {"E": 2}, "T", require_monadic=False)
    expected = [oracle_reads(query, state, oracle_output) for state in states]

    session = query.session(instance_from_edges(states[0]))
    session.run(mode="full")
    published = [CommittedView.capture(0, session.materialized)]
    done = threading.Event()
    failures: "list[str]" = []

    def read(seed):
        local = random.Random(seed)
        while not done.is_set():
            # Mostly the newest view: the one the running pass advances.
            view = published[-1] if local.random() < 0.7 else local.choice(published)
            name, binding = local.choice(READS)
            want = expected[view.generation][key(name, binding)]
            try:
                got = (rows_to_json(view.select(name, binding)), view.answer(name, binding))
            except Exception as error:  # noqa: BLE001 - reported by the assert below
                got = error
            if got != (want, want):
                failures.append(f"generation {view.generation}, {name} {binding}: {got!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=read, args=(index,)) for index in range(READERS)]
    try:
        for reader in readers:
            reader.start()
        for generation, (additions, retractions) in enumerate(batches, start=1):
            session.update(additions, retractions)
            published.append(CommittedView.capture(generation, session.materialized))
    finally:
        # Also when a pass raises: a reader left spinning would hang the suite.
        done.set()
        for reader in readers:
            if reader.is_alive():
                reader.join(timeout=60)
        sys.setswitchinterval(interval)
        session.close()
    assert not any(reader.is_alive() for reader in readers)
    assert failures == []
    for view in published:  # and once more, with every pass done
        for name, binding in READS:
            got = rows_to_json(view.select(name, binding))
            assert got == expected[view.generation][key(name, binding)]
