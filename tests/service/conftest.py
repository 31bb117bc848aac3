"""Shared fixtures for the serving tests."""

import pytest


def _acked_edb_states(seed_edges, batches, acks):
    """The EDB at every acked generation, from what the clients were told.

    *batches* are the requests' ``(adds, retracts)`` edge lists and *acks*
    their acknowledgements, both in enqueue order.  The flusher takes FIFO
    prefixes of the queue, so the requests of one pass are consecutive:
    generations must run 1…N without a gap or a step back, and each
    generation's group of requests must be exactly as large as the
    ``coalesced_batches`` its acks report.  Each request is then folded on
    its own, serially — retractions before additions, as one update
    applies them — so the states never depend on how the server merged a
    pass.
    """
    generations = [ack["generation"] for ack in acks]
    assert generations == sorted(generations), "acks out of enqueue order"
    passes = list(dict.fromkeys(generations))
    assert passes == list(range(1, len(passes) + 1))
    for generation in passes:
        group = [ack for ack in acks if ack["generation"] == generation]
        assert {ack["coalesced_batches"] for ack in group} == {len(group)}
    current = set(seed_edges)
    states = {0: frozenset(current)}
    for (adds, retracts), generation in zip(batches, generations, strict=True):
        current.difference_update(retracts)
        current.update(adds)
        states[generation] = frozenset(current)
    return states


@pytest.fixture(scope="session")
def acked_edb_states():
    """:func:`_acked_edb_states`: the serial EDB states the acks prove."""
    return _acked_edb_states
