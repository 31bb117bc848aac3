"""Property test: concurrent serving is serializable.

Any interleaving of concurrent queries and coalesced update batches must be
equivalent to *some* serial order.  The acks fix the serial order of the
writes: each request is told the generation of the pass that committed it
and how many requests shared that pass, and a query's response carries the
generation it observed.  The property then reads: every response must
equal a from-scratch rebuild of the EDB obtained by applying the requests
one by one, in enqueue order, up to that generation — and the final
committed view must equal the rebuild at the last generation.  The test
folds each request itself, so a wrong merge on the server cannot hide.

Hypothesis drives the space: random seed graphs, random addition/retraction
batches (including retractions of absent facts and add/retract collisions
across concurrent batches), and a random interleaving of reads between the
enqueues.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ProgramQuery
from repro.io.serialization import rows_from_json
from repro.model import Fact, Instance, path
from repro.parser import parse_program
from repro.service import SessionHandle

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""

NODES = ("a", "b", "c", "d")
EDGES = tuple((s, t) for s in NODES for t in NODES if s != t)

edges_strategy = st.lists(st.sampled_from(EDGES), max_size=3, unique=True)
batch_strategy = st.tuples(edges_strategy, edges_strategy)


def pair_query():
    return ProgramQuery(
        parse_program(REACHABILITY_PAIRS), {"E": 2}, "T", require_monadic=False
    )


def edge(source, target):
    return Fact("E", (path(source), path(target)))


def instance_from_edges(edges):
    instance = Instance()
    for source, target in edges:
        instance.add("E", source, target)
    return instance


def expected_answers(edges):
    result = pair_query().run(instance_from_edges(edges))
    return set(result.output.relation("T"))


def drive(seed_edges, batches, read_mask):
    """Run the interleaving; returns (observations, acks, final view, errors)."""

    async def scenario():
        query = pair_query()
        handle = SessionHandle(
            "prop", "tenant", query, query.session(instance_from_edges(seed_edges))
        )
        await handle.ensure_materialized()
        observations = []

        async def observe():
            response = await handle.run_query(mode="full")
            observations.append(
                (response["generation"], set(rows_from_json(response["answers"]["T"])))
            )

        updates, reads = [], []
        for index, (adds, retracts) in enumerate(batches):
            updates.append(
                asyncio.ensure_future(
                    handle.enqueue_update(
                        [edge(*pair) for pair in adds],
                        [edge(*pair) for pair in retracts],
                    )
                )
            )
            if read_mask[index % len(read_mask)]:
                reads.append(asyncio.ensure_future(observe()))
                await asyncio.sleep(0)  # let the flusher vary its pass boundaries
        acks = await asyncio.gather(*updates, return_exceptions=True)
        read_outcomes = await asyncio.gather(*reads, return_exceptions=True)
        await observe()  # one read that must see the final generation
        final_view = handle.committed
        handle.close()
        errors = [
            outcome for outcome in (*acks, *read_outcomes) if isinstance(outcome, BaseException)
        ]
        return observations, acks, final_view, errors

    return asyncio.run(scenario())


@settings(max_examples=25, deadline=None)
@given(
    seed=edges_strategy,
    batches=st.lists(batch_strategy, min_size=1, max_size=6),
    read_mask=st.lists(st.booleans(), min_size=1, max_size=4),
)
def test_any_interleaving_is_equivalent_to_a_serial_order(
    seed, batches, read_mask, acked_edb_states
):
    observations, acks, final_view, errors = drive(seed, batches, read_mask)
    assert not errors

    # Every request was acked by exactly one pass, generations 1…N in
    # enqueue order, each pass as large as the coalesced_batches it reports.
    states = acked_edb_states(seed, batches, acks)
    # Every read saw exactly the answers of a scratch rebuild at the
    # committed generation it reports — i.e. the interleaving is equivalent
    # to the serial order: requests in enqueue order, each read placed at
    # its observed generation.
    for generation, answers in observations:
        assert generation in states
        assert answers == expected_answers(states[generation]), (
            f"read at generation {generation} is not serializable"
        )

    # The last read (issued after every update resolved) saw the final state,
    # and the committed view agrees with it.
    last_generation, last_answers = observations[-1]
    assert last_generation == max(states)
    assert final_view is not None and final_view.generation == last_generation
    assert set(final_view.select("T", {})) == expected_answers(states[last_generation])
