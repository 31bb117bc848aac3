"""Restore and WAL economics on the workload of ``benchmarks/bench_recovery.py``.

The deterministic gate of that benchmark, run with the test suite.  A
persisted session over a layered graph, restarted by ``restore_all``
(snapshot load + log-tail replay), serves the answers it served before the
restart with every tail commit replayed.  With fsync on, a coalesced closed
loop of single-fact batches logs exactly one record per maintenance pass,
commits every batch and answers as a plain session does.  The benchmark
keeps the wall-clock report beside it.
"""

import asyncio
from collections import deque

from repro.io.serialization import instance_to_text
from repro.model import Fact, path
from repro.service import SessionRegistry
from repro.workloads import as_edge_pairs, layered_graph_instance

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""

RESTORE_GRAPH = dict(layers=12, width=12, edges_per_node=3, seed=7)
TAIL_COMMITS = 8
SERVING_GRAPH = dict(layers=6, width=8, edges_per_node=2, seed=3)
UPDATE_BATCHES = 400
UPDATE_CLIENTS = 16


def graph_text(spec):
    return instance_to_text(as_edge_pairs(layered_graph_instance(**spec)))


def update_batches(seed_rows):
    """Write-heavy traffic: disconnected fresh pairs + seed retractions."""
    seed_edges = sorted(seed_rows, key=lambda row: tuple(tuple(p) for p in row))
    batches = []
    for index in range(UPDATE_BATCHES):
        additions = [Fact("E", (path(f"u{2 * index}"), path(f"u{2 * index + 1}")))]
        retractions = []
        if index % 4 == 0 and index // 4 < len(seed_edges):
            source, target = seed_edges[index // 4]
            retractions = [Fact("E", (source, target))]
        batches.append((additions, retractions))
    return batches


def test_restore_serves_the_answers_of_the_killed_writer(tmp_path):
    async def build_and_persist():
        registry = SessionRegistry(persist_root=tmp_path)
        handle = await registry.create(
            program=REACHABILITY_PAIRS,
            instance=graph_text(RESTORE_GRAPH),
            options={"persist": "bench"},
        )
        for index in range(TAIL_COMMITS):
            await handle.enqueue_update(
                [Fact("E", (path(f"t{index}"), path(f"t{index + 1}")))], []
            )
        answers = (await handle.run_query())["answers"]
        registry.close_all()
        return answers

    async def restore():
        registry = SessionRegistry(persist_root=tmp_path)
        (handle,) = await registry.restore_all()
        assert registry.restore_errors == []
        assert handle.maintenance_passes == TAIL_COMMITS  # the tail, not a rebuild
        restored = (await handle.run_query())["answers"]
        generation = handle.generation
        registry.close_all()
        return restored, generation

    answers = asyncio.run(build_and_persist())
    restored, generation = asyncio.run(restore())
    assert restored == answers
    assert generation == TAIL_COMMITS


def test_a_coalesced_closed_loop_logs_one_record_per_pass(tmp_path):
    text = graph_text(SERVING_GRAPH)

    async def run_mode(durable):
        registry = SessionRegistry(persist_root=tmp_path if durable else None)
        options = {"persist": "wal"} if durable else {}
        handle = await registry.create(program=REACHABILITY_PAIRS, instance=text, options=options)
        queue = deque(update_batches(handle.session.instance.relation("E")))

        async def client():
            while queue:
                additions, retractions = queue.popleft()
                await handle.enqueue_update(additions, retractions)

        await asyncio.gather(*(client() for _ in range(UPDATE_CLIENTS)))
        answers = (await handle.run_query())["answers"]
        stats = handle.stats()
        registry.close_all()
        return answers, stats

    plain_answers, plain = asyncio.run(run_mode(False))
    durable_answers, durable = asyncio.run(run_mode(True))
    assert plain["batches_committed"] == durable["batches_committed"] == UPDATE_BATCHES
    assert durable_answers == plain_answers
    assert durable["records_logged"] == durable["maintenance_passes"] <= UPDATE_BATCHES
