"""RECOVERY — durability economics: restore-vs-rebuild and WAL overhead.

Not a paper experiment: this benchmark prices the durability layer
(:mod:`repro.io.durability`) and reports its wall time on two workloads:

* **Restore against rebuild** — a persisted session over a layered graph
  is brought back by ``restore_all`` (snapshot load + WAL-tail replay, no
  fixpoint evaluation, thanks to :meth:`MaintainedFixpoint.from_support`);
  restore and scratch-rebuild seconds are reported.

* **WAL overhead** — an update-heavy closed-loop mix (400 single-fact
  batches from 16 clients) runs against a plain session and against a
  persisted one (fsync-on-commit), best-of-3 each; both throughputs, their
  ratio and the records logged are reported.

The deterministic gate on the same workloads — restored answers equal the
answers before the restart with every tail commit replayed; one record per
pass, every batch committed, answers equal to the plain session's — is
``tests/service/test_durable_serving.py``.  With ``--json`` the measured
numbers land in ``BENCH_recovery.json``.  The wall-time side is measured end
to end by ``benchmarks/e2e`` (``serve_write``: ``io.durability.restore_s``,
``io.durability.sync_ms``); no wall-clock bar is asserted here.
"""

import asyncio
import time
from collections import deque

from repro.io.serialization import instance_to_text
from repro.model import Fact, path
from repro.service import SessionRegistry
from repro.workloads import as_edge_pairs, layered_graph_instance

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""

SERVING_GRAPH = dict(layers=6, width=8, edges_per_node=2, seed=3)
UPDATE_BATCHES = 400
UPDATE_CLIENTS = 16
#: Both modes take best-of-N wall time: a single ~0.2s closed-loop sample
#: swings ±30% with scheduler jitter, far above the fsync cost under test.
THROUGHPUT_TRIALS = 3

#: Big enough that the full fixpoint costs real wall time.
RESTORE_GRAPH = dict(layers=12, width=12, edges_per_node=3, seed=7)
TAIL_COMMITS = 8


def _graph_text(spec):
    return instance_to_text(as_edge_pairs(layered_graph_instance(**spec)))


def _update_batches(seed_rows):
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


def test_restore_lands_on_the_persisted_serving_state(bench_report, tmp_path):
    """Snapshot + tail replay against a scratch rebuild, in seconds."""
    text = _graph_text(RESTORE_GRAPH)

    async def build_and_persist():
        registry = SessionRegistry(persist_root=tmp_path)
        started = time.perf_counter()
        handle = await registry.create(
            program=REACHABILITY_PAIRS,
            instance=text,
            options={"persist": "bench"},
        )
        scratch_seconds = time.perf_counter() - started
        # A short post-snapshot tail so the restore path replays the WAL too.
        for index in range(TAIL_COMMITS):
            await handle.enqueue_update(
                [Fact("E", (path(f"t{index}"), path(f"t{index + 1}")))], []
            )
        edb_facts = handle.stats()["edb_facts"]
        registry.close_all()
        return scratch_seconds, edb_facts

    scratch_seconds, edb_facts = asyncio.run(build_and_persist())

    async def restore():
        registry = SessionRegistry(persist_root=tmp_path)
        started = time.perf_counter()
        (handle,) = await registry.restore_all()
        restore_seconds = time.perf_counter() - started
        assert registry.restore_errors == []
        registry.close_all()
        return restore_seconds

    restore_seconds = asyncio.run(restore())

    speedup = scratch_seconds / max(restore_seconds, 1e-9)
    bench_report(
        "recovery",
        workload=(
            f"layered-graph reachability ({edb_facts} EDB facts), snapshot + "
            f"{TAIL_COMMITS}-commit WAL tail vs full re-materialization"
        ),
        scratch_seconds=scratch_seconds,
        restore_seconds=restore_seconds,
        restore_speedup=speedup,
        tail_commits=TAIL_COMMITS,
    )
    print()
    print(
        f"restore: {restore_seconds:.3f}s (snapshot + {TAIL_COMMITS}-commit tail) "
        f"vs {scratch_seconds:.3f}s scratch rebuild — {speedup:.1f}× "
        f"({edb_facts} EDB facts)"
    )


def test_wal_append_is_one_record_per_coalesced_pass(bench_report, tmp_path):
    """fsync-on-commit throughput against a plain session, best-of-N."""
    text = _graph_text(SERVING_GRAPH)

    async def run_mode(durable, trial):
        registry = SessionRegistry(persist_root=tmp_path if durable else None)
        options = {"persist": f"wal-bench-{trial}"} if durable else {}
        handle = await registry.create(
            program=REACHABILITY_PAIRS, instance=text, options=options
        )
        batches = _update_batches(handle.session.instance.relation("E"))
        queue = deque(batches)

        async def client():
            while queue:
                additions, retractions = queue.popleft()
                await handle.enqueue_update(additions, retractions)

        started = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(UPDATE_CLIENTS)))
        elapsed = time.perf_counter() - started
        records = handle.stats()["records_logged"]
        registry.close_all()
        return elapsed, records

    def best_of(durable):
        samples = [
            asyncio.run(run_mode(durable, trial)) for trial in range(THROUGHPUT_TRIALS)
        ]
        return min(sample[0] for sample in samples), samples[-1][1]

    plain_seconds, _ = best_of(False)
    durable_seconds, records = best_of(True)

    plain_throughput = UPDATE_BATCHES / max(plain_seconds, 1e-9)
    durable_throughput = UPDATE_BATCHES / max(durable_seconds, 1e-9)
    ratio = durable_throughput / max(plain_throughput, 1e-9)
    bench_report(
        "recovery",
        wal_workload=(
            f"{UPDATE_BATCHES} single-fact update batches (25% with "
            f"retractions) from {UPDATE_CLIENTS} closed-loop clients, "
            f"fsync-on-commit WAL vs no durability"
        ),
        plain_update_seconds=plain_seconds,
        durable_update_seconds=durable_seconds,
        durable_updates_per_second=durable_throughput,
        wal_records_logged=records,
        wal_throughput_ratio=ratio,
    )
    print()
    print(
        f"WAL overhead: {durable_throughput:.0f}/s durable vs "
        f"{plain_throughput:.0f}/s plain ({records} appends for "
        f"{UPDATE_BATCHES} batches) — ratio {ratio:.2f}"
    )
