"""The four ``serve_*`` workloads: a server subprocess driven over real sockets.

Each run spawns ``python -m repro.service`` (or ``traced_server.py`` for the
traced run) on an ephemeral port, uploads one reachability session as text,
drives it from this process with :mod:`loadgen`, checks every answer against
the breadth-first oracle in :mod:`inputs`, and tears the server down.

================  ============  ==========================================================
workload          loop          what the requests do
================  ============  ==========================================================
``serve_read``    closed        point queries answered from the committed view
``serve_goal``    closed        ``mode="tabled"`` goals on an unmaterialised session
``serve_write``   closed        single-fact update batches, write-ahead logged; then
                                SIGKILL, restart on the same directory, verify
``serve_mixed``   open          Poisson arrivals, 90 % point queries on one connection,
                                10 % updates on the other
================  ============  ==========================================================
"""

from __future__ import annotations

import asyncio
import bisect
from dataclasses import dataclass
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
from loadgen import Connection, Sample, closed_loop, open_loop
from metrics import REPO_ROOT, better_quartile, median, percentile, reference_loop, slowdown
from tracing import load_spans, self_times

__all__ = ["SERVE_WORKLOADS", "run_serve"]

HERE = Path(__file__).resolve().parent
#: Scratch space inside the checkout (trace files, the write-ahead log); emptied per run.
WORK = HERE / ".work"

#: The box has two cores: one for the server, one for this load generator.
CONNECTIONS = 2
#: Set-ups per run: the measured server's, then two more after the window (so
#: the three sample different moments of a noisy machine); ``setup_s`` is the median.
SETUPS = 3
#: The window is cut into rounds of about this long.  Each end-to-end metric
#: is computed per round and the run reports the *better quartile* of the
#: rounds (metrics.better_quartile): on a shared box the slow rounds measure
#: the neighbours, the fast ones the program.
ROUND_S = 1.5
WARMUP_S = 0.4
#: ``serve_write`` snapshots (and so truncates its log) once, between rounds,
#: when this share of the window is over: restore then loads a snapshot *and*
#: replays a log tail, and the tail's length does not grow with the window.
COMPACT_AT = 0.8

#: ``serve_mixed``: offered rates (requests/s, 90 % queries), fixed after one
#: calibration run on the seed commit — the bottom rung meets the limit with
#: room to spare, the top one cannot.  End-to-end latency is reported at
#: ``REFERENCE_RATE``; the traced run walks the whole ladder.
RATE_LADDER = (150, 300, 600, 1200)
REFERENCE_RATE = 300
#: The latency limit of the ladder: query p95 from the due time, and at most
#: 0.5 % of requests failed or refused.
SLO_QUERY_P95_MS = 35.0
SLO_FAILED_FRACTION = 0.005

@dataclass(frozen=True)
class _Profile:
    """What distinguishes one ``serve_*`` workload from the others."""

    graph: "tuple[int, int, int]"  # layers, width, out_degree of the layered DAG
    primary: str = "query"  # the request kind the latency metrics describe
    tabled: bool = False  # goals on an unmaterialised session, through the answer table
    durable: bool = False  # --data-dir + options.persist, then kill and restore
    open_loop: bool = False  # Poisson arrivals, queries beside updates

    @property
    def updates(self) -> bool:
        return self.open_loop or self.primary == "update"


#: Reads want a large view (≈7.7k rows); writes a smaller graph, so a window
#: holds over a thousand maintenance passes rather than a few hundred.
PROFILES = {
    "serve_read": _Profile(graph=(10, 16, 3)),
    "serve_goal": _Profile(graph=(10, 16, 3), tabled=True),
    "serve_write": _Profile(graph=(8, 16, 2), primary="update", durable=True),
    "serve_mixed": _Profile(graph=(8, 16, 2), open_loop=True),
}
SERVE_WORKLOADS = tuple(PROFILES)


# -- the server subprocess -------------------------------------------------------------


class Server:
    """One service process on an ephemeral port; always stopped via :meth:`stop`."""

    def __init__(self, *, data_dir: "str | None" = None, trace_out: "str | None" = None):
        if trace_out is None:
            command = [sys.executable, "-u", "-m", "repro.service"]
        else:
            command = [sys.executable, "-u", str(HERE / "traced_server.py"), "--trace-out", trace_out]
        command += ["--port", "0"]
        if data_dir is not None:
            command += ["--data-dir", data_dir]
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, bufsize=0)
        self.port = self._await_port()

    def _await_port(self) -> int:
        """Block until the server printed its address (restores print first)."""
        assert self.process.stdout is not None
        descriptor = self.process.stdout.fileno()
        printed = b""
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([descriptor], [], [], 1.0)
            chunk = os.read(descriptor, 4096) if ready else None
            if chunk == b"" or (chunk is None and self.process.poll() is not None):
                break
            printed += chunk or b""
            for line in printed.splitlines(keepends=True):
                if line.startswith(b"repro serving on") and line.endswith(b"\n"):
                    return int(line.rstrip(b")\n").rsplit(b",", 1)[1])
        self.stop()
        raise RuntimeError("the server did not start")

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``)."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        return 0.0

    def stop(self, sig: int = signal.SIGTERM) -> None:
        """Signal the process and wait until it has ended."""
        if self.process.poll() is None:
            self.process.send_signal(sig)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


# -- one run ---------------------------------------------------------------------------


class _Round:
    """One measured slice of the window and what the client saw in it."""

    def __init__(self, recording: bool, rate: "float | None"):
        self.recording = recording
        self.rate = rate
        self.elapsed = 0.0
        self.samples: "list[Sample]" = []
        #: Machine speed during the round (metrics.slowdown of the loops timed in it).
        self.slowdown = 1.0

    def latencies_ms(self, kind: str) -> "list[float]":
        return [s.latency_s * 1e3 for s in self.samples if s.kind == kind and s.ok]

    def latency_ms(self, kind: str, q: float) -> float:
        """A latency percentile of the round, at the reference machine speed."""
        return percentile(self.latencies_ms(kind), q) / self.slowdown

    def throughput(self) -> float:
        """2xx replies per second; at the reference machine speed in a closed loop
        (an open loop's throughput is set by its schedule, not by the machine)."""
        completed = sum(s.ok for s in self.samples) / self.elapsed
        return completed if self.rate is not None else completed * self.slowdown


def _round_plan(profile: _Profile, trace: bool, seconds: float) -> "list[_Round]":
    """Recording flag and offered rate per round.

    Traced runs alternate recording so the untraced rounds give the reference
    for ``trace.overhead_fraction`` under the same machine conditions; the
    traced ``serve_mixed`` run instead spends one reference round untraced
    and then walks the rate ladder.
    """
    count = max(5, round(seconds / ROUND_S))
    if profile.open_loop:
        if trace:
            return [_Round(False, REFERENCE_RATE)] + [_Round(True, rate) for rate in RATE_LADDER]
        return [_Round(False, REFERENCE_RATE) for _ in range(count)]
    return [_Round(trace and index % 2 == 0, None) for index in range(count)]


class _Run:
    """State of one ``serve_*`` run: inputs, the live server, the failure count."""

    def __init__(self, name: str, seed: int, trace: bool, small: bool):
        self.profile = profile = PROFILES[name]
        self.trace = trace
        self.rng = rng = random.Random(f"{name}:{seed}")
        layers, width, out_degree = profile.graph
        if small:
            layers, width = layers // 2, width // 2
        self.graph = inputs.layered_graph(rng, layers=layers, width=width, out_degree=out_degree)
        self.instance_text = self.graph.text()
        self.expected = {
            source: sorted([source, target] for target in targets)
            for source, targets in inputs.closure(self.graph.edges).items()
        }
        # More keys than a window consumes; the list is cycled if it runs out.
        make_keys = inputs.goal_keys if profile.tabled else inputs.read_keys
        self.keys = make_keys(rng, self.graph, 50_000)
        self.next_key = 0
        self.streams = inputs.UpdateStream.split(rng, self.graph, CONNECTIONS)
        WORK.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=WORK)
        self.data_dir = os.path.join(self.workdir, "data") if profile.durable else None
        self.server: "Server | None" = None
        self.session = ""
        self.connections: "list[Connection]" = []
        self.trace_files: "list[str]" = []
        self.failed = 0
        self.attempted = 0
        self.oracle_checks = 0

    # -- set-up and tear-down ----------------------------------------------------------

    def spawn(self) -> Server:
        trace_out = None
        if self.trace:
            trace_out = os.path.join(self.workdir, f"spans-{len(self.trace_files)}.jsonl")
            self.trace_files.append(trace_out)
        self.server = Server(data_dir=self.data_dir, trace_out=trace_out)
        self.connections = [Connection("127.0.0.1", self.server.port) for _ in range(CONNECTIONS)]
        return self.server

    async def close_connections(self) -> None:
        for connection in self.connections:
            await connection.close()
        self.connections = []

    async def setup(self) -> float:
        """Spawn → listening → session uploaded and materialised; returns seconds."""
        options: dict = {}
        if self.profile.tabled:
            options["materialize"] = False
        if self.data_dir is not None:
            # A fresh directory: a leftover session would be restored, not created.
            shutil.rmtree(self.data_dir, ignore_errors=True)
            options["persist"] = "bench"
        server = self.spawn()
        status, payload, _, _ = await self.connections[0].request(
            "POST",
            "/v1/sessions",
            {
                "program": inputs.REACHABILITY,
                "instance": self.instance_text,
                "output_relation": "T",
                "options": options,
            },
        )
        elapsed = time.perf_counter() - server.spawned
        if status != 201:
            raise RuntimeError(f"session creation failed: {status} {payload}")
        self.session = payload["session"]
        return elapsed

    async def teardown(self) -> None:
        await self.close_connections()
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- requests ----------------------------------------------------------------------

    def query_request(self, _connection: int):
        key = self.keys[self.next_key % len(self.keys)]
        self.next_key += 1
        body: dict = {"binding": {"0": key}}
        if self.profile.tabled:
            body["mode"] = "tabled"
        return ("query", "POST", f"/v1/sessions/{self.session}/query", body)

    def update_request(self, connection: int):
        body = self.streams[connection].next_body()
        return ("update", "POST", f"/v1/sessions/{self.session}/update", body)

    def check(self, samples: "list[Sample]") -> None:
        """Count failures: no 2xx, or (on static data) an answer the oracle rejects.

        The answer rows are dropped once checked: tens of thousands of decoded
        replies would otherwise sit in this process (≈0.5 GB on ``serve_read``)
        and its collector would stall the load it generates.
        """
        static = not self.profile.updates
        for sample in samples:
            self.attempted += 1
            if not sample.ok:
                self.failed += 1
            elif sample.kind == "query":
                rows = sample.payload.pop("answers")["T"]
                if static:
                    self.oracle_checks += 1
                    self.failed += rows != self.expected.get(sample.body["binding"]["0"], [])

    async def check_final_state(self) -> None:
        """The whole view must equal a scratch closure of seed + every sent batch."""
        edges = [edge for stream in self.streams for edge in stream.live]
        status, payload, _, _ = await self.connections[0].request(
            "POST", f"/v1/sessions/{self.session}/query", {}
        )
        self.attempted += 1
        self.oracle_checks += 1
        if status != 200 or payload["answers"]["T"] != inputs.pairs(inputs.closure(edges)):
            self.failed += 1

    async def set_recording(self, enabled: bool) -> None:
        if self.trace:
            await self.connections[0].request("POST", "/_trace", {"enabled": enabled})

    # -- the measured rounds -----------------------------------------------------------

    def _arrivals(self, per_second: float, seconds: float) -> "list[float]":
        """Seeded Poisson arrival offsets over *seconds*."""
        offsets, offset = [], self.rng.expovariate(per_second)
        while offset < seconds:
            offsets.append(offset)
            offset += self.rng.expovariate(per_second)
        return offsets

    async def drive(self, seconds: float, rate: "float | None", first_id: int) -> "list[Sample]":
        """One round: closed loop, or (``serve_mixed``) open loop at *rate* per second.

        The open loop is two independent Poisson streams — queries on one
        connection, updates on the other — so a query never queues behind an
        update *in the client*: what its latency shows is the server.
        """
        if self.profile.open_loop:
            queries, updates = await asyncio.gather(
                open_loop(
                    self.connections[:1],
                    self._arrivals(0.9 * rate, seconds),
                    self.query_request,
                    first_request_id=first_id,
                ),
                open_loop(
                    self.connections[1:],
                    self._arrivals(0.1 * rate, seconds),
                    self.update_request,
                    first_request_id=first_id + 500_000,
                ),
            )
            return queries + updates
        next_request = self.update_request if self.profile.updates else self.query_request
        return await closed_loop(self.connections, next_request, seconds, first_request_id=first_id)


async def run_serve(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one ``serve_*`` workload; returns ``correct/attempted/failed/values``."""
    run = _Run(name, seed, trace, small)
    profile = run.profile
    try:
        setups = [await run.setup()]
        # Let lazily built view indexes, plan caches and the magic rewriting fill.
        run.check(await run.drive(min(WARMUP_S, seconds / 10), REFERENCE_RATE, 1))

        rounds = _round_plan(profile, trace, seconds)
        compact_after = round(COMPACT_AT * len(rounds)) - 1 if profile.durable else None
        compacted = {"batches_committed": 0}
        for index, current in enumerate(rounds):
            await run.set_recording(current.recording)
            loops: "list[float]" = []
            watcher = asyncio.create_task(_watch_speed(loops))
            started = time.perf_counter()
            current.samples = await run.drive(seconds / len(rounds), current.rate, (index + 1) * 1_000_000)
            current.elapsed = time.perf_counter() - started
            watcher.cancel()
            await asyncio.gather(watcher, return_exceptions=True)
            current.slowdown = slowdown(loops)
            run.check(current.samples)
            if index == compact_after:
                await run.set_recording(True)
                status, _, _, _ = await run.connections[0].request(
                    "POST", f"/v1/sessions/{run.session}/snapshot", {}
                )
                run.attempted += 1
                run.failed += status != 200
                _, compacted, _, _ = await run.connections[0].request(
                    "GET", f"/v1/sessions/{run.session}"
                )
        await run.set_recording(True)

        _, stats, _, _ = await run.connections[0].request("GET", f"/v1/sessions/{run.session}")
        # The log was truncated at the snapshot: its bytes belong to the batches since.
        stats["batches_logged"] = stats["batches_committed"] - compacted["batches_committed"]
        rss = run.server.peak_rss_mb()
        restore_s = 0.0
        if profile.updates:
            await run.check_final_state()
        if profile.durable:
            restore_s = await _kill_and_restore(run)
            rss = max(rss, run.server.peak_rss_mb())
        await run.teardown()

        primary = profile.primary
        if trace:
            values = _layer_values(run, rounds, stats, restore_s)
        else:
            while len(setups) < SETUPS:
                setups.append(await run.setup())
                await run.teardown()
            values = {
                "setup_s": median(setups),
                "throughput_per_s": better_quartile(
                    (current.throughput() for current in rounds), "higher"
                ),
                "latency_p50_ms": better_quartile(
                    (current.latency_ms(primary, 0.50) for current in rounds), "lower"
                ),
                "peak_rss_mb": rss,
            }
    finally:
        await run.teardown()
        shutil.rmtree(run.workdir, ignore_errors=True)
    return {
        "correct": run.failed == 0 and run.oracle_checks > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "values": values,
    }


async def _watch_speed(loops: "list[float]") -> None:
    """Time the reference loop every 50 ms until cancelled (≈2 % of this core)."""
    while True:
        loops.append(reference_loop())
        await asyncio.sleep(0.05)


async def _kill_and_restore(run: _Run) -> float:
    """SIGKILL the server, restart it on the same directory, verify.

    A process kill keeps the operating system's page cache, so this checks
    that every acknowledged batch reached the *file* and that restore replays
    it — not fsync ordering, which the crash-point sweep in tier-1 covers.
    Returns seconds from the kill to the restored server listening.
    """
    if run.trace:  # a killed server writes no trace on exit
        await run.connections[0].request("POST", "/_trace", {"dump": True})
    await run.close_connections()
    killed = time.perf_counter()
    run.server.stop(signal.SIGKILL)
    run.spawn()
    restore_s = time.perf_counter() - killed
    status, listing, _, _ = await run.connections[0].request("GET", "/v1/sessions")
    sessions = listing["sessions"] if status == 200 else []
    run.attempted += 1
    if len(sessions) != 1:
        run.failed += 1
        return restore_s
    run.session = sessions[0]["session"]
    await run.check_final_state()
    return restore_s


# -- per-layer values from the trace ----------------------------------------------------


class _Cover:
    """A union of intervals that answers "how much of ``[low, high]`` is covered"."""

    def __init__(self, intervals: "list[tuple[float, float]]"):
        self.starts: "list[float]" = []
        self.ends: "list[float]" = []
        for start, end in sorted(intervals):
            if self.ends and start <= self.ends[-1]:
                self.ends[-1] = max(self.ends[-1], end)
            else:
                self.starts.append(start)
                self.ends.append(end)
        self.before = [0.0]
        for start, end in zip(self.starts, self.ends):
            self.before.append(self.before[-1] + end - start)

    def _upto(self, point: float) -> float:
        index = bisect.bisect_right(self.starts, point)
        if index == 0:
            return 0.0
        return self.before[index - 1] + min(point, self.ends[index - 1]) - self.starts[index - 1]

    def within(self, low: float, high: float) -> float:
        return max(0.0, self._upto(high) - self._upto(low))


def _layer_values(
    run: _Run, rounds: "list[_Round]", stats: dict, restore_s: float
) -> "dict[str, float]":
    """Every per-layer metric of one traced ``serve_*`` run.

    Times are milliseconds of *self time* per call, as medians over the
    recorded rounds, unless the name says otherwise; set-up work (parsing the
    upload, the initial fixpoint, the magic rewriting) happens once per
    session and is reported as its total.
    """
    primary = run.profile.primary
    spans = load_spans(run.trace_files[0])
    own = self_times(spans)
    restored_own = self_times(load_spans(run.trace_files[1])) if restore_s else {}
    recorded = [current for current in rounds if current.recording]
    if run.profile.open_loop:
        # The ladder's other rungs only decide rate_under_slo; layer times and
        # latencies are those of the reference rate, like the end-to-end run's.
        recorded = [current for current in recorded if current.rate == REFERENCE_RATE]
    samples = [s for current in recorded for s in current.samples if s.ok]
    low = min((s.sent for s in samples), default=0.0)
    high = max((s.done for s in samples), default=0.0)
    by_name: "dict[str, list[dict]]" = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def per_call_ms(name: str) -> "list[float]":
        return [seconds * 1e3 for start, seconds in own.get(name, ()) if low <= start <= high]

    def total_ms(name: str, source=own) -> float:
        return sum(seconds for _, seconds in source.get(name, ())) * 1e3

    queries = [s for s in samples if s.kind == "query"]
    updates = [s for s in samples if s.kind == "update"]
    primaries = updates if primary == "update" else queries
    values: "dict[str, float]" = {}

    # service.http: what the client saw beyond the dispatch span.
    dispatch = {span["request"]: span for span in by_name.get("service.http.dispatch", ())}
    values["service.http.overhead_ms"] = median(
        (s.done - s.sent - (dispatch[s.request_id]["end"] - dispatch[s.request_id]["start"])) * 1e3
        for s in samples
        if s.request_id in dispatch
    )
    values["service.http.response_bytes"] = median(s.response_bytes for s in primaries)
    values["service.http.query_p99_ms"] = percentile((s.latency_s * 1e3 for s in queries), 0.99)
    for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        values[f"service.http.update_{label}_ms"] = percentile(
            (s.latency_s * 1e3 for s in updates), q
        )

    # service.core
    select_ms = per_call_ms("service.core.view_select")
    values["service.core.view_select_ms"] = median(select_ms)
    values["service.core.view_select_max_ms"] = max(select_ms, default=0.0)
    values["service.core.view_capture_ms"] = median(per_call_ms("service.core.view_capture"))
    # A queued batch rides the first maintenance pass that starts after it arrived.
    passes = sorted(span["start"] for span in by_name.get("engine.query.update", ()))
    waits = []
    for span in by_name.get("service.core.enqueue_update", ()):
        index = bisect.bisect_left(passes, span["start"])
        if low <= span["start"] <= high and index < len(passes):
            waits.append((passes[index] - span["start"]) * 1e3)
    values["service.core.update_queue_wait_ms"] = median(waits)
    if stats["maintenance_passes"]:
        values["service.core.coalescing_factor"] = (
            stats["batches_committed"] / stats["maintenance_passes"]
        )
    values["service.core.shed_fraction"] = (
        stats["shed_updates"] + stats["shed_queries"]
    ) / max(1, run.attempted)

    # io.serialization / parser
    values["io.serialization.rows_to_json_ms"] = median(per_call_ms("io.serialization.rows_to_json"))
    values["io.serialization.instance_from_text_ms"] = total_ms("io.serialization.instance_from_text")
    values["parser.parse_program_ms"] = total_ms("parser.parse_program")

    # io.durability (recover runs in the restarted server, which has its own trace)
    values["io.durability.log_commit_ms"] = median(per_call_ms("io.durability.log_commit"))
    syncs = per_call_ms("io.durability.sync")
    values["io.durability.sync_ms"] = median(syncs)
    values["io.durability.snapshot_ms"] = total_ms("io.durability.snapshot")
    values["io.durability.recover_ms"] = total_ms("io.durability.recover", restored_own)
    values["io.durability.restore_s"] = restore_s
    if updates and stats["durable"]:
        values["io.durability.fsyncs_per_update"] = len(syncs) / len(updates)
        values["io.durability.wal_bytes_per_update"] = stats["wal_bytes"] / max(1, stats["batches_logged"])

    # engine: maintenance on the write path, tabling and magic on the goal path
    values["engine.query.update_ms"] = median(per_call_ms("engine.query.update"))
    values["engine.maintenance.update_ms"] = median(per_call_ms("engine.maintenance.update"))
    # Coalesced batches share one pass and one statistics block: count it once.
    pass_statistics = {s.payload["generation"]: s.payload["update"]["statistics"] for s in updates}
    for counter, metric in (
        ("maintenance_rounds", "engine.maintenance.rounds_per_pass"),
        ("rederivation_attempts", "engine.maintenance.rederivation_attempts"),
    ):
        if pass_statistics:
            values[metric] = sum(block[counter] for block in pass_statistics.values()) / len(
                pass_statistics
            )
    values["storage.relation.view_rebuild_ms"] = sum(
        per_call_ms("storage.relation.view_rebuild")
    ) / max(1, len(primaries))
    values["engine.query.run_ms"] = median(per_call_ms("engine.query.run"))
    if queries:
        values["engine.query.served_by_tabled_fraction"] = sum(
            s.payload.get("served_by") == "tabled" for s in queries
        ) / len(queries)
    lookups = [
        span for span in by_name.get("engine.tabling.lookup", ()) if low <= span["start"] <= high
    ]
    if lookups:
        values["engine.tabling.hit_rate"] = sum(bool(span["note"]) for span in lookups) / len(lookups)
    values["engine.tabling.lookup_ms"] = median(per_call_ms("engine.tabling.lookup"))
    values["transform.magic.rewrite_ms"] = total_ms("transform.magic.rewrite")
    values["transform.magic.rewrites"] = len(by_name.get("transform.magic.rewrite", ()))
    values["engine.fixpoint.evaluate_s"] = total_ms("engine.fixpoint.evaluate") / 1e3
    values["engine.evaluation.plan_s"] = total_ms("engine.evaluation.plan") / 1e3

    # harness.  A request's observed time is explained by its own root span
    # (arrival → encoded reply), by the client's own encode/decode, and — for
    # the stretch before the server noticed it — by whatever the single
    # server thread was demonstrably busy with: another view read, or engine
    # work holding the interpreter lock.
    roots = {span["request"]: span for span in by_name.get("service.http.request", ())}
    busy = _Cover(
        [(roots[s.request_id]["start"], roots[s.request_id]["end"]) for s in queries if s.request_id in roots]
        + [
            (span["start"], span["end"])
            for name in ("engine.query.update", "engine.query.run")
            for span in by_name.get(name, ())
        ]
    )
    observed = explained = 0.0
    for s in samples:
        root = roots.get(s.request_id)
        if root is not None:
            observed += s.done - s.sent
            explained += (
                root["end"] - root["start"] + busy.within(s.sent, root["start"]) + s.client_s
            )
    values["trace.accounted_fraction"] = explained / observed if observed else 0.0

    # The tail of the primary request, and what recording costs: its median
    # with recording on over off.  Each is the better quartile of its rounds,
    # like the end-to-end metrics.
    def quartile_of_rounds(q: float, recording: bool) -> float:
        return better_quartile(
            (
                current.latency_ms(primary, q)
                for current in rounds
                if current.recording == recording and current.rate in (None, REFERENCE_RATE)
            ),
            "lower",
        )

    values["harness.latency_p95_ms"] = quartile_of_rounds(0.95, True)
    off = quartile_of_rounds(0.5, False)
    values["trace.overhead_fraction"] = quartile_of_rounds(0.5, True) / off - 1 if off else 0.0

    if run.profile.open_loop:
        values["loadgen.lateness_p95_ms"] = percentile(
            ((s.sent - s.due) * 1e3 for current in recorded for s in current.samples), 0.95
        )
        values["loadgen.rate_under_slo"] = _rate_under_slo(rounds[1:])
    return values


def _rate_under_slo(rungs: "list[_Round]") -> float:
    """The highest ladder rate such that it and every lower one meet the limit."""
    best, met = 0.0, True
    for rung in sorted(rungs, key=lambda current: current.rate):
        failed = sum(not s.ok for s in rung.samples) / max(1, len(rung.samples))
        p95 = percentile(rung.latencies_ms("query"), 0.95)
        met = met and failed <= SLO_FAILED_FRACTION and 0.0 < p95 <= SLO_QUERY_P95_MS
        if met:
            best = float(rung.rate)
        print(
            f"rung {rung.rate:>5} req/s: query p95 {p95:8.2f} ms, failed {failed:.4f}, "
            f"{len(rung.samples)} requests, {'meets' if met else 'misses'} the limit",
            file=sys.stderr,
        )
    return best
