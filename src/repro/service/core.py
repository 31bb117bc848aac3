"""The serving core: sessions, write coalescing, committed reads, admission.

This module is the transport-free heart of the network service
(:mod:`repro.service.http` wraps it in HTTP; tests drive it directly).
It turns one :class:`~repro.engine.query.QuerySession` into a
*concurrent* serving unit and a set of them into a multi-tenant registry:

* **Write coalescing** — concurrent update requests against one session are
  queued and merged into a single maintenance pass
  (:meth:`SessionHandle.enqueue_update`).  The merge folds the batches in
  arrival order over fact space (a later retraction cancels a queued
  addition of the same fact and vice versa), so one merged
  :meth:`QuerySession.update` call is extensionally equivalent to applying
  the batches serially — while paying the fixpoint/round overhead, and on
  a durable session the WAL record and its fsync, once.  Coalescing is the
  write path's only amortiser: every pass is update → append + fsync →
  publish → ack in one executor hop, the queue is taken once the session
  lock is held (batches that arrive while a tabled query or a snapshot
  holds it share the next pass), and every request is acked individually
  after *its own* pass's fsync, with the committed generation and how many
  batches shared the pass.  Flush and restore record a committed pass
  through one applier (:meth:`SessionHandle._apply_commits`).

* **Concurrent reads during maintenance** — every committed maintenance
  pass publishes a :class:`CommittedView` of the materialization's columnar
  views, which later passes advance into new views without mutating the
  published ones.  Queries that a warm materialization can answer are
  served from the last committed view *on the event loop*, without touching
  the :class:`QuerySession` — so they never wait behind a maintenance pass
  running in the executor thread.  The loop serves what is already
  computed (a committed view; a table entry, under the per-session lock);
  the executor computes.

* **Admission control** — per-session queue-depth limits for updates, an
  in-flight cap for queries, and an EDB budget checked against the
  session's :class:`~repro.engine.limits.EvaluationLimits` shed excess load
  with explicit 429-style :class:`ServiceError` responses instead of
  letting one tenant collapse the service.

:class:`SessionRegistry` adds the multi-tenant lifecycle: sessions are
created from program + instance text (through the existing parser and
:mod:`repro.io.serialization`), per-tenant budgets bound session counts and
``table_capacity``, and least-recently-used sessions are evicted (and
closed — :meth:`QuerySession.close` is idempotent and finalizer-guarded)
when a tenant or the whole service exceeds its capacity.
"""

from __future__ import annotations

import asyncio
import itertools
import pathlib
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from repro.engine.fixpoint import EvaluationStatistics
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.engine.query import ProgramQuery, QuerySession, UpdateResult
from repro.engine.reasons import (
    ADMISSION_PRESSURE,
    SERVICE_CAPACITY,
    TENANT_CAPACITY,
)
from repro.engine.tabling import EVICTION_LOG_LIMIT
from repro.errors import (
    DirectoryInUseError,
    EvaluationBudgetExceeded,
    SequenceDatalogError,
    SnapshotUnsupportedError,
)
from repro.io.durability import (
    DEFAULT_SNAPSHOT_WAL_BYTES,
    SessionDurability,
    decode_commit,
)
from repro.io.serialization import (
    NO_ROWS,
    EncodedAnswer,
    fact_from_json,
    instance_from_text,
    memoised_answer,
    path_from_text,
    path_to_text,
    query_result_to_json,
    rows_to_json,  # noqa: F401 - benchmarks/e2e/tracing.py patches it here
    statistics_to_json,
    update_result_to_json,
)
from repro.model.instance import Fact, Instance
from repro.model.terms import Path, as_path
from repro.parser.parser import parse_program
from repro.storage.columnar import ColumnarView

__all__ = [
    "AdmissionLimits",
    "CommittedView",
    "ServiceError",
    "SessionHandle",
    "SessionRegistry",
    "TenantBudget",
]


class ServiceError(SequenceDatalogError):
    """A request-level failure with an HTTP-shaped status and error code.

    ``status`` 429 marks *shedding*: the request was refused by admission
    control (queue depth, concurrency cap, or budget) and can be retried;
    4xx others are caller errors; 5xx are service-side failures.
    """

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code

    def to_json(self) -> dict:
        return {"error": {"code": self.code, "message": str(self)}}


@dataclass(frozen=True)
class AdmissionLimits:
    """Per-session admission-control knobs.

    ``max_pending_updates`` bounds the coalescing queue: an update arriving
    at a full queue is shed with 429 ``too_many_pending_updates`` rather
    than growing the backlog without bound.  ``max_concurrent_queries``
    bounds in-flight query requests the same way.  ``max_edb_facts`` is the
    tenant's base-data budget: an update whose net effect would push the
    EDB past it is shed with 429 ``edb_budget_exceeded`` *before* any work
    happens (``None`` defers to the session's evaluation limits
    ``max_facts``, which also guard the derived side during maintenance).
    """

    max_pending_updates: int = 256
    max_concurrent_queries: int = 256
    max_edb_facts: "int | None" = None


@dataclass(frozen=True)
class TenantBudget:
    """Per-tenant resource budget enforced by :class:`SessionRegistry`."""

    max_sessions: int = 8
    table_capacity: "int | None" = None
    admission: AdmissionLimits = field(default_factory=AdmissionLimits)


class CommittedView:
    """An immutable snapshot of a materialization at one committed generation.

    Per relation, the snapshot is the columnar view the materialization
    keeps current; :meth:`capture` groups every position of it, which later
    passes copy forward instead of mutating
    (:meth:`~repro.storage.columnar.ColumnarView.advanced`), so publishing
    costs O(delta) and a read on the event loop probes prebuilt groupings
    while the next pass advances the same relations in the executor.  The
    encoded answer of a read is memoised on the relation's columnar view,
    so a repeated read encodes nothing, and a relation no pass changed
    keeps its view, and with it its answers, from one generation to the next.
    """

    __slots__ = ("generation", "relations")

    def __init__(self, generation: int, relations: "dict[str, ColumnarView]"):
        self.generation = generation
        self.relations = relations

    @staticmethod
    def capture(generation: int, instance: Instance) -> "CommittedView":
        """Snapshot *instance* (a materialization) at *generation*; called with
        the maintenance thread quiescent, so readers on the loop build nothing."""
        table = instance.term_table()
        relations = {}
        for name in instance.relation_names:
            view = relations[name] = instance.storage(name).columnar(table)
            for position in range(len(view.id_rows[0]) if view.id_rows else 0):
                view.groups(position)
        return CommittedView(generation, relations)

    def select(self, name: str, binding: "Mapping[int, Path]") -> "Sequence[tuple]":
        """The rows of *name* matching *binding* (all rows when unbound)."""
        view = self.relations.get(name)
        return () if view is None else view.select(binding)

    def answer(self, name: str, binding: "Mapping[int, Path]") -> EncodedAnswer:
        """``encode_answer(self.select(name, binding))``, memoised on the view
        of *name* (:func:`~repro.io.serialization.memoised_answer`)."""
        view = self.relations.get(name)
        if view is None:
            return NO_ROWS
        return memoised_answer(view.answers, binding, partial(self.select, name))


@dataclass
class _PendingUpdate:
    """One queued update request awaiting its (possibly shared) pass."""

    additions: "list[Fact]"
    retractions: "list[Fact]"
    future: "asyncio.Future"


class _WalAppendFailed(Exception):
    """Internal: the WAL append at the commit point failed.

    Wraps the underlying error so the flusher can distinguish "the update
    itself failed" (recoverable per-request) from "the update succeeded but
    could not be made durable" — after which the in-memory state is ahead of
    the log and the handle must close rather than keep acking writes that a
    restart would lose.
    """

    def __init__(self, error: Exception):
        super().__init__(str(error))
        self.error = error


def _merge_batches(
    batches: "Iterable[tuple[Iterable[Fact], Iterable[Fact]]]",
) -> "tuple[list[Fact], list[Fact]]":
    """Fold ``(additions, retractions)`` batches, in order, into one pair.

    Set semantics make the fold exact: the EDB membership of a fact after
    applying the batches serially is decided by the last batch that touched
    it, so a later retraction cancels an earlier addition of the same fact
    (and vice versa) instead of both being applied.  Queued requests fold
    into one pass this way, and so does a replayed log tail.
    """
    additions: "dict[Fact, None]" = {}
    retractions: "dict[Fact, None]" = {}
    for added, retracted in batches:
        for fact in retracted:
            additions.pop(fact, None)
            retractions[fact] = None
        for fact in added:
            retractions.pop(fact, None)
            additions[fact] = None
    return list(additions), list(retractions)


def _fail(batches: "Iterable[_PendingUpdate]", error: Exception) -> None:
    """Fail every still-waiting request of *batches* with *error*."""
    for pending in batches:
        if not pending.future.done():
            pending.future.set_exception(error)


class SessionHandle:
    """One served session: a :class:`QuerySession` plus its concurrency machinery.

    All engine work (builds, maintenance passes, cold evaluations) runs in
    the event loop's default executor under ``_lock`` — the
    :class:`QuerySession` itself is single-threaded by contract.  Reads that
    a committed view can answer bypass both; a goal the answer table holds
    (:meth:`QuerySession.lookup_entry`) is served on the loop under the lock.
    """

    def __init__(
        self,
        session_id: str,
        tenant: str,
        query: ProgramQuery,
        session: QuerySession,
        *,
        admission: "AdmissionLimits | None" = None,
    ):
        self.session_id = session_id
        self.tenant = tenant
        self.query = query
        self.session = session
        self.admission = admission if admission is not None else AdmissionLimits()
        self.created_at = time.time()
        self.last_used = self.created_at
        #: Committed maintenance generation: 0 covers the initial build,
        #: each committed pass increments it.
        self.generation = 0
        self.committed: "CommittedView | None" = None
        #: Durability (attached by the registry's persistence path): the
        #: write-ahead log + snapshot directory this handle commits through.
        self.durability: "SessionDurability | None" = None
        self.persist_config: "dict | None" = None
        self.persist_name: "str | None" = None
        self.closed = False
        self._lock = asyncio.Lock()
        self._pending: "deque[_PendingUpdate]" = deque()
        self._flusher: "asyncio.Task | None" = None
        self._active_queries = 0
        # Serving counters (surfaced by the stats endpoint and benchmark).
        self.maintenance_passes = 0
        self.batches_committed = 0
        self.queries_served = 0
        self.queries_from_view = 0
        self.queries_from_engine = 0
        self.shed_updates = 0
        self.shed_queries = 0

    # -- lifecycle ---------------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self.closed:
            raise ServiceError(410, "session_closed", f"session {self.session_id} is closed")

    async def ensure_materialized(self) -> None:
        """Build the full materialization (and commit view generation 0)."""
        self._ensure_open()
        if self.committed is not None:
            return
        async with self._lock:
            if self.committed is not None:
                return
            await self._run_in_executor(partial(self.session.run, mode="full"))
            self._commit_view()

    def close(self) -> None:
        """Close the handle: fail queued updates, release the engine session."""
        if self.closed:
            return
        self.closed = True
        _fail(self._pending, ServiceError(503, "session_evicted", "session closed before its pass"))
        self._pending.clear()
        if self._flusher is not None:
            self._flusher.cancel()
            self._flusher = None
        if self.durability is not None:
            self.durability.close()
        self.session.close()

    # -- helpers -----------------------------------------------------------------------

    async def _run_in_executor(self, func: "Callable[[], object]"):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, func)

    def _commit_view(self) -> None:
        """Publish the current materialization as the committed view.

        Called with ``_lock`` held, after the executor call returned — the
        maintenance thread is quiescent, so reading the storage views here
        is race-free.  A session whose materialization was dropped (update
        fallback) publishes ``None``; reads then rebuild under the lock.
        """
        materialized = self.session.materialized
        if materialized is None:
            self.committed = None
        else:
            self.committed = CommittedView.capture(self.generation, materialized)

    def _apply_commits(self, commits: "Iterable[tuple[int, list[Fact], list[Fact], int]]") -> None:
        """Count committed passes and publish the state they produced.

        *commits* are ``(generation, additions, retractions, batches)`` in
        order (:func:`decode_commit`'s shape), each already applied by
        :meth:`QuerySession.update`; called, like :meth:`_commit_view`, with
        the maintenance thread quiescent.  A replayed log tail is handed
        over whole and pays for one view capture.
        """
        for generation, _, _, batches in commits:
            self.generation = generation
            self.maintenance_passes += 1
            self.batches_committed += batches
        self._commit_view()

    async def _replay(self, records: "list[dict]") -> None:
        """Apply logged commit records through the normal maintenance path.

        The records fold into one update (:func:`_merge_batches`), so a tail
        costs one maintenance pass; every generation is still counted.
        """
        commits = [decode_commit(record) for record in records]
        if commits:
            additions, retractions = _merge_batches((a, r) for _, a, r, _ in commits)
            await self._run_in_executor(partial(self.session.update, additions, retractions))
        self._apply_commits(commits)

    def _edb_size(self) -> int:
        # ``len`` of the stored relations, not of ``instance.relation(name)``:
        # this runs on the event loop while a pass may be mutating them in the
        # executor thread; building the cached view would copy and write there.
        instance = self.session.instance
        return sum(
            len(instance.storage(name))
            for name in instance.relation_names & self.query.input_schema.relation_names
        )

    def _check_update_budget(self, additions: "list[Fact]") -> None:
        """Shed updates whose net effect would break the EDB budget."""
        budget = self.admission.max_edb_facts
        if budget is None:
            budget = self.session.query.limits.max_facts
        queued = sum(len(pending.additions) for pending in self._pending)
        projected = self._edb_size() + queued + len(additions)
        if projected > budget:
            self.shed_updates += 1
            raise ServiceError(
                429,
                "edb_budget_exceeded",
                f"update would grow the EDB to ~{projected} facts, over the budget "
                f"of {budget}; retry after retracting or raise the budget",
            )

    # -- updates (batched admission + write coalescing) --------------------------------

    async def enqueue_update(
        self,
        additions: "Iterable[Fact]" = (),
        retractions: "Iterable[Fact]" = (),
    ) -> dict:
        """Queue one update batch and await its committed acknowledgement.

        The batch is admitted (queue depth, EDB budget), queued, and merged
        with every other batch pending when the flusher takes its next pass;
        the returned ack carries the committed generation, the pass's merged
        :class:`UpdateResult` (JSON-encoded), and ``coalesced_batches`` —
        how many request batches shared the pass.
        """
        self._ensure_open()
        additions = list(additions)
        retractions = list(retractions)
        if len(self._pending) >= self.admission.max_pending_updates:
            self.shed_updates += 1
            raise ServiceError(
                429,
                "too_many_pending_updates",
                f"session {self.session_id} already has "
                f"{len(self._pending)} updates queued (limit "
                f"{self.admission.max_pending_updates}); retry later",
            )
        self._check_update_budget(additions)
        loop = asyncio.get_running_loop()
        pending = _PendingUpdate(additions, retractions, loop.create_future())
        self._pending.append(pending)
        if self._flusher is None or self._flusher.done():
            self._flusher = loop.create_task(self._flush_loop())
        return await pending.future

    async def _flush_loop(self) -> None:
        """Drain the update queue, one merged maintenance pass at a time.

        Every pass has the same shape — update → append + fsync → publish →
        ack — and costs one executor hop.  The queue is taken only once
        ``_lock`` is held, so batches that arrive while a tabled query or a
        snapshot holds it join the pass about to run; every batch of a pass
        is acked after that pass's own fsync, which is what makes "acked"
        imply "durable".  A cancellation while waiting for the lock leaves
        the queue to :meth:`close`, which fails it.
        """
        while self._pending and not self.closed:
            taken: "list[_PendingUpdate]" = []
            try:
                async with self._lock:
                    taken = list(self._pending)
                    self._pending.clear()
                    additions, retractions = _merge_batches(
                        (pending.additions, pending.retractions) for pending in taken
                    )
                    batch_count = len(taken)
                    generation = self.generation + 1
                    durability = self.durability

                    def commit_pass() -> UpdateResult:
                        # Redo-log discipline, in one executor hop: the WAL
                        # record lands (written and fsynced) right after the
                        # update succeeds and *before* the pass is committed
                        # or acked.  A failed update never reaches the append.
                        result = self.session.update(additions, retractions)
                        if durability is not None:
                            try:
                                durability.log_commit(
                                    generation, additions, retractions, batch_count
                                )
                            except Exception as error:  # noqa: BLE001 — rewrapped
                                raise _WalAppendFailed(error) from error
                        return result

                    result: UpdateResult = await self._run_in_executor(commit_pass)
                    self._apply_commits([(generation, additions, retractions, batch_count)])
            except asyncio.CancelledError:
                # close() cancelled the flusher mid-pass: the taken batches'
                # futures must not be left dangling.
                _fail(taken, ServiceError(503, "session_evicted", "session closed mid-pass"))
                raise
            except _WalAppendFailed as failure:
                # The update is applied in memory but not durable: this
                # handle's state is now *ahead* of its log, so committing
                # anything further would ack writes a restart must lose.
                # Fail the pass unacked and close; recovery rebuilds from
                # the acked prefix.
                _fail(
                    taken,
                    ServiceError(
                        503,
                        "wal_append_failed",
                        f"write-ahead log append failed ({failure.error}); "
                        f"session closed to protect the acked prefix",
                    ),
                )
                self.close()
                return
            except Exception as error:  # noqa: BLE001 — failed per request
                _fail(taken, self._update_error(error))
                continue
            ack = {
                "generation": generation,
                "coalesced_batches": batch_count,
                "update": update_result_to_json(result),
            }
            for pending in taken:
                if not pending.future.done():
                    pending.future.set_result(ack)
            if durability is not None and durability.should_snapshot():
                # Snapshot-then-truncate compaction, triggered by log size.
                # Every acked batch is already durable in the log, so a
                # snapshot failure only costs availability, never data —
                # but a half-crashed durability layer must not keep serving.
                try:
                    await self.snapshot_now()
                except Exception:  # noqa: BLE001 — close is the safe response
                    self.close()
                    return

    @staticmethod
    def _update_error(error: Exception) -> Exception:
        if isinstance(error, ServiceError):
            return error
        if isinstance(error, EvaluationBudgetExceeded):
            # The merged pass broke the evaluation budget: shed explicitly
            # (the session has already fallen back / recorded the reason).
            return ServiceError(429, "evaluation_budget_exceeded", str(error))
        if isinstance(error, SequenceDatalogError):
            return ServiceError(400, "update_rejected", str(error))
        return error

    # -- durability (WAL + snapshots) -------------------------------------------------

    async def enable_durability(self, durability: SessionDurability, config: dict) -> None:
        """Attach a durable directory: write the initial snapshot, open the log.

        Called by the registry's persistence path right after creation (and
        materialization): the snapshot captures the session's current state
        at the current generation, so recovery never replays the build.
        """
        self._ensure_open()
        async with self._lock:
            state = await self._run_in_executor(self.session.export_state)
            await self._run_in_executor(
                partial(durability.initialize, dict(config), state, self.generation)
            )
            self.durability = durability
            self.persist_config = dict(config)

    async def snapshot_now(self) -> dict:
        """Snapshot the full session state and rotate the log (compaction)."""
        self._ensure_open()
        if self.durability is None:
            raise ServiceError(
                409, "not_durable", f"session {self.session_id} has no durability attached"
            )
        async with self._lock:
            generation = self.generation
            state = await self._run_in_executor(self.session.export_state)
            await self._run_in_executor(
                partial(
                    self.durability.snapshot, self.persist_config or {}, state, generation
                )
            )
        return {
            "generation": generation,
            "wal_bytes": self.durability.wal_bytes,
            "snapshots_written": self.durability.snapshots_written,
        }

    # -- queries (committed reads, concurrent with maintenance) ------------------------

    def _normalise_binding(
        self, binding: "Mapping[int, object] | None", relation: "str | None"
    ) -> "dict[int, Path]":
        """*binding* with path values, checked against the arity of the relation read."""
        if not binding:
            return {}
        if relation is None:
            relation, arity = self.query.output_relation, self.query.output_arity
        else:  # a relation the program never mentions has no position to bind
            arity = self.query.program.relation_arities().get(relation, 0)
        normalised: "dict[int, Path]" = {}
        for position, value in binding.items():
            position = int(position)
            if not 0 <= position < arity:
                raise ServiceError(
                    400,
                    "bad_binding",
                    f"binding position {position} is outside the arity {arity} "
                    f"of relation {relation!r}",
                )
            normalised[position] = as_path(value)
        return normalised

    async def run_query(
        self,
        *,
        binding: "Mapping[int, object] | None" = None,
        mode: "str | None" = None,
        relation: "str | None" = None,
    ) -> dict:
        """Answer one query request, JSON-encoded at the boundary.

        ``mode`` is ``"full"`` or ``"goal"`` (``"tabled"`` is its alias);
        either is served from the last committed view whenever one exists (a
        warm materialization answers any binding — this is exactly what
        :class:`QuerySession` does in-process, lifted to a lock-free read).
        Reads from the committed view carry the generation they observed;
        they run entirely on the event loop and never wait for an in-flight
        maintenance pass.  Without one, the request takes the session lock
        once: a view published while it waited is read as above; otherwise a
        goal the subsumption table holds is a memo read on the loop, in the
        shape :func:`query_result_to_json` gives its lookup, and anything
        else is one run in the executor.  A *relation* other than the output
        is read off the full materialization (built like a cold full query
        when there is none).
        """
        self._ensure_open()
        self.last_used = time.time()
        if mode is None:
            mode = self.query.mode
        if mode == "tabled":
            mode = "goal"
        if mode not in ("full", "goal"):
            raise ServiceError(400, "bad_mode", f"unknown query mode {mode!r}")
        if relation is not None and not isinstance(relation, str):
            raise ServiceError(400, "bad_request", f"a relation name is a string, got {relation!r}")
        if self._active_queries >= self.admission.max_concurrent_queries:
            self.shed_queries += 1
            raise ServiceError(
                429,
                "too_many_concurrent_queries",
                f"session {self.session_id} already has {self._active_queries} "
                f"queries in flight (limit {self.admission.max_concurrent_queries})",
            )
        normalised = self._normalise_binding(binding, relation)
        output_relation = relation or self.query.output_relation
        reads_other = output_relation != self.query.output_relation
        self._active_queries += 1
        try:
            view = self.committed
            served_by = "maintained"
            answer = result = None
            if view is None:
                session = self.session
                statistics = EvaluationStatistics()
                async with self._lock:
                    view = self.committed
                    if view is None and mode == "goal" and not reads_other:
                        entry = session.lookup_entry(normalised, statistics)
                        answer = None if entry is None else entry.encoded_answer(normalised)
                    if view is None and answer is None:
                        run = partial(session.run, mode="full")
                        if not reads_other:  # a goal miss was probed above: not again
                            run = partial(
                                session.run, binding=normalised, mode=mode, looked_up=mode == "goal"
                            )
                        result = await self._run_in_executor(run)
                        # A run that built the materialization publishes it,
                        # so later reads skip the lock.
                        self._commit_view()
                        if reads_other:
                            # A materialization maintenance cannot own is read
                            # once, unpublished (captured while no pass can run).
                            view = self.committed or CommittedView.capture(
                                self.generation, result.full_instance
                            )
                            served_by = result.served_by
            self.queries_served += 1
            if view is not None:
                self.queries_from_view += 1
                return {
                    "generation": view.generation,
                    "mode": mode,
                    "served_by": served_by,
                    "fallback_reason": None,
                    "output_relation": output_relation,
                    "answers": {output_relation: view.answer(output_relation, normalised)},
                }
            self.queries_from_engine += 1
            if answer is not None:
                return {
                    "kind": "query_result",
                    "output_relation": output_relation,
                    "binding": {str(p): path_to_text(value) for p, value in normalised.items()},
                    "mode": "goal",
                    "served_by": "tabled",
                    "fallback_reason": None,
                    "statistics": statistics_to_json(statistics),
                    "generation": self.generation,
                    "answers": {output_relation: answer},
                }
            encoded = query_result_to_json(result)
            encoded["generation"] = self.generation
            return encoded
        except ServiceError:
            raise
        except SequenceDatalogError as error:
            if isinstance(error, EvaluationBudgetExceeded):
                raise ServiceError(429, "evaluation_budget_exceeded", str(error)) from error
            raise ServiceError(400, "query_rejected", str(error)) from error
        finally:
            self._active_queries -= 1

    # -- introspection -----------------------------------------------------------------

    def stats(self) -> dict:
        """A JSON-ready snapshot of the handle's serving counters."""
        return {
            "session": self.session_id,
            "tenant": self.tenant,
            "generation": self.generation,
            "materialized": self.committed is not None,
            "pending_updates": len(self._pending),
            "maintenance_passes": self.maintenance_passes,
            "batches_committed": self.batches_committed,
            "queries_served": self.queries_served,
            "queries_from_view": self.queries_from_view,
            "queries_from_engine": self.queries_from_engine,
            "shed_updates": self.shed_updates,
            "shed_queries": self.shed_queries,
            "edb_facts": self._edb_size(),
            "table_capacity": self.session.table_capacity,
            "persist": self.persist_name,
            "durable": self.durability is not None,
            "wal_bytes": self.durability.wal_bytes if self.durability is not None else None,
            "snapshots_written": (
                self.durability.snapshots_written if self.durability is not None else None
            ),
            "records_logged": (
                self.durability.records_logged if self.durability is not None else None
            ),
        }


def _bool_option(options: "Mapping[str, object]", name: str) -> bool:
    """The on/off session option *name* (absent or ``null``: on); 400 for a non-boolean."""
    value = options.get(name)
    if value is None:
        return True
    if not isinstance(value, bool):
        raise ServiceError(
            400, "bad_upload", f"option {name!r} must be a boolean, got {value!r}"
        )
    return value


class SessionRegistry:
    """Multi-tenant session lifecycle: creation, LRU eviction, budgets.

    ``max_sessions`` bounds the whole service; each tenant is additionally
    bounded by its :class:`TenantBudget` (``default_budget`` for tenants
    without an explicit one).  Exceeding either bound evicts a session of
    the crowded scope — sessions are cheap to rebuild from their program +
    instance, so eviction trades recompute for memory, mirroring the
    answer-table LRU one level up.  Within a tenant the victim is its LRU
    session; service-wide the registry prefers the highest admission-
    pressure tenant's session (see :meth:`_pressure_victim`) before the
    global LRU one.
    """

    def __init__(
        self,
        *,
        max_sessions: int = 64,
        default_budget: "TenantBudget | None" = None,
        tenant_budgets: "Mapping[str, TenantBudget] | None" = None,
        persist_root: "pathlib.Path | str | None" = None,
        fsync: bool = True,
        snapshot_wal_bytes: int = DEFAULT_SNAPSHOT_WAL_BYTES,
    ):
        self.max_sessions = max_sessions
        self.default_budget = default_budget if default_budget is not None else TenantBudget()
        self.tenant_budgets = dict(tenant_budgets or {})
        self._sessions: "OrderedDict[str, SessionHandle]" = OrderedDict()
        self._ids = itertools.count(1)
        #: ``(session id, reason)`` of the last :data:`EVICTION_LOG_LIMIT` evictions.
        self.evictions: "list[tuple[str, str]]" = []
        #: Root directory for persisted sessions (``persist_root/tenant/name``);
        #: ``None`` disables the ``persist`` creation option.
        self.persist_root = pathlib.Path(persist_root) if persist_root is not None else None
        self.fsync = fsync
        self.snapshot_wal_bytes = snapshot_wal_bytes
        #: Test seam: a :class:`~repro.io.durability.FileSystemShim` handed to
        #: every :class:`SessionDurability` this registry builds (the fault-
        #: injection harness swaps in a crashing shim here).
        self.durability_shim = None
        #: ``(directory, message)`` of persisted sessions :meth:`restore_all`
        #: could not bring back (best-effort startup must not die on one bad
        #: directory).
        self.restore_errors: "list[tuple[str, str]]" = []

    def budget_for(self, tenant: str) -> TenantBudget:
        return self.tenant_budgets.get(tenant, self.default_budget)

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self):
        return iter(self._sessions.values())

    # -- lifecycle ---------------------------------------------------------------------

    async def create(
        self,
        *,
        tenant: str = "default",
        program: str,
        instance: str = "",
        output_relation: "str | None" = None,
        options: "Mapping[str, object] | None" = None,
    ) -> SessionHandle:
        """Create (and by default materialize) a session from uploaded text.

        *program* and *instance* are Sequence Datalog text (the same format
        :mod:`repro.io.serialization` persists); *options* tunes the engine:
        ``mode``, ``table_capacity`` (capped by the tenant budget),
        ``max_facts`` / ``max_iterations`` evaluation limits (a non-integer
        value for any of the three is refused with 400 ``bad_upload``) and
        ``materialize`` (default true — build the full fixpoint eagerly so
        every read is a committed view read; pass false to serve goal-mode
        traffic through the subsumption table instead; a non-boolean value
        is refused the same way).  Unknown keys are ignored.

        ``persist`` names a durable directory under the registry's
        ``persist_root``: a fresh session writes its initial snapshot there
        and write-ahead-logs every committed pass; when the directory
        *already* holds a snapshot, the session is **restored** from disk
        instead (snapshot + log-tail replay) and the uploaded program and
        instance text are ignored — the persisted config is authoritative.
        """
        if options is not None and not isinstance(options, Mapping):
            raise ServiceError(400, "bad_upload", f"options are a JSON object, got {options!r}")
        if output_relation is not None and not isinstance(output_relation, str):
            raise ServiceError(
                400, "bad_upload", f"output_relation is a string, got {output_relation!r}"
            )
        options = dict(options or {})
        budget = self.budget_for(tenant)
        persist = options.get("persist")
        directory: "pathlib.Path | None" = None
        if persist is not None:
            persist = str(persist)
            directory = self._persist_directory(tenant, persist)
            if any(directory.glob("snapshot-*.json")):
                return await self._restore_session(tenant, persist, directory, budget=budget)
        try:
            parsed_program = parse_program(program)
            parsed_instance = (
                instance_from_text(instance) if instance.strip() else Instance()
            )
        except SequenceDatalogError as error:
            raise ServiceError(400, "bad_upload", str(error)) from error
        if output_relation is None:
            idb = sorted(parsed_program.idb_relation_names())
            if len(idb) != 1:
                raise ServiceError(
                    400,
                    "ambiguous_output",
                    f"pass output_relation to pick one of {idb}",
                )
            output_relation = idb[0]
        materialize = _bool_option(options, "materialize")
        try:
            query, session_kwargs = self._build_query(
                parsed_program, output_relation, options, budget
            )
            session = query.session(parsed_instance, **session_kwargs)
        except SequenceDatalogError as error:
            raise ServiceError(400, "bad_upload", str(error)) from error
        session_id = f"s{next(self._ids)}"
        handle = SessionHandle(session_id, tenant, query, session, admission=budget.admission)
        self._admit(tenant, budget)
        self._sessions[session_id] = handle
        if materialize:
            try:
                await handle.ensure_materialized()
            except SequenceDatalogError as error:
                self.drop(session_id)
                if isinstance(error, ServiceError):
                    raise
                raise ServiceError(400, "bad_upload", str(error)) from error
        if persist is not None:
            assert directory is not None
            config = {
                "tenant": tenant,
                "name": persist,
                "program": program,
                "output_relation": output_relation,
                # Only plain JSON scalars survive into the persisted config;
                # live objects cannot be restored from disk anyway.
                "options": {
                    key: value
                    for key, value in options.items()
                    if value is None or isinstance(value, (str, int, float, bool))
                },
            }
            handle.persist_name = persist
            try:
                await handle.enable_durability(self._durability_for(directory), config)
            except SequenceDatalogError as error:
                self.drop(session_id)
                if isinstance(error, ServiceError):
                    raise
                if isinstance(error, DirectoryInUseError):
                    raise ServiceError(409, "persist_in_use", str(error)) from error
                raise ServiceError(500, "persist_failed", str(error)) from error
            except Exception:
                self.drop(session_id)
                raise
        return handle

    def _build_query(
        self,
        parsed_program,
        output_relation: str,
        options: "Mapping[str, object]",
        budget: TenantBudget,
    ) -> "tuple[ProgramQuery, dict]":
        """The query + session kwargs shared by :meth:`create` and restore."""

        def int_option(name: str) -> "int | None":
            value = options.get(name)
            if value is None:
                return None
            try:
                return int(value)
            except (TypeError, ValueError):
                raise ServiceError(
                    400, "bad_upload", f"option {name!r} must be an integer, got {value!r}"
                ) from None

        limits = DEFAULT_LIMITS
        overrides = {
            name: value
            for name in ("max_facts", "max_iterations")
            if (value := int_option(name)) is not None
        }
        if overrides:
            limits = EvaluationLimits(
                max_iterations=overrides.get("max_iterations", limits.max_iterations),
                max_facts=overrides.get("max_facts", limits.max_facts),
                max_path_length=limits.max_path_length,
                max_derivations_per_rule=limits.max_derivations_per_rule,
            )
        arities = parsed_program.relation_arities()
        schema = {
            name: arities[name] for name in sorted(parsed_program.edb_relation_names())
        }
        table_capacity = int_option("table_capacity")
        if budget.table_capacity is not None:
            table_capacity = (
                budget.table_capacity
                if table_capacity is None
                else min(table_capacity, budget.table_capacity)
            )
        query = ProgramQuery(
            parsed_program,
            schema,
            output_relation,
            limits=limits,
            mode=options.get("mode", "full"),
            require_monadic=False,
        )
        return query, dict(table_capacity=table_capacity)

    # -- persistence (restore, re-attach) ----------------------------------------------

    def _persist_directory(self, tenant: str, name: str) -> "pathlib.Path":
        if self.persist_root is None:
            raise ServiceError(
                400,
                "persistence_disabled",
                "this registry was built without persist_root; persistence is off",
            )
        for part in (tenant, name):
            if not part or part.startswith(".") or any(sep in part for sep in "/\\"):
                raise ServiceError(
                    400, "bad_persist_name", f"invalid persistence path component {part!r}"
                )
        return self.persist_root / tenant / name

    def _durability_for(self, directory: "pathlib.Path") -> SessionDurability:
        return SessionDurability(
            directory,
            fsync=self.fsync,
            snapshot_wal_bytes=self.snapshot_wal_bytes,
            shim=self.durability_shim,
        )

    async def _restore_session(
        self,
        tenant: str,
        name: str,
        directory: "pathlib.Path",
        *,
        budget: "TenantBudget | None" = None,
    ) -> SessionHandle:
        """Bring a persisted session back: snapshot restore + log-tail replay.

        The directory is claimed first (409 ``persist_in_use`` when another
        writer holds it), so a refused opener does no restore work.  The
        tail is folded into one pass of the normal maintenance path
        (:meth:`QuerySession.update`), so the restored handle's generation,
        commit log, and committed view line up exactly with what the dead
        writer had acked.  Every failure releases the claim.
        """
        budget = budget if budget is not None else self.budget_for(tenant)
        durability = self._durability_for(directory)
        try:
            try:
                durability.open_for_append()
                recovered = durability.recover()
                if recovered is None:
                    raise ServiceError(
                        404, "nothing_to_restore", f"no snapshot found in {directory}"
                    )
                config = recovered.config
                options = dict(config.get("options") or {})
                parsed_program = parse_program(config["program"])
                query, session_kwargs = self._build_query(
                    parsed_program, config["output_relation"], options, budget
                )
                session = QuerySession.restore(query, recovered.state, **session_kwargs)
            except ServiceError:
                raise
            except DirectoryInUseError as error:
                raise ServiceError(409, "persist_in_use", str(error)) from error
            except SnapshotUnsupportedError as error:
                raise ServiceError(409, "snapshot_unsupported", str(error)) from error
            except (KeyError, OSError, SequenceDatalogError) as error:
                raise ServiceError(
                    500, "restore_failed", f"cannot restore {directory}: {error}"
                ) from error
        except BaseException:
            durability.close()
            raise
        session_id = f"s{next(self._ids)}"
        handle = SessionHandle(session_id, tenant, query, session, admission=budget.admission)
        handle.persist_name = name
        handle.generation = recovered.generation
        handle.durability = durability
        handle.persist_config = dict(config)
        # The session holds what it needs of the decoded snapshot: free the
        # rest before the replayed tail's one pass allocates its own peak.
        tail, recovered = recovered.tail, None
        try:
            await handle._replay(tail)
        except BaseException as error:
            handle.close()  # releases the claim with the session
            if isinstance(error, SequenceDatalogError):
                raise ServiceError(
                    500, "restore_failed", f"log replay failed for {directory}: {error}"
                ) from error
            raise
        self._admit(tenant, budget)
        self._sessions[session_id] = handle
        return handle

    async def restore_all(self) -> "list[SessionHandle]":
        """Re-attach every persisted session under ``persist_root`` (startup).

        Best-effort: a directory that fails to restore is recorded in
        :attr:`restore_errors` and skipped, so one corrupt session cannot
        keep the rest of the fleet down.
        """
        restored: "list[SessionHandle]" = []
        if self.persist_root is None or not self.persist_root.exists():
            return restored
        for tenant_dir in sorted(path for path in self.persist_root.iterdir() if path.is_dir()):
            for directory in sorted(path for path in tenant_dir.iterdir() if path.is_dir()):
                if not any(directory.glob("snapshot-*.json")):
                    continue
                try:
                    restored.append(
                        await self._restore_session(tenant_dir.name, directory.name, directory)
                    )
                except (ServiceError, SequenceDatalogError) as error:
                    self.restore_errors.append((str(directory), str(error)))
        return restored

    def _admit(self, tenant: str, budget: TenantBudget) -> None:
        """Evict sessions until the new one fits both scopes.

        Within a tenant's own budget the victim is its LRU session.  Under
        *service-wide* pressure the registry first targets the tenant
        generating the most admission pressure — the one whose shed counts
        say it keeps pushing work past its own limits — and only falls back
        to the global LRU victim when nobody is shedding.  A hostile tenant
        therefore loses its sessions before it can evict a well-behaved
        tenant's warm materializations.
        """
        tenant_sessions = [
            session_id
            for session_id, handle in self._sessions.items()
            if handle.tenant == tenant
        ]
        while len(tenant_sessions) >= budget.max_sessions:
            victim = tenant_sessions.pop(0)  # OrderedDict iterates LRU-first
            self._evict(victim, TENANT_CAPACITY)
        while len(self._sessions) >= self.max_sessions:
            victim = self._pressure_victim()
            if victim is not None:
                self._evict(victim, ADMISSION_PRESSURE)
                continue
            victim = next(iter(self._sessions))
            self._evict(victim, SERVICE_CAPACITY)

    def _pressure_victim(self) -> "str | None":
        """The LRU session of the tenant shedding the most work, or ``None``.

        Pressure is the sum of a tenant's shed updates and queries across
        its live sessions — exactly the traffic admission control already
        refused.  ``None`` when no tenant is shedding (ties broken toward
        the earliest-created session ordering, which is deterministic).
        """
        pressure: "dict[str, int]" = {}
        for handle in self._sessions.values():
            pressure[handle.tenant] = (
                pressure.get(handle.tenant, 0)
                + handle.shed_updates
                + handle.shed_queries
            )
        if not pressure:
            return None
        worst = max(pressure, key=lambda name: pressure[name])
        if pressure[worst] <= 0:
            return None
        for session_id, handle in self._sessions.items():  # LRU-first
            if handle.tenant == worst:
                return session_id
        return None

    def _evict(self, session_id: str, reason: str) -> None:
        handle = self._sessions.pop(session_id, None)
        if handle is not None:
            handle.close()
            self.evictions.append((session_id, reason))
            del self.evictions[:-EVICTION_LOG_LIMIT]

    def get(self, session_id: str) -> SessionHandle:
        """Look a session up and mark it most-recently-used."""
        handle = self._sessions.get(session_id)
        if handle is None or handle.closed:
            raise ServiceError(404, "unknown_session", f"no session {session_id!r}")
        self._sessions.move_to_end(session_id)
        return handle

    def drop(self, session_id: str) -> None:
        """Close and forget a session (404 when it does not exist)."""
        handle = self._sessions.pop(session_id, None)
        if handle is None:
            raise ServiceError(404, "unknown_session", f"no session {session_id!r}")
        handle.close()

    def close_all(self) -> None:
        """Close every session (service shutdown)."""
        for handle in list(self._sessions.values()):
            handle.close()
        self._sessions.clear()

    # -- request-level helpers shared by the HTTP layers -------------------------------

    @staticmethod
    def decode_facts(data: "list | None") -> "list[Fact]":
        """Decode the update endpoints' fact lists (JSON ``[relation, path…]``)."""
        if not data:
            return []
        if not isinstance(data, list):
            raise ServiceError(400, "bad_fact", f"facts are a JSON list, got {data!r}")
        try:
            return [fact_from_json(item) for item in data]
        except SequenceDatalogError as error:
            raise ServiceError(400, "bad_fact", str(error)) from error

    @staticmethod
    def decode_binding(data: "Mapping[str, str] | None") -> "dict[int, Path]":
        """Decode a request binding ``{"0": "a·b"}`` into paths."""
        if not data:
            return {}
        if not isinstance(data, Mapping):
            raise ServiceError(400, "bad_binding", f"a binding is a JSON object, got {data!r}")
        try:
            binding = {int(position): path_from_text(text) for position, text in data.items()}
        except (ValueError, SequenceDatalogError) as error:
            raise ServiceError(400, "bad_binding", str(error)) from error
        if len(binding) != len(data):
            raise ServiceError(400, "bad_binding", f"binding {data!r} names a position twice")
        return binding
