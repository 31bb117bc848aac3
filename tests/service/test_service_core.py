"""Tests for the serving core: coalescing, committed reads, admission, eviction.

The async machinery is driven through ``asyncio.run`` (no pytest-asyncio in
the toolchain): each test builds its handles inside one event loop, which
also mirrors how the stdlib server and the benchmark drive the core.
"""

import asyncio
import threading

import pytest

from repro.engine import EvaluationLimits, ProgramQuery
from repro.engine.tabling import EVICTION_LOG_LIMIT
from repro.io.durability import FileSystemShim
from repro.io.serialization import instance_to_text, rows_from_json
from repro.model import Fact, Instance, path
from repro.parser import parse_program
from repro.storage import Relation
from repro.service import (
    AdmissionLimits,
    CommittedView,
    ServiceError,
    SessionHandle,
    SessionRegistry,
    TenantBudget,
)
from repro.service.core import _merge_batches

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""


def pair_query(**overrides):
    options = dict(require_monadic=False)
    options.update(overrides)
    return ProgramQuery(parse_program(REACHABILITY_PAIRS), {"E": 2}, "T", **options)


def line_instance(length=6):
    instance = Instance()
    nodes = ["a"] + [f"n{i}" for i in range(1, length)]
    for source, target in zip(nodes, nodes[1:]):
        instance.add("E", source, target)
    return instance


def edge(source, target):
    return Fact("E", (path(source), path(target)))


def make_handle(instance=None, *, admission=None, **session_options):
    query = pair_query()
    session = query.session(instance if instance is not None else line_instance())
    return SessionHandle("s-test", "tenant", query, session, admission=admission)


def expected_pairs(instance, binding=None):
    result = pair_query().run(instance, binding=binding or {})
    return set(result.output.relation("T"))


def answered(response):
    [rows] = response["answers"].values()
    return set(rows_from_json(rows))


class TestCommittedView:
    def test_select_unbound_and_bound(self):
        handle = make_handle()
        asyncio.run(handle.ensure_materialized())
        view = handle.committed
        assert view is not None and view.generation == 0
        assert set(view.select("T", {})) == expected_pairs(line_instance())
        bound = set(view.select("T", {0: path("a")}))
        assert bound == expected_pairs(line_instance(), {0: path("a")})
        assert view.select("Nope", {}) == ()
        handle.close()

    def test_memo_entries_are_kept_for_exactly_the_unchanged_relations(self):
        """A commit drops the memoised answers of the relations it changed
        and keeps every other relation's, entry for entry."""
        program = REACHABILITY_PAIRS + "U(@x) :- F(@x).\n"
        query = ProgramQuery(parse_program(program), {"E": 2, "F": 1}, "T", require_monadic=False)
        instance = line_instance(3)  # a → n1 → n2
        instance.add("F", "f")
        handle = SessionHandle("s-memo", "tenant", query, query.session(instance))

        async def scenario():
            await handle.ensure_materialized()
            memos = []
            for additions in ([], [edge("a", "n2")], [edge("n2", "z")]):
                if additions:
                    await handle.enqueue_update(additions)
                view = handle.committed
                for name in ("E", "T", "U"):
                    view.answer(name, {0: path("a") if name != "U" else path("f")})
                    view.answer(name, {})
                memos.append(
                    {
                        (name, min((position for position, _ in key), default=None)): answer
                        for name, columnar in view.relations.items()
                        for key, answer in columnar.answers.items()
                    }
                )
            return memos

        first, second, third = asyncio.run(scenario())
        handle.close()
        kept = lambda new, old: {key for key in new if new[key] is old.get(key)}  # noqa: E731
        # E(a, n2) adds no pair T lacks: only E's view changed.
        assert kept(second, first) == {("T", 0), ("T", None), ("U", 0), ("U", None)}
        # E(n2, z) changes E and T: only U's entries survive.
        assert kept(third, second) == {("U", 0), ("U", None)}

    def test_views_are_immutable_snapshots_across_updates(self):
        handle = make_handle(line_instance(3))
        asyncio.run(handle.ensure_materialized())
        before = handle.committed
        rows_before = set(before.select("T", {}))
        asyncio.run(handle.enqueue_update([edge("n2", "z")]))
        assert handle.committed is not before
        assert set(before.select("T", {})) == rows_before  # old snapshot untouched
        assert set(handle.committed.select("T", {})) > rows_before
        handle.close()


class TestCoalescing:
    def test_concurrent_updates_share_one_maintenance_pass(self):
        handle = make_handle()

        async def scenario():
            await handle.ensure_materialized()
            return await asyncio.gather(
                *(handle.enqueue_update([edge(f"x{i}", f"x{i + 1}")]) for i in range(10))
            )

        acks = asyncio.run(scenario())
        assert handle.maintenance_passes == 1
        assert {ack["generation"] for ack in acks} == {1}
        assert all(ack["coalesced_batches"] == 10 for ack in acks)
        assert handle.batches_committed == 10
        final = Instance()
        for fact in line_instance().facts():
            final.add(fact.relation, *fact.paths)
        for i in range(10):
            final.add("E", f"x{i}", f"x{i + 1}")
        assert set(handle.committed.select("T", {})) == expected_pairs(final)
        handle.close()

    def test_later_retraction_cancels_a_queued_addition(self):
        handle = make_handle(line_instance(3))

        async def scenario():
            await handle.ensure_materialized()
            baseline = set(handle.committed.select("T", {}))
            acks = await asyncio.gather(
                handle.enqueue_update(additions=[edge("b", "c")]),
                handle.enqueue_update(retractions=[edge("b", "c")]),
            )
            return baseline, acks

        baseline, acks = asyncio.run(scenario())
        assert handle.maintenance_passes == 1
        assert acks[0] == acks[1]
        assert acks[0]["generation"] == 1 and acks[0]["coalesced_batches"] == 2
        # The retraction cancelled the addition in the merge: the pass
        # changed nothing (an addition left in would have been applied).
        assert acks[0]["update"]["added"] == [] and acks[0]["update"]["removed"] == []
        assert set(handle.committed.select("T", {})) == baseline
        handle.close()

    def test_merge_batches_folds_in_order_over_fact_space(self):
        ab, bc, cd, de = edge("a", "b"), edge("b", "c"), edge("c", "d"), edge("d", "e")
        additions, retractions = _merge_batches(
            [
                ([ab, bc], []),
                ([], [ab]),  # add then retract: the addition cancels
                ([], [cd]),
                ([cd, de], []),  # retract then add: the retraction cancels
                ([], [de, bc]),
                ([de], []),
            ]
        )
        assert additions == [cd, de]  # first-seen order of the survivors
        assert retractions == [ab, bc]
        assert not set(additions) & set(retractions)

    def test_acks_carry_the_merged_update_result(self):
        handle = make_handle(line_instance(3))

        async def scenario():
            await handle.ensure_materialized()
            return await handle.enqueue_update([edge("n2", "z")])

        ack = asyncio.run(scenario())
        assert ack["update"]["maintained"] is True
        assert ["E", "n2", "z"] in [list(fact) for fact in ack["update"]["added"]]
        handle.close()


class RecordingShim(FileSystemShim):
    """Pass-through shim logging WAL records, WAL fsyncs and (via the test) acks."""

    def __init__(self):
        self.events = []

    def write(self, handle, data):
        super().write(handle, data)
        if "wal-" in handle.name:
            self.events.append("record")

    def fsync(self, handle):
        super().fsync(handle)
        if "wal-" in handle.name:
            self.events.append("fsync")

    def count(self, kind):
        return self.events.count(kind)


async def persisted_handle(tmp_path):
    registry = SessionRegistry(persist_root=tmp_path)
    shim = registry.durability_shim = RecordingShim()
    handle = await registry.create(
        program=REACHABILITY_PAIRS,
        instance=instance_to_text(line_instance()),
        options={"persist": "p"},
    )
    return registry, shim, handle


class TestCommitShape:
    """One amortiser: update → append + fsync → publish → ack, per pass."""

    def test_batches_arriving_while_the_lock_is_held_share_the_next_pass(self, tmp_path):
        async def scenario():
            registry, shim, handle = await persisted_handle(tmp_path)
            await handle._lock.acquire()  # a tabled query or a snapshot
            first = asyncio.ensure_future(handle.enqueue_update([edge("x0", "x1")]))
            for _ in range(5):
                await asyncio.sleep(0)  # the flusher starts and waits for the lock
            second = asyncio.ensure_future(handle.enqueue_update([edge("x1", "x2")]))
            for _ in range(5):
                await asyncio.sleep(0)
            handle._lock.release()
            acks = await asyncio.gather(first, second)
            passes = handle.maintenance_passes
            registry.close_all()
            return acks, passes, shim

        acks, passes, shim = asyncio.run(scenario())
        assert passes == 1
        assert [ack["coalesced_batches"] for ack in acks] == [2, 2]
        assert {ack["generation"] for ack in acks} == {1}
        assert (shim.count("record"), shim.count("fsync")) == (1, 1)

    def test_every_pass_is_one_record_one_fsync_and_acks_follow_their_own_fsync(self, tmp_path):
        writers, per_writer = 16, 25

        async def scenario():
            registry, shim, handle = await persisted_handle(tmp_path)

            async def writer(index):
                for step in range(per_writer):
                    ack = await handle.enqueue_update([edge(f"w{index}", f"s{step}")])
                    shim.events.append(ack["generation"])

            await asyncio.gather(*(writer(index) for index in range(writers)))
            stats = handle.stats()
            registry.close_all()
            return stats, shim

        stats, shim = asyncio.run(scenario())
        assert stats["batches_committed"] == writers * per_writer
        passes = stats["maintenance_passes"]
        assert shim.count("fsync") == shim.count("record") == passes <= 200
        assert stats["records_logged"] == passes
        records = durable = acks = 0
        for event in shim.events:
            if event == "record":
                records += 1
            elif event == "fsync":
                durable = records  # this fsync covers every record written so far
            else:
                acks += 1
                assert event <= durable, f"generation {event} acked before its fsync"
        assert acks == writers * per_writer

    def test_close_while_the_flusher_waits_for_the_lock_fails_every_queued_update(self):
        handle = make_handle()

        async def scenario():
            await handle.ensure_materialized()
            await handle._lock.acquire()
            futures = []
            for index in range(3):
                futures.append(
                    asyncio.ensure_future(handle.enqueue_update([edge(f"x{index}", "y")]))
                )
                for _ in range(3):
                    await asyncio.sleep(0)
            flusher = handle._flusher
            handle.close()
            handle._lock.release()
            errors = await asyncio.gather(*futures, return_exceptions=True)
            await asyncio.gather(flusher, return_exceptions=True)
            return errors, flusher

        errors, flusher = asyncio.run(scenario())
        assert [(error.status, error.code) for error in errors] == [(503, "session_evicted")] * 3
        assert flusher.cancelled()
        assert not handle._pending and handle.maintenance_passes == 0

    def test_the_loop_thread_never_builds_a_view_of_the_pinned_edb(self, monkeypatch):
        """``_edb_size`` counts the stored rows; ``Relation.view()`` would copy the
        relation and write its cache while the executor thread mutates it."""
        handle = make_handle()
        loop_thread = threading.current_thread()
        offenders = []
        view = Relation.view

        def watched_view(relation):
            if threading.current_thread() is loop_thread and id(relation) in pinned:
                offenders.append(relation)
            return view(relation)

        async def scenario():
            await handle.ensure_materialized()
            await handle.enqueue_update([edge("x0", "x1")])
            stats = handle.stats()
            await handle.enqueue_update([edge("x1", "x2")], [edge("x0", "x1")])
            return stats, handle.stats()

        instance = handle.session.instance
        pinned = {id(instance.storage(name)) for name in instance.relation_names}
        monkeypatch.setattr(Relation, "view", watched_view)
        first, second = asyncio.run(scenario())
        assert (first["edb_facts"], second["edb_facts"]) == (6, 6)
        assert offenders == []
        handle.close()


class TestAdmission:
    def test_full_update_queue_sheds_with_429(self):
        handle = make_handle(admission=AdmissionLimits(max_pending_updates=2))

        async def scenario():
            await handle.ensure_materialized()
            async with handle._lock:  # hold the engine: the flusher cannot drain
                # The queue is taken only under the lock, so both stay queued.
                queued = [
                    asyncio.ensure_future(handle.enqueue_update([edge(f"x{i}", f"x{i + 1}")]))
                    for i in (0, 1)
                ]
                for _ in range(5):
                    await asyncio.sleep(0)
                with pytest.raises(ServiceError) as shed:
                    await handle.enqueue_update([edge("x2", "x3")])
                assert shed.value.status == 429
                assert shed.value.code == "too_many_pending_updates"
            return await asyncio.gather(*queued)

        acks = asyncio.run(scenario())
        assert handle.shed_updates == 1
        assert len(acks) == 2  # everything admitted before the shed still committed
        assert set(handle.committed.select("T", {})) >= {
            (path("x0"), path("x2")),
            (path("x1"), path("x2")),
        }
        handle.close()

    def test_query_concurrency_cap_sheds_with_429(self):
        handle = make_handle(admission=AdmissionLimits(max_concurrent_queries=0))

        async def scenario():
            await handle.ensure_materialized()
            with pytest.raises(ServiceError) as shed:
                await handle.run_query(mode="full")
            return shed.value

        error = asyncio.run(scenario())
        assert error.status == 429 and error.code == "too_many_concurrent_queries"
        assert handle.shed_queries == 1 and handle.queries_served == 0
        handle.close()

    def test_edb_budget_sheds_before_any_work(self):
        instance = line_instance(3)  # 2 EDB facts
        handle = make_handle(instance, admission=AdmissionLimits(max_edb_facts=4))

        async def scenario():
            await handle.ensure_materialized()
            passes = handle.maintenance_passes
            with pytest.raises(ServiceError) as shed:
                await handle.enqueue_update([edge(f"y{i}", f"y{i + 1}") for i in range(5)])
            assert shed.value.status == 429 and shed.value.code == "edb_budget_exceeded"
            assert handle.maintenance_passes == passes  # shed before the engine ran
            return await handle.enqueue_update([edge("n2", "z")])  # within budget

        ack = asyncio.run(scenario())
        assert ack["generation"] == 1
        assert handle.shed_updates == 1
        handle.close()

    def test_evaluation_budget_breach_degrades_and_sheds_queries_with_429(self):
        # A tight derived-fact budget: the initial line fits, the extended
        # one derives a T past max_facts.  The engine's contract on a breach
        # mid-maintenance is degradation (materialization dropped, reason
        # recorded), so the *ack* carries the fallback and the next full
        # query — which would have to rebuild past the budget — is shed.
        query = ProgramQuery(
            parse_program(REACHABILITY_PAIRS),
            {"E": 2},
            "T",
            require_monadic=False,
            limits=EvaluationLimits(max_facts=30),
        )
        session = query.session(line_instance(4))
        handle = SessionHandle("s-budget", "tenant", query, session)
        poison = [edge("n3", "m0")] + [edge(f"m{i}", f"m{i + 1}") for i in range(7)]

        async def scenario():
            await handle.ensure_materialized()
            ack = await handle.enqueue_update(poison)
            assert ack["update"]["maintained"] is False
            assert "grew beyond" in ack["update"]["fallback_reason"]
            assert handle.committed is None  # the materialization was dropped
            with pytest.raises(ServiceError) as shed:
                await handle.run_query(mode="full")
            assert shed.value.status == 429
            assert shed.value.code == "evaluation_budget_exceeded"
            # Retracting the poison facts restores full service.
            await handle.enqueue_update(retractions=poison)
            response = await handle.run_query(mode="full")
            assert answered(response) == expected_pairs(line_instance(4))

        asyncio.run(scenario())
        handle.close()


class TestConcurrentReads:
    def test_queries_are_served_from_the_view_while_the_engine_is_busy(self):
        handle = make_handle()

        async def scenario():
            await handle.ensure_materialized()
            async with handle._lock:  # simulate a maintenance pass in flight
                response = await asyncio.wait_for(
                    handle.run_query(mode="full", binding={0: path("a")}), timeout=1.0
                )
            return response

        response = asyncio.run(scenario())
        assert response["served_by"] == "maintained"
        assert response["generation"] == 0
        assert answered(response) == expected_pairs(line_instance(), {0: path("a")})
        assert handle.queries_from_view == 1 and handle.queries_from_engine == 0
        handle.close()

    def test_reads_overlap_a_real_maintenance_pass(self):
        handle = make_handle(line_instance(12))

        async def scenario():
            await handle.ensure_materialized()
            update = asyncio.ensure_future(
                handle.enqueue_update([edge(f"m{i}", f"m{i + 1}") for i in range(30)])
            )
            observed = []
            while not update.done():
                response = await handle.run_query(mode="full")
                observed.append(response["generation"])
                await asyncio.sleep(0)
            await update
            return observed

        observed = asyncio.run(scenario())
        assert observed, "no query ran while the update was in flight"
        assert all(generation in (0, 1) for generation in observed)
        assert handle.queries_from_view == len(observed)
        handle.close()

    def test_tabled_mode_is_goal_mode_and_reads_the_view(self):
        handle, engine = make_handle(), make_handle()

        async def scenario():
            await handle.ensure_materialized()
            read = await handle.run_query(mode="tabled", binding={0: path("a")})
            # No materialization: the engine path evaluates the goal.
            evaluated = await engine.run_query(mode="tabled", binding={0: path("a")})
            return read, evaluated

        read, evaluated = asyncio.run(scenario())
        assert handle.queries_from_view == 1 and handle.queries_from_engine == 0
        assert engine.queries_from_engine == 1 and evaluated["served_by"] == "goal"
        assert read["mode"] == evaluated["mode"] == "goal"
        assert read["answers"] == evaluated["answers"]
        assert answered(read) == expected_pairs(line_instance(), {0: path("a")})
        handle.close()
        engine.close()

    def test_bad_binding_and_bad_mode_are_client_errors(self):
        handle = make_handle()

        async def scenario():
            await handle.ensure_materialized()
            with pytest.raises(ServiceError) as bad_position:
                await handle.run_query(binding={7: path("a")})
            assert bad_position.value.status == 400
            assert bad_position.value.code == "bad_binding"
            with pytest.raises(ServiceError) as bad_mode:
                await handle.run_query(mode="sideways")
            assert bad_mode.value.status == 400 and bad_mode.value.code == "bad_mode"

        asyncio.run(scenario())
        handle.close()


class TestHandleLifecycle:
    def test_close_is_idempotent_and_closed_handles_refuse_requests(self):
        handle = make_handle()
        asyncio.run(handle.ensure_materialized())
        handle.close()
        handle.close()  # second close is a no-op
        with pytest.raises(ServiceError) as refused:
            asyncio.run(handle.run_query())
        assert refused.value.status == 410 and refused.value.code == "session_closed"
        with pytest.raises(ServiceError):
            asyncio.run(handle.enqueue_update([edge("p", "q")]))

    def test_close_fails_queued_and_in_flight_updates_with_503(self):
        handle = make_handle()
        entered, release = threading.Event(), threading.Event()
        update = handle.session.update

        def slow_update(additions, retractions):
            entered.set()
            release.wait(5)
            return update(additions, retractions)

        handle.session.update = slow_update

        async def scenario():
            await handle.ensure_materialized()
            loop = asyncio.get_running_loop()
            taken = asyncio.ensure_future(handle.enqueue_update([edge("x0", "x1")]))
            await loop.run_in_executor(None, entered.wait, 5)  # its pass is in the executor
            queued = asyncio.ensure_future(handle.enqueue_update([edge("x1", "x2")]))
            await asyncio.sleep(0)
            handle.close()
            release.set()
            return await asyncio.gather(taken, queued, return_exceptions=True)

        errors = asyncio.run(scenario())
        assert len(errors) == 2
        for error in errors:
            assert isinstance(error, ServiceError)
            assert error.status == 503 and error.code == "session_evicted"
        assert handle.generation == 0 and handle.maintenance_passes == 0


class TestRegistry:
    PROGRAM = REACHABILITY_PAIRS

    def instance_text(self, length=4):
        return instance_to_text(line_instance(length))

    def test_create_materializes_and_serves(self):
        registry = SessionRegistry()

        async def scenario():
            handle = await registry.create(program=self.PROGRAM, instance=self.instance_text())
            response = await handle.run_query(binding={0: path("a")})
            return handle, response

        handle, response = asyncio.run(scenario())
        assert handle.committed is not None and handle.generation == 0
        assert answered(response) == expected_pairs(line_instance(4), {0: path("a")})
        registry.close_all()

    def test_output_relation_is_inferred_only_when_unambiguous(self):
        registry = SessionRegistry()

        async def scenario():
            with pytest.raises(ServiceError) as ambiguous:
                await registry.create(
                    program="A(@x) :- E(@x, @y).\nB(@y) :- E(@x, @y).",
                    instance="E(a, b).",
                )
            assert ambiguous.value.code == "ambiguous_output"
            handle = await registry.create(
                program="A(@x) :- E(@x, @y).\nB(@y) :- E(@x, @y).",
                instance="E(a, b).",
                output_relation="B",
            )
            return handle

        handle = asyncio.run(scenario())
        assert handle.query.output_relation == "B"
        registry.close_all()

    def test_bad_uploads_are_400(self):
        registry = SessionRegistry()

        async def scenario():
            with pytest.raises(ServiceError) as bad_program:
                await registry.create(program="T(@x :- broken", instance="")
            assert bad_program.value.status == 400 and bad_program.value.code == "bad_upload"
            with pytest.raises(ServiceError) as bad_instance:
                await registry.create(
                    program=self.PROGRAM, instance="E(@x, b)."  # not ground
                )
            assert bad_instance.value.code == "bad_upload"

        asyncio.run(scenario())
        assert len(registry) == 0

    def test_service_capacity_evicts_the_least_recently_used(self):
        registry = SessionRegistry(max_sessions=2)

        async def scenario():
            first = await registry.create(program=self.PROGRAM, instance=self.instance_text())
            second = await registry.create(program=self.PROGRAM, instance=self.instance_text())
            registry.get(first.session_id)  # touch: first becomes most recent
            third = await registry.create(program=self.PROGRAM, instance=self.instance_text())
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert registry.evictions == [(second.session_id, "service_capacity")]
        assert second.closed and not first.closed and not third.closed
        with pytest.raises(ServiceError) as gone:
            registry.get(second.session_id)
        assert gone.value.status == 404
        registry.close_all()

    def test_the_eviction_log_keeps_only_the_newest_entries(self):
        registry = SessionRegistry(max_sessions=1)

        async def scenario():
            created = []
            for _ in range(EVICTION_LOG_LIMIT + 3):
                handle = await registry.create(
                    program=self.PROGRAM,
                    instance=self.instance_text(2),
                    options={"materialize": False},
                )
                created.append(handle.session_id)
            return created

        created = asyncio.run(scenario())
        # Every session but the last was evicted; only the newest reasons stay.
        assert registry.evictions == [
            (session_id, "service_capacity") for session_id in created[-EVICTION_LOG_LIMIT - 1 : -1]
        ]
        registry.close_all()

    def test_tenant_budget_evicts_within_the_tenant_only(self):
        registry = SessionRegistry(tenant_budgets={"a": TenantBudget(max_sessions=1)})

        async def scenario():
            mine = await registry.create(
                tenant="a", program=self.PROGRAM, instance=self.instance_text()
            )
            other = await registry.create(
                tenant="b", program=self.PROGRAM, instance=self.instance_text()
            )
            replacement = await registry.create(
                tenant="a", program=self.PROGRAM, instance=self.instance_text()
            )
            return mine, other, replacement

        mine, other, replacement = asyncio.run(scenario())
        assert registry.evictions == [(mine.session_id, "tenant_capacity")]
        assert mine.closed and not other.closed and not replacement.closed
        registry.close_all()

    def test_service_pressure_evicts_the_hostile_tenant_before_lru(self):
        # The hostile-tenant scenario from bench_serving, reduced: a tenant
        # that keeps pushing work past its own admission limits must lose
        # its session under service-wide capacity pressure even when it is
        # the most recently used — the friendly tenant's warm session stays.
        registry = SessionRegistry(
            max_sessions=2,
            tenant_budgets={
                "hostile": TenantBudget(
                    admission=AdmissionLimits(max_edb_facts=2)
                )
            },
        )

        async def scenario():
            friendly = await registry.create(
                tenant="friendly", program=self.PROGRAM, instance=self.instance_text()
            )
            hostile = await registry.create(
                tenant="hostile", program=self.PROGRAM, instance=self.instance_text()
            )
            sheds = 0
            for index in range(3):  # the line instance already exceeds the budget
                with pytest.raises(ServiceError) as shed:
                    await hostile.enqueue_update([edge(f"h{index}", "hub")])
                assert shed.value.status == 429
                sheds += 1
            assert sheds == hostile.shed_updates == 3
            # Touch the hostile session last: a plain LRU policy would now
            # pick the friendly session as the service-wide victim.
            registry.get(hostile.session_id)
            newcomer = await registry.create(
                tenant="friendly", program=self.PROGRAM, instance=self.instance_text()
            )
            return friendly, hostile, newcomer

        friendly, hostile, newcomer = asyncio.run(scenario())
        assert registry.evictions == [(hostile.session_id, "admission_pressure")]
        assert hostile.closed and not friendly.closed and not newcomer.closed
        registry.close_all()

    def test_tenant_budget_caps_table_capacity(self):
        registry = SessionRegistry(
            tenant_budgets={"a": TenantBudget(table_capacity=7)}
        )

        async def scenario():
            capped = await registry.create(
                tenant="a",
                program=self.PROGRAM,
                instance=self.instance_text(),
                options={"table_capacity": 1000, "materialize": False},
            )
            defaulted = await registry.create(
                tenant="a",
                program=self.PROGRAM,
                instance=self.instance_text(),
                options={"materialize": False},
            )
            return capped, defaulted

        capped, defaulted = asyncio.run(scenario())
        assert capped.session.table_capacity == 7
        assert defaulted.session.table_capacity == 7
        registry.close_all()

    def test_drop_closes_and_forgets(self):
        registry = SessionRegistry()

        async def scenario():
            handle = await registry.create(program=self.PROGRAM, instance=self.instance_text())
            registry.drop(handle.session_id)
            return handle

        handle = asyncio.run(scenario())
        assert handle.closed and len(registry) == 0
        with pytest.raises(ServiceError):
            registry.drop(handle.session_id)
