"""Service-level durability: persisted sessions, restart restore, warm
standby/promote, the bounded commit log, and the HTTP routes over them.

Two registries pointing at the same ``persist_root`` model two processes;
"the primary dies" is ``close_all()`` on the first.  The crash sweep in
``tests/io/test_crash_recovery.py`` covers mid-write deaths; here the
lifecycle is orderly and the focus is the serving behaviour around it.
"""

import asyncio
import json

import pytest

from repro.engine import QuerySession
from repro.io.durability import KEEP_SNAPSHOTS
from repro.io.serialization import instance_from_text, instance_to_text, rows_from_json
from repro.model import Fact, Instance, path
from repro.service import ServiceApp, SessionRegistry
from repro.service.core import ServiceError

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""


def line_text(length=4):
    instance = Instance()
    nodes = ["a"] + [f"n{i}" for i in range(1, length)]
    for source, target in zip(nodes, nodes[1:]):
        instance.add("E", source, target)
    return instance_to_text(instance)


def edge(source, target):
    return Fact("E", (path(source), path(target)))


def edb_facts(handle):
    return {Fact("E", row) for row in handle.session.instance.relation("E")}


async def create_persisted(registry, name, **options):
    return await registry.create(
        program=REACHABILITY_PAIRS,
        instance=line_text(),
        options={"persist": name, **options},
    )


class TestRegistryPersistence:
    def test_restart_restores_identical_answers_and_keeps_serving(self, tmp_path):
        async def scenario():
            primary = SessionRegistry(persist_root=tmp_path)
            handle = await create_persisted(primary, "alpha")
            for index in range(5):
                await handle.enqueue_update([edge(f"u{index}", "a")], [])
            await handle.enqueue_update([], [edge("u0", "a")])
            before = await handle.run_query()
            stats = handle.stats()
            assert stats["durable"] and stats["persist"] == "alpha"
            assert stats["records_logged"] == 6
            primary.close_all()  # the primary process dies

            replacement = SessionRegistry(persist_root=tmp_path)
            restored = await replacement.restore_all()
            assert replacement.restore_errors == []
            assert [h.persist_name for h in restored] == ["alpha"]
            revived = restored[0]
            assert revived.generation == handle.generation == 6
            after = await revived.run_query()
            assert after["answers"] == before["answers"]
            # ...and it is a live primary again, logging new commits.
            ack = await revived.enqueue_update([edge("post", "a")], [])
            assert ack["generation"] == 7
            assert revived.stats()["records_logged"] == 1  # fresh counter, new record
            replacement.close_all()

        asyncio.run(scenario())

    def test_a_log_tail_restores_in_one_maintenance_pass(
        self, tmp_path, monkeypatch, oracle_output
    ):
        """The tail folds into one update: the fact added and retracted over
        and over nets out, every generation is still recorded."""
        flapping = edge("n3", "a")

        async def write():
            primary = SessionRegistry(persist_root=tmp_path)
            handle = await create_persisted(primary, "alpha")
            for index in range(30):
                await handle.enqueue_update([flapping, edge(f"u{index}", "a")], [])
                await handle.enqueue_update([], [flapping, edge(f"u{index // 2}", "a")])
            assert handle.stats()["records_logged"] == 60
            primary.close_all()
            return handle.query, edb_facts(handle)

        query, edb = asyncio.run(write())
        passes = []
        update = QuerySession.update

        def counting_update(session, *args, **kwargs):
            passes.append(args)
            return update(session, *args, **kwargs)

        monkeypatch.setattr(QuerySession, "update", counting_update)

        async def restore():
            replacement = SessionRegistry(persist_root=tmp_path)
            (revived,) = await replacement.restore_all()
            answer = await revived.run_query()
            generations = [record.generation for record in revived.commit_log]
            replacement.close_all()
            return revived, answer, generations

        revived, answer, generations = asyncio.run(restore())
        assert len(passes) == 1
        assert revived.generation == 60 and generations == list(range(1, 61))
        assert edb_facts(revived) == edb and flapping not in edb
        expected = oracle_output(query, Instance(edb)).relation("T")
        assert set(rows_from_json(answer["answers"]["T"])) == set(expected)

    def test_create_on_a_persisted_directory_restores_ignoring_the_upload(
        self, tmp_path
    ):
        async def scenario():
            primary = SessionRegistry(persist_root=tmp_path)
            handle = await create_persisted(primary, "alpha")
            await handle.enqueue_update([edge("u1", "a")], [])
            expected = await handle.run_query()
            primary.close_all()

            replacement = SessionRegistry(persist_root=tmp_path)
            revived = await replacement.create(
                program="S($x) :- R($x).",  # a different program: must be ignored
                instance="R(zzz).",
                options={"persist": "alpha"},
            )
            assert revived.query.output_relation == "T"
            assert (await revived.run_query())["answers"] == expected["answers"]
            replacement.close_all()

        asyncio.run(scenario())

    def test_constants_holding_a_quote_survive_a_restart(self, tmp_path, oracle_output):
        # The lexer reads "x'y z" (double-quoted); its wire spelling must too.
        upload = "E(\"x'y z\", b).\nE(b, 'c d').\n"
        added = Fact("E", (path("c d"), path("it's")))

        async def scenario():
            primary = SessionRegistry(persist_root=tmp_path)
            handle = await primary.create(
                program=REACHABILITY_PAIRS, instance=upload, options={"persist": "alpha"}
            )
            await handle.enqueue_update([added], [])
            before = await handle.run_query()
            primary.close_all()

            replacement = SessionRegistry(persist_root=tmp_path)
            (revived,) = await replacement.restore_all()
            assert replacement.restore_errors == []
            after = await revived.run_query()
            query = revived.query
            replacement.close_all()
            return query, before, after

        query, before, after = asyncio.run(scenario())
        instance = instance_from_text(upload)
        instance.add_fact(added)
        expected = oracle_output(query, instance).relation("T")
        assert set(rows_from_json(before["answers"]["T"])) == set(expected)
        assert after["answers"] == before["answers"]

    def test_wal_growth_triggers_snapshot_compaction(self, tmp_path):
        async def scenario():
            registry = SessionRegistry(persist_root=tmp_path, snapshot_wal_bytes=256)
            handle = await create_persisted(registry, "alpha")
            for index in range(30):
                await handle.enqueue_update([edge(f"u{index}", "a")], [])
            stats = handle.stats()
            assert stats["snapshots_written"] >= 2, "the WAL bound never fired"
            assert stats["wal_bytes"] <= 512  # bounded, not 30 records deep
            directory = tmp_path / "default" / "alpha"
            assert len(list(directory.glob("snapshot-*.json"))) <= KEEP_SNAPSHOTS
            registry.close_all()
            # The compacted directory still restores the full state.
            replacement = SessionRegistry(persist_root=tmp_path)
            (revived,) = await replacement.restore_all()
            assert revived.generation == 30
            assert edb_facts(revived) == edb_facts(handle)
            replacement.close_all()

        asyncio.run(scenario())

    def test_persist_option_errors(self, tmp_path):
        async def scenario():
            disabled = SessionRegistry()  # no persist_root
            with pytest.raises(ServiceError) as caught:
                await create_persisted(disabled, "alpha")
            assert (caught.value.status, caught.value.code) == (400, "persistence_disabled")

            registry = SessionRegistry(persist_root=tmp_path)
            for bad in ("", ".hidden", "a/b", "..\\c"):
                with pytest.raises(ServiceError) as caught:
                    await create_persisted(registry, bad)
                assert (caught.value.status, caught.value.code) == (400, "bad_persist_name")

            await create_persisted(registry, "alpha")
            with pytest.raises(ServiceError) as caught:
                await create_persisted(registry, "alpha")
            assert (caught.value.status, caught.value.code) == (409, "persist_in_use")

            with pytest.raises(ServiceError) as caught:
                await registry.attach_standby(name="missing")
            assert (caught.value.status, caught.value.code) == (404, "nothing_to_restore")
            registry.close_all()

        asyncio.run(scenario())

    def test_unknown_snapshot_version_is_a_409_not_a_crash(self, tmp_path):
        async def scenario():
            primary = SessionRegistry(persist_root=tmp_path)
            await create_persisted(primary, "alpha")
            primary.close_all()
            # A future build wrote this directory.
            (newest,) = sorted((tmp_path / "default" / "alpha").glob("snapshot-*.json"))[-1:]
            document = json.loads(newest.read_text())
            document["version"] = 99
            newest.write_text(json.dumps(document))

            replacement = SessionRegistry(persist_root=tmp_path)
            with pytest.raises(ServiceError) as caught:
                await create_persisted(replacement, "alpha")
            assert (caught.value.status, caught.value.code) == (409, "snapshot_unsupported")
            # Startup restore records the failure instead of dying.
            assert await replacement.restore_all() == []
            assert len(replacement.restore_errors) == 1
            assert "snapshot_unsupported" in replacement.restore_errors[0][1]
            replacement.close_all()

        asyncio.run(scenario())


class TestBoundedCommitLog:
    def test_overflow_folds_into_a_replayable_base(self, tmp_path):
        async def scenario():
            registry = SessionRegistry()
            handle = await registry.create(
                program=REACHABILITY_PAIRS, instance=line_text()
            )
            handle.commit_log_limit = 4
            for index in range(9):
                await handle.enqueue_update([edge(f"u{index}", "a")], [])
            await handle.enqueue_update([], [edge("u0", "a")])  # retraction too
            stats = handle.stats()
            assert stats["commit_log_length"] == 4
            assert stats["commit_log_base"] == 6
            assert stats["commit_log_truncated"] == 6
            assert [r.generation for r in handle.commit_log] == [7, 8, 9, 10]
            # Replaying the log from the folded base reproduces the EDB.
            replayed = set(handle.base_edb_facts())
            for record in handle.commit_log:
                replayed -= set(record.retractions)
                replayed |= set(record.additions)
            assert replayed == edb_facts(handle)
            registry.close_all()

        asyncio.run(scenario())

    def test_snapshot_folds_everything_up_to_its_generation(self, tmp_path):
        async def scenario():
            registry = SessionRegistry(persist_root=tmp_path)
            handle = await create_persisted(registry, "alpha")
            for index in range(3):
                await handle.enqueue_update([edge(f"u{index}", "a")], [])
            result = await handle.snapshot_now()
            assert result["generation"] == 3
            assert handle.commit_log == []
            assert handle.commit_log_base == 3
            assert handle.stats()["commit_log_truncated"] == 3
            assert set(handle.base_edb_facts()) == edb_facts(handle)
            # Replay-from-base still works for commits after the snapshot.
            await handle.enqueue_update([edge("late", "a")], [])
            replayed = set(handle.base_edb_facts())
            for record in handle.commit_log:
                replayed -= set(record.retractions)
                replayed |= set(record.additions)
            assert replayed == edb_facts(handle)
            registry.close_all()

        asyncio.run(scenario())


class TestWarmStandby:
    def test_standby_tails_refreshes_and_promotes(self, tmp_path):
        async def scenario():
            primary_registry = SessionRegistry(persist_root=tmp_path)
            primary = await create_persisted(primary_registry, "alpha")
            for index in range(3):
                await primary.enqueue_update([edge(f"u{index}", "a")], [])

            standby_registry = SessionRegistry(persist_root=tmp_path)
            standby = await standby_registry.attach_standby(name="alpha")
            assert standby.standby and standby.generation == 3
            assert (await standby.run_query())["answers"] == (
                await primary.run_query()
            )["answers"]
            with pytest.raises(ServiceError) as caught:
                await standby.enqueue_update([edge("nope", "a")], [])
            assert (caught.value.status, caught.value.code) == (409, "standby_read_only")
            with pytest.raises(ServiceError) as caught:
                await standby.snapshot_now()
            assert caught.value.code == "standby_read_only"

            # The primary keeps committing — including a compaction, which
            # rotates the log file under the tailer.
            await primary.enqueue_update([edge("u3", "a")], [])
            await primary.snapshot_now()
            await primary.enqueue_update([edge("u4", "a")], [])
            refresh = await standby.refresh_standby()
            assert refresh == {"generation": 5, "applied": 2}
            assert (await standby.run_query())["answers"] == (
                await primary.run_query()
            )["answers"]

            # The primary dies; the standby takes over the directory.
            primary_registry.close_all()
            promoted = await standby.promote()
            assert promoted["promoted"] is True and not standby.standby
            ack = await standby.enqueue_update([edge("failover", "a")], [])
            assert ack["generation"] == 6
            assert ["failover", "a"] in (await standby.run_query())["answers"]["T"]
            standby_registry.close_all()

            # The promoted writes are durable: a third process sees them.
            third = SessionRegistry(persist_root=tmp_path)
            (revived,) = await third.restore_all()
            assert revived.generation == 6
            assert edge("failover", "a") in edb_facts(revived)
            third.close_all()

        asyncio.run(scenario())

    def test_refresh_and_promote_require_a_standby(self, tmp_path):
        async def scenario():
            registry = SessionRegistry(persist_root=tmp_path)
            handle = await create_persisted(registry, "alpha")
            with pytest.raises(ServiceError) as caught:
                await handle.refresh_standby()
            assert (caught.value.status, caught.value.code) == (409, "not_standby")
            registry.close_all()

        asyncio.run(scenario())


class TestHttpPersistence:
    def test_snapshot_standby_and_promote_routes(self, tmp_path):
        primary_app = ServiceApp(SessionRegistry(persist_root=tmp_path))
        standby_app = ServiceApp(SessionRegistry(persist_root=tmp_path))

        async def scenario():
            status, created = await primary_app.dispatch(
                "POST",
                "/v1/sessions",
                {
                    "program": REACHABILITY_PAIRS,
                    "instance": line_text(),
                    "options": {"persist": "web"},
                },
            )
            assert status == 201
            session = created["session"]
            await primary_app.dispatch(
                "POST",
                f"/v1/sessions/{session}/update",
                {"add": [["E", "n3", "z"]], "retract": []},
            )
            status, snapped = await primary_app.dispatch(
                "POST", f"/v1/sessions/{session}/snapshot"
            )
            assert status == 200 and snapped["generation"] == 1
            assert snapped["snapshots_written"] >= 2

            status, attached = await standby_app.dispatch(
                "POST", "/v1/standby", {"name": "web"}
            )
            assert status == 201 and attached["standby"] is True
            mirror = attached["session"]
            status, error = await standby_app.dispatch(
                "POST",
                f"/v1/sessions/{mirror}/update",
                {"add": [["E", "z", "zz"]]},
            )
            assert status == 409 and error["error"]["code"] == "standby_read_only"

            await primary_app.dispatch(
                "POST",
                f"/v1/sessions/{session}/update",
                {"add": [["E", "z", "zz"]], "retract": []},
            )
            status, refreshed = await standby_app.dispatch(
                "POST", f"/v1/sessions/{mirror}/refresh"
            )
            assert status == 200 and refreshed["generation"] == 2
            status, answer = await standby_app.dispatch(
                "POST", f"/v1/sessions/{mirror}/query", {"binding": {"0": "a"}}
            )
            assert status == 200 and ["a", "zz"] in answer["answers"]["T"]

            primary_app.close()
            status, promoted = await standby_app.dispatch(
                "POST", f"/v1/sessions/{mirror}/promote"
            )
            assert status == 200 and promoted["promoted"] is True
            status, ack = await standby_app.dispatch(
                "POST",
                f"/v1/sessions/{mirror}/update",
                {"add": [["E", "zz", "zzz"]], "retract": []},
            )
            assert status == 200 and ack["generation"] == 3

            status, error = await standby_app.dispatch("POST", "/v1/standby", {})
            assert status == 400 and error["error"]["code"] == "bad_persist_name"

        asyncio.run(scenario())
        standby_app.close()

    def test_serve_with_data_dir_restores_on_startup(self, tmp_path):
        from repro.service import serve

        async def persist_one():
            registry = SessionRegistry(persist_root=tmp_path)
            handle = await create_persisted(registry, "web")
            await handle.enqueue_update([edge("u1", "a")], [])
            registry.close_all()

        asyncio.run(persist_one())

        async def scenario():
            server, app = await serve(port=0, data_dir=str(tmp_path))
            try:
                status, listing = await app.dispatch("GET", "/v1/sessions")
                assert status == 200 and len(listing["sessions"]) == 1
                session = listing["sessions"][0]["session"]
                status, stats = await app.dispatch("GET", f"/v1/sessions/{session}")
                assert status == 200 and stats["persist"] == "web"
                status, answer = await app.dispatch(
                    "POST", f"/v1/sessions/{session}/query", {"binding": {"0": "u1"}}
                )
                assert status == 200 and ["u1", "a"] in answer["answers"]["T"]
            finally:
                server.close()
                await server.wait_closed()
                app.close()

        asyncio.run(scenario())
