"""Service-level durability: persisted sessions, restart restore, one
writer per directory, the bounded commit log, and the HTTP routes over them.

Two registries pointing at the same ``persist_root`` model two processes
(one test spawns a real second process); "the writer dies" is
``close_all()`` on the first.  The crash sweep in
``tests/io/test_crash_recovery.py`` covers mid-write deaths; here the
lifecycle is orderly and the focus is the serving behaviour around it.
"""

import asyncio
import gc
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.engine import QuerySession
from repro.io.durability import KEEP_SNAPSHOTS, FileSystemShim, SessionDurability
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


#: A writer process: creates ``alpha`` under ``argv[1]``, prints each acked
#: generation, then blocks until it is killed.
WRITER_PROCESS = f"""
import asyncio, sys
from repro.model import Fact, path
from repro.service import SessionRegistry

async def main():
    registry = SessionRegistry(persist_root=sys.argv[1])
    handle = await registry.create(
        program={REACHABILITY_PAIRS!r}, instance={line_text()!r}, options={{"persist": "alpha"}}
    )
    for generation in range(1, 5):
        fact = Fact("E", (path(f"u{{generation}}"), path("a")))
        print((await handle.enqueue_update([fact], []))["generation"], flush=True)
    print("ready", flush=True)
    await asyncio.sleep(600)

asyncio.run(main())
"""


def _read_acks(child, timeout=60.0):
    """The generations *child* printed before ``ready``."""
    buffered = b""
    deadline = time.monotonic() + timeout
    while b"ready\n" not in buffered:
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"the writer process never got ready: {buffered!r}"
        readable, _, _ = select.select([child.stdout], [], [], remaining)
        chunk = os.read(child.stdout.fileno(), 4096) if readable else b""
        assert chunk or readable == [], f"the writer process exited: {buffered!r}"
        buffered += chunk
    return [int(line) for line in buffered.split(b"\n") if line.isdigit()]


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


class TestOneWriterPerDirectory:
    def test_a_second_registry_is_refused_and_no_acked_write_is_lost(self, tmp_path):
        async def scenario():
            first = SessionRegistry(persist_root=tmp_path)
            second = SessionRegistry(persist_root=tmp_path)
            handle = await create_persisted(first, "alpha")
            with pytest.raises(ServiceError) as caught:
                await create_persisted(second, "alpha")
            assert (caught.value.status, caught.value.code) == (409, "persist_in_use")
            assert await second.restore_all() == []
            assert "already has a writer" in second.restore_errors[0][1]
            # A writer that has not written its first snapshot yet refuses too.
            claimed = SessionDurability(tmp_path / "default" / "beta")
            claimed.open_for_append()
            with pytest.raises(ServiceError) as caught:
                await create_persisted(second, "beta")
            assert (caught.value.status, caught.value.code) == (409, "persist_in_use")
            claimed.close()
            acked = []
            for index in range(3):
                ack = await handle.enqueue_update([edge(f"u{index}", "a")], [])
                acked.append(ack["generation"])
            assert acked == [1, 2, 3]
            first.close_all()

            restorer = SessionRegistry(persist_root=tmp_path)
            (revived,) = await restorer.restore_all()
            assert revived.generation == 3
            assert {edge(f"u{index}", "a") for index in range(3)} <= edb_facts(revived)
            restorer.close_all()

        asyncio.run(scenario())

    def test_a_killed_writer_process_leaves_a_restorable_directory(self, tmp_path):
        child = subprocess.Popen(
            [sys.executable, "-c", WRITER_PROCESS, str(tmp_path)],
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1])),
        )
        try:
            acked = _read_acks(child)
            assert acked == [1, 2, 3, 4]

            async def refused():
                registry = SessionRegistry(persist_root=tmp_path)
                with pytest.raises(ServiceError) as caught:
                    await create_persisted(registry, "alpha")
                assert (caught.value.status, caught.value.code) == (409, "persist_in_use")

            asyncio.run(refused())
        finally:
            child.kill()  # SIGKILL: the kernel drops the child's lock with its descriptors
            child.wait()
            child.stdout.close()

        async def restore():
            registry = SessionRegistry(persist_root=tmp_path)
            (revived,) = await registry.restore_all()
            assert revived.generation == acked[-1]
            assert {edge(f"u{g}", "a") for g in acked} <= edb_facts(revived)
            registry.close_all()

        asyncio.run(restore())

    def test_failure_paths_release_the_directory_without_the_collector(self, tmp_path):
        class DeadDisk(FileSystemShim):
            def write(self, handle, data):
                raise OSError("the disk died")

        async def scenario():
            crashing = SessionRegistry(persist_root=tmp_path)
            crashing.durability_shim = DeadDisk()
            with pytest.raises(OSError) as crashed:
                await create_persisted(crashing, "alpha")  # initialize dies at its first write
            claimant = SessionRegistry(persist_root=tmp_path)
            handle = await create_persisted(claimant, "alpha")
            await handle.enqueue_update([edge("u1", "a")], [])
            claimant.close_all()

            directory = tmp_path / "default" / "alpha"
            (newest,) = sorted(directory.glob("snapshot-*.json"))[-1:]
            document = json.loads(newest.read_text())
            document["version"] = 99
            newest.write_text(json.dumps(document))
            with pytest.raises(ServiceError) as refused:
                await create_persisted(SessionRegistry(persist_root=tmp_path), "alpha")
            assert refused.value.code == "snapshot_unsupported"
            claimer = SessionDurability(directory)
            claimer.open_for_append()  # raises if the refused restore still held the lock
            claimer.close()
            # Both failures are still referenced, so nothing was freed for us.
            return crashed, refused

        gc.disable()
        try:
            asyncio.run(scenario())
        finally:
            gc.enable()


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


class TestHttpPersistence:
    def test_snapshot_route_and_one_writer_over_http(self, tmp_path):
        primary_app = ServiceApp(SessionRegistry(persist_root=tmp_path))
        rival_app = ServiceApp(SessionRegistry(persist_root=tmp_path))
        body = {
            "program": REACHABILITY_PAIRS,
            "instance": line_text(),
            "options": {"persist": "web"},
        }

        async def scenario():
            status, created = await primary_app.dispatch("POST", "/v1/sessions", body)
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

            status, error = await rival_app.dispatch("POST", "/v1/sessions", body)
            assert status == 409 and error["error"]["code"] == "persist_in_use"
            primary_app.close()
            status, revived = await rival_app.dispatch("POST", "/v1/sessions", body)
            assert status == 201 and revived["generation"] == 1

        asyncio.run(scenario())
        rival_app.close()

    def test_the_retired_standby_routes_are_not_found(self, tmp_path):
        app = ServiceApp(SessionRegistry(persist_root=tmp_path))

        async def scenario():
            body = {"program": REACHABILITY_PAIRS, "options": {"persist": "web"}}
            status, created = await app.dispatch("POST", "/v1/sessions", body)
            assert status == 201
            session = created["session"]
            for path_, payload in [
                ("/v1/standby", {"name": "web"}),
                (f"/v1/sessions/{session}/refresh", None),
                (f"/v1/sessions/{session}/promote", None),
            ]:
                status, error = await app.dispatch("POST", path_, payload)
                assert (status, error["error"]["code"]) == (404, "not_found"), path_

        asyncio.run(scenario())
        app.close()

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
