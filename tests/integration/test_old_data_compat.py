"""Data written before a layer or an option was deleted still reads.

The sharding literals below were written by commit 19c7d04 (the last one
that had ``repro.engine.sharding``), from sessions opened with ``shards=2`` /
``shards=4, executor="process"``.  This build has no such option, no
``"sharding"`` block in a session state, no ``shards_touched`` on an update
result and five fewer statistics counters — and must keep reading all of it,
ignoring what it no longer knows.  The ``EQUATION_*`` literals were written
by commit 6de9eff (the last one with ``execution=`` / ``strategy=`` and the
valuation interpreter that counted derivations); their support counts must
keep the meaning they were written with.  ``COALESCE_PERSISTED_SNAPSHOT`` was
written by commit af2d02c, the last one whose sessions took a ``coalesce``
option (``false`` ran one maintenance pass per request batch).
``QUOTED_PERSISTED_SNAPSHOT`` was written by commit b9a3807, before
constants holding a ``'`` gained a double-quoted spelling: its ``it's`` and
``'x y'`` must read back as the same constants.  ``GOAL_ANSWERS_STATE`` was
written by commit 675c2dd, the last one that persisted a tabled goal's
``answers`` beside its seed: they are read and ignored, and the seed is
evaluated again into a maintained entry.  Each test fails if a reader starts
rejecting (or misreading) the old documents.
"""

import asyncio
import json

from repro.engine import MaintainedFixpoint, ProgramQuery, QuerySession
from repro.io.serialization import (
    fact_from_json,
    rows_from_json,
    statistics_from_json,
    update_result_from_json,
)
from repro.model import Instance, path
from repro.parser import parse_program
from repro.service import ServiceApp, SessionRegistry

BLOCKED_REACHABILITY = """
Blocked(@x) :- Blocklist(@x).
T(@x, @y) :- E(@x, @y), not Blocked(@y).
T(@x, @z) :- T(@x, @y), E(@y, @z), not Blocked(@z).
"""

SHARDING_BLOCK = (
    '{"plan":{"keys":{"Blocked":0,"Blocklist":0,"E":0,"T":0},"modes":["local","local"],'
    '"repartitions":{},"replicated":["Blocked","E"]},"shard_count":2}'
)

#: ``export_state()`` of a ``shards=2`` session after ``run()`` and one update
#: (``+E(d, a)``, closing the cycle): a materialization with support state.
MATERIALIZED_STATE = (
    '{"edb":{"Blocklist":[["e"]],"E":[["a","b"],["b","c"],["b","e"],["c","d"],["d","a"]]},'
    '"materialization":{"Blocked":[["e"]],"Blocklist":[["e"]],'
    '"E":[["a","b"],["b","c"],["b","e"],["c","d"],["d","a"]],'
    '"T":[["a","a"],["a","b"],["a","c"],["a","d"],["b","a"],["b","b"],["b","c"],["b","d"],'
    '["c","a"],["c","b"],["c","c"],["c","d"],["d","a"],["d","b"],["d","c"],["d","d"]]},'
    '"sharding":' + SHARDING_BLOCK + ","
    '"strata":[{"counts":[[["Blocked","e"],1]],"pinned":[],"recursive":false},'
    '{"counts":null,"pinned":[],"recursive":true}],"table":[],"version":1}'
)

#: ``export_state()`` of a ``shards=2`` session that only ever answered the
#: goal ``T(b, ?)``: no materialization, one tabled entry.
TABLED_STATE = (
    '{"edb":{"Blocklist":[["e"]],"E":[["a","b"],["b","c"],["b","e"],["c","d"]]},'
    '"materialization":null,"sharding":' + SHARDING_BLOCK + ',"strata":null,'
    '"table":[{"answers":{"Blocked":[["e"]],"Blocklist":[["e"]],'
    '"E":[["a","b"],["b","c"],["b","e"],["c","d"]],"Magic_T_bf":[["b"]],'
    '"T":[["b","c"],["b","d"]],"T_bf":[["b","c"],["b","d"]]},"positions":[0],"values":["b"]}],'
    '"version":1}'
)

#: The snapshot document a registry wrote for a session created with
#: ``options={"persist": "alpha", "shards": 4, "executor": "process",
#: "table_capacity": 8}``.
PERSISTED_SNAPSHOT = (
    '{"config":{"name":"alpha","options":{"executor":"process","persist":"alpha","shards":4,'
    '"table_capacity":8},"output_relation":"T","program":' + json.dumps(BLOCKED_REACHABILITY) + ","
    '"tenant":"acme"},"format":"repro-session-snapshot","generation":0,'
    '"state":{"edb":{"Blocklist":[["e"]],"E":[["a","b"],["b","c"],["b","e"],["c","d"]]},'
    '"materialization":{"Blocked":[["e"]],"Blocklist":[["e"]],'
    '"E":[["a","b"],["b","c"],["b","e"],["c","d"]],'
    '"T":[["a","b"],["a","c"],["a","d"],["b","c"],["b","d"],["c","d"]]},'
    '"sharding":{"plan":{"keys":{"Blocked":0,"Blocklist":0,"E":0,"T":0},'
    '"modes":["local","local"],"repartitions":{},"replicated":["Blocked","E"]},"shard_count":4},'
    '"strata":[{"counts":[[["Blocked","e"],1]],"pinned":[],"recursive":false},'
    '{"counts":null,"pinned":[],"recursive":true}],"table":[],"version":1},"version":1}'
)

#: ``update_result_to_json`` of the ``+E(d, a)`` update above.
UPDATE_RESULT = (
    '{"added":[["E","d","a"]],"fallback_reason":null,"kind":"update_result","maintained":true,'
    '"removed":[],"shards_touched":[0],"statistics":{"cross_shard_facts":0,'
    '"delta_restricted_applications":9,"exchange_batches":0,"exchanged_bytes":0,'
    '"extension_attempts":28,"facts_derived":10,"facts_retracted":0,"iterations":0,'
    '"maintenance_rounds":5,"per_stratum_iterations":[],"plan_cache_hits":5,"plans_compiled":4,'
    '"rederivation_attempts":0,"rule_applications":9,"shard_rounds":5,'
    '"shard_skipped_updates":0,"subgoal_table_hits":0}}'
)


EQUATION_PROGRAM = "S($x) :- R($x), $x = $u·a·$v.\n"

#: The snapshot document a registry wrote for a session created with
#: ``options={"persist": "beta", "execution": "indexed", "strategy": "naive",
#: "table_capacity": 8}`` over ``R(a·b·a). R(b).``
EQUATION_PERSISTED_SNAPSHOT = (
    '{"config":{"name":"beta","options":{"execution":"indexed","persist":"beta",'
    '"strategy":"naive","table_capacity":8},"output_relation":"S",'
    '"program":"S($x) :- R($x), $x = $u\\u00b7a\\u00b7$v.\\n","tenant":"acme"},'
    '"format":"repro-session-snapshot","generation":0,'
    '"state":{"edb":{"R":[["a\\u00b7b\\u00b7a"],["b"]]},'
    '"materialization":{"R":[["a\\u00b7b\\u00b7a"],["b"]],"S":[["a\\u00b7b\\u00b7a"]]},'
    '"strata":[{"counts":[[["S","a\\u00b7b\\u00b7a"],2]],"pinned":[],"recursive":false}],'
    '"table":[],"version":1},"version":1}'
)

#: ``export_state()`` of a session over ``R(a·b·a)`` after ``run()``: S(a·b·a)
#: has two derivations — ``$u``, ``$v`` = (ϵ, b·a) and (a·b, ϵ) — although
#: neither variable is mentioned anywhere else in the rule.
EQUATION_MATERIALIZED_STATE = (
    '{"edb":{"R":[["a\\u00b7b\\u00b7a"]]},'
    '"materialization":{"R":[["a\\u00b7b\\u00b7a"]],"S":[["a\\u00b7b\\u00b7a"]]},'
    '"strata":[{"counts":[[["S","a\\u00b7b\\u00b7a"],2]],"pinned":[],"recursive":false}],'
    '"table":[],"version":1}'
)

#: The snapshot document a registry wrote for a session created with
#: ``options={"persist": "gamma", "coalesce": False, "table_capacity": 8}``
#: over ``E(a, b). E(b, c).``
COALESCE_PERSISTED_SNAPSHOT = (
    '{"config":{"name":"gamma","options":{"coalesce":false,"persist":"gamma",'
    '"table_capacity":8},"output_relation":"T",'
    '"program":"T(@x, @y) :- E(@x, @y).\\nT(@x, @z) :- T(@x, @y), E(@y, @z).\\n",'
    '"tenant":"acme"},"format":"repro-session-snapshot","generation":0,'
    '"state":{"edb":{"E":[["a","b"],["b","c"]]},'
    '"materialization":{"E":[["a","b"],["b","c"]],"T":[["a","b"],["a","c"],["b","c"]]},'
    '"strata":[{"counts":null,"pinned":[],"recursive":true}],"table":[],"version":1},'
    '"version":1}'
)

#: The snapshot document a registry wrote for a session created with
#: ``options={"persist": "delta", "table_capacity": 8}`` over
#: ``E(a, it's). E(it's, 'x y'). E('x y', b).``
QUOTED_PERSISTED_SNAPSHOT = (
    '{"config":{"name":"delta","options":{"persist":"delta","table_capacity":8},'
    '"output_relation":"T",'
    '"program":"T(@x, @y) :- E(@x, @y).\\nT(@x, @z) :- T(@x, @y), E(@y, @z).\\n",'
    '"tenant":"acme"},"format":"repro-session-snapshot","generation":0,'
    '"state":{"edb":{"E":[["\'x y\'","b"],["a","it\'s"],["it\'s","\'x y\'"]]},'
    '"materialization":{"E":[["\'x y\'","b"],["a","it\'s"],["it\'s","\'x y\'"]],'
    '"T":[["\'x y\'","b"],["a","\'x y\'"],["a","b"],["a","it\'s"],["it\'s","\'x y\'"],'
    '["it\'s","b"]]},'
    '"strata":[{"counts":null,"pinned":[],"recursive":true}],"table":[],"version":1},'
    '"version":1}'
)

#: ``export_state()`` of a session over ``E(a, b). E(b, c). E(b, e). E(c, d).
#: Blocklist(e).`` that only ever answered the goal ``T(a, ?)``.
GOAL_ANSWERS_STATE = (
    '{"edb":{"Blocklist":[["e"]],"E":[["a","b"],["b","c"],["b","e"],["c","d"]]},'
    '"materialization":null,"strata":null,'
    '"table":[{"answers":{"Blocked":[["e"]],"Blocklist":[["e"]],'
    '"E":[["a","b"],["b","c"],["b","e"],["c","d"]],"Magic_T_bf":[["a"]],'
    '"T":[["a","b"],["a","c"],["a","d"]],"T_bf":[["a","b"],["a","c"],["a","d"]]},'
    '"positions":[0],"values":["a"]}],"version":1}'
)


def build_query():
    return ProgramQuery(
        parse_program(BLOCKED_REACHABILITY),
        {"E": 2, "Blocklist": 1},
        "T",
        require_monadic=False,
    )


def edb_of(state):
    instance = Instance()
    for name, rows in state["edb"].items():
        instance.set_relation_rows(name, rows_from_json(rows))
    return instance


def test_a_sharded_sessions_materialized_state_restores_into_a_plain_session():
    state = json.loads(MATERIALIZED_STATE)
    assert state["sharding"]["shard_count"] == 2
    query = build_query()
    scratch = MaintainedFixpoint.evaluate(query.program, edb_of(state))
    with QuerySession.restore(build_query(), state) as restored:
        answered = restored.run()
        assert answered.served_by == "maintained"  # read, not re-evaluated
        assert answered.output == query.run(edb_of(state)).output
        assert restored.materialized == scratch.materialized
        assert restored._maintained.support_state() == scratch.support_state()
        # Still a live session: retracting the closing edge breaks the cycle.
        restored.update([], [fact_from_json(["E", "d", "a"])])
        assert (path("d"), path("a")) not in restored.run().output.relation("T")


def test_a_sharded_sessions_tabled_goals_restore_into_a_plain_session():
    state = json.loads(TABLED_STATE)
    assert state["sharding"] is not None and state["table"]
    binding = {0: path("b")}
    with build_query().session(edb_of(state)) as scratch:
        expected = scratch.run(binding=binding, mode="goal")
        with QuerySession.restore(build_query(), state) as restored:
            served = restored.run(binding=binding, mode="goal")
            assert served.served_by == "tabled"
            assert served.output == expected.output
            (entry,) = restored._tables
            (built,) = scratch._tables
            assert (entry.positions, entry.values) == (built.positions, built.values)
            assert entry.answers == built.answers


def test_a_persisted_config_naming_shards_and_executor_restores_and_serves(tmp_path):
    directory = tmp_path / "acme" / "alpha"
    directory.mkdir(parents=True)
    (directory / "snapshot-000000000000.json").write_text(PERSISTED_SNAPSHOT)
    (directory / "wal-000000000000.log").write_bytes(b"")

    async def scenario():
        registry = SessionRegistry(persist_root=tmp_path)
        try:
            (handle,) = await registry.restore_all()
            assert registry.restore_errors == []
            assert handle.persist_config["options"]["shards"] == 4
            assert handle.session.table_capacity == 8  # the options it knows still apply
            answer = await handle.run_query(binding={0: path("a")})
            assert set(rows_from_json(answer["answers"]["T"])) == {
                (path("a"), path(node)) for node in "bcd"
            }
            ack = await handle.enqueue_update([fact_from_json(["E", "d", "a"])], [])
            assert ack["generation"] == 1
        finally:
            registry.close_all()

    asyncio.run(scenario())


def test_update_results_and_statistics_written_with_the_removed_fields_decode():
    payload = json.loads(UPDATE_RESULT)
    assert payload["shards_touched"] == [0] and "shard_rounds" in payload["statistics"]
    result = update_result_from_json(payload)
    assert result.added == {fact_from_json(["E", "d", "a"])}
    assert result.maintained and not result.removed
    assert not hasattr(result, "shards_touched")
    statistics = statistics_from_json(payload["statistics"])
    assert statistics == result.statistics
    assert (statistics.extension_attempts, statistics.maintenance_rounds) == (28, 5)
    assert not hasattr(statistics, "exchanged_bytes")


def test_a_persisted_config_naming_execution_and_strategy_restores_and_serves(tmp_path):
    directory = tmp_path / "acme" / "beta"
    directory.mkdir(parents=True)
    (directory / "snapshot-000000000000.json").write_text(EQUATION_PERSISTED_SNAPSHOT)
    (directory / "wal-000000000000.log").write_bytes(b"")

    async def scenario():
        registry = SessionRegistry(persist_root=tmp_path)
        try:
            (handle,) = await registry.restore_all()
            assert registry.restore_errors == []
            options = handle.persist_config["options"]
            assert (options["execution"], options["strategy"]) == ("indexed", "naive")
            assert handle.session.table_capacity == 8  # the options it knows still apply
            answer = await handle.run_query()
            assert set(rows_from_json(answer["answers"]["S"])) == {(path("a", "b", "a"),)}
            ack = await handle.enqueue_update([fact_from_json(["R", "b·a"])], [])
            assert ack["generation"] == 1
            answer = await handle.run_query()
            assert len(answer["answers"]["S"]) == 2
        finally:
            registry.close_all()

    asyncio.run(scenario())


def test_a_support_count_written_by_the_interpreter_keeps_its_meaning():
    state = json.loads(EQUATION_MATERIALIZED_STATE)
    fact = fact_from_json(["S", "a·b·a"])
    assert state["strata"][0]["counts"] == [[["S", "a·b·a"], 2]]
    query = ProgramQuery(parse_program(EQUATION_PROGRAM), {"R": 1}, "S")
    with QuerySession.restore(query, state) as restored:
        assert restored.run().served_by == "maintained"  # read, not re-evaluated
        assert restored._maintained.support_state()[0][1] == {fact: 2}
        # Both derivations go with the one R-fact; a count that had collapsed
        # the equation's single-mention variables would go negative or linger.
        restored.update([], [fact_from_json(["R", "a·b·a"])])
        assert not restored.run().output.relation("S")
        assert restored._maintained.support_state()[0][1] == {}
        restored.update([fact_from_json(["R", "a·b·a"])], [])
        assert restored.run().paths() == {path("a", "b", "a")}
        assert restored._maintained.support_state()[0][1] == {fact: 2}


def test_a_persisted_config_naming_coalesce_false_restores_and_coalesces(tmp_path):
    directory = tmp_path / "acme" / "gamma"
    directory.mkdir(parents=True)
    (directory / "snapshot-000000000000.json").write_text(COALESCE_PERSISTED_SNAPSHOT)
    (directory / "wal-000000000000.log").write_bytes(b"")

    async def scenario():
        registry = SessionRegistry(persist_root=tmp_path)
        try:
            (handle,) = await registry.restore_all()
            assert registry.restore_errors == []
            assert handle.persist_config["options"]["coalesce"] is False  # read, ignored
            assert handle.session.table_capacity == 8  # the options it knows still apply
            answer = await handle.run_query(binding={0: path("a")})
            assert set(rows_from_json(answer["answers"]["T"])) == {
                (path("a"), path("b")),
                (path("a"), path("c")),
            }
            acks = await asyncio.gather(
                handle.enqueue_update([fact_from_json(["E", "c", "d"])], []),
                handle.enqueue_update([fact_from_json(["E", "d", "e"])], []),
            )
            # The serialized mode is gone: the two batches share one pass.
            assert [ack["coalesced_batches"] for ack in acks] == [2, 2]
            assert handle.maintenance_passes == 1 and handle.generation == 1
            answer = await handle.run_query(binding={0: path("a")})
            assert len(answer["answers"]["T"]) == 4
        finally:
            registry.close_all()

    asyncio.run(scenario())


def test_a_create_request_naming_coalesce_is_accepted_whatever_its_type():
    app = ServiceApp(SessionRegistry())
    body = {
        "program": "T(@x, @y) :- E(@x, @y).\nT(@x, @z) :- T(@x, @y), E(@y, @z).\n",
        "instance": "E(a, b).",
    }

    async def scenario():
        for value in (False, True, None, 0, 1.5, "abc", ["no"], {"on": False}):
            status, created = await app.dispatch(
                "POST", "/v1/sessions", {**body, "options": {"coalesce": value}}
            )
            assert status == 201, (value, created)

    try:
        asyncio.run(scenario())
    finally:
        app.close()


def test_a_snapshot_with_quoted_constants_restores_to_identical_answers(tmp_path):
    directory = tmp_path / "acme" / "delta"
    directory.mkdir(parents=True)
    (directory / "snapshot-000000000000.json").write_text(QUOTED_PERSISTED_SNAPSHOT)
    (directory / "wal-000000000000.log").write_bytes(b"")
    written = json.loads(QUOTED_PERSISTED_SNAPSHOT)["state"]["materialization"]["T"]

    async def scenario():
        registry = SessionRegistry(persist_root=tmp_path)
        try:
            (handle,) = await registry.restore_all()
            assert registry.restore_errors == []
            answer = await handle.run_query()
            assert answer["answers"]["T"] == sorted(written)  # the same spellings
            assert set(rows_from_json(answer["answers"]["T"])) >= {
                (path("a"), path("it's")),
                (path("it's"), path("x y")),
            }
            ack = await handle.enqueue_update([fact_from_json(["E", "b", "it's"])], [])
            assert ack["generation"] == 1
            answer = await handle.run_query(binding={0: path("x y")})
            assert answer["answers"]["T"] == [["'x y'", "'x y'"], ["'x y'", "b"], ["'x y'", "it's"]]
        finally:
            registry.close_all()

    asyncio.run(scenario())


def test_a_tabled_goals_persisted_answers_restore_into_a_maintained_entry(oracle_output):
    state = json.loads(GOAL_ANSWERS_STATE)
    (stored,) = state["table"]
    assert stored["answers"]["T"] and state["materialization"] is None
    binding = {0: path("a")}
    expected = edb_of(state)
    with QuerySession.restore(build_query(), state) as restored:
        served = restored.run(binding=binding, mode="goal")
        assert served.served_by == "tabled"
        assert served.output == oracle_output(build_query(), expected, binding)
        # Both sides of the negation: e is unblocked and d closes a cycle.
        added, retracted = fact_from_json(["E", "d", "a"]), fact_from_json(["Blocklist", "e"])
        update = restored.update([added], [retracted])
        expected.discard_fact(retracted)
        expected.add_fact(added)
        assert update.maintained and update.fallback_reason is None
        served = restored.run(binding=binding, mode="goal")
        assert served.served_by == "tabled"
        assert served.output == oracle_output(build_query(), expected, binding)
        assert restored._tables.evictions == []
