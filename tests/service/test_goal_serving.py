"""Goal-mode serving on an unmaterialised session, held to the oracle.

A tabled hit is a read: it is served on the event loop from the answer
table and never reaches the executor, while a miss evaluates there.  Every
answer — under interleaved updates, and for a ``relation`` read of the
output, an intermediate relation or a base relation — must equal what the
oracle (or a committed view of the full materialization) answers.
"""

import asyncio
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import ProgramQuery
from repro.io.serialization import NO_ROWS, query_result_to_json, rows_to_json
from repro.model import Fact, Instance, path
from repro.parser import parse_program
from repro.service import ServiceApp, SessionHandle
from repro.service.core import EncodedAnswer
from repro.service.http import _dumps

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""

NODES = ("a", "b", "c", "d", "e")
EDGES = tuple((s, t) for s in NODES for t in NODES if s != t)
SEED_EDGES = (("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"))


def instance_from_edges(edges):
    instance = Instance()
    for source, target in edges:
        instance.add("E", source, target)
    return instance


def instance_text(edges):
    return " ".join(f"E({source}, {target})." for source, target in edges)


def count_executor_calls(monkeypatch):
    calls = []
    run_in_executor = SessionHandle._run_in_executor

    async def counting(self, func):
        calls.append(func)
        return await run_in_executor(self, func)

    monkeypatch.setattr(SessionHandle, "_run_in_executor", counting)
    return calls


steps = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.sampled_from(NODES)),
        st.tuples(st.just("add"), st.sampled_from(EDGES)),
        st.tuples(st.just("retract"), st.sampled_from(EDGES)),
    ),
    min_size=1,
    max_size=14,
)


@settings(max_examples=40, deadline=None)
@given(steps)
@example(
    [("query", "a"), ("query", "a"), ("add", ("e", "a")), ("query", "a"), ("query", "b"),
     ("query", "c"), ("retract", ("b", "c")), ("query", "a"), ("query", "c")]
)
def test_tabled_goals_under_interleaved_updates(oracle_output, operations):
    query = ProgramQuery(parse_program(REACHABILITY_PAIRS), {"E": 2}, "T", require_monadic=False)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = count_executor_calls(monkeypatch)

        async def scenario():
            app = ServiceApp()
            status, created = await app.dispatch(
                "POST",
                "/v1/sessions",
                {
                    "program": REACHABILITY_PAIRS,
                    "instance": instance_text(SEED_EDGES),
                    "output_relation": "T",
                    # Two entries: the third distinct source evicts one again.
                    "options": {"materialize": False, "table_capacity": 2},
                },
            )
            assert status == 201
            route = f"/v1/sessions/{created['session']}"
            edges = set(SEED_EDGES)
            for kind, argument in operations:
                if kind == "query":
                    before = len(calls)
                    status, answer = await app.dispatch(
                        "POST",
                        f"{route}/query",
                        {"mode": "tabled", "binding": {"0": argument}},
                    )
                    assert status == 200, answer
                    expected = oracle_output(query, instance_from_edges(edges), {0: path(argument)})
                    assert answer["answers"] == {"T": rows_to_json(expected.relation("T"))}
                    if answer["served_by"] == "tabled":
                        assert len(calls) == before  # a hit never leaves the loop
                    else:
                        assert answer["served_by"] == "goal" and len(calls) == before + 1
                else:
                    body = {"add": [], "retract": []}
                    body[kind].append(["E", *argument])
                    status, ack = await app.dispatch("POST", f"{route}/update", body)
                    assert status == 200, ack
                    (edges.add if kind == "add" else edges.discard)(argument)
            app.registry.close_all()

        asyncio.run(scenario())


PROGRAM = "S(@x, @y) :- E(@x, @y).\nT(@x, @z) :- S(@x, @y), E(@y, @z)."
GRAPH = "E(a, b). E(b, c). E(c, d). E(x, y)."


async def read_from(app, materialize, body):
    status, created = await app.dispatch(
        "POST",
        "/v1/sessions",
        {
            "program": PROGRAM,
            "instance": GRAPH,
            "output_relation": "T",
            "options": {"materialize": materialize},
        },
    )
    assert status == 201
    status, answer = await app.dispatch(
        "POST", f"/v1/sessions/{created['session']}/query", body
    )
    assert status == 200, answer
    return answer


@pytest.mark.parametrize("mode", ["full", "goal", "tabled"])
@pytest.mark.parametrize("materialize", [True, False])
@pytest.mark.parametrize("relation", ["T", "S", "E"])
@pytest.mark.parametrize("binding", [{}, {"0": "b"}, {"1": "y"}])
def test_a_relation_read_answers_as_the_committed_view(mode, materialize, relation, binding):
    async def scenario():
        app = ServiceApp()
        answer = await read_from(
            app, materialize, {"mode": mode, "relation": relation, "binding": binding}
        )
        # The reference: a committed view of the full materialization.
        expected = await read_from(
            app, True, {"mode": "full", "relation": relation, "binding": binding}
        )
        app.registry.close_all()
        return answer, expected

    answer, expected = asyncio.run(scenario())
    assert expected["served_by"] == "maintained"
    assert answer["answers"] == expected["answers"]
    assert list(answer["answers"]) == [relation]


UNRELATED = REACHABILITY_PAIRS + "U(@x) :- F(@x).\n"


def goal_handle(program=REACHABILITY_PAIRS, schema=None):
    query = ProgramQuery(
        parse_program(program), schema or {"E": 2}, "T", require_monadic=False
    )
    return SessionHandle("s-goal", "tenant", query, query.session(instance_from_edges(SEED_EDGES)))


def ask(handle, bindings):
    """Goal queries on *handle*, in order; each binding maps positions to nodes."""

    async def scenario():
        return [await handle.run_query(mode="tabled", binding=b) for b in bindings]

    return asyncio.run(scenario())


@pytest.fixture
def expected(oracle_output):
    """``(handle, edges, binding)`` → the oracle's encoded ``T`` rows."""

    def rows(handle, edges, binding):
        output = oracle_output(handle.query, instance_from_edges(edges), binding)
        return rows_to_json(output.relation("T"))

    return rows


class TestTabledHitMemo:
    """A tabled hit on its entry's seed is a memo read; anything else is filtered."""

    def test_seed_hits_share_one_encoded_answer(self, expected):
        handle = goal_handle()
        miss, first, second = ask(handle, [{0: "a"}] * 3)
        assert miss["served_by"] == "goal"
        assert first["served_by"] == second["served_by"] == "tabled"
        answer = first["answers"]["T"]
        assert isinstance(answer, EncodedAnswer) and second["answers"]["T"] is answer
        assert answer == expected(handle, SEED_EDGES, {0: "a"}) == miss["answers"]["T"]
        assert [entry.encoded for entry in handle.session._tables] == [answer]
        handle.close()

    def test_the_reply_body_is_byte_identical_to_json_dumps(self):
        handle = goal_handle()
        *_, hit = ask(handle, [{0: "b"}, {0: "b"}])
        assert hit["served_by"] == "tabled" and isinstance(hit["answers"]["T"], EncodedAnswer)
        assert list(hit)[-1] == "answers"
        assert _dumps(hit) == json.dumps(hit)
        handle.close()

    def test_a_subsumed_binding_is_filtered_and_adds_no_memo(self, expected):
        handle = goal_handle()
        miss, narrow, both, wide = ask(handle, [{}, {0: "b"}, {0: "a", 1: "d"}, {}])
        assert miss["served_by"] == "goal"
        [entry] = handle.session._tables
        assert entry.positions == ()
        assert narrow["served_by"] == both["served_by"] == "tabled"
        assert narrow["answers"]["T"] == expected(handle, SEED_EDGES, {0: "b"})
        assert both["answers"]["T"] == expected(handle, SEED_EDGES, {0: "a", 1: "d"})
        # Only the seed read (the all-free call itself) memoised its answer.
        assert entry.encoded is wide["answers"]["T"]
        assert wide["answers"]["T"] == expected(handle, SEED_EDGES, {})
        (again,) = ask(handle, [{0: "b"}])
        assert again["answers"]["T"] == narrow["answers"]["T"]
        assert again["answers"]["T"] is not narrow["answers"]["T"]
        assert entry.encoded is wide["answers"]["T"]
        handle.close()

    def test_an_empty_hit_is_the_shared_empty_answer(self):
        handle = goal_handle()
        miss, hit = ask(handle, [{0: "e"}, {0: "e"}])
        assert miss["served_by"] == "goal" and hit["served_by"] == "tabled"
        assert hit["answers"]["T"] is NO_ROWS
        assert [entry.encoded for entry in handle.session._tables] == [None]
        handle.close()

    def test_an_update_resets_the_memo_only_of_entries_it_touches(self, expected):
        handle = goal_handle(UNRELATED, {"E": 2, "F": 1})
        _, before = ask(handle, [{0: "a"}, {0: "a"}])

        async def update(additions):
            await handle.enqueue_update(additions)
            return await handle.run_query(mode="tabled", binding={0: "a"})

        untouched = asyncio.run(update([Fact("F", (path("a"),))]))
        assert untouched["served_by"] == "tabled"
        assert untouched["answers"]["T"] is before["answers"]["T"]
        moved = asyncio.run(update([Fact("E", (path("e"), path("f")))]))
        assert moved["served_by"] == "tabled"
        assert moved["answers"]["T"] is not before["answers"]["T"]
        assert moved["answers"]["T"] == expected(handle, SEED_EDGES + (("e", "f"),), {0: "a"})
        handle.close()

    @pytest.mark.parametrize("binding", [{0: "a"}, {0: "a", 1: "c"}, {1: "d"}, {}])
    def test_a_hit_replies_what_the_library_lookup_encodes(self, binding):
        handle = goal_handle()
        _, hit = ask(handle, [binding, binding])
        assert hit["served_by"] == "tabled"
        assert hit["statistics"]["subgoal_table_hits"] == 1
        library = query_result_to_json(handle.session.lookup(binding=binding, mode="goal"))
        assert hit == {**library, "generation": handle.generation}
        handle.close()
