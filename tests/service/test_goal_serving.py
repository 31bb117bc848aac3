"""Goal-mode serving on an unmaterialised session, held to the oracle.

A tabled hit is a read: it is served on the event loop from the answer
table and never reaches the executor, while a miss evaluates there.  Every
answer — under interleaved updates, and for a ``relation`` read of the
output, an intermediate relation or a base relation — must equal what the
oracle (or a committed view of the full materialization) answers.
"""

import asyncio

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import ProgramQuery
from repro.io.serialization import rows_to_json
from repro.model import Instance, path
from repro.parser import parse_program
from repro.service import ServiceApp, SessionHandle

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
