"""Committed reads encode exactly what the oracle answers, in wire order.

A :class:`CommittedView` stores its per-position groupings sorted by the
rows' wire text and inherits them across generations, so a held view must
keep answering *its* generation after later commits — every bound and
unbound read, list for list and order included, as ``rows_to_json`` of the
reference fixpoint at that generation — and so must its memoised answers
and their JSON text.  Node labels include ones that need
quoting on the wire (``'x y'``, ``"x'y z"``, ``'eps'``), whose text sorts
apart from the bare names.
"""

import asyncio
import json

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.io.serialization as serialization
from repro.engine import ProgramQuery
from repro.io.serialization import path_to_text, rows_to_json
from repro.model import Fact, Instance, path
from repro.parser import parse_program
from repro.service import ServiceApp, SessionHandle
from repro.service.core import EncodedAnswer

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""

NODES = ("a", "b", "x y", "x'y z", "eps")
EDGES = tuple((s, t) for s in NODES for t in NODES if s != t)

edges_strategy = st.lists(st.sampled_from(EDGES), max_size=3, unique=True)


def pair_query():
    return ProgramQuery(
        parse_program(REACHABILITY_PAIRS), {"E": 2}, "T", require_monadic=False
    )


def edge(source, target):
    return Fact("E", (path(source), path(target)))


def instance_from_edges(edges):
    instance = Instance()
    for source, target in edges:
        instance.add("E", source, target)
    return instance


def bindings():
    yield {}
    for node in NODES:
        yield {0: path(node)}
        yield {1: path(node)}
    for source, target in EDGES[::3]:
        yield {0: path(source), 1: path(target)}


def read_all(view):
    return [rows_to_json(view.select("T", binding)) for binding in bindings()]


def filtered_reads(rows):
    """``rows_to_json`` of each binding's filter over *rows*."""
    return [
        rows_to_json(
            row for row in rows if all(row[position] == value for position, value in binding.items())
        )
        for binding in bindings()
    ]


def answer_all(view):
    """The memoised reads of *view*, each with the JSON text the reply carries."""
    answers = [view.answer("T", binding) for binding in bindings()]
    return [
        (answer, answer.text if isinstance(answer, EncodedAnswer) else json.dumps(answer))
        for answer in answers
    ]


def drive(seed_edges, batches, hold_mask, read=read_all):
    """Commit *batches*, holding (and reading) views in between; returns the acks too."""

    async def scenario():
        query = pair_query()
        handle = SessionHandle(
            "reads", "tenant", query, query.session(instance_from_edges(seed_edges))
        )
        await handle.ensure_materialized()
        held = [(handle.committed, read(handle.committed))]
        acks = []
        for index, (adds, retracts) in enumerate(batches):
            pending = asyncio.ensure_future(
                handle.enqueue_update(
                    [edge(*pair) for pair in adds], [edge(*pair) for pair in retracts]
                )
            )
            if hold_mask[index % len(hold_mask)]:
                await asyncio.sleep(0)  # the pass may or may not have committed yet
                held.append((handle.committed, read(handle.committed)))
            acks.append(await pending)
            held.append((handle.committed, read(handle.committed)))
        handle.close()
        return held, acks

    return asyncio.run(scenario())


@settings(max_examples=20, deadline=None)
@given(
    seed=edges_strategy,
    batches=st.lists(st.tuples(edges_strategy, edges_strategy), min_size=1, max_size=5),
    hold_mask=st.lists(st.booleans(), min_size=1, max_size=3),
)
def test_held_views_answer_their_generation_in_wire_order(
    seed, batches, hold_mask, oracle_output, acked_edb_states
):
    held, acks = drive(seed, batches, hold_mask)
    states = acked_edb_states(seed, batches, acks)
    query = pair_query()
    for view, first_reads in held:
        oracle = oracle_output(query, instance_from_edges(states[view.generation])).relation("T")
        expected = filtered_reads(oracle)
        # Read when held, and again after every later commit.
        assert first_reads == expected, f"generation {view.generation} read when held"
        assert read_all(view) == expected, f"generation {view.generation} read later"


@settings(max_examples=20, deadline=None)
@given(
    seed=edges_strategy,
    batches=st.lists(st.tuples(edges_strategy, edges_strategy), min_size=1, max_size=5),
    hold_mask=st.lists(st.booleans(), min_size=1, max_size=3),
)
def test_held_views_memoise_their_own_generation(
    seed, batches, hold_mask, oracle_output, acked_edb_states
):
    """A memo entry is inherited only while its relation is unchanged: every
    memoised read of a held view — and the text spliced into its reply —
    is its generation's answer, read when held and again after later commits."""
    held, acks = drive(seed, batches, hold_mask, read=answer_all)
    states = acked_edb_states(seed, batches, acks)
    query = pair_query()
    for view, first_reads in held:
        oracle = oracle_output(query, instance_from_edges(states[view.generation])).relation("T")
        expected = filtered_reads(oracle)
        wire = [(rows, json.dumps(rows)) for rows in expected]
        assert first_reads == wire, f"generation {view.generation} read when held"
        assert answer_all(view) == wire, f"generation {view.generation} read later"


def test_reads_of_unseen_values_do_not_grow_the_memo():
    async def scenario():
        query = pair_query()
        edges = list(zip(NODES, NODES[1:]))
        handle = SessionHandle("unseen", "tenant", query, query.session(instance_from_edges(edges)))
        await handle.ensure_materialized()
        try:
            await handle.run_query(binding={0: path("a")})
            view = handle.committed

            def memo_size():
                return len(view._answers), sum(len(memo) for memo in view._answers.values())

            before = memo_size()
            for index in range(1_000):
                read = await handle.run_query(binding={index % 2: path(f"unseen{index}")})
                assert read["answers"] == {"T": []}
            read = await handle.run_query(relation="Unknown")
            assert read["answers"] == {"Unknown": []}
            assert handle.committed is view and memo_size() == before == (1, 1)
        finally:
            handle.close()

    asyncio.run(scenario())


def test_a_binding_is_checked_against_the_arity_of_the_relation_read():
    """``relation=`` may name a relation narrower than the output: a position
    past *its* arity is a 400 ``bad_binding``, not a 500 from the view."""
    app = ServiceApp()
    upload = {
        "program": "B(@x) :- E(@x, @y).\nT(@x, @y) :- E(@x, @y), B(@y).",
        "instance": "E(a, b). E(b, c). E(c, d).",
        "output_relation": "T",
    }

    async def scenario():
        status, created = await app.dispatch("POST", "/v1/sessions", upload)
        assert status == 201
        route = f"/v1/sessions/{created['session']}/query"
        status, error = await app.dispatch("POST", route, {"relation": "B", "binding": {"1": "c"}})
        assert (status, error["error"]["code"]) == (400, "bad_binding")
        status, answer = await app.dispatch("POST", route, {"relation": "B", "binding": {"0": "c"}})
        assert status == 200 and answer["answers"] == {"B": [["c"]]}
        status, answer = await app.dispatch("POST", route, {"binding": {"1": "c"}})
        assert status == 200 and answer["answers"] == {"T": [["b", "c"]]}
        app.registry.close_all()

    asyncio.run(scenario())


def test_a_repeated_bound_read_of_an_unchanged_view_renders_no_path(monkeypatch):
    rendered = []
    format_path = serialization.format_path

    def counting_format_path(value):
        rendered.append(value)
        return format_path(value)

    monkeypatch.setattr(serialization, "format_path", counting_format_path)
    path_to_text.cache_clear()

    async def scenario():
        query = pair_query()
        edges = list(zip(NODES, NODES[1:]))
        handle = SessionHandle("count", "tenant", query, query.session(instance_from_edges(edges)))
        await handle.ensure_materialized()
        try:
            first = await handle.run_query(binding={0: path("a")})
            assert rendered  # the cold read rendered its rows once
            rendered.clear()
            second = await handle.run_query(binding={0: path("a")})
            assert second == first
        finally:
            handle.close()

    asyncio.run(scenario())
    assert rendered == []
