"""Goal-mode serving on an unmaterialised session, held to the oracle.

A tabled hit is a read: it is served on the event loop from the answer
table and never reaches the executor, while a miss evaluates there.  Every
answer — under interleaved updates, and for a ``relation`` read of the
output, an intermediate relation or a base relation — must equal what the
oracle (or a committed view of the full materialization) answers.
"""

import asyncio
import json
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import EvaluationLimits, ProgramQuery, QuerySession
from repro.engine.reasons import (
    GENERALIZATION_TOO_LARGE,
    GOAL_BUDGET_EXCEEDED,
    REWRITE_UNSUPPORTED,
    reason_code,
)
from repro.io.serialization import NO_ROWS, query_result_to_json, rows_to_json
from repro.model import Fact, Instance, path, unary_instance
from repro.parser import parse_program
from repro.queries import get_query
from repro.service import ServiceApp, SessionHandle
from repro.service.core import EncodedAnswer
from repro.service.http import _dumps
from repro.workloads import prefix_tree_instance

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


def view_memo(entry):
    """The encoded answers memoised on the columnar view of *entry*'s output rows."""
    answers = entry.answers
    storage = answers.storage("T")
    return storage.columnar(answers.term_table()).answers if storage else {}


def memo_key(binding):
    return frozenset((position, path(node)) for position, node in binding.items())


@pytest.fixture
def expected(oracle_output):
    """``(handle, edges, binding)`` → the oracle's encoded ``T`` rows."""

    def rows(handle, edges, binding):
        output = oracle_output(handle.query, instance_from_edges(edges), binding)
        return rows_to_json(output.relation("T"))

    return rows


class TestTabledHitMemo:
    """A tabled hit is a memo read off the view of its entry's output rows."""

    def test_seed_hits_share_one_encoded_answer(self, expected):
        handle = goal_handle()
        miss, first, second = ask(handle, [{0: "a"}] * 3)
        assert miss["served_by"] == "goal"
        assert first["served_by"] == second["served_by"] == "tabled"
        answer = first["answers"]["T"]
        assert isinstance(answer, EncodedAnswer) and second["answers"]["T"] is answer
        assert answer == expected(handle, SEED_EDGES, {0: "a"}) == miss["answers"]["T"]
        [entry] = handle.session._tables
        assert view_memo(entry) == {memo_key({0: "a"}): answer}
        assert view_memo(entry)[memo_key({0: "a"})] is answer
        handle.close()

    def test_the_reply_body_is_byte_identical_to_json_dumps(self):
        handle = goal_handle()
        *_, hit = ask(handle, [{0: "b"}, {0: "b"}])
        assert hit["served_by"] == "tabled" and isinstance(hit["answers"]["T"], EncodedAnswer)
        assert list(hit)[-1] == "answers"
        assert _dumps(hit) == json.dumps(hit)
        handle.close()

    def test_a_subsumed_read_is_memoised_on_the_entry_view(self, expected):
        bindings = [{0: "b"}, {0: "a", 1: "d"}, {}]
        handle = goal_handle()
        miss, *hits = ask(handle, [{}, *bindings])
        assert miss["served_by"] == "goal"
        [entry] = handle.session._tables
        assert entry.positions == ()
        for binding, hit in zip(bindings, hits):
            assert hit["served_by"] == "tabled"
            assert hit["answers"]["T"] == expected(handle, SEED_EDGES, binding)
            assert view_memo(entry)[memo_key(binding)] is hit["answers"]["T"]
        assert len(view_memo(entry)) == len(bindings)
        (again,) = ask(handle, [{0: "b"}])
        assert again["answers"]["T"] is hits[0]["answers"]["T"]
        handle.close()

    def test_an_empty_hit_is_the_shared_empty_answer(self):
        handle = goal_handle()
        miss, hit = ask(handle, [{0: "e"}, {0: "e"}])
        assert miss["served_by"] == "goal" and hit["served_by"] == "tabled"
        assert hit["answers"]["T"] is NO_ROWS
        assert [view_memo(entry) for entry in handle.session._tables] == [{}]
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


DESCENDANTS = """
D($t, $t) :- N($t).
D($s, $t) :- D($s.a, $t).
D($s, $t) :- D($s.b, $t).
"""


def pair_query(**options):
    return ProgramQuery(
        parse_program(REACHABILITY_PAIRS), {"E": 2}, "T", require_monadic=False, **options
    )


def engine_reply(make_query, instance, binding, mode, monkeypatch):
    """A fresh unmaterialised handle's reply to one query, the library's result
    for it from a session on a query of its own (cold plans on both sides),
    and the calls the reply made to the session's evaluation steps."""
    calls = []
    for name in ("evaluate_request", "_evaluate_goal", "_materialization"):
        method = getattr(QuerySession, name)

        def counted(self, *args, _method=method, _name=name):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(QuerySession, name, counted)
    query = make_query()
    handle = SessionHandle("s-engine", "tenant", query, query.session(instance.copy()))
    reply = asyncio.run(handle.run_query(mode=mode, binding=binding))
    handle.close()
    monkeypatch.undo()
    library = make_query().session(instance.copy()).run(binding=binding, mode=mode)
    return reply, library, calls


class TestEngineReplies:
    """Every engine-served reply — a miss, a cold full run and each goal
    fallback, like the hits above — is what the library's result encodes plus
    the generation, with ``answers`` last so the HTTP layer splices it."""

    def assert_library_shape(self, reply, library):
        assert reply == {**query_result_to_json(library), "generation": 0}
        assert list(reply)[-1] == "answers"
        assert _dumps(reply) == json.dumps(reply)

    @pytest.mark.parametrize("binding", [{0: "a"}, {0: "a", 1: "c"}, {1: "d"}, {}])
    def test_a_miss_replies_what_the_library_run_encodes(self, binding, monkeypatch):
        reply, library, calls = engine_reply(
            pair_query, instance_from_edges(SEED_EDGES), binding, "goal", monkeypatch
        )
        assert reply["served_by"] == "goal"
        assert calls == ["evaluate_request", "_evaluate_goal"]
        self.assert_library_shape(reply, library)

    @pytest.mark.parametrize("binding", [{0: "a"}, {}])
    def test_a_cold_full_run_replies_what_the_library_run_encodes(self, binding, monkeypatch):
        reply, library, calls = engine_reply(
            pair_query, instance_from_edges(SEED_EDGES), binding, "full", monkeypatch
        )
        assert (reply["mode"], reply["served_by"]) == ("full", "full")
        assert calls == ["evaluate_request", "_materialization"]
        self.assert_library_shape(reply, library)

    def test_a_refused_rewriting_falls_back_once(self, monkeypatch):
        reply, library, calls = engine_reply(
            get_query("only_as_air").make_query,
            unary_instance("R", ["aa", "ab"]),
            {},
            "goal",
            monkeypatch,
        )
        assert reason_code(reply["fallback_reason"]) == REWRITE_UNSUPPORTED
        assert calls == ["evaluate_request", "_evaluate_goal", "_materialization"]
        self.assert_library_shape(reply, library)

    def test_an_oversized_generalization_falls_back_once(self, monkeypatch):
        make_query = partial(
            ProgramQuery, parse_program(DESCENDANTS), {"N": 1}, "D", require_monadic=False
        )
        binding = {0: path("b", "b", "b", "b", "a", "b", "b", "b", "b")}
        reply, library, calls = engine_reply(
            make_query, prefix_tree_instance(depth=9, seed=3), binding, "goal", monkeypatch
        )
        assert reason_code(reply["fallback_reason"]) == GENERALIZATION_TOO_LARGE
        assert calls == ["evaluate_request", "_evaluate_goal", "_materialization"]
        self.assert_library_shape(reply, library)

    def test_a_budget_breach_falls_back_once_and_counts_the_goal_attempt(self, monkeypatch):
        # The magic program needs one round more than the full program.
        instance = instance_from_edges(SEED_EDGES)
        full_rounds = pair_query().run(instance).statistics.iterations
        make_query = partial(pair_query, limits=EvaluationLimits(max_iterations=full_rounds))
        reply, library, calls = engine_reply(make_query, instance, {0: "a"}, "goal", monkeypatch)
        assert reason_code(reply["fallback_reason"]) == GOAL_BUDGET_EXCEEDED
        assert calls == ["evaluate_request", "_evaluate_goal", "_materialization"]
        self.assert_library_shape(reply, library)
        full_only = make_query().session(instance.copy()).run(mode="full").statistics
        # A stratum's rounds count once it converges; its rule firings as they run.
        assert reply["statistics"]["iterations"] == full_only.iterations
        assert reply["statistics"]["rule_applications"] > full_only.rule_applications
        assert reply["statistics"]["facts_derived"] > full_only.facts_derived
