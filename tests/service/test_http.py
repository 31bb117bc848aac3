"""Tests for the HTTP boundary: the dict-level router and the stdlib server.

Most coverage drives :meth:`ServiceApp.dispatch` directly — it is the
transport-independent surface both servers and the benchmark share.  The
stdlib-server tests exercise the real ``asyncio.start_server`` transport
over a socket (keep-alive, error statuses, malformed and hostile requests).
"""

import asyncio
import json

import pytest

from repro.io.serialization import instance_to_text, path_to_text, rows_from_json
from repro.model import Instance, path
from repro.service import ServiceApp, SessionRegistry, http, serve

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


def create_body(**overrides):
    body = {"program": REACHABILITY_PAIRS, "instance": line_text()}
    body.update(overrides)
    return body


class TestDispatch:
    def test_healthz_and_session_lifecycle(self):
        app = ServiceApp()

        async def scenario():
            status, payload = await app.dispatch("GET", "/v1/healthz")
            assert (status, payload["status"]) == (200, "ok")

            status, created = await app.dispatch("POST", "/v1/sessions", create_body())
            assert status == 201 and created["materialized"] is True
            assert created["output_relation"] == "T"
            session = created["session"]

            status, listing = await app.dispatch("GET", "/v1/sessions")
            assert status == 200
            assert [entry["session"] for entry in listing["sessions"]] == [session]

            status, stats = await app.dispatch("GET", f"/v1/sessions/{session}")
            assert status == 200 and stats["generation"] == 0

            status, answer = await app.dispatch(
                "POST", f"/v1/sessions/{session}/query", {"binding": {"0": "a"}}
            )
            assert status == 200 and answer["served_by"] == "maintained"
            rows = set(rows_from_json(answer["answers"]["T"]))
            assert rows == {(path("a"), path(f"n{i}")) for i in (1, 2, 3)}

            status, ack = await app.dispatch(
                "POST",
                f"/v1/sessions/{session}/update",
                {"add": [["E", "n3", "z"]], "retract": []},
            )
            assert status == 200 and ack["generation"] == 1

            status, answer = await app.dispatch(
                "POST", f"/v1/sessions/{session}/query", {"binding": {"0": "a"}}
            )
            assert status == 200 and answer["generation"] == 1
            assert ["a", "z"] in answer["answers"]["T"]

            status, closed = await app.dispatch("DELETE", f"/v1/sessions/{session}")
            assert status == 200 and closed == {"closed": session}
            status, error = await app.dispatch("GET", f"/v1/sessions/{session}")
            assert status == 404 and error["error"]["code"] == "unknown_session"

        asyncio.run(scenario())
        app.close()

    def test_unknown_routes_and_bad_uploads(self):
        app = ServiceApp()

        async def scenario():
            status, error = await app.dispatch("PATCH", "/v1/healthz")
            assert status == 404 and error["error"]["code"] == "not_found"
            status, error = await app.dispatch("GET", "/nope")
            assert status == 404
            status, error = await app.dispatch("POST", "/v1/sessions", {"program": "  "})
            assert status == 400 and error["error"]["code"] == "bad_upload"
            status, error = await app.dispatch(
                "POST", "/v1/sessions", create_body(program="T(@x :- broken")
            )
            assert status == 400 and error["error"]["code"] == "bad_upload"

        asyncio.run(scenario())
        app.close()

    @pytest.mark.parametrize("name", [["T"], {"x": 1}, 5])
    def test_a_non_string_relation_name_is_a_400(self, name):
        app = ServiceApp()

        async def scenario():
            status, error = await app.dispatch(
                "POST", "/v1/sessions", create_body(output_relation=name)
            )
            assert status == 400 and error["error"]["code"] == "bad_upload"
            status, created = await app.dispatch("POST", "/v1/sessions", create_body())
            assert status == 201
            route = f"/v1/sessions/{created['session']}/query"
            for body in (
                {"relation": name},
                {"relation": name, "binding": {"0": "a"}},
                {"relation": name, "mode": "tabled"},
            ):
                status, error = await app.dispatch("POST", route, body)
                assert status == 400 and error["error"]["code"] == "bad_request"

        asyncio.run(scenario())
        app.close()

    @pytest.mark.parametrize(
        "option", ["max_facts", "max_iterations", "table_capacity", "materialize"]
    )
    def test_non_integer_options_are_a_400_naming_the_option(self, option, tmp_path):
        """... and non-boolean ones: ``"no"`` is not false, it is a mistake."""
        app = ServiceApp(SessionRegistry(persist_root=tmp_path))

        async def refused(options):
            status, error = await app.dispatch(
                "POST", "/v1/sessions", create_body(options=options)
            )
            assert status == 400 and error["error"]["code"] == "bad_upload"
            assert option in error["error"]["message"]

        async def scenario():
            await refused({option: "abc"})
            if option == "materialize":
                await refused({option: "false"})
                await refused({option: ["no"]})
                await refused({option: 0})
            if option == "materialize":
                return  # only read when a session is created
            # The restore path reads its options from the persisted config.
            status, created = await app.dispatch(
                "POST", "/v1/sessions", create_body(options={"persist": "alpha"})
            )
            assert status == 201
            await app.dispatch("DELETE", f"/v1/sessions/{created['session']}")
            (snapshot,) = (tmp_path / "default" / "alpha").glob("snapshot-*.json")
            document = json.loads(snapshot.read_text())
            document["config"]["options"][option] = "abc"
            snapshot.write_text(json.dumps(document))
            await refused({"persist": "alpha"})

        asyncio.run(scenario())
        app.close()

    def test_bad_facts_and_bindings_are_400(self):
        app = ServiceApp()

        async def scenario():
            _, created = await app.dispatch("POST", "/v1/sessions", create_body())
            session = created["session"]
            status, error = await app.dispatch(
                "POST", f"/v1/sessions/{session}/update", {"add": [["E", "@x", "b"]]}
            )
            assert status == 400 and error["error"]["code"] == "bad_fact"
            for facts in (
                [["E", "a", 5]],
                [["E", "a", None]],
                [["E", "a", ["b"]]],
                [["E", "a", {"b": "c"}]],
                [[5, "a", "b"]],
                [5],
                5,
            ):
                status, error = await app.dispatch(
                    "POST", f"/v1/sessions/{session}/update", {"add": facts}
                )
                assert (status, error["error"]["code"]) == (400, "bad_fact"), facts
            for binding in (
                {"seven": "a"},
                {"0": 5},
                {"0": None},
                {"0": ["a"]},
                {"0": {"a": "b"}},
                "a",
                ["a"],
                5,
                {"0": "a", "00": "b"},
            ):
                status, error = await app.dispatch(
                    "POST", f"/v1/sessions/{session}/query", {"binding": binding}
                )
                assert (status, error["error"]["code"]) == (400, "bad_binding"), binding

        asyncio.run(scenario())
        app.close()

    def test_a_body_or_options_that_is_not_an_object_is_a_400(self):
        app = ServiceApp()

        async def scenario():
            for path_, body in [
                ("/v1/sessions", [1, 2]),
                ("/v1/sessions", "text"),
                ("/v1/standby", [1]),
                ("/v1/healthz", 7),
            ]:
                status, error = await app.dispatch("POST", path_, body)
                assert (status, error["error"]["code"]) == (400, "bad_json"), body
            for options in ([1], "persist", 3):
                status, error = await app.dispatch(
                    "POST", "/v1/sessions", create_body(options=options)
                )
                assert (status, error["error"]["code"]) == (400, "bad_upload"), options
            assert len(app.registry) == 0

        asyncio.run(scenario())
        app.close()

    def test_dispatch_never_raises(self):
        class Exploding(SessionRegistry):
            def get(self, session_id):
                raise RuntimeError("boom")

        app = ServiceApp(Exploding())

        async def scenario():
            return await app.dispatch("GET", "/v1/sessions/s1")

        status, payload = asyncio.run(scenario())
        assert status == 500 and payload["error"]["code"] == "internal"


def _smuggling_request():
    """A POST whose two lengths disagree: the whole tail, or just ``{}``.

    Read with the second length, the tail is a second request (a ``GET``)."""
    tail = b"{}GET /v1/healthz HTTP/1.1\r\n\r\n"
    return (
        f"POST /v1/sessions HTTP/1.1\r\nContent-Length: {len(tail)}\r\n"
        f"Content-Length: 2\r\n\r\n"
    ).encode() + tail


SMUGGLED_BY_A_SECOND_LENGTH = _smuggling_request()


class TestStdlibServer:
    @classmethod
    async def _request(cls, reader, writer, method, target, body=None):
        status, raw = await cls._raw_request(reader, writer, method, target, body)
        return status, json.loads(raw)

    @staticmethod
    async def _raw_request(reader, writer, method, target, body=None):
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode()
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\nContent-Type: application/json\r\n\r\n"
        )
        writer.write(head.encode() + payload)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode().partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await reader.readexactly(length)

    def test_full_round_trip_over_a_socket(self):
        async def scenario():
            server, app = await serve(port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                # Keep-alive: every request below shares one connection.
                status, payload = await self._request(reader, writer, "GET", "/v1/healthz")
                assert status == 200 and payload["status"] == "ok"

                status, created = await self._request(
                    reader, writer, "POST", "/v1/sessions", create_body()
                )
                assert status == 201
                session = created["session"]

                status, answer = await self._request(
                    reader,
                    writer,
                    "POST",
                    f"/v1/sessions/{session}/query",
                    {"binding": {"0": "a"}},
                )
                assert status == 200
                assert ["a", "n3"] in answer["answers"]["T"]

                status, ack = await self._request(
                    reader,
                    writer,
                    "POST",
                    f"/v1/sessions/{session}/update",
                    {"add": [["E", "n3", "z"]]},
                )
                assert status == 200 and ack["generation"] == 1

                status, error = await self._request(
                    reader, writer, "GET", "/v1/sessions/unknown"
                )
                assert status == 404
            finally:
                writer.close()
                server.close()
                await server.wait_closed()
                app.close()

        asyncio.run(scenario())

    def test_malformed_json_body_is_rejected(self):
        async def scenario():
            server, app = await serve(port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                raw = b"not json"
                head = (
                    f"POST /v1/sessions HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(raw)}\r\n\r\n"
                ).encode()
                writer.write(head + raw)
                await writer.drain()
                status_line = await reader.readline()
                assert b"400" in status_line
            finally:
                writer.close()
                server.close()
                await server.wait_closed()
                app.close()

        asyncio.run(scenario())

    def test_a_json_body_that_is_not_an_object_is_a_400_over_a_socket(self):
        async def scenario():
            server, app = await serve(port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                status, error = await self._request(reader, writer, "POST", "/v1/sessions", [1, 2])
                assert (status, error["error"]["code"]) == (400, "bad_json")
                # A request-level refusal: the connection stays usable.
                status, payload = await self._request(reader, writer, "GET", "/v1/healthz")
                assert status == 200 and payload["sessions"] == 0
            finally:
                writer.close()
                server.close()
                await server.wait_closed()
                app.close()

        asyncio.run(scenario())

    def test_a_view_read_is_sent_as_the_json_of_its_dispatched_payload(self):
        """A committed read's memoised text is spliced into the reply, and the
        body stays byte for byte ``json.dumps`` of what dispatch returns — on
        a memo miss and on its hit, before and after a commit."""
        nodes = ["a", "b", "x y", "x'y z", "\u00fc"]
        instance = Instance()
        for source, target in zip(nodes, nodes[1:]):
            instance.add("E", source, target)
        upload = {
            "program": REACHABILITY_PAIRS + "S(@x) :- E(@x, @y).\n",
            "instance": instance_to_text(instance),
            "output_relation": "T",
        }
        reads = [
            {},
            {"binding": {"0": "a"}},
            {"binding": {"1": path_to_text(path("x y"))}},
            {"binding": {"0": "a", "1": path_to_text(path("x'y z"))}},
            {"binding": {"0": "unseen"}},
            {"relation": "S", "binding": {"0": "b"}},
            {"relation": "E"},
        ]

        async def scenario():
            server, app = await serve(port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                status, created = await self._request(reader, writer, "POST", "/v1/sessions", upload)
                assert status == 201
                route = f"/v1/sessions/{created['session']}/query"

                async def read_all():
                    sent = []
                    for body in reads:
                        status, raw = await self._raw_request(reader, writer, "POST", route, body)
                        assert status == 200, raw
                        status, payload = await app.dispatch("POST", route, body)
                        assert raw == json.dumps(payload).encode("utf-8"), body
                        sent.append(json.loads(raw))
                    return sent

                first = await read_all()  # memo misses
                assert await read_all() == first  # their hits
                update = {"add": [["E", path_to_text(path("\u00fc")), "a"]]}
                status, _ = await self._request(
                    reader, writer, "POST", route.replace("query", "update"), update
                )
                assert status == 200
                after = await read_all()
                assert after != first
                assert [path_to_text(path("\u00fc")), "a"] in after[0]["answers"]["T"]
            finally:
                writer.close()
                server.close()
                await server.wait_closed()
                app.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("declared", ["abc", "-5", "1e3", "+4", "٣"])
    def test_malformed_content_length_is_a_400_not_a_dropped_connection(self, declared):
        async def scenario():
            server, app = await serve(port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                head = f"POST /v1/sessions HTTP/1.1\r\nHost: t\r\nContent-Length: {declared}\r\n\r\n"
                writer.write(head.encode("utf-8"))
                await writer.drain()
                status_line = await reader.readline()
                assert b"400" in status_line
                headers = await reader.readuntil(b"\r\n\r\n")
                assert b"Connection: close" in headers
                payload = json.loads(await reader.read())  # the server closes after a 400
                assert payload["error"]["code"] == "bad_request"
                assert "Content-Length" in payload["error"]["message"]
            finally:
                writer.close()
                server.close()
                await server.wait_closed()
                app.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "raw, half_close",
        [
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", False),
            (b"GET /v1/healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", False),
            (b"POST /v1/sessions HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}", True),
            (b"GET /v1/healthz HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 2_000 + b"\r\n", False),
            (SMUGGLED_BY_A_SECOND_LENGTH, True),
            (
                b"POST /v1/sessions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"2\r\n{}\r\n0\r\n\r\n",
                True,
            ),
        ],
        ids=[
            "request_line_over_the_limit",
            "header_line_over_the_limit",
            "short_body",
            "header_lines_over_the_limit",
            "duplicate_content_length",
            "transfer_encoding",
        ],
    )
    def test_hostile_requests_are_a_400_and_never_escape_the_handler(self, raw, half_close):
        async def scenario():
            escaped = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: escaped.append(context)
            )
            server, app = await serve(port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(raw)
                if half_close:
                    writer.write_eof()
                await writer.drain()
                # The server closes after a 400; a hang is a failure, not a stall.
                response = await asyncio.wait_for(reader.read(), 30)
                head, _, body = response.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 ")
                assert b"Connection: close" in head
                assert json.loads(body)["error"]["code"] == "bad_request"
                await asyncio.sleep(0.05)  # let the handler task finish
            finally:
                writer.close()
                server.close()
                await server.wait_closed()
                app.close()
            assert escaped == []

        asyncio.run(scenario())

    def test_a_stalled_request_is_a_408_and_never_escapes_the_handler(self, monkeypatch):
        monkeypatch.setattr(http, "REQUEST_TIMEOUT_S", 0.2)

        async def scenario():
            escaped = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: escaped.append(context)
            )
            server, app = await serve(port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                status, _ = await self._request(reader, writer, "GET", "/v1/healthz")
                assert status == 200  # a prompt request keeps the connection
                writer.write(b"GET /v1/healthz HTTP/1.1\r\nHost: t")  # then stalls mid-line
                await writer.drain()
                response = await asyncio.wait_for(reader.read(), 30)  # up to EOF
                head, _, body = response.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 408 ")
                assert b"Connection: close" in head
                assert json.loads(body)["error"]["code"] == "request_timeout"
                await asyncio.sleep(0.05)  # let the handler task finish
            finally:
                writer.close()
                server.close()
                await server.wait_closed()
                app.close()
            assert escaped == []

        asyncio.run(scenario())
