"""The HTTP boundary: a dict-level router and a stdlib asyncio server.

:class:`ServiceApp` is the transport-independent API surface — it maps
``(method, path, json_body)`` requests onto the :mod:`repro.service.core`
registry and returns ``(status, json_body)`` pairs.  Most tests drive it
directly; :func:`serve` wraps the same dispatch in a minimal HTTP/1.1
server built on ``asyncio.start_server`` so the whole service runs on the
standard library alone (``benchmarks/e2e`` drives that server over sockets).

Routes (all bodies JSON):

========  ==============================  =======================================
method    path                            action
========  ==============================  =======================================
GET       /v1/healthz                     liveness + session count
POST      /v1/sessions                    create a session (program/instance text)
GET       /v1/sessions                    list sessions (id, tenant, generation)
GET       /v1/sessions/{id}               one session's serving stats
DELETE    /v1/sessions/{id}               close and forget a session
POST      /v1/sessions/{id}/query         ``{"binding": {"0": "a"}, "mode": "goal"}``
POST      /v1/sessions/{id}/update        ``{"add": [["E","a","b"]], "retract": []}``
POST      /v1/sessions/{id}/snapshot      snapshot + compact now (persisted sessions)
========  ==============================  =======================================

Sessions created with ``options.persist`` write-ahead-log every commit and
snapshot into the registry's ``persist_root``; restarting the server with
the same ``--data-dir`` restores them (see :meth:`SessionRegistry.restore_all`,
wired into :func:`serve` via ``data_dir``).  A directory has one writer: a
second server or registry opening it is refused with 409 ``persist_in_use``.

Admission-control refusals surface as status 429 with an ``error.code`` of
``too_many_pending_updates`` / ``too_many_concurrent_queries`` /
``edb_budget_exceeded`` / ``evaluation_budget_exceeded`` — explicit
shedding, never a collapsed service.
"""

from __future__ import annotations

import asyncio
import json
from typing import Mapping

from repro.service.core import EncodedAnswer, ServiceError, SessionRegistry

__all__ = ["ServiceApp", "serve", "run"]

#: Maximum accepted request body, a defence against accidental huge uploads.
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Maximum header lines in one request; past it the request is a 400.
MAX_HEADER_LINES = 100
#: Seconds one request may take to arrive, idle keep-alive wait included;
#: past it the request is a 408 and the connection closes.  A reply that
#: cannot be sent within it closes the connection too.
REQUEST_TIMEOUT_S = 60


class ServiceApp:
    """Routes JSON requests onto a :class:`SessionRegistry`."""

    def __init__(self, registry: "SessionRegistry | None" = None):
        self.registry = registry if registry is not None else SessionRegistry()

    async def dispatch(
        self, method: str, path: str, body: "Mapping[str, object] | None" = None
    ) -> "tuple[int, dict]":
        """Handle one request; never raises — errors become status + body."""
        try:
            if body is not None and not isinstance(body, Mapping):
                raise ServiceError(
                    400, "bad_json", f"a request body is a JSON object, got {type(body).__name__}"
                )
            return await self._route(method.upper(), path, body or {})
        except ServiceError as error:
            return error.status, error.to_json()
        except Exception as error:  # noqa: BLE001 — the boundary must not leak
            return 500, {"error": {"code": "internal", "message": str(error)}}

    async def _route(
        self, method: str, path: str, body: "Mapping[str, object]"
    ) -> "tuple[int, dict]":
        parts = [part for part in path.split("/") if part]
        if parts[:1] == ["v1"]:
            parts = parts[1:]
        if parts == ["healthz"] and method == "GET":
            return 200, {"status": "ok", "sessions": len(self.registry)}
        if parts == ["sessions"]:
            if method == "POST":
                return await self._create_session(body)
            if method == "GET":
                return 200, {
                    "sessions": [
                        {
                            "session": handle.session_id,
                            "tenant": handle.tenant,
                            "generation": handle.generation,
                        }
                        for handle in self.registry
                    ]
                }
        if len(parts) == 2 and parts[0] == "sessions":
            session_id = parts[1]
            if method == "GET":
                return 200, self.registry.get(session_id).stats()
            if method == "DELETE":
                self.registry.drop(session_id)
                return 200, {"closed": session_id}
        if len(parts) == 3 and parts[0] == "sessions":
            session_id, action = parts[1], parts[2]
            if action == "query" and method == "POST":
                handle = self.registry.get(session_id)
                answer = await handle.run_query(
                    binding=SessionRegistry.decode_binding(body.get("binding")),
                    mode=body.get("mode"),
                    relation=body.get("relation"),
                )
                return 200, answer
            if action == "update" and method == "POST":
                handle = self.registry.get(session_id)
                ack = await handle.enqueue_update(
                    SessionRegistry.decode_facts(body.get("add")),
                    SessionRegistry.decode_facts(body.get("retract")),
                )
                return 200, ack
            if action == "snapshot" and method == "POST":
                return 200, await self.registry.get(session_id).snapshot_now()
        raise ServiceError(404, "not_found", f"no route for {method} {path}")

    async def _create_session(self, body: "Mapping[str, object]") -> "tuple[int, dict]":
        program = body.get("program")
        if not isinstance(program, str) or not program.strip():
            raise ServiceError(400, "bad_upload", "a non-empty 'program' text is required")
        handle = await self.registry.create(
            tenant=str(body.get("tenant", "default")),
            program=program,
            instance=str(body.get("instance", "")),
            output_relation=body.get("output_relation"),
            options=body.get("options"),
        )
        return 201, {
            "session": handle.session_id,
            "tenant": handle.tenant,
            "generation": handle.generation,
            "materialized": handle.committed is not None,
            "output_relation": handle.query.output_relation,
        }

    def close(self) -> None:
        self.registry.close_all()


# -- the stdlib HTTP/1.1 server --------------------------------------------------------


_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _dumps(payload: dict) -> str:
    """``json.dumps(payload)``, splicing in the memoised text of a read's answer.

    A committed read's reply ends in ``"answers": {relation: EncodedAnswer}``;
    any other payload is encoded whole.
    """
    answers = payload.get("answers")
    if (
        len(payload) > 1
        and next(reversed(payload)) == "answers"
        and isinstance(answers, dict)
        and len(answers) == 1
    ):
        ((name, rows),) = answers.items()
        if isinstance(rows, EncodedAnswer):
            head = json.dumps({key: value for key, value in payload.items() if key != "answers"})
            return f'{head[:-1]}, "answers": {{{json.dumps(name)}: {rows.text}}}}}'
    return json.dumps(payload)


def _encode_response(status: int, payload: dict, *, keep_alive: bool) -> bytes:
    body = _dumps(payload).encode("utf-8")
    reason = _REASONS.get(status, "OK")
    headers = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
        "",
        "",
    ]
    return "\r\n".join(headers).encode("latin-1") + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> "tuple[str, str, dict | None] | None":
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed connection."""
    try:
        request_line = await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    except ValueError as error:  # the line outgrew the reader's buffer limit
        raise ServiceError(400, "bad_request", "request line too long") from error
    if not request_line or request_line.isspace():
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError as error:
        raise ServiceError(400, "bad_request", "malformed request line") from error
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES + 1):  # the last read must be the blank line
        try:
            line = await reader.readline()
        except ValueError as error:
            raise ServiceError(400, "bad_request", "header line too long") from error
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        # Framing must be unambiguous: a second length or a transfer coding
        # would let the rest of the stream be read as another request.
        if name == "transfer-encoding" or (name == "content-length" and name in headers):
            raise ServiceError(400, "bad_request", f"unsupported request framing ({name})")
        headers[name] = value.strip()
    else:
        raise ServiceError(400, "bad_request", f"more than {MAX_HEADER_LINES} header lines")
    declared = headers.get("content-length") or "0"
    if not declared.isascii() or not declared.isdigit():  # also refuses "-1", "+1", "1e3"
        raise ServiceError(400, "bad_request", f"malformed Content-Length {declared!r}")
    length = int(declared)
    if length > MAX_BODY_BYTES:
        raise ServiceError(413, "payload_too_large", f"body of {length} bytes refused")
    body: "dict | None" = None
    if length:
        try:
            raw = await reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise ServiceError(
                400, "bad_request", f"body ended after {len(error.partial)} of {length} bytes"
            ) from error
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ServiceError(400, "bad_json", f"invalid JSON body: {error}") from error
    path = target.split("?", 1)[0]
    return method, path, body


async def _drain(writer: asyncio.StreamWriter) -> None:
    """``writer.drain()``, raising ``TimeoutError`` after :data:`REQUEST_TIMEOUT_S`.

    Only a buffered reply can block, on a client that does not read it; an
    empty buffer drains at once and skips the timer.
    """
    if not writer.transport.get_write_buffer_size():
        await writer.drain()
        return
    async with asyncio.timeout(REQUEST_TIMEOUT_S):
        await writer.drain()


async def _handle_connection(
    app: ServiceApp, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    try:
        while True:
            try:
                async with asyncio.timeout(REQUEST_TIMEOUT_S):
                    request = await _read_request(reader)
            except (ServiceError, TimeoutError) as error:
                if isinstance(error, TimeoutError):  # a stalled or idle client
                    error = ServiceError(
                        408, "request_timeout", f"no complete request within {REQUEST_TIMEOUT_S} s"
                    )
                writer.write(_encode_response(error.status, error.to_json(), keep_alive=False))
                await _drain(writer)
                break
            if request is None:
                break
            method, path, body = request
            status, payload = await app.dispatch(method, path, body)
            writer.write(_encode_response(status, payload, keep_alive=True))
            await _drain(writer)
    except TimeoutError:
        # The client stopped reading its replies: drop them with the connection.
        writer.transport.abort()
    finally:
        # No wait_closed(): drain() already ran per response, and awaiting
        # the transport teardown here races server shutdown's task
        # cancellation into the streams machinery.
        writer.close()


async def serve(
    app: "ServiceApp | None" = None,
    *,
    host: str = "127.0.0.1",
    port: int = 8734,
    data_dir: "str | None" = None,
) -> "tuple[asyncio.base_events.Server, ServiceApp]":
    """Start the stdlib HTTP server; returns the asyncio server and the app.

    *data_dir* (ignored when an *app* is passed) enables persistence: the
    registry is built with it as ``persist_root`` and every session already
    persisted under it is restored before the server accepts connections.
    """
    if app is None:
        app = ServiceApp(SessionRegistry(persist_root=data_dir) if data_dir else None)
        if data_dir:
            restored = await app.registry.restore_all()
            for handle in restored:
                print(
                    f"restored session {handle.session_id} "
                    f"({handle.tenant}/{handle.persist_name}) "
                    f"at generation {handle.generation}"
                )
            for directory, message in app.registry.restore_errors:
                print(f"could not restore {directory}: {message}")
    server = await asyncio.start_server(
        lambda reader, writer: _handle_connection(app, reader, writer), host, port
    )
    return server, app


async def run(
    *, host: str = "127.0.0.1", port: int = 8734, data_dir: "str | None" = None
) -> None:
    """Run the service until cancelled (the ``python -m repro.service`` entry)."""
    server, app = await serve(host=host, port=port, data_dir=data_dir)
    addresses = ", ".join(str(sock.getsockname()) for sock in server.sockets)
    print(f"repro serving on {addresses}")
    try:
        async with server:
            await server.serve_forever()
    finally:
        app.close()
