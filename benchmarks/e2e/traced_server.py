"""The stock HTTP service with the layer boundaries traced from outside.

``python traced_server.py --port 0 --trace-out spans.jsonl [--data-dir DIR]``
runs exactly what ``python -m repro.service`` runs (``repro.service.http.run``)
after :func:`tracing.install` patched the boundaries, and writes the spans
as JSONL when it receives SIGTERM.

Two things exist only here because only a server has them:

* a **request root span** ``service.http.request`` from the moment the
  request line arrived to the encoded response, with the parse, the
  dispatch and the encode as children.  ``_read_request`` also waits for
  the *next* request, so its wrapper reads through a proxy that notes when
  the first line actually arrived and picks up the load generator's
  ``X-Request-Id`` header;
* a control route ``POST /_trace`` — ``{"enabled": bool}`` switches recording
  at run time, so one server measures both the traced rounds and the
  untraced reference rounds that ``trace.overhead_fraction`` compares;
  ``{"dump": true}`` writes the spans now, for a server about to be killed.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.service import http  # noqa: E402

from tracing import Recorder, Span, install  # noqa: E402


class _ArrivalReader:
    """The slice of ``StreamReader`` that ``_read_request`` uses, observed."""

    def __init__(self, reader: asyncio.StreamReader):
        self._reader = reader
        self.arrived: "float | None" = None
        self.request_id: "int | None" = None

    async def readline(self) -> bytes:
        line = await self._reader.readline()
        if self.arrived is None:
            self.arrived = time.perf_counter()
        elif line[:13].lower() == b"x-request-id:":
            self.request_id = int(line[13:])
        return line

    def readexactly(self, count: int):
        return self._reader.readexactly(count)


def trace_requests(recorder: Recorder, trace_out: str) -> None:
    """Open a root span per HTTP request around parse → dispatch → encode."""
    read_request, encode_response = http._read_request, http._encode_response
    dispatch = http.ServiceApp.dispatch

    async def traced_read(reader):
        proxy = _ArrivalReader(reader)
        request = await read_request(proxy)
        if request is not None and recorder.enabled:
            root = recorder.open(
                "service.http.request", start=proxy.arrived, request=proxy.request_id
            )
            parse = Span("service.http.read_request", root.start, root, root.request)
            parse.end = time.perf_counter()
            recorder.spans.append(parse)
        return request

    def traced_encode(status, payload, *, keep_alive):
        if not recorder.enabled:
            return encode_response(status, payload, keep_alive=keep_alive)
        span = recorder.open("service.http.encode_response")
        try:
            return encode_response(status, payload, keep_alive=keep_alive)
        finally:
            recorder.close(span)
            root = span.parent
            if root is not None and root.name == "service.http.request":
                recorder.close(root)

    async def controlled_dispatch(self, method, path, body=None):
        if path == "/_trace":
            if (body or {}).get("dump"):
                recorder.dump(trace_out)
            else:
                recorder.enabled = bool((body or {}).get("enabled"))
            return 200, {"enabled": recorder.enabled}
        return await dispatch(self, method, path, body)

    http._read_request = traced_read
    http._encode_response = traced_encode
    http.ServiceApp.dispatch = controlled_dispatch


async def _serve(args: argparse.Namespace) -> None:
    # SIGTERM cancels the serve task so run()'s ``finally`` closes the sessions.
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, asyncio.current_task().cancel)
    try:
        await http.run(host=args.host, port=args.port, data_dir=args.data_dir)
    except asyncio.CancelledError:
        pass


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8734)
    parser.add_argument("--data-dir", default=None)
    parser.add_argument("--trace-out", required=True, help="JSONL file for the spans")
    args = parser.parse_args(argv)
    recorder = Recorder()
    install(recorder)
    trace_requests(recorder, args.trace_out)
    asyncio.run(_serve(args))
    recorder.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
