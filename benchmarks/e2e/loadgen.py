"""Raw-socket asyncio HTTP/1.1 load generator (keep-alive, standard library only).

Two drivers share one connection type:

* :func:`closed_loop` — every connection sends its next request only after
  the previous reply arrived, so a slow server receives less load.  This is
  the shape of callers that each wait for an answer.
* :func:`open_loop` — requests become *due* on a fixed schedule regardless of
  how the server is doing; a due request waits for a free connection and its
  latency is timed from the due time, so a stall is charged to every request
  it delayed.  How late the generator itself ran (``sent - due``) is kept on
  every sample.

Each completed request is one :class:`Sample`.  Nothing here knows about
Sequence Datalog: a request is ``(kind, method, path, body)`` and the caller
decides what a correct reply is.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

__all__ = ["Connection", "Request", "Sample", "closed_loop", "open_loop"]

#: A request that has not been answered after this long counts as failed.
REQUEST_TIMEOUT_S = 20.0

#: ``(kind, method, path, body)`` — *kind* is the caller's label ("query", …).
Request = tuple[str, str, str, "dict | None"]


@dataclass
class Sample:
    """One request as the client saw it (times from ``time.perf_counter``)."""

    kind: str
    status: int  # 0: no reply (timeout or transport error)
    due: float  # open loop: scheduled send time; closed loop: == sent
    sent: float
    done: float
    client_s: float  # time spent encoding the request and decoding the reply
    response_bytes: int
    request_id: int
    body: "dict | None"  # what was sent, so a checker knows what was asked
    payload: "dict | None"

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class Connection:
    """One keep-alive HTTP/1.1 connection; requests on it are sequential."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: "asyncio.StreamReader | None" = None
        self._writer: "asyncio.StreamWriter | None" = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def request(
        self, method: str, path: str, body: "dict | None" = None, *, request_id: int = 0
    ) -> "tuple[int, dict | None, int, float]":
        """Send one request; returns ``(status, payload, body_bytes, client_s)``.

        ``client_s`` is the client's own encode + decode time, so a trace can
        tell it apart from time spent on the wire or in the server.  The
        ``X-Request-Id`` header lets a traced server tie its spans to this
        request; the stock server ignores it.
        """
        if self._writer is None:
            await self.open()
        assert self._reader is not None and self._writer is not None
        started = time.perf_counter()
        encoded = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"X-Request-Id: {request_id}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(encoded)}\r\n\r\n"
        ).encode("latin-1")
        self._writer.write(head + encoded)
        client_s = time.perf_counter() - started
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(None, 2)[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        raw = await self._reader.readexactly(length) if length else b""
        started = time.perf_counter()
        payload = json.loads(raw) if raw else None
        client_s += time.perf_counter() - started
        return status, payload, length, client_s


async def _send(
    connection: Connection, request: Request, request_id: int, due: "float | None" = None
) -> Sample:
    kind, method, path, body = request
    sent = time.perf_counter()
    if due is None:  # closed loop: due when sent
        due = sent
    try:
        status, payload, size, client_s = await asyncio.wait_for(
            connection.request(method, path, body, request_id=request_id),
            REQUEST_TIMEOUT_S,
        )
    except (asyncio.TimeoutError, EOFError, OSError, ValueError, IndexError):
        # The connection's framing is unknown now; the next request reopens it.
        await connection.close()
        status, payload, size, client_s = 0, None, 0, 0.0
    return Sample(
        kind, status, due, sent, time.perf_counter(), client_s, size, request_id, body, payload
    )


async def closed_loop(
    connections: Sequence[Connection],
    next_request: "Callable[[int], Request]",
    seconds: float,
    *,
    first_request_id: int = 1,
) -> "list[Sample]":
    """Run every connection back-to-back for *seconds*; samples in completion order.

    ``next_request(i)`` supplies connection *i*'s next request, so each
    connection can own a private, ordered stream.
    """
    samples: "list[Sample]" = []
    ids = iter(range(first_request_id, 1 << 62))
    deadline = time.perf_counter() + seconds

    async def client(index: int) -> None:
        while time.perf_counter() < deadline:
            samples.append(await _send(connections[index], next_request(index), next(ids)))

    await asyncio.gather(*(client(index) for index in range(len(connections))))
    return samples


async def open_loop(
    connections: Sequence[Connection],
    arrivals: "Iterable[float]",
    next_request: "Callable[[int], Request]",
    *,
    first_request_id: int = 1,
) -> "list[Sample]":
    """Send one request per arrival offset (seconds), due at start + offset.

    A due arrival is handed to whichever connection is free first;
    ``next_request(i)`` builds the request only then, so per-connection
    streams stay ordered.  Latency runs from the due time.
    """
    samples: "list[Sample]" = []
    ids = iter(range(first_request_id, 1 << 62))
    queue: "asyncio.Queue[float | None]" = asyncio.Queue()
    start = time.perf_counter()

    async def schedule() -> None:
        for offset in arrivals:
            delay = start + offset - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait(start + offset)
        for _ in connections:
            queue.put_nowait(None)

    async def client(index: int) -> None:
        while (due := await queue.get()) is not None:
            samples.append(await _send(connections[index], next_request(index), next(ids), due))

    await asyncio.gather(schedule(), *(client(index) for index in range(len(connections))))
    return samples
