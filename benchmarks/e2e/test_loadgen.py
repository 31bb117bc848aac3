"""The load generator against a stub HTTP server (no engine involved, < 5 s)."""

import asyncio
import json

from loadgen import Connection, closed_loop, open_loop


class StubServer:
    """Answers every request after ``delay`` seconds; ``/fail`` gets a 500."""

    def __init__(self, delay: float):
        self.delay = delay
        self.connections = 0
        self.request_ids = []

    async def handle(self, reader, writer):
        self.connections += 1
        while (line := await reader.readline()) and not line.isspace():
            path, headers = line.split()[1], {}
            while (header := await reader.readline()) not in (b"\r\n", b""):
                name, _, value = header.decode().partition(":")
                headers[name.lower()] = value.strip()
            body = await reader.readexactly(int(headers.get("content-length", 0)))
            self.request_ids.append(int(headers["x-request-id"]))
            await asyncio.sleep(self.delay)
            status = b"500 Oops" if path == b"/fail" else b"200 OK"
            reply = json.dumps({"echo": json.loads(body or b"null")}).encode()
            writer.write(b"HTTP/1.1 %s\r\nContent-Length: %d\r\n\r\n%s" % (status, len(reply), reply))
            await writer.drain()
        writer.close()


def drive(delay, scenario):
    """Run ``scenario(stub, connections)`` against a fresh stub server."""

    async def main():
        stub = StubServer(delay)
        server = await asyncio.start_server(stub.handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        connections = [Connection("127.0.0.1", port) for _ in range(2)]
        try:
            return stub, await asyncio.wait_for(scenario(stub, connections), 10)
        finally:
            for connection in connections:
                await connection.close()
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def test_closed_loop_keeps_connections_alive_and_streams_ordered():
    sent = {0: [], 1: []}

    def next_request(index):
        sent[index].append(len(sent[index]))
        return ("query", "POST", "/echo", {"connection": index, "n": sent[index][-1]})

    stub, samples = drive(0.005, lambda _stub, c: closed_loop(c, next_request, 0.3))
    assert stub.connections == 2  # keep-alive: one socket per connection
    assert len(samples) > 20 and all(sample.ok for sample in samples)
    assert sorted(sample.request_id for sample in samples) == sorted(stub.request_ids)
    assert len({sample.request_id for sample in samples}) == len(samples)
    for sample in samples:
        assert sample.payload == {"echo": sample.body}
        assert sample.due == sample.sent and sample.latency_s >= 0.005
        assert sample.response_bytes > 0 and 0 < sample.client_s < sample.latency_s
    for index in (0, 1):
        order = [s.body["n"] for s in samples if s.body["connection"] == index]
        assert order == sorted(order) == sent[index]


def test_open_loop_times_latency_from_the_due_time():
    # 20 arrivals 5 ms apart into one connection that needs 20 ms each: the
    # backlog grows, and the wait is charged to the requests it delayed.
    arrivals = [0.005 * index for index in range(20)]
    _, samples = drive(
        0.02, lambda _stub, c: open_loop(c[:1], arrivals, lambda _i: ("query", "GET", "/x", None))
    )
    assert len(samples) == 20 and all(sample.ok for sample in samples)
    first, last = samples[0], samples[-1]
    assert first.sent - first.due < 0.01
    assert last.sent - last.due > 0.2  # generator lateness is reported …
    assert last.latency_s > 0.2 + 0.02  # … and included in the latency
    assert last.done - last.sent < 0.1  # though the request itself was quick


def test_failures_keep_their_status():
    async def scenario(_stub, connections):
        failing = await closed_loop(connections[:1], lambda _i: ("query", "GET", "/fail", None), 0.05)
        refused = await closed_loop(
            [Connection("127.0.0.1", 1)], lambda _i: ("query", "GET", "/x", None), 0.05
        )
        return failing, refused

    _, (failing, refused) = drive(0.0, scenario)
    assert failing and all(s.status == 500 and not s.ok for s in failing)
    assert refused and all(s.status == 0 and not s.ok for s in refused)
