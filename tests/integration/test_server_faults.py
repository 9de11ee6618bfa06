"""Gateway torture tests: the network front-end under hostile clients.

Every scenario here ends the same three ways: the offending client
gets a *structured* error (never a hang, never a stack trace), the
server loop stays alive for the next connection, and the accounting
stays consistent — ``service.stats()["events"]`` equals exactly the
number of successful responses handed out, with every rejection
counted under its reason in the metrics registry.  Forecast payloads
that do come back are held bitwise to a serial
``ForecastService.ingest_one`` replay, so fault handling can never
perturb the numbers.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.predictor import RuleSystem
from repro.core.rule import Rule
from repro.service import (
    AdaptiveBatcher,
    ForecastServer,
    ForecastService,
    OverloadedError,
    ServerConfig,
)
from repro.service.server import forecast_to_dict

D = 4


@pytest.fixture(scope="module")
def pool():
    """A small deterministic pool with full coverage (constant rule)."""
    rng = np.random.default_rng(3)
    rules = []
    for _ in range(12):
        lo = rng.uniform(-2.0, 1.0, size=D)
        rule = Rule.from_box(
            lo, lo + rng.uniform(0.2, 1.0, size=D),
            prediction=float(rng.normal()),
        )
        rule.error = float(rng.uniform(0.01, 1.0))
        rules.append(rule)
    catch_all = Rule.from_box(
        np.full(D, -100.0), np.full(D, 100.0), prediction=0.25
    )
    catch_all.error = 0.5
    rules.append(catch_all)
    return RuleSystem(rules)


def _service(pool, streams=("gauge", "tide")):
    service = ForecastService()
    for name in streams:
        service.bind_system(name, pool, model="fault")
    return service


def _metric(server, name, **labels):
    """Read one counter/gauge value straight off the registry."""
    return server.metrics._metrics[name].value(**labels)


async def _exchange(host, port, lines):
    """Send raw lines on one connection, read one reply per line."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write("".join(lines).encode())
    await writer.drain()
    out = [json.loads(await reader.readline()) for _ in lines]
    writer.close()
    await writer.wait_closed()
    return out


async def _probe_alive(server):
    """A fresh connection still gets served, bitwise."""
    host, port = server.address
    # Quiesce: dead connections may still be flushing buffered lines.
    deadline = asyncio.get_running_loop().time() + 10.0
    while server.healthz()["server"]["connections_active"] > 0:
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.01)
    await server.batcher.drain()
    before = server.service.stats()["events"]
    (reply,) = await _exchange(host, port, ["gauge,0.125\n"])
    assert reply["stream"] == "gauge" and "error" not in reply
    assert server.service.stats()["events"] == before + 1


class TestMalformedLines:
    def test_structured_errors_with_line_numbers(self, pool):
        """Each bad line: an error naming the line; good lines score."""
        lines = [
            "gauge,0.5\n",                      # 1: ok
            "{not json\n",                      # 2: bad JSON
            '{"stream": "gauge"}\n',            # 3: missing value
            "ghost,1.0\n",                      # 4: unknown stream
            "gauge,nan\n",                      # 5: non-finite
            '{"stream": "gauge", "value": 1e999}\n',  # 6: inf via JSON
            "gauge,abc\n",                      # 7: bad value
            ",1.0\n",                           # 8: no stream name
            "gauge,0.75\n",                     # 9: ok
        ]

        async def run():
            service = _service(pool)
            async with ForecastServer(service, ServerConfig()) as server:
                host, port = server.address
                replies = await _exchange(host, port, lines)
                await _probe_alive(server)
                return replies, server, service

        replies, server, service = asyncio.run(run())
        errors = {r["line"]: r["error"] for r in replies if "error" in r}
        assert set(errors) == {2, 3, 4, 5, 6, 7, 8}
        assert "bad JSON" in errors[2]
        assert "stream" in errors[3]
        assert "unknown stream" in errors[4]
        assert "non-finite" in errors[5]
        assert "non-finite" in errors[6]
        assert "bad value" in errors[7]
        assert "expected 'stream,value'" in errors[8]

        oracle = _service(pool)
        ok = [r for r in replies if "error" not in r]
        assert ok == [
            forecast_to_dict(oracle.ingest_one("gauge", v))
            for v in (0.5, 0.75)
        ]
        # ok lines here + the liveness probe; rejected lines leave no trace
        assert service.stats()["events"] == 3
        assert _metric(server, "repro_server_errors_total",
                       reason="malformed") == 6
        assert _metric(server, "repro_server_errors_total",
                       reason="unknown-stream") == 1

    def test_oversized_line_errors_and_closes(self, pool):
        """A line past max_line_bytes: one error, connection closed,
        the next connection unaffected."""

        async def run():
            service = _service(pool)
            config = ServerConfig(max_line_bytes=256)
            async with ForecastServer(service, config) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"gauge,0.5\n")
                writer.write(b"gauge," + b"9" * 1024 + b"\n")
                await writer.drain()
                first = json.loads(await reader.readline())
                second = json.loads(await reader.readline())
                trailing = await reader.read()  # server closed on us
                writer.close()
                await writer.wait_closed()
                await _probe_alive(server)
                return first, second, trailing, server

        first, second, trailing, server = asyncio.run(run())
        assert "error" not in first
        assert second == {"error": "line too long", "line": 2}
        assert trailing == b""
        assert _metric(server, "repro_server_errors_total",
                       reason="oversized") == 1


class TestDisconnects:
    def test_mid_batch_disconnect_leaves_others_unaffected(self, pool):
        """A client that resets mid-replay never perturbs another
        stream's bits, and its accepted events still count once."""
        rng = np.random.default_rng(11)
        a_values = [float(v) for v in rng.uniform(-1, 1, size=8)]
        b_values = [float(v) for v in rng.uniform(-1, 1, size=20)]

        async def run():
            service = _service(pool)
            async with ForecastServer(service, ServerConfig()) as server:
                host, port = server.address

                async def rude_client():
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
                    for v in a_values:
                        writer.write(f"gauge,{v!r}\n".encode())
                    await writer.drain()
                    await asyncio.sleep(0.05)  # let the batcher take them
                    writer.transport.abort()   # RST, responses unread

                async def polite_client():
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
                    out = []
                    for v in b_values:
                        writer.write(f"tide,{v!r}\n".encode())
                        await writer.drain()
                        out.append(json.loads(await reader.readline()))
                    writer.close()
                    await writer.wait_closed()
                    return out

                _, replies = await asyncio.gather(
                    rude_client(), polite_client()
                )
                await server.batcher.drain()
                await _probe_alive(server)
                return replies, server, service

        replies, server, service = asyncio.run(run())
        oracle = _service(pool)
        assert replies == [
            forecast_to_dict(oracle.ingest_one("tide", v)) for v in b_values
        ]
        # The rude client's events were accepted before the reset, so
        # they are scored exactly once — lost futures, not lost events.
        assert service.stats()["events"] == len(a_values) + len(b_values) + 1

    def test_slow_reader_is_dropped_server_survives(self, pool):
        """A client that writes but never reads is disconnected once
        the write buffer stays full past drain_timeout_s."""

        async def run():
            service = _service(pool)
            config = ServerConfig(
                drain_timeout_s=0.2,
                write_buffer_bytes=0,     # any unsent byte blocks drain()
                max_window_s=0.005,       # keep responses flowing fast
                max_pending_per_conn=64,
            )
            async with ForecastServer(service, config) as server:
                host, port = server.address
                # Shrink the receive window *before* connecting (the
                # window is negotiated at SYN) so responses jam fast.
                import socket

                sock = socket.socket()
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, 1024
                )
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(
                    sock, (host, port)
                )
                reader, writer = await asyncio.open_connection(sock=sock)
                writer.write(b"gauge,0.5\n" * 20_000)
                # Never read.  Wait on the server's own verdict: once
                # the client's receive window stays shut longer than
                # drain_timeout_s, the connection must be aborted.
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 30.0
                while _metric(
                    server, "repro_server_client_disconnects_total",
                    cause="slow-reader",
                ) < 1:
                    assert loop.time() < deadline, "abort never fired"
                    await asyncio.sleep(0.05)
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:
                    pass
                await _probe_alive(server)
                return server

        server = asyncio.run(run())
        assert _metric(server, "repro_server_client_disconnects_total",
                       cause="slow-reader") == 1


class TestOverload:
    def test_queue_full_sheds_then_recovers(self, pool):
        """With the consumer paused and the queue full, new events get
        ``overloaded`` errors; resume() drains and service resumes."""
        queue_size = 4

        async def run():
            service = _service(pool)
            config = ServerConfig(
                queue_size=queue_size, max_window_s=0.005
            )
            async with ForecastServer(service, config) as server:
                host, port = server.address
                server.batcher.pause()
                # One event may already be in flight past the pause
                # gate; score it and wait until the consumer is parked.
                (warm,) = await _exchange(host, port, ["gauge,0.1\n"])
                assert "error" not in warm
                await server.batcher.drain()

                reader, writer = await asyncio.open_connection(host, port)
                for i in range(queue_size + 3):
                    writer.write(f"gauge,0.{i}1\n".encode())
                await writer.drain()
                # Wait until the reader has classified every line: the
                # queue is full and the overflow has been shed.
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10.0
                while _metric(
                    server, "repro_server_overloaded_total"
                ) < 3:
                    assert loop.time() < deadline
                    await asyncio.sleep(0.01)
                assert server.healthz()["server"]["queue_depth"] == \
                    queue_size
                server.batcher.resume()
                # Responses keep request order: forecasts, then sheds.
                replies = [
                    json.loads(await reader.readline())
                    for _ in range(queue_size + 3)
                ]
                writer.close()
                await writer.wait_closed()
                await _probe_alive(server)
                return replies, server, service

        replies, server, service = asyncio.run(run())
        served, shed = replies[:queue_size], replies[queue_size:]
        # Exactly the overflow was shed, naming the lines that overflowed.
        assert shed == [
            {"error": "overloaded", "line": queue_size + 1 + k}
            for k in range(3)
        ]
        oracle = _service(pool)
        oracle.ingest_one("gauge", 0.1)  # the warm-up event came first
        assert served == [
            forecast_to_dict(oracle.ingest_one("gauge", float(f"0.{i}1")))
            for i in range(queue_size)
        ]
        assert service.stats()["events"] == 1 + queue_size + 1
        assert _metric(server, "repro_server_overloaded_total") == 3

    def test_reader_holds_at_pending_reply_cap(self, pool):
        """A connection with max_pending_per_conn unanswered lines is not
        read further: its backlog stays in the socket, not in the
        queue, until replies drain — then every line is answered."""
        cap, n_lines = 2, 10

        async def run():
            service = _service(pool)
            config = ServerConfig(max_pending_per_conn=cap,
                                  max_window_s=0.005)
            async with ForecastServer(service, config) as server:
                host, port = server.address
                server.batcher.pause()
                (warm,) = await _exchange(host, port, ["gauge,0.1\n"])
                assert "error" not in warm
                await server.batcher.drain()

                reader, writer = await asyncio.open_connection(host, port)
                writer.write("".join(
                    f"gauge,0.{i}5\n" for i in range(n_lines)
                ).encode())
                await writer.drain()
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10.0
                while server.batcher.depth < cap:
                    assert loop.time() < deadline
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.1)  # room to overrun, were it unbounded
                held = server.batcher.depth
                server.batcher.resume()
                replies = [
                    json.loads(await reader.readline())
                    for _ in range(n_lines)
                ]
                writer.close()
                await writer.wait_closed()
                return held, replies

        held, replies = asyncio.run(run())
        assert held == cap
        oracle = _service(pool)
        oracle.ingest_one("gauge", 0.1)
        assert replies == [
            forecast_to_dict(oracle.ingest_one("gauge", float(f"0.{i}5")))
            for i in range(n_lines)
        ]

    def test_http_ingest_is_all_or_nothing(self, pool):
        """A batch with one bad event changes nothing; an oversized
        batch against a full queue gets 429 with nothing queued."""

        async def post(host, port, payload):
            body = json.dumps(payload).encode()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /ingest HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, payload = raw.decode().partition("\r\n\r\n")
            return head.split(" ", 2)[1], json.loads(payload)

        async def run():
            service = _service(pool)
            config = ServerConfig(queue_size=4, max_window_s=0.005)
            async with ForecastServer(service, config) as server:
                host, port = server.address
                status, body = await post(host, port, {"events": [
                    {"stream": "gauge", "value": 0.5},
                    {"stream": "ghost", "value": 0.5},
                ]})
                assert status == "400" and "unknown stream" in body["error"]
                assert service.stats()["events"] == 0  # nothing queued
                # Decoded entries meet the line protocol's checks.
                for bad, fragment in (
                    ({"stream": "gauge", "value": "nan"}, "non-finite"),
                    (["gauge", "abc"], "bad value 'abc'"),
                    ({"stream": "", "value": 0.5}, "non-empty string"),
                    (["gauge"], "JSON event must be"),
                ):
                    status, body = await post(host, port, {"events": [
                        {"stream": "gauge", "value": 0.5}, bad,
                    ]})
                    assert status == "400"
                    assert body["error"].startswith("bad event: ")
                    assert fragment in body["error"]
                assert service.stats()["events"] == 0

                server.batcher.pause()
                (warm,) = await _exchange(host, port, ["gauge,0.1\n"])
                assert "error" not in warm
                await server.batcher.drain()
                status, body = await post(host, port, {"events": [
                    {"stream": "gauge", "value": float(v) / 10.0}
                    for v in range(6)
                ]})
                assert status == "429" and body["error"] == "overloaded"
                assert server.healthz()["server"]["queue_depth"] == 0
                server.batcher.resume()
                status, body = await post(
                    host, port, {"stream": "gauge", "value": 0.5}
                )
                assert status == "200"
                await _probe_alive(server)
                return service

        service = asyncio.run(run())
        assert service.stats()["events"] == 3  # warm + single + probe


class TestBatcherContract:
    def test_submit_rejects_before_queueing(self, pool):
        """Unknown streams and overload leave the queue untouched."""

        async def run():
            service = _service(pool)
            config = ServerConfig(queue_size=2)
            async with ForecastServer(service, config) as server:
                batcher = server.batcher
                batcher.pause()
                (warm,) = await _exchange(
                    *server.address, ["gauge,0.1\n"]
                )
                assert "error" not in warm
                await batcher.drain()
                with pytest.raises(ValueError, match="unknown stream"):
                    batcher.submit("ghost", 1.0)
                futures = [batcher.submit("gauge", 0.2),
                           batcher.submit("gauge", 0.3)]
                with pytest.raises(OverloadedError):
                    batcher.submit("gauge", 0.4)
                batcher.resume()
                results = await asyncio.gather(*futures)
                return [forecast_to_dict(f) for f in results]

        results = asyncio.run(run())
        assert all("error" not in r for r in results)
        assert [r["t"] for r in results] == [1, 2]


class TestBatcherLifecycle:
    def test_cancel_with_deep_queue_ends_promptly(self, pool):
        """Cancelling the consumer mid-backlog ends it within a bound.

        Regression for ``asyncio.wait_for`` dropping a cancellation
        that arrives after its inner awaitable has completed (CPython
        gh-86296, Python <= 3.11).  With events queued, every
        ``queue.get()`` completes at once, so a consumer that waited
        on each event through ``wait_for`` lost ``cancel()``, scored
        the whole backlog and then parked, still alive, on the empty
        queue.  The bound is waited on with ``asyncio.wait``, which
        does not share the bug.
        """
        n_events = 20_000

        async def run():
            service = _service(pool)
            batcher = AdaptiveBatcher(
                service, ServerConfig(queue_size=n_events)
            )
            values = np.linspace(-1.0, 1.0, n_events)
            batcher.submit_many([("gauge", float(v)) for v in values])
            batcher.start()
            await asyncio.sleep(0.02)
            task = batcher._task
            task.cancel()
            done, _ = await asyncio.wait({task}, timeout=1.0)
            return task in done and task.cancelled(), service, batcher

        ended, service, batcher = asyncio.run(run())
        assert ended, "cancel() was lost: the consumer outlived its bound"
        # A cancelled consumer leaves unscored events queued, never
        # half-scored: each event is scored once or still pending.
        assert service.stats()["events"] + batcher.depth == n_events
