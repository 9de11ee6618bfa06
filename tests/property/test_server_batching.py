"""Property tests: the network front-end vs a serial gateway replay.

The acceptance bar of :class:`repro.service.ForecastServer`: for *any*
pool, any assignment of streams to connections, any interleaving of
events within a connection and any batcher settings, every stream
receives **bitwise** the forecasts a serial
:meth:`~repro.service.ForecastService.ingest_one` replay would have
produced.  The adaptive batcher partitions the global arrival order
into micro-batches, but per-stream FIFO is preserved end to end
(connection read order -> single bounded queue -> single consumer), so
the gateway's partition-independence guarantee lifts to the wire.

Each example starts a real asyncio server on a loopback port, so the
example counts stay modest; the schedules inside each example are
hypothesis-driven.
"""

import asyncio
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictor import RuleSystem
from repro.service import ForecastServer, ForecastService, ServerConfig
from repro.service.server import forecast_to_dict

from test_service_batching import interleaved_events, random_pool


def _build(rng, d, n_rules, n_streams, per_stream):
    """A pool plus named streams of random values."""
    pool = RuleSystem(random_pool(rng, n_rules, d))
    streams = {
        f"s{k}": [float(v) for v in rng.uniform(-0.2, 1.2, size=per_stream)]
        for k in range(n_streams)
    }
    return pool, streams


def _bound_service(pool, streams):
    service = ForecastService()
    for name in streams:
        service.bind_system(name, pool, model="prop")
    return service


def _wire_line(rng, name, value):
    """Either wire form, at random — both must be equivalent."""
    if rng.random() < 0.5:
        return f"{name},{value!r}\n"
    return json.dumps({"stream": name, "value": value}) + "\n"


def _serial_oracle(pool, streams, conn_events):
    """Replay every connection's events through a fresh gateway, one
    event at a time, and collect the wire dicts per stream."""
    oracle = _bound_service(pool, streams)
    expected = {name: [] for name in streams}
    for events in conn_events:
        for name, value in events:
            expected[name].append(
                forecast_to_dict(oracle.ingest_one(name, value))
            )
    return expected


async def _drive(pool, streams, conn_events, config, rng):
    """Run one schedule against a live server; responses per stream."""
    service = _bound_service(pool, streams)

    async def one_connection(host, port, events):
        reader, writer = await asyncio.open_connection(host, port)
        if rng.random() < 0.3:  # noise the framing: ignored lines
            writer.write(b"# comment\n\n")
        for name, value in events:
            writer.write(_wire_line(rng, name, value).encode())
        await writer.drain()
        out = [json.loads(await reader.readline()) for _ in events]
        writer.close()
        await writer.wait_closed()
        return out

    async with ForecastServer(service, config) as server:
        host, port = server.address
        replies = await asyncio.gather(*(
            one_connection(host, port, events) for events in conn_events
        ))
    got = {name: [] for name in streams}
    for events, out in zip(conn_events, replies):
        for (name, _), reply in zip(events, out):
            got[name].append(reply)
    return got, service


class TestNetworkBitwise:
    @given(
        st.integers(1, 5),         # d
        st.integers(1, 20),        # rules
        st.integers(1, 6),         # streams
        st.integers(0, 25),        # events per stream
        st.integers(1, 4),         # connections
        st.integers(1, 32),        # max_batch
        st.floats(0.001, 0.02),    # max batching window (s)
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=12, deadline=None)
    def test_server_equals_serial_ingest_one_replay(
        self, d, n_rules, n_streams, per_stream, n_conns,
        max_batch, window_s, seed,
    ):
        """Any pool / stream-to-connection map / batcher tuning:
        per-stream wire responses are bitwise the serial replay."""
        rng = np.random.default_rng(seed)
        pool, streams = _build(rng, d, n_rules, n_streams, per_stream)

        # Each stream lives on exactly one connection (per-stream order
        # is only defined within a connection); a connection may carry
        # several interleaved streams.
        assignment = {
            name: int(rng.integers(0, n_conns)) for name in streams
        }
        conn_events = []
        for c in range(n_conns):
            mine = {n: v for n, v in streams.items() if assignment[n] == c}
            conn_events.append(interleaved_events(rng, mine) if mine else [])

        total = sum(len(e) for e in conn_events)
        config = ServerConfig(
            max_batch=max_batch,
            max_window_s=float(window_s),
            min_window_s=min(0.0005, float(window_s)),
            queue_size=total + 8,            # clients blast: no overload
            max_pending_per_conn=total + 8,  # in this suite, by design
        )
        got, service = asyncio.run(
            _drive(pool, streams, conn_events, config, rng)
        )
        expected = _serial_oracle(pool, streams, conn_events)

        for name in streams:
            assert got[name] == expected[name]
        # Nothing lost, nothing duplicated, nothing invented.
        assert service.stats()["events"] == total

    @given(
        st.integers(1, 4),         # d
        st.integers(1, 12),        # rules
        st.integers(1, 4),         # streams
        st.integers(1, 15),        # events per stream
        st.integers(1, 3),         # connections
        st.integers(1, 4),         # max_pending_per_conn
        st.integers(1, 16),        # max_batch
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_pipelined_replies_under_small_pending_cap(
        self, d, n_rules, n_streams, per_stream, n_conns, cap,
        max_batch, seed,
    ):
        """Pipelined lines against a 1–4 reply cap, with malformed,
        comment and blank lines interleaved: every connection gets one
        reply per non-ignored line, in line order — forecasts bitwise
        the serial replay, each error naming its own line number.

        The cap is far below each connection's line count, so readers
        stop and resume on the reply-slot bound throughout.
        """
        rng = np.random.default_rng(seed)
        pool, streams = _build(rng, d, n_rules, n_streams, per_stream)
        assignment = {
            name: int(rng.integers(0, n_conns)) for name in streams
        }
        bad_lines = (
            ("{not json", "bad JSON"),
            ("ghost,1.0", "unknown stream"),
            ("{name},nan", "non-finite"),
            ("{name},abc", "bad value"),
            (",1.0", "expected 'stream,value'"),
            ('{"stream": "{name}"}', "JSON event must be"),
        )
        # Per connection: the wire lines, and per line what it expects
        # (None: ignored, ("event", name), ("error", fragment)).
        conn_lines, conn_expect, conn_events = [], [], []
        for c in range(n_conns):
            mine = {n: v for n, v in streams.items() if assignment[n] == c}
            events = interleaved_events(rng, mine) if mine else []
            some = next(iter(mine), "gauge")
            lines, expect = [], []
            for name, value in events:
                while rng.random() < 0.3:
                    roll = rng.random()
                    if roll < 0.3:
                        lines.append(rng.choice(["# comment\n", "\n", "  \n"]))
                        expect.append(None)
                    else:
                        text, fragment = bad_lines[
                            int(rng.integers(0, len(bad_lines)))
                        ]
                        lines.append(text.replace("{name}", some) + "\n")
                        expect.append(("error", fragment))
                lines.append(_wire_line(rng, name, value))
                expect.append(("event", name))
            conn_lines.append(lines)
            conn_expect.append(expect)
            conn_events.append(events)

        async def drive():
            service = _bound_service(pool, streams)
            config = ServerConfig(
                max_batch=max_batch,
                max_window_s=0.002,
                min_window_s=0.0005,
                max_pending_per_conn=cap,
            )

            async def one_connection(host, port, lines, expect):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write("".join(lines).encode())
                await writer.drain()
                n_replies = sum(e is not None for e in expect)
                out = [
                    json.loads(await reader.readline())
                    for _ in range(n_replies)
                ]
                writer.close()
                await writer.wait_closed()
                return out

            async with ForecastServer(service, config) as server:
                host, port = server.address
                return await asyncio.gather(*(
                    one_connection(host, port, lines, expect)
                    for lines, expect in zip(conn_lines, conn_expect)
                )), service

        replies, service = asyncio.run(drive())
        oracle = _serial_oracle(pool, streams, conn_events)
        for expect, out in zip(conn_expect, replies):
            numbered = [
                (line_no, e)
                for line_no, e in enumerate(expect, start=1)
                if e is not None
            ]
            assert len(out) == len(numbered)
            for (line_no, (kind, what)), reply in zip(numbered, out):
                if kind == "event":
                    assert reply == oracle[what].pop(0)
                else:
                    assert set(reply) == {"error", "line"}
                    assert reply["line"] == line_no
                    assert what in reply["error"]
        assert all(not rest for rest in oracle.values())
        assert service.stats()["events"] == sum(map(len, conn_events))

    @given(
        st.integers(1, 4),         # d
        st.integers(1, 15),        # rules
        st.integers(1, 4),         # streams
        st.integers(1, 12),        # events per stream
        st.integers(1, 8),         # HTTP batch size
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=8, deadline=None)
    def test_http_ingest_equals_serial_replay(
        self, d, n_rules, n_streams, per_stream, http_batch, seed
    ):
        """POST /ingest batches are the same bits as the serial replay."""
        rng = np.random.default_rng(seed)
        pool, streams = _build(rng, d, n_rules, n_streams, per_stream)
        events = interleaved_events(rng, streams)
        batches = [
            events[i : i + http_batch]
            for i in range(0, len(events), http_batch)
        ]

        async def drive():
            service = _bound_service(pool, streams)
            results = []
            async with ForecastServer(service, ServerConfig()) as server:
                host, port = server.address
                for batch in batches:
                    body = json.dumps({"events": [
                        {"stream": n, "value": v} if rng.random() < 0.5
                        else [n, v]
                        for n, v in batch
                    ]}).encode()
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
                    writer.write(
                        b"POST /ingest HTTP/1.1\r\nHost: t\r\n"
                        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                    )
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    await writer.wait_closed()
                    head, _, payload = raw.decode().partition("\r\n\r\n")
                    assert head.split("\r\n")[0] == "HTTP/1.1 200 OK"
                    results.extend(json.loads(payload)["results"])
            return results

        results = asyncio.run(drive())
        expected = _serial_oracle(pool, streams, [events])
        got = {name: [] for name in streams}
        for reply in results:
            got[reply["stream"]].append(reply)
        for name in streams:
            assert got[name] == expected[name]


class TestShardedNetworkBitwise:
    """The wire contract survives sharding: server over worker shards."""

    def test_server_over_sharded_service_is_bitwise(self):
        """--listen + --workers path: TCP responses, /metrics, /healthz.

        One deterministic schedule (process spawn is the expensive
        part, the ring/parity property suites cover the combinatorics)
        driven through a ForecastServer whose backing service is a
        2-worker ShardedForecastService; every response must match the
        serial single-process oracle bit for bit, and shutdown must
        leave /dev/shm empty.
        """
        from repro.parallel.shm import live_segments
        from repro.service.sharding import (
            ShardConfig,
            ShardedForecastService,
        )

        rng = np.random.default_rng(123)
        pool, streams = _build(rng, 4, 12, 5, 20)
        events = interleaved_events(rng, streams)

        async def drive():
            sharded = ShardedForecastService(
                config=ShardConfig(workers=2)
            )
            for name in streams:
                sharded.bind_system(name, pool, model="prop")
            config = ServerConfig(
                queue_size=len(events) + 8,
                max_pending_per_conn=len(events) + 8,
                metrics_top_k=3,
            )
            try:
                async with ForecastServer(sharded, config) as server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
                    for name, value in events:
                        writer.write(_wire_line(rng, name, value).encode())
                    await writer.drain()
                    out = [
                        json.loads(await reader.readline()) for _ in events
                    ]
                    writer.close()
                    await writer.wait_closed()
                    metrics = server.render_metrics()
                    health = server.healthz()
                return out, metrics, health
            finally:
                sharded.close()

        out, metrics, health = asyncio.run(drive())

        oracle = _serial_oracle(pool, streams, [events])
        got = {name: [] for name in streams}
        for (name, _), reply in zip(events, out):
            got[name].append(reply)
        for name in streams:
            assert got[name] == oracle[name]

        # Aggregated observability: shard-merged stats behind the same
        # endpoints, per-stream series capped at top-K + "other".
        assert health["workers"] == 2 and health["status"] == "ok"
        assert len(health["per_shard"]) == 2
        assert json.dumps(health)  # JSON-serializable end to end
        cov = [ln for ln in metrics.splitlines()
               if ln.startswith("repro_gateway_stream_coverage{")]
        assert len(cov) == 4  # top-3 + the "other" aggregate
        assert any('stream="other"' in ln for ln in cov)
        assert live_segments() == []
