"""Asyncio network front-end: adaptive micro-batching over the gateway.

:class:`~repro.service.gateway.ForecastService` is in-process only —
``repro serve`` reads stdin on one thread.  :class:`ForecastServer`
puts a real front door on it (ROADMAP: "an asyncio TCP/HTTP ingest
loop that accepts thousands of concurrent stream connections"):

* **one port, two protocols** — a newline-delimited TCP ingest
  protocol (JSON ``{"stream": s, "value": v}`` or plaintext
  ``stream,value`` per line, one JSON response line per event) and a
  minimal HTTP/1.1 surface (``POST /ingest``, ``GET /metrics``,
  ``GET /healthz``), sniffed from the first request line;
* **adaptive micro-batching** — every connection funnels events into
  one bounded FIFO; :class:`AdaptiveBatcher` drains it into a single
  :meth:`ForecastService.ingest` call per flush, triggered by batch
  size OR a time window that is continuously re-tuned from the
  observed arrival rate (the window tracks the time one full batch
  takes to arrive, clamped to a configured range — so idle streams
  see bounded latency and busy streams see full batches);
* **asyncio work per flush, not per event** — the batcher's consumer
  sleeps on one future with one deadline timer per flush; each line
  connection keeps its replies as ordered slots that the flush fills,
  and the flush wakes each connection's writer once, which encodes
  every ready reply and sends them in one ``write``.  Per event the
  loop pays only the parse, a deque append, a reply slot and the
  encode — no future, task or timer;
* **backpressure, never unbounded memory** — a full event queue
  answers ``{"error": "overloaded"}`` (HTTP 429) instead of queueing,
  per-connection reply slots are bounded (a client that stops reading
  stops being read from), and a reader that ignores its responses past
  the write-buffer drain timeout is disconnected;
* **observability** — ``/metrics`` renders the
  :class:`~repro.service.metrics.MetricsRegistry` (event/error/batch
  counters, queue depth, the live adaptive window, and per-stream +
  global ingest-latency histograms) in Prometheus text format;
  ``/healthz`` returns the gateway's JSON snapshot.

**The bitwise contract survives the network.**  The batcher is the
single consumer of a single FIFO and events from one connection are
enqueued in read order, so each stream's events reach
``ForecastService.ingest`` in the order its client wrote them; the
gateway's partition-independence property then guarantees forecasts
bitwise identical to a serial ``ingest_one`` replay — for any
connection count, batch size and window setting
(``tests/property/test_server_batching.py``).

Fault containment: a malformed line, unknown stream or non-finite
value is rejected **per event** with a structured error (the event is
validated before it is allowed near the queue, so one client's
garbage can never poison a batch carrying other clients' events), and
a client disconnect mid-batch only drops the delivery of its own
responses — the scoring itself, and every other connection, proceed
(``tests/integration/test_server_faults.py``).  Cancelling the batcher
ends it at its next flush boundary even with a deep backlog: no
``asyncio.wait_for`` sits on the event path, so no cancellation can be
lost there (CPython gh-86296).
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple, Union

from .gateway import Forecast, ForecastService
from .metrics import MetricsRegistry

__all__ = [
    "AdaptiveBatcher",
    "ForecastServer",
    "OverloadedError",
    "ProtocolError",
    "ServerConfig",
    "forecast_to_dict",
    "parse_event_line",
]


class ProtocolError(ValueError):
    """A malformed wire event (bad JSON, missing fields, bad value)."""


class OverloadedError(RuntimeError):
    """The global event queue is full; the caller must shed or retry."""


def forecast_to_dict(forecast: Forecast) -> Dict[str, object]:
    """A :class:`Forecast` as the wire-format JSON object.

    ``value`` is ``null`` while the window is filling or the model
    abstains — ``NaN`` is not valid JSON, and "no forecast" is a
    first-class outcome, not a float.  With a policy attached the
    envelope additionally carries the uncertainty fields
    (``confidence``/``dispersion``/``interval``, interval ``null``
    when there is no forecast) and the policy ``decision``.
    """
    out = {
        "stream": forecast.stream,
        "t": forecast.t,
        "value": None if math.isnan(forecast.value) else forecast.value,
        "predicted": forecast.predicted,
        "n_rules_used": forecast.n_rules_used,
        "ready": forecast.ready,
        "model": forecast.model,
        "version": forecast.version,
    }
    if forecast.confidence is not None:
        out["confidence"] = forecast.confidence
        out["dispersion"] = forecast.dispersion
        out["interval"] = (
            None
            if math.isnan(forecast.interval_lo)
            else [forecast.interval_lo, forecast.interval_hi]
        )
    if forecast.decision is not None:
        out["decision"] = forecast.decision.to_dict()
    return out


def _check_event(stream: object, raw: object) -> Tuple[str, float]:
    """The validator every ingest form ends in: ``(stream, value)``."""
    if not isinstance(stream, str) or not stream:
        raise ProtocolError("stream must be a non-empty string")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ProtocolError(f"bad value {raw!r}") from None
    if not math.isfinite(value):
        raise ProtocolError(
            f"non-finite value {raw!r}; fill or drop sensor gaps upstream"
        )
    return stream, value


def _event_object(obj: object) -> Tuple[str, float]:
    """Validate one decoded JSON event ``{"stream": s, "value": v}``."""
    if not isinstance(obj, dict) or "stream" not in obj or "value" not in obj:
        raise ProtocolError('JSON event must be {"stream": s, "value": v}')
    return _check_event(obj["stream"], obj["value"])


def parse_event_line(line: str) -> Tuple[str, float]:
    """Decode one ingest line into ``(stream, value)``.

    Two forms are accepted: a JSON object ``{"stream": s, "value": v}``
    and CSV plaintext ``stream,value`` (the ``repro serve`` stdin
    format).  Raises :class:`ProtocolError` with a human-readable
    reason on anything else — including non-finite values, which the
    gateway would reject batch-atomically; the server rejects them per
    event instead so one client's sensor gap cannot touch another's
    batch.  HTTP ingest validates its decoded event objects through
    the same checks.
    """
    line = line.strip()
    if not line:
        raise ProtocolError("empty line")
    if line.startswith("{"):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"bad JSON: {exc.msg}") from None
        return _event_object(obj)
    stream, sep, raw = line.rpartition(",")
    if not sep or not stream:
        raise ProtocolError("expected 'stream,value' or a JSON event object")
    return _check_event(stream, raw)


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of the network front-end (all have serving defaults).

    Attributes
    ----------
    host, port:
        Listen address; port 0 picks a free port (tests, benchmarks).
    max_batch:
        Flush the micro-batch at this many events regardless of the
        window (also the largest single ``ingest`` call the batcher
        will make).
    min_window_s, max_window_s:
        Clamp range of the adaptive flush window.  The batcher aims
        the window at the time one full batch takes to arrive at the
        observed rate; the clamp bounds worst-case added latency
        (``max_window_s``) and busy-loop flushing (``min_window_s``).
    queue_size:
        Global bound on queued-but-unscored events; a full queue sheds
        load with :class:`OverloadedError` instead of growing.
    max_pending_per_conn:
        Bound on replies pending towards one connection (queued,
        scored or not, and not yet written); a client that stops
        reading stops being read from once it is reached.
    max_line_bytes:
        Longest accepted ingest line; longer lines get a structured
        error and the connection is closed (the remainder of an
        oversized line cannot be re-synchronized reliably).
    max_body_bytes:
        Largest accepted HTTP request body.
    drain_timeout_s:
        How long a response write may wait on a slow reader's socket
        buffer before the connection is dropped.
    write_buffer_bytes:
        Transport write-buffer high-water mark per connection.  Above
        it, response writes block in ``drain()`` (and start the
        ``drain_timeout_s`` clock) instead of buffering a slow
        reader's backlog in server memory.
    metrics_top_k:
        Cardinality cap on per-stream series in ``/metrics``: only the
        ``metrics_top_k`` busiest streams (by ingested events) get
        their own labelled series; the rest merge into one
        ``stream="other"`` aggregate.  A gateway hosting 10k+ streams
        then scrapes in O(top_k), not O(streams).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 64
    min_window_s: float = 0.0005
    max_window_s: float = 0.05
    queue_size: int = 4096
    max_pending_per_conn: int = 256
    max_line_bytes: int = 64 * 1024
    max_body_bytes: int = 1024 * 1024
    drain_timeout_s: float = 5.0
    write_buffer_bytes: int = 64 * 1024
    metrics_top_k: int = 20

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if not 0 < self.min_window_s <= self.max_window_s:
            raise ValueError("need 0 < min_window_s <= max_window_s")
        if self.queue_size < 1 or self.max_pending_per_conn < 1:
            raise ValueError("queue bounds must be >= 1")
        if self.write_buffer_bytes < 0:
            raise ValueError("write_buffer_bytes must be >= 0")
        if self.metrics_top_k < 1:
            raise ValueError("metrics_top_k must be >= 1")


class _LineConnection:
    """The replies of one line-protocol connection, in request order.

    The reader appends one :class:`_Slot` per event line: filled at
    once with an error dict when the line is rejected, filled by the
    batcher's flush with the :class:`Forecast` otherwise.  The writer
    takes the filled slots at the head.  ``ready`` wakes the writer
    (set by every fill — a no-op when already set, so once per flush
    in effect); ``space`` wakes a reader held at
    ``max_pending_per_conn``.
    """

    __slots__ = ("slots", "ready", "space", "closed", "dead")

    def __init__(self) -> None:
        self.slots: Deque[_Slot] = deque()
        self.ready = asyncio.Event()
        self.space = asyncio.Event()
        self.closed = False  # the reader is done: finish once slots empty
        self.dead = False  # the socket is gone: replies are dropped

    def push_error(self, payload: Dict[str, object]) -> None:
        """Queue an immediate error reply behind the pending ones."""
        self.slots.append(_Slot(self, payload))
        self.ready.set()

    def kill(self) -> None:
        """Drop every pending reply and never hold the reader again."""
        self.dead = True
        self.slots.clear()
        self.space.set()


class _Slot:
    """One reply position on a :class:`_LineConnection`."""

    __slots__ = ("conn", "reply")

    def __init__(
        self, conn: _LineConnection, reply: Optional[object] = None
    ) -> None:
        self.conn = conn
        self.reply = reply  # None until filled

    def fill(self, reply: object) -> None:
        """Store the reply and wake the connection's writer."""
        self.reply = reply
        self.conn.ready.set()


#: ``_wake_at`` while no consumer is parked, or one is held by pause().
_NEVER = math.inf


class AdaptiveBatcher:
    """Funnels events from all connections into adaptive micro-batches.

    One bounded FIFO (a plain deque), one consumer task: once the
    first event is queued, the batcher keeps accumulating until either
    ``max_batch`` events are queued or the adaptive window has
    elapsed, and scores the batch with a single
    :meth:`ForecastService.ingest` call.  Being the FIFO's only
    consumer makes the global event order a strict FIFO — the
    bitwise-parity property of the gateway extends across the network
    boundary for free.

    The consumer's asyncio work is per flush: it parks on one future,
    released by the producer whose event reaches the count it waits
    for, or by one ``call_later`` deadline per open batch.  A backlog
    already holding ``max_batch`` events flushes at once, yielding to
    the loop once between flushes.  Each event carries its sink —
    a future (:meth:`submit`, :meth:`submit_many`) or a line
    connection's reply slot — and the flush fills the sinks in order.

    **Window adaptation.**  After every flush the arrival rate is
    re-estimated with an EWMA over the flush's own throughput, and the
    next window becomes ``max_batch / rate`` clamped to the configured
    ``[min_window_s, max_window_s]`` range: when events arrive faster
    than the batch fills, the window shrinks toward the clamp floor
    (flushes are size-triggered anyway); when traffic is sparse, the
    window stops growing at the ceiling so a lone event is never held
    longer than ``max_window_s``.
    """

    _EWMA = 0.2  #: smoothing of the arrival-rate estimate per flush

    def __init__(
        self,
        service: ForecastService,
        config: ServerConfig,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.service = service
        self.config = config
        self.window_s = config.max_window_s
        self._rate: Optional[float] = None
        self._last_flush: Optional[float] = None
        # (stream, value, sink, enqueue time); sink: Future or _Slot
        self._pending: Deque[tuple] = deque()
        self._task: Optional[asyncio.Task] = None
        self._paused = False
        self._waiter: Optional[asyncio.Future] = None
        self._wake_at: float = _NEVER  # queue length releasing the waiter
        self._drained: List[asyncio.Future] = []
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_batches = metrics.counter(
            "repro_server_batches_total", "Micro-batches scored."
        )
        self._c_events = metrics.counter(
            "repro_server_batched_events_total",
            "Events scored through the micro-batcher.",
        )
        self._c_failures = metrics.counter(
            "repro_server_batch_failures_total",
            "Batches rejected by the gateway (internal errors).",
        )
        self._g_window = metrics.gauge(
            "repro_server_batch_window_seconds",
            "Current adaptive flush window.",
        )
        self._g_depth = metrics.gauge(
            "repro_server_queue_depth", "Events queued, not yet scored."
        )
        self._g_window.set(self.window_s)
        self._h_latency = metrics.histogram(
            "repro_server_ingest_latency_seconds",
            "Enqueue-to-forecast latency, all streams.",
        )
        self._h_stream_latency = metrics.histogram(
            "repro_server_stream_ingest_latency_seconds",
            "Enqueue-to-forecast latency per stream "
            "(busiest streams; the rest aggregate as stream=\"other\").",
            ["stream"],
            top_k=config.metrics_top_k,
        )

    @property
    def depth(self) -> int:
        """Events queued, not yet scored."""
        return len(self._pending)

    # -- producer side -------------------------------------------------------

    def submit(self, stream: str, value: float) -> "asyncio.Future[Forecast]":
        """Enqueue one **validated** event; resolve to its forecast.

        Raises :class:`OverloadedError` when the global queue is full
        (the caller translates that into ``429`` / an ``overloaded``
        error line) and ``ValueError`` for an unknown stream — both
        before anything is queued, so rejected events leave no trace.
        """
        future = asyncio.get_running_loop().create_future()
        self._enqueue(stream, value, future)
        return future

    def submit_many(
        self, events: List[Tuple[str, float]]
    ) -> "List[asyncio.Future[Forecast]]":
        """Enqueue a pre-validated batch all-or-nothing.

        Either every event is queued (preserving list order) or none
        is — partial acceptance would silently reorder a stream's
        events relative to the caller's retry.
        """
        for stream, _ in events:
            self.service._stream(stream)
        pending = self._pending
        if self.config.queue_size - len(pending) < len(events):
            raise OverloadedError(
                f"event queue cannot take {len(events)} more events"
            )
        loop = asyncio.get_running_loop()
        futures = [loop.create_future() for _ in events]
        now = time.perf_counter()
        pending.extend(
            (stream, value, future, now)
            for (stream, value), future in zip(events, futures)
        )
        if len(pending) >= self._wake_at:
            self._wake()
        return futures

    def _enqueue(self, stream: str, value: float, sink) -> None:
        """Queue one validated event whose result goes to ``sink``."""
        self.service._stream(stream)  # unknown stream -> ValueError, unqueued
        pending = self._pending
        if len(pending) >= self.config.queue_size:
            raise OverloadedError(
                f"event queue full ({self.config.queue_size} pending)"
            )
        pending.append((stream, value, sink, time.perf_counter()))
        if len(pending) >= self._wake_at:
            self._wake()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the consumer task on the running loop (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-batcher"
            )

    async def stop(self) -> None:
        """Flush whatever is queued, then stop the consumer task.

        A cancellation of the caller propagates: the consumer's end is
        awaited with :func:`asyncio.wait`, which never swallows it.
        """
        await self.drain()
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            await asyncio.wait([task])
            if not task.cancelled():
                task.result()  # surface a consumer crash

    async def drain(self) -> None:
        """Wait until every queued event has been scored."""
        if self._pending:
            waiter = asyncio.get_running_loop().create_future()
            self._drained.append(waiter)
            await waiter

    def pause(self) -> None:
        """Hold the consumer before its next batch (ops/testing hook).

        Queued events stay queued — combined with the bounded queue
        this is also how overload is exercised deterministically in
        the torture suite.  A consumer already waiting for the first
        event of a batch takes that batch.
        """
        self._paused = True

    def resume(self) -> None:
        """Release a :meth:`pause`."""
        self._paused = False
        if self._wake_at == _NEVER:  # held at the pause gate
            self._wake()

    # -- consumer side -------------------------------------------------------

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def _park(self, wake_at: float, timeout: Optional[float]) -> None:
        """Sleep until ``wake_at`` events are queued, ``timeout`` passes
        or :meth:`resume` (one future, at most one timer)."""
        loop = asyncio.get_running_loop()
        waiter = self._waiter = loop.create_future()
        self._wake_at = wake_at
        timer = None if timeout is None else loop.call_later(timeout, self._wake)
        try:
            await waiter
        finally:
            self._waiter = None
            self._wake_at = _NEVER
            if timer is not None:
                timer.cancel()

    async def _run(self) -> None:
        pending = self._pending
        max_batch = self.config.max_batch
        while True:
            while self._paused:
                await self._park(_NEVER, None)
            while not pending:
                await self._park(1, None)
            if len(pending) < max_batch:
                # The batch opened with its first event: it closes at
                # max_batch events or when the window runs out.
                await self._park(max_batch, self.window_s)
            else:
                await asyncio.sleep(0)  # a backlog still yields per flush
            batch = [
                pending.popleft() for _ in range(min(len(pending), max_batch))
            ]
            self._g_depth.set(len(pending))
            self._flush(batch)
            if not pending:
                drained, self._drained = self._drained, []
                for waiter in drained:
                    if not waiter.done():
                        waiter.set_result(None)

    def _flush(self, batch: List[tuple]) -> None:
        """Score one batch and fill its sinks (never raises)."""
        try:
            forecasts = self.service.ingest(
                [(stream, value) for stream, value, _, _ in batch]
            )
        except Exception as exc:  # events were pre-validated: defensive
            self._c_failures.inc()
            message = f"batch rejected: {exc}"
            for _, _, sink, _ in batch:
                if isinstance(sink, _Slot):
                    sink.fill({"error": message})
                elif not sink.cancelled():
                    sink.set_exception(ProtocolError(message))
            return
        now = time.perf_counter()
        elapsed = [now - t0 for _, _, _, t0 in batch]
        self._h_latency.observe_many(elapsed)
        self._h_stream_latency.observe_many(
            elapsed, stream=[stream for stream, _, _, _ in batch]
        )
        for (_, _, sink, _), forecast in zip(batch, forecasts):
            if isinstance(sink, _Slot):
                sink.fill(forecast)
            elif not sink.cancelled():
                sink.set_result(forecast)
        self._c_batches.inc()
        self._c_events.inc(len(batch))
        self._retune(len(batch), now)

    def _retune(self, batch_len: int, now: float) -> None:
        """EWMA the arrival rate; aim the window at one full batch."""
        if self._last_flush is None:
            self._last_flush = now
            return
        elapsed = now - self._last_flush
        self._last_flush = now
        if elapsed <= 0:
            return
        instant = batch_len / elapsed
        self._rate = (
            instant
            if self._rate is None
            else (1 - self._EWMA) * self._rate + self._EWMA * instant
        )
        self.window_s = min(
            max(
                self.config.max_batch / max(self._rate, 1e-9),
                self.config.min_window_s,
            ),
            self.config.max_window_s,
        )
        self._g_window.set(self.window_s)


class ForecastServer:
    """The asyncio TCP + HTTP front door of a :class:`ForecastService`.

    Usage (all coroutines run on one event loop)::

        service = ForecastService(registry)
        service.bind("gauge", "venice-h1")
        server = ForecastServer(service, ServerConfig(port=7071))
        await server.start()
        ...
        await server.stop()

    ``repro serve --listen HOST:PORT`` wraps exactly this.  The wire
    protocol and the metrics contract are documented in
    ``docs/serving.md``.
    """

    def __init__(
        self,
        service: ForecastService,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.service = service
        self.config = config if config is not None else ServerConfig()
        self.metrics = MetricsRegistry()
        self.batcher = AdaptiveBatcher(service, self.config, self.metrics)
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._c_connections = self.metrics.counter(
            "repro_server_connections_total", "Connections accepted."
        )
        self._g_active = self.metrics.gauge(
            "repro_server_connections_active", "Connections currently open."
        )
        self._c_errors = self.metrics.counter(
            "repro_server_errors_total",
            "Rejected events and requests, by reason.",
            ["reason"],
        )
        self._c_overloaded = self.metrics.counter(
            "repro_server_overloaded_total",
            "Events shed because the queue was full.",
        )
        self._c_disconnects = self.metrics.counter(
            "repro_server_client_disconnects_total",
            "Connections that vanished or were dropped, by cause.",
            ["cause"],
        )
        self._c_http = self.metrics.counter(
            "repro_server_http_requests_total",
            "HTTP requests served, by path and status.",
            ["path", "status"],
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Bind the listen socket and start the batcher."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            limit=self.config.max_line_bytes,
        )

    async def stop(self) -> None:
        """Stop accepting, drop live connections, flush the batcher."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self.batcher.stop()

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's foreground mode)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def __aenter__(self) -> "ForecastServer":
        """``async with ForecastServer(...)`` starts the server."""
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        """Close the listener and every connection on context exit."""
        await self.stop()

    # -- metrics -------------------------------------------------------------

    def render_metrics(self) -> str:
        """The ``/metrics`` payload: refresh gauges, render the registry.

        Gateway counters (events, micro-batches, per-stream coverage)
        are mirrored into gauges at render time — scrape-time reads of
        authoritative state instead of double bookkeeping on the hot
        path.  Per-stream series are capped at the config's
        ``metrics_top_k`` busiest streams (by ingested events); the
        rest collapse into one ``stream="other"`` aggregate so the
        scrape stays bounded no matter how many streams are bound.
        """
        stats = self.service.stats()
        g = self.metrics.gauge
        g("repro_gateway_events_total", "Events the gateway ingested.").set(
            stats["events"]
        )
        g(
            "repro_gateway_micro_batches_total",
            "ingest() calls the gateway scored.",
        ).set(stats["micro_batches"])
        g("repro_gateway_streams", "Streams currently bound.").set(
            stats["streams"]
        )
        g("repro_gateway_coverage", "Aggregate prediction coverage.").set(
            stats["coverage"]
        )
        g(
            "repro_gateway_evicted_streams_total",
            "Streams evicted by the store's TTL/LRU policy.",
        ).set(stats["evicted_streams"])
        adapt = stats.get("adaptation")
        if adapt:
            for key, help_text in (
                ("drift_events", "Drift events the monitor has fired."),
                ("retrains", "Challenger retrains completed."),
                ("promotions", "Challengers promoted to champion."),
                ("rollbacks", "Promotions rolled back from probation."),
            ):
                g(f"repro_adaptation_{key}_total", help_text).set(
                    adapt.get(key, 0)
                )
            shadow_err = g(
                "repro_adaptation_shadow_error",
                "Mean absolute shadow-comparison error per model, by role "
                "(champion vs challenger, persistence-fallback charged).",
                ["model", "role"],
            )
            # Rebuilt each scrape: a resolved challenge must not keep
            # its stale series.
            shadow_err.clear()
            for model, s in sorted(adapt.get("shadow", {}).items()):
                shadow_err.set(
                    s.get("champion_error", 0.0), model=model, role="champion"
                )
                shadow_err.set(
                    s.get("challenger_error", 0.0),
                    model=model,
                    role="challenger",
                )
        policy = stats.get("policy")
        if policy:
            for key, help_text in (
                ("evaluated", "Forecasts the policy engine evaluated."),
                ("passes", "Forecasts served untouched (plain pass)."),
                ("alerts", "Alert decisions emitted."),
                ("suppressions", "Forecasts suppressed by guardrails "
                                 "or rate limits."),
                ("abstentions", "Abstain decisions (not ready, no or "
                                "too few matching rules)."),
            ):
                g(f"repro_policy_{key}_total", help_text).set(
                    policy.get(key, 0)
                )
            reasons = g(
                "repro_policy_reasons_total",
                "Decision reason codes emitted, by code.",
                ["reason"],
            )
            # Rebuilt each scrape from the authoritative counters.
            reasons.clear()
            for code, count in sorted(policy.get("reasons", {}).items()):
                reasons.set(count, reason=code)
        per_stream = g(
            "repro_gateway_stream_coverage",
            "Prediction coverage per stream "
            "(busiest streams; the rest aggregate as stream=\"other\").",
            ["stream"],
        )
        predicted = g(
            "repro_gateway_stream_predicted_steps",
            "Predicted steps per stream "
            "(busiest streams; the rest aggregate as stream=\"other\").",
            ["stream"],
        )
        per = stats["per_stream"]
        ranked = sorted(per, key=lambda n: (-per[n]["events"], n))
        head = ranked[: self.config.metrics_top_k]
        tail = ranked[self.config.metrics_top_k:]
        # Rebuilt from scratch each scrape: a stream that drops out of
        # the top-K (or is evicted) must not keep its stale series.
        per_stream.clear()
        predicted.clear()
        for name in head:
            per_stream.set(per[name]["coverage"], stream=name)
            predicted.set(per[name]["predicted_steps"], stream=name)
        if tail:
            ready = sum(per[n]["ready_steps"] for n in tail)
            done = sum(per[n]["predicted_steps"] for n in tail)
            per_stream.set(done / ready if ready else 0.0, stream="other")
            predicted.set(done, stream="other")
        return self.metrics.render()

    def healthz(self) -> Dict[str, object]:
        """The ``/healthz`` payload: gateway snapshot + server counters."""
        out = self.service.healthz()
        out["server"] = {
            "connections_active": self._g_active.value(),
            "queue_depth": self.batcher.depth,
            "batch_window_s": self.batcher.window_s,
            "overloaded_total": self._c_overloaded.value(),
        }
        return out

    # -- connection handling -------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer)
        )
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._c_connections.inc()
        self._g_active.inc()
        writer.transport.set_write_buffer_limits(
            high=self.config.write_buffer_bytes
        )
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Pin the kernel send buffer too: auto-tuning would let a
            # slow reader's backlog grow for minutes before the
            # transport's high-water mark (and the drain_timeout_s
            # clock) ever engaged.
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_SNDBUF,
                max(self.config.write_buffer_bytes, 2048),
            )
        try:
            try:
                first = await reader.readline()
            except (ValueError, ConnectionError):
                await self._reply_line_error(
                    writer, "line too long", line_no=1, close=True
                )
                return
            if not first:
                return
            head = first.split(b" ", 1)[0]
            if head in (b"GET", b"POST", b"HEAD", b"PUT", b"DELETE"):
                await self._serve_http(reader, writer, first)
            else:
                await self._serve_lines(reader, writer, first)
        except asyncio.CancelledError:
            raise
        except ConnectionError:
            self._c_disconnects.inc(cause="reset")
        except (EOFError, ValueError):
            # Truncated HTTP body / oversized header line: the request
            # is unrecoverable but the server loop must not be.
            self._c_disconnects.inc(cause="protocol-error")
        finally:
            self._g_active.inc(-1)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    # -- the line protocol ---------------------------------------------------

    async def _serve_lines(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        first: bytes,
    ) -> None:
        """NDJSON / plaintext ingest: one response line per event line.

        Every event line takes a reply slot on the connection, and a
        dedicated writer task sends the filled head of the slots, so
        scoring (batcher) and socket writes overlap while responses
        keep the exact request order.  At ``max_pending_per_conn``
        slots the reader stops reading until the writer frees some.
        """
        conn = _LineConnection()
        writer_task = asyncio.get_running_loop().create_task(
            self._write_replies(writer, conn)
        )
        cap = self.config.max_pending_per_conn
        line_no = 0
        line: Optional[bytes] = first
        try:
            while line:
                line_no += 1
                text = line.decode("utf-8", errors="replace").strip()
                if text and not text.startswith("#"):
                    while len(conn.slots) >= cap and not conn.dead:
                        conn.space.clear()
                        await conn.space.wait()  # slow client blocks here
                    self._submit_line(text, line_no, conn)
                try:
                    line = await reader.readline()
                except ValueError:
                    conn.push_error(self._line_error(
                        "line too long", line_no + 1, reason="oversized"
                    ))
                    break
                except ConnectionError:
                    self._c_disconnects.inc(cause="reset")
                    break
        finally:
            conn.closed = True
            conn.ready.set()
            await writer_task

    def _submit_line(
        self, text: str, line_no: int, conn: _LineConnection
    ) -> None:
        """Parse + enqueue one event line into the next reply slot."""
        try:
            stream, value = parse_event_line(text)
        except ProtocolError as exc:
            conn.push_error(
                self._line_error(str(exc), line_no, reason="malformed")
            )
            return
        slot = _Slot(conn)
        try:
            self.batcher._enqueue(stream, value, slot)
        except OverloadedError:
            self._c_overloaded.inc()
            conn.push_error({"error": "overloaded", "line": line_no})
            return
        except ValueError as exc:  # unknown stream
            conn.push_error(
                self._line_error(str(exc), line_no, reason="unknown-stream")
            )
            return
        conn.slots.append(slot)

    def _line_error(
        self, message: str, line_no: int, reason: str
    ) -> Dict[str, object]:
        self._c_errors.inc(reason=reason)
        return {"error": message, "line": line_no}

    async def _write_replies(
        self, writer: asyncio.StreamWriter, conn: _LineConnection
    ) -> None:
        """Send the ready head of the reply slots, one ``write`` per wake.

        Ends once the reader is done and every slot is written, or as
        soon as the connection dies (slow reader aborted, peer reset):
        a dead connection drops its replies and never holds the reader.
        """
        slots = conn.slots
        while True:
            await conn.ready.wait()
            conn.ready.clear()
            lines = []
            while slots and slots[0].reply is not None:
                reply = slots.popleft().reply
                lines.append(json.dumps(
                    reply if type(reply) is dict else forecast_to_dict(reply)
                ))
            if lines:
                conn.space.set()
                lines.append("")
                writer.write("\n".join(lines).encode())
                await self._drain(writer, conn)
            if conn.dead or (conn.closed and not slots):
                return

    async def _drain(
        self, writer: asyncio.StreamWriter, conn: _LineConnection
    ) -> None:
        """Wait out write backpressure; drop a slow or vanished reader.

        With only this task writing, ``drain()`` can block only when
        the last write left the transport above its high-water mark;
        only then is the ``drain_timeout_s`` deadline armed.  Below it
        the bare ``drain()`` returns at once and still raises on a
        reset peer.
        """
        timer = None
        if (
            writer.transport.get_write_buffer_size()
            > self.config.write_buffer_bytes
        ):
            timer = asyncio.get_running_loop().call_later(
                self.config.drain_timeout_s,
                self._drop_slow_reader, writer, conn,
            )
        try:
            await writer.drain()
        except ConnectionError:
            if not conn.dead:
                self._c_disconnects.inc(cause="reset")
                conn.kill()
        finally:
            if timer is not None:
                timer.cancel()

    def _drop_slow_reader(
        self, writer: asyncio.StreamWriter, conn: _LineConnection
    ) -> None:
        self._c_disconnects.inc(cause="slow-reader")
        writer.transport.abort()
        conn.kill()

    # -- the HTTP protocol ---------------------------------------------------

    async def _serve_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request_line: bytes,
    ) -> None:
        """One minimal HTTP/1.1 exchange (``Connection: close``)."""
        try:
            method, path, _ = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            await self._http_reply(writer, "?", 400, {"error": "bad request"})
            return
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > self.config.max_body_bytes:
            await self._http_reply(
                writer, path, 413, {"error": "body too large"}
            )
            return
        body = await reader.readexactly(length) if length else b""

        if method == "GET" and path == "/metrics":
            await self._http_reply(
                writer, path, 200, self.render_metrics(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        elif method == "GET" and path == "/healthz":
            await self._http_reply(writer, path, 200, self.healthz())
        elif method == "POST" and path == "/ingest":
            status, payload = await self._http_ingest(body)
            await self._http_reply(writer, path, status, payload)
        else:
            await self._http_reply(
                writer, path, 404,
                {"error": f"no route {method} {path}"},
            )

    async def _http_ingest(
        self, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        """``POST /ingest``: one event object or ``{"events": [...]}``.

        Batch entries are event objects or ``[stream, value]`` pairs,
        validated as decoded by the checks the line protocol ends in.
        The batch form is all-or-nothing: it either queues entirely
        (results in input order) or returns ``429``/``400`` having
        queued nothing, mirroring the gateway's atomic-batch contract.
        """
        try:
            obj = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._c_errors.inc(reason="malformed")
            return 400, {"error": f"bad JSON body: {exc}"}
        try:
            if isinstance(obj, dict) and "events" in obj:
                if not isinstance(obj["events"], list):
                    raise ProtocolError('"events" must be a list')
                events = [
                    _check_event(*e)
                    if isinstance(e, list) and len(e) == 2
                    else _event_object(e)
                    for e in obj["events"]
                ]
            else:
                events = [_event_object(obj)]
        except ProtocolError as exc:
            self._c_errors.inc(reason="malformed")
            return 400, {"error": f"bad event: {exc}"}
        try:
            futures = self.batcher.submit_many(events)
        except OverloadedError as exc:
            self._c_overloaded.inc()
            return 429, {"error": "overloaded", "detail": str(exc)}
        except ValueError as exc:
            self._c_errors.inc(reason="unknown-stream")
            return 400, {"error": str(exc)}
        results = [
            forecast_to_dict(f) for f in await asyncio.gather(*futures)
        ]
        return 200, {"results": results}

    async def _http_reply(
        self,
        writer: asyncio.StreamWriter,
        path: str,
        status: int,
        payload: Union[Dict[str, object], str],
        content_type: str = "application/json",
    ) -> None:
        """Serialize one response and close (``Connection: close``)."""
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   413: "Payload Too Large", 429: "Too Many Requests"}
        if isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Error')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        self._c_http.inc(path=path, status=str(status))
        writer.write(head.encode("latin-1") + body)
        try:
            await asyncio.wait_for(
                writer.drain(), self.config.drain_timeout_s
            )
        except (asyncio.TimeoutError, ConnectionError):
            self._c_disconnects.inc(cause="slow-reader")
            writer.transport.abort()

    async def _reply_line_error(
        self,
        writer: asyncio.StreamWriter,
        message: str,
        line_no: int,
        close: bool = False,
    ) -> None:
        """Best-effort structured error outside the writer-task path."""
        payload = self._line_error(message, line_no, reason="oversized")
        try:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
        except ConnectionError:
            pass
        if close:
            writer.close()
