"""One benchmark workload, run in this (fresh) process from a seed.

Started by ``run.py``, never by hand::

    python3 perfbench/workloads.py WORKLOAD --seed N --work-seconds S \
        --t-spawn T --work DIR [--trace] [--setup-only]

The last stdout line is one JSON object: the end-to-end measurements,
the per-layer aggregates (traced runs), the run's accounting and the
list of failed checks.  ``--t-spawn`` is the parent's
``time.monotonic()`` taken just before it started this process, so
``setup_s`` covers interpreter start, imports, data, pool load and
binds; the time the benchmark spends generating its own inputs (gauge
feeds, wire lines) is taken out, since a deployed program receives
them.  ``--setup-only`` stops right after set-up (the set-up probes).

Work is fixed by ``--work-seconds`` through nominal rates, never by
measured speed, so two commits always do the same work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from time import perf_counter, process_time
from typing import Dict, List, Optional

import common

# -- train_venice --------------------------------------------------------------
#: Per training job: EXECUTIONS pooled executions of GENERATIONS each
#: (P=100, D=24, horizon 1) on the paper-scale split, coverage stop off.
EXECUTIONS = 2
GENERATIONS = 300
TRAIN_JOB_S = 4.0          # nominal; sizes the job count (4 at 16 s)
MIN_COVERAGE = 0.90        # paper Table 1: 91.3 % at horizon 1

# -- gateway_adaptive ----------------------------------------------------------
GAUGES = 512               # > MICRO_BLOCK = 256: every round is a bulk block
GATEWAY_ROUNDS_PER_S = 40.0  # nominal; sizes the timed round count
WARMUP = common.D - 1      # readings before a gauge's first full window
#: Latency percentiles are taken per block of this many rounds (about
#: a second; twenty blocks at 16 s), then the median over the blocks.
BLOCK_ROUNDS = 32

# -- serve_tcp -----------------------------------------------------------------
TCP_GAUGES = 128
TCP_RATE = 1600.0          # offered events/s, open loop: ~40 % of one core
#: A run whose generator sent later than this (p99) measured its own
#: lateness, not the server; it is reported as a failed check.
LAG_LIMIT_MS = 20.0
#: Latency percentiles are taken per block of this many seconds of the
#: paced schedule (3 200 events each).
BLOCK_S = 2.0


def gauge_seed(seed: int, gauge: int) -> int:
    """Seed of one gauge's synthetic Venice feed."""
    return seed * 100_003 + gauge


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Report:
    """What the workload hands back to ``run.py``."""

    def __init__(self, t_spawn: float) -> None:
        self.t_spawn = t_spawn
        #: Time spent generating the benchmark's inputs, left out of setup_s.
        self.inputs_s = 0.0
        self.out: Dict[str, object] = {
            "metrics": {}, "layers": {}, "accounting": {}, "failures": [],
            "attempted": 0, "failed": 0,
        }

    def setup_done(self) -> None:
        self.out["setup_s"] = time.monotonic() - self.t_spawn - self.inputs_s

    def check(self, ok: bool, message: str) -> None:
        failures = self.out["failures"]
        if not ok and len(failures) < 20:
            failures.append(message)

    def emit(self) -> None:
        print(json.dumps(self.out), flush=True)


def latency_metrics(seconds: List[float]) -> Dict[str, float]:
    import numpy as np

    p50, p90, p99 = np.quantile(np.asarray(seconds) * 1000.0, [0.50, 0.90, 0.99])
    return {"latency_p50_ms": float(p50), "latency_p90_ms": float(p90),
            "latency_p99_ms": float(p99)}


def block_latency_metrics(blocks: List[List[float]]) -> Dict[str, float]:
    """Each percentile taken per block, then the median over the blocks.

    On a shared machine that switches between fast and slow spells of a
    few seconds, a run's operation times are bimodal: a percentile over
    the whole run, or a mean over blocks, follows the slowest spell the
    run happened to meet.  The median over blocks reads the run's
    typical block and ignores spells that cover under half of them.
    """
    per_block = [latency_metrics(b) for b in blocks if b]
    return {key: statistics.median(p[key] for p in per_block)
            for key in per_block[0]}


def block_slices(n: int, size: int) -> List[slice]:
    """Consecutive blocks of ``size`` items; a partial tail joins the last."""
    starts = list(range(0, max(n - size, 0) + 1, size))
    return [slice(lo, n if k == len(starts) - 1 else lo + size)
            for k, lo in enumerate(starts)]


def layer_metrics(agg: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics every workload reports (0 = layer idle)."""
    g = agg.get
    windows = g("a:compiled:predict", 0) + g("a:compiled:predict_windows", 0) \
        + g("a:compiled:predict_windowsT", 0)
    rules = g("b:compiled:predict", 0) + g("b:compiled:predict_windows", 0) \
        + g("b:compiled:predict_windowsT", 0)
    offspring = g("a:population_state:try_replace", 0)
    return {
        "selection.busy_s": g("busy:selection", 0.0),
        "operators.busy_s": g("busy:operators", 0.0),
        "matching.busy_s": g("busy:matching", 0.0),
        "regression.busy_s": g("busy:regression", 0.0),
        "replacement.busy_s": g("busy:replacement", 0.0),
        "population_state.busy_s": g("busy:population_state", 0.0),
        "engine.offspring": offspring,
        "engine.accept_ratio": (
            g("b:population_state:try_replace", 0) / offspring if offspring else 0.0
        ),
        "compiled.busy_s": g("busy:compiled", 0.0),
        "compiled.calls": g("calls:compiled", 0),
        "compiled.windows": windows,
        "compiled.rules_per_window": rules / windows if windows else 0.0,
        "gateway.busy_s": g("busy:gateway", 0.0),
        "gateway.self_s": g("self:gateway", 0.0),
        "policy.busy_s": g("busy:policy", 0.0),
        # on_batch minus its compiled and policy children; the shadow
        # scorer's own bookkeeping counts as adaptation work.
        "adaptation.on_batch_s": g("self:adaptation:on_batch", 0.0)
        + g("self:adaptation:shadow", 0.0),
        "adaptation.poll_s": g("busy:adaptation:poll", 0.0),
        "adaptation.shadowed_windows": g("a:adaptation:shadow", 0),
    }


# -- train_venice --------------------------------------------------------------


def train_venice(args, report: Report, tracer) -> None:
    import numpy as np

    import oracle
    from repro.core.config import venice_config
    from repro.core.multirun import multirun
    from repro.series.datasets import load_venice

    split = load_venice(scale="paper")
    train, val = split.windows(common.D, common.HORIZON)
    config = venice_config(horizon=common.HORIZON, scale="paper").replace(
        generations=GENERATIONS
    )
    jobs = max(1, int(args.work_seconds / TRAIN_JOB_S + 0.5))
    report.setup_done()
    if args.setup_only:
        return

    job_s: List[float] = []
    cpu_s = 0.0
    offspring = 0
    accepted = 0
    outcomes = []
    t_first = perf_counter()
    for job in range(jobs):
        root_seed = args.seed * 1000 + job
        span = tracer.begin("bench:job", True) if tracer else None
        c0, t0 = process_time(), perf_counter()
        result = multirun(
            train, config, coverage_target=2.0, max_executions=EXECUTIONS,
            root_seed=root_seed,
        )
        batch = result.system.predict(val.X)
        t1, c1 = perf_counter(), process_time()
        if span is not None:
            tracer.end(span)
        job_s.append(t1 - t0)
        cpu_s += c1 - c0
        offspring += config.generations * len(result.executions)
        accepted += sum(e.replacements for e in result.executions)
        # Keep only what the checks need, so the pools' match masks do
        # not pile up in the peak RSS.
        outcomes.append((
            len(result.executions),
            [oracle.from_rule(r) for r in result.system.rules],
            [r.n_matched for r in result.system.rules],
            batch,
        ))
        del result
    rss = peak_rss_mb()

    # Checks, after the timed jobs (and after the RSS reading).
    for job, (executions, rules, matched, batch) in enumerate(outcomes):
        report.check(executions == EXECUTIONS, f"job {job}: {executions} executions")
        recount = oracle.count_matches(rules, train.X)
        stale = sum(1 for n, m in zip(matched, recount) if n != m)
        report.check(stale == 0, f"job {job}: {stale} rules' matched count != recount")
        values, counts = oracle.forecast(rules, val.X)
        report.check(np.array_equal(values, batch.values, equal_nan=True)
                     and np.array_equal(counts, batch.n_rules_used),
                     f"job {job}: validation forecasts differ from the oracle")
        coverage = float((counts > 0).mean())
        report.check(coverage >= MIN_COVERAGE,
                     f"job {job}: validation coverage {coverage:.4f} < {MIN_COVERAGE}")
        hit = counts > 0
        rmse = float(np.sqrt(np.mean((values[hit] - val.y[hit]) ** 2)))
        persistence = float(np.sqrt(np.mean((val.X[hit, -1] - val.y[hit]) ** 2)))
        report.check(rmse < persistence,
                     f"job {job}: RMSE {rmse:.3f} >= persistence {persistence:.3f}")

    report.out["metrics"] = dict(
        latency_metrics(job_s),
        events_per_s=offspring / sum(job_s),
        cpu_us_per_event=cpu_s / offspring * 1e6,
        peak_rss_mb=rss,
    )
    report.out["unit_s"] = statistics.median(job_s)
    report.out["attempted"] = offspring + jobs * len(val)
    report.out["accounting"] = {
        "training_jobs": jobs,
        "offspring_evaluated": offspring,
        "offspring_accepted": accepted,
        "validation_windows": jobs * len(val),
    }
    if tracer:
        from tracing import summarize

        agg = summarize(tracer.spans, t_lo=t_first)
        layers = layer_metrics(agg)
        layers["trace.unattributed_s"] = agg.get("self:bench", 0.0)
        report.out["layers"] = layers


# -- gateway_adaptive ----------------------------------------------------------


def gateway_adaptive(args, report: Report, tracer) -> None:
    import shutil

    import numpy as np

    # Retrains import the orchestrator lazily; ``repro serve --adapt``
    # pays that import at start-up, so set-up does too.
    import repro.analysis.orchestrator  # noqa: F401
    import oracle
    from repro.analysis.scenarios import get_scenario
    from repro.series.venice import venice_series
    from repro.service.adaptation import AdaptationManager
    from repro.service.gateway import ForecastService
    from repro.service.policy import PolicyEngine, PolicySpec
    from repro.service.registry import ModelRegistry

    rounds = max(1, int(args.work_seconds * GATEWAY_ROUNDS_PER_S + 0.5))
    total = WARMUP + rounds
    t_in = time.monotonic()
    feeds = np.array([
        venice_series(total, seed=gauge_seed(args.seed, g)) for g in range(GAUGES)
    ])
    report.inputs_s = time.monotonic() - t_in
    registry_dir = os.path.join(args.work, "registry")
    shutil.copytree(common.POOL_DIR, registry_dir)
    registry = ModelRegistry(registry_dir)
    service = ForecastService(registry)
    names = [f"g{g:03d}" for g in range(GAUGES)]
    for name in names:
        service.bind(name, common.MODEL)
    spec = PolicySpec.from_dict(
        dict(get_scenario("venice_alerting").options_dict()["policy"])
    )
    policy = PolicyEngine(spec)
    service.attach_policy(policy)
    manager = AdaptationManager(
        service, registry, state_root=os.path.join(args.work, "adapt")
    )
    report.setup_done()
    if args.setup_only:
        return

    values = np.empty((total, GAUGES))
    used = np.empty((total, GAUGES), dtype=np.int32)
    versions = np.empty((total, GAUGES), dtype=np.int32)
    flags = np.empty((total, GAUGES), dtype=bool)
    ready = np.empty((total, GAUGES), dtype=bool)
    latencies: List[float] = []
    walls: List[float] = []
    cpus: List[float] = []
    misordered = bad_alerts = 0
    threshold = spec.alert_above
    t_first = None
    for r in range(total):
        events = list(zip(names, feeds[:, r].tolist()))
        timed = r >= WARMUP
        if timed and t_first is None:
            t_first = perf_counter()
        span = tracer.begin("bench:round", True) if (tracer and timed) else None
        c0, t0 = process_time(), perf_counter()
        results = service.ingest(events)
        t1 = perf_counter()
        manager.poll()
        t2, c1 = perf_counter(), process_time()
        if span is not None:
            tracer.end(span)
        if timed:
            latencies.append(t1 - t0)
            walls.append(t2 - t0)
            cpus.append(c1 - c0)
        # Record for the checks, outside the timed region.
        if len(results) != GAUGES:
            misordered += GAUGES
            continue
        misordered += sum(
            1 for f, name in zip(results, names) if f.stream != name or f.t != r
        )
        values[r] = [f.value for f in results]
        used[r] = [f.n_rules_used for f in results]
        versions[r] = [f.version for f in results]
        flags[r] = [f.predicted for f in results]
        ready[r] = [f.ready for f in results]
        for f in results:
            d = f.decision
            if d.action == "alert" and "threshold-above" in d.reasons \
                    and not f.value > threshold:
                bad_alerts += 1
    rss = peak_rss_mb()

    n_events = total * GAUGES
    report.check(misordered == 0,
                 f"{misordered} forecasts missing or out of per-stream order")
    report.check(not ready[:WARMUP].any() and ready[WARMUP:].all(),
                 "ready flags disagree with the window warm-up")
    # Every ready forecast against the oracle for the version it names.
    manifest = json.load(open(os.path.join(registry_dir, "manifest.json")))
    entries = manifest["models"][common.MODEL]["versions"]
    windows = np.lib.stride_tricks.sliding_window_view(feeds, common.D, axis=1)
    wrong = 0
    for version in np.unique(versions[WARMUP:]).tolist():
        r_idx, g_idx = np.nonzero(versions[WARMUP:] == version)
        r_idx = r_idx + WARMUP
        rules = oracle.load_snapshot(
            os.path.join(registry_dir, entries[str(version)]["path"])
        )
        want, counts = oracle.forecast(rules, windows[g_idx, r_idx - WARMUP])
        got = values[r_idx, g_idx]
        same = ((got == want) | (np.isnan(got) & np.isnan(want))) \
            & (used[r_idx, g_idx] == counts) & (flags[r_idx, g_idx] == (counts > 0))
        wrong += int((~same).sum())
    report.check(wrong == 0, f"{wrong} forecasts differ from the oracle")
    report.check(bool(np.isnan(values[:WARMUP]).all()), "warm-up forecast carries a value")
    pstats = policy.stats()
    total_decisions = sum(pstats[k] for k in ("passes", "alerts", "suppressions",
                                              "abstentions"))
    report.check(total_decisions == pstats["evaluated"] == n_events,
                 f"policy counters sum to {total_decisions}, evaluated "
                 f"{pstats['evaluated']}, events {n_events}")
    report.check(bad_alerts == 0,
                 f"{bad_alerts} threshold-above alerts at or below {threshold}")
    launched = sum(1 for e in manager.events if e["kind"] == "retrain-start")
    report.check(launched == manager.retrains,
                 f"{launched} retrains launched, {manager.retrains} completed")

    astats = manager.stats()
    report.out["metrics"] = dict(
        block_latency_metrics(
            [latencies[b] for b in block_slices(rounds, BLOCK_ROUNDS)]
        ),
        events_per_s=rounds * GAUGES / sum(walls),
        cpu_us_per_event=sum(cpus) / (rounds * GAUGES) * 1e6,
        peak_rss_mb=rss,
    )
    report.out["unit_s"] = sum(walls) / rounds
    report.out["attempted"] = n_events
    report.out["accounting"] = {
        "events_sent": n_events,
        "answered": n_events - misordered,
        "errored": 0,
        "shed": 0,
        "warmup_rounds": WARMUP,
        "timed_rounds": rounds,
        "drift_events": astats["drift_events"],
        "retrains_launched": launched,
        "retrains_completed": manager.retrains,
        "promotions": astats["promotions"],
        "rejected": astats["rejected"],
        "rollbacks": astats["rollbacks"],
        "alerts": pstats["alerts"],
    }
    if tracer:
        from tracing import summarize

        agg = summarize(tracer.spans, t_lo=t_first)
        layers = layer_metrics(agg)
        layers["adaptation.drift_events"] = astats["drift_events"]
        layers["adaptation.retrains"] = manager.retrains
        layers["trace.unattributed_s"] = agg.get("self:bench", 0.0)
        report.out["layers"] = layers


# -- serve_tcp -----------------------------------------------------------------


def proc_cpu_s(pid: int) -> float:
    """CPU seconds a process has run, summed over its threads.

    Read from ``/proc/<pid>/task/*/schedstat`` (nanoseconds) where the
    kernel provides it, else from ``/proc/<pid>/stat`` (clock ticks).
    """
    total = 0
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0])
        return total / 1e9
    except (FileNotFoundError, ValueError, IndexError):
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def parse_metrics(text: str) -> Dict[str, object]:
    """Batch counters and the global ingest-latency histogram."""
    out: Dict[str, object] = {"buckets": []}
    for line in text.splitlines():
        if line.startswith("repro_server_batches_total "):
            out["batches"] = float(line.split()[1])
        elif line.startswith("repro_server_batched_events_total "):
            out["events"] = float(line.split()[1])
        elif line.startswith('repro_server_ingest_latency_seconds_bucket{le="'):
            le = line.split('"')[1]
            out["buckets"].append((math.inf if le == "+Inf" else float(le),
                                   float(line.rsplit(" ", 1)[1])))
    return out


def histogram_quantile(q: float, before, after) -> float:
    """Prometheus-style quantile of the bucket increments, in ms."""
    bounds = [b for b, _ in after]
    cum = [a - b for (_, a), (_, b) in zip(after, before)]
    total = cum[-1]
    if total <= 0:
        return 0.0
    rank = q * total
    prev_bound, prev_cum = 0.0, 0.0
    for bound, c in zip(bounds, cum):
        if c >= rank:
            if math.isinf(bound):
                return prev_bound * 1000.0
            width = c - prev_cum
            frac = (rank - prev_cum) / width if width else 0.0
            return (prev_bound + (bound - prev_bound) * frac) * 1000.0
        prev_bound, prev_cum = bound, c
    return prev_bound * 1000.0


async def _http_get(port: int, path: str) -> str:
    import asyncio

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    body = await reader.read()
    writer.close()
    await writer.wait_closed()
    return body.decode().split("\r\n\r\n", 1)[1]


def serve_tcp(args, report: Report, tracer) -> None:
    import asyncio
    import signal
    import subprocess

    import numpy as np

    import oracle
    from repro.series.venice import venice_series

    paced = max(TCP_GAUGES, int(TCP_RATE * args.work_seconds + 0.5))
    steps = WARMUP + -(-paced // TCP_GAUGES)
    t_in = time.monotonic()
    feeds = np.array([
        venice_series(steps, seed=gauge_seed(args.seed, g)) for g in range(TCP_GAUGES)
    ])
    names = [f"g{g:03d}" for g in range(TCP_GAUGES)]
    n_warm = WARMUP * TCP_GAUGES
    n_events = n_warm + paced
    # Event i is reading t = i // G of gauge g = i % G; gauges 0..63 ride
    # connection 0, the rest connection 1; each connection's lines
    # alternate NDJSON and ``stream,value``.
    conn_of, lines = [], []
    for i in range(n_events):
        g, t = i % TCP_GAUGES, i // TCP_GAUGES
        v = float(feeds[g, t])
        conn_of.append(0 if g < TCP_GAUGES // 2 else 1)
        if g % 2 == 0:
            lines.append(json.dumps({"stream": names[g], "value": v}).encode() + b"\n")
        else:
            lines.append(f"{names[g]},{v!r}\n".encode())
    report.inputs_s = time.monotonic() - t_in

    paced_phase: Dict[str, float] = {}

    async def drive(server, port: int) -> None:
        conns = [await asyncio.open_connection("127.0.0.1", port) for _ in range(2)]
        report.setup_done()
        if args.setup_only:
            for _, writer in conns:
                writer.close()
                await writer.wait_closed()
            return

        n = len(lines)
        per_conn = [[i for i in range(n) if conn_of[i] == c] for c in range(2)]
        replies: List[List[bytes]] = [[], []]
        recv_t: List[List[float]] = [[], []]
        send_t = [0.0] * n
        due_t = [0.0] * n

        async def read(c: int) -> None:
            reader = conns[c][0]
            got, stamps = replies[c], recv_t[c]
            for _ in range(len(per_conn[c])):
                line = await reader.readline()
                if not line:
                    return
                stamps.append(perf_counter())
                got.append(line)

        async def send(lo: int, hi: int) -> None:
            """Open loop: event i is due at start + (i - lo) / rate."""
            start = perf_counter() + 0.01
            i = lo
            writers = [w for _, w in conns]
            while i < hi:
                now = perf_counter()
                due = start + (i - lo) / TCP_RATE
                if now < due:
                    await asyncio.sleep(due - now)
                    continue
                chunks: List[List[bytes]] = [[], []]
                j = i
                while j < hi and start + (j - lo) / TCP_RATE <= now:
                    chunks[conn_of[j]].append(lines[j])
                    j += 1
                for c in (0, 1):
                    if chunks[c]:
                        writers[c].write(b"".join(chunks[c]))
                sent = perf_counter()
                for k in range(i, j):
                    due_t[k] = start + (k - lo) / TCP_RATE
                    send_t[k] = sent
                i = j
                for w in writers:
                    if w.transport.get_write_buffer_size() > 1 << 20:
                        await w.drain()

        readers = [asyncio.ensure_future(read(c)) for c in (0, 1)]

        async def wait_replies(count: int, timeout: float) -> None:
            deadline = perf_counter() + timeout
            while sum(len(r) for r in replies) < count and perf_counter() < deadline:
                if all(t.done() for t in readers):
                    break
                await asyncio.sleep(0.005)

        # Warm-up: fill every gauge's window at the paced rate, untimed.
        await send(0, n_warm)
        await wait_replies(n_warm, 60.0)
        before = parse_metrics(await _http_get(port, "/metrics")) if tracer else None
        cpu0 = proc_cpu_s(server.pid)
        t_lo = perf_counter()
        await send(n_warm, n)
        await wait_replies(n, 60.0 + (n - n_warm) / TCP_RATE)
        t_hi = perf_counter()
        cpu1 = proc_cpu_s(server.pid)
        after = parse_metrics(await _http_get(port, "/metrics")) if tracer else None
        rss = proc_peak_rss_mb(server.pid)
        for _, writer in conns:
            writer.close()
            await writer.wait_closed()
        for t in readers:
            t.cancel()
        await asyncio.gather(*readers, return_exceptions=True)

        # -- checks ----------------------------------------------------------------
        answered = sum(len(r) for r in replies)
        report.check(answered == n, f"{answered} replies to {n} lines")
        decoded: List[Optional[dict]] = [None] * n
        errored = shed = misordered = 0
        for c in (0, 1):
            for idx, raw in zip(per_conn[c], replies[c]):
                reply = json.loads(raw)
                if "error" in reply:
                    errored += 1
                    shed += reply["error"] == "overloaded"
                    continue
                g, t = idx % TCP_GAUGES, idx // TCP_GAUGES
                if reply.get("stream") != names[g] or reply.get("t") != t:
                    misordered += 1
                decoded[idx] = reply
        report.check(errored == 0, f"{errored} error replies ({shed} shed)")
        report.check(misordered == 0, f"{misordered} replies out of order")
        ready_idx = np.arange(n_warm, n)
        g_idx, t_idx = ready_idx % TCP_GAUGES, ready_idx // TCP_GAUGES
        windows = np.lib.stride_tricks.sliding_window_view(feeds, common.D, axis=1)
        rules = oracle.load_snapshot(pool_snapshot_path())
        want, counts = oracle.forecast(rules, windows[g_idx, t_idx - WARMUP])
        wrong = 0
        for k, idx in enumerate(ready_idx.tolist()):
            reply = decoded[idx]
            if reply is None:
                continue
            value = reply["value"]
            expect = float(want[k])
            ok = (reply["ready"] is True and reply["version"] == 1
                  and reply["n_rules_used"] == int(counts[k])
                  and reply["predicted"] == bool(counts[k] > 0)
                  and (value == expect if value is not None else math.isnan(expect)))
            wrong += not ok
        for idx in range(n_warm):
            reply = decoded[idx]
            if reply is not None and (reply["ready"] or reply["value"] is not None):
                wrong += 1
        report.check(wrong == 0, f"{wrong} replies differ from the oracle")

        # -- measurements ------------------------------------------------------------
        lat: Dict[int, float] = {}
        for c in (0, 1):
            for idx, stamp in zip(per_conn[c], recv_t[c]):
                if idx >= n_warm:
                    lat[idx] = stamp - due_t[idx]
        lags_ms = [(send_t[i] - due_t[i]) * 1000.0 for i in range(n_warm, n)]
        lag_p99 = float(np.quantile(lags_ms, 0.99))
        report.check(lag_p99 <= LAG_LIMIT_MS,
                     f"generator lag p99 {lag_p99:.2f} ms > {LAG_LIMIT_MS} ms: run invalid")
        paced = n - n_warm
        # Events are due at a fixed rate, so a block of BLOCK_S seconds of
        # the schedule is a fixed run of consecutive events.
        per_event = [lat.get(i) for i in range(n_warm, n)]
        blocks = [[x for x in per_event[b] if x is not None]
                  for b in block_slices(paced, int(BLOCK_S * TCP_RATE))]
        report.out["metrics"] = dict(
            block_latency_metrics(blocks),
            events_per_s=paced / (t_hi - t_lo),
            cpu_us_per_event=(cpu1 - cpu0) / paced * 1e6,
            peak_rss_mb=rss,
        )
        report.out["unit_s"] = (cpu1 - cpu0) / paced
        report.out["attempted"] = n
        report.out["failed"] = errored + (n - answered)
        report.out["accounting"] = {
            "events_sent": n,
            "answered": answered - errored,
            "errored": errored - shed,
            "shed": shed,
            "warmup_events": n_warm,
            "paced_events": paced,
        }
        if tracer:
            paced_phase.update(t_lo=t_lo, t_hi=t_hi, cpu_s=cpu1 - cpu0)
            db = after["batches"] - before["batches"]
            report.out["layers"] = {
                "server.batches": db,
                "server.batch_events": (after["events"] - before["events"]) / db if db else 0.0,
                "server.queue_wait_p50_ms": histogram_quantile(0.50, before["buckets"],
                                                               after["buckets"]),
                "server.queue_wait_p99_ms": histogram_quantile(0.99, before["buckets"],
                                                               after["buckets"]),
                "generator.lag_p99_ms": lag_p99,
            }

    trace_path = os.path.join(args.work, "server-spans.json")
    cmd = [sys.executable, os.path.join(common.HERE, "serve_launcher.py")]
    if tracer:
        cmd += ["--trace-out", trace_path]
    cmd += ["serve", "--registry", common.POOL_DIR, "--listen", "127.0.0.1:0",
            "--batch", "64"]
    for name in names:
        cmd += ["--bind", f"{name}={common.MODEL}"]
    server = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=common.child_env(),
                              cwd=common.ROOT, text=True)
    try:
        port = None
        for line in server.stdout:
            if line.startswith("listening on "):
                port = int(line.split()[2].rsplit(":", 1)[1])
                break
        if port is None:
            raise RuntimeError("server exited before listening")
        asyncio.run(drive(server, port))
    finally:
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=20)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        server.stdout.close()
    if tracer and not args.setup_only:
        from tracing import summarize

        with open(trace_path) as fh:
            spans = json.load(fh)
        agg = summarize(spans, t_lo=paced_phase["t_lo"], t_hi=paced_phase["t_hi"])
        layers = report.out["layers"]
        layers.update(layer_metrics(agg))
        layers["server.parse_s"] = agg.get("busy:server:parse", 0.0)
        layers["server.encode_s"] = agg.get("busy:server:encode", 0.0)
        # Spans carry the server's process CPU time (serve_launcher.py),
        # the same clock as cpu_s.
        other = paced_phase["cpu_s"] - agg["root_s"]
        layers["server.other_s"] = other
        layers["trace.unattributed_s"] = other


def pool_snapshot_path() -> str:
    """The committed pool's snapshot file, read from its manifest."""
    with open(os.path.join(common.POOL_DIR, "manifest.json")) as fh:
        entry = json.load(fh)["models"][common.MODEL]["versions"]["1"]
    return os.path.join(common.POOL_DIR, entry["path"])


WORKLOAD_FNS = {
    "train_venice": train_venice,
    "gateway_adaptive": gateway_adaptive,
    "serve_tcp": serve_tcp,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one perfbench workload")
    parser.add_argument("workload", choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-seconds", type=float, required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    common.use_repo()
    report = Report(args.t_spawn)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install(tracing.Tracer())
    WORKLOAD_FNS[args.workload](args, report, tracer)
    report.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
