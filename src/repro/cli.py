"""Command-line interface: ``repro <experiment> [options]``.

Runs any paper experiment from the shell::

    repro table1 --horizons 1 4 12 --scale bench --seed 1
    repro table2
    repro table3 --jobs 4
    repro figure2
    repro ablation-emax

and any *registered scenario* — including resumable multi-scenario
sweeps — through the orchestrator::

    repro experiment list                 # registry summary
    repro experiment list --markdown      # docs/scenarios.md catalog
    repro experiment run table1 table2 table3 --jobs 4
    repro experiment run lorenz noise-robustness --state-dir .repro/sweep
    repro experiment resume --state-dir .repro/sweep

``experiment run`` memoizes finished tasks on disk (keyed on the full
spec hash, seed and code version) and checkpoints after every batch, so
a killed sweep resumes where it stopped instead of restarting.

The serving subsystem (see ``docs/serving.md``) has two commands: the
model-registry lifecycle ::

    repro models register venice-h1 --snapshot pool.json --promote
    repro models list
    repro models show venice-h1
    repro models promote venice-h1 2
    repro models rollback venice-h1

and the multi-stream gateway, which ingests ``stream,value`` lines from
stdin (or replays a CSV into one stream) and emits one JSON line per
event — or, with ``--listen``, runs the asyncio network front-end
(TCP line protocol + HTTP ``/ingest`` ``/metrics`` ``/healthz``,
adaptive micro-batching, backpressure) ::

    repro serve --bind gauge=venice-h1 --csv tide.csv --stats
    printf 'a,0.5\\nb,0.7\\n' | repro serve --bind a=m1 --bind b=m1@2
    repro serve --bind a=m1 --bind b=m1@2 --listen 0.0.0.0:7071

With ``--adapt`` the gateway closes the loop — per-stream drift
detection, background challenger retraining and shadow-scored
promote/rollback (:mod:`repro.service.adaptation`); ``repro adapt
status`` renders the ``status.json`` the loop writes ::

    repro serve --bind gauge=venice-h1 --csv tide.csv --adapt --quiet
    repro adapt status --state-dir .repro/adaptation

With ``--policy FILE`` the gateway scores through the rich uncertainty
path and a guardrail policy (:mod:`repro.service.policy`) stamps every
forecast with a decision — alerts with hysteresis and rate limits,
suppressions on low confidence/wide intervals, abstentions on thin
rule coverage; ``repro policy check`` validates a spec file ::

    repro serve --bind gauge=venice-h1 --csv tide.csv --policy alerting.json
    repro policy check alerting.json

The benchmark subsystem (see ``docs/benchmarking.md``) runs bench
areas and gates perf regressions against the committed
``BENCH_<area>.json`` trajectories ::

    repro bench list
    repro bench run parallel --tiny
    repro bench compare --baseline /tmp/base/BENCH_parallel.json --tolerance 0.25

Each classic command prints the paper-layout table (see
:mod:`repro.analysis.tables`) and, with ``--markdown``, the
paper-vs-measured markdown block used in EXPERIMENTS.md.  Every
command that fans work out accepts ``--jobs N`` and ``--backend
{serial,process,shm}``; ``shm`` is the zero-copy shared-memory
backend (bitwise-identical results, large arrays routed by handle).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterator, List, Optional, Sequence, Tuple

from .io import load_rule_system_with_metadata, read_series_csv
from .parallel.backends import (
    Backend,
    ProcessPoolBackend,
    SerialBackend,
    get_backend,
)
from .service import ForecastService, ModelRegistry, RegistryError

__all__ = [
    "main",
    "build_parser",
    "DEFAULT_STATE_DIR",
    "DEFAULT_REGISTRY_DIR",
    "DEFAULT_ADAPT_STATE_DIR",
]

#: Where ``experiment run``/``resume`` checkpoint when --state-dir is omitted.
DEFAULT_STATE_DIR = ".repro/experiments/default"

#: Model registry root used by ``models``/``serve`` when --registry is omitted.
DEFAULT_REGISTRY_DIR = ".repro/registry"

#: Adaptation state root (retrain checkpoints + status.json) for
#: ``serve --adapt`` / ``adapt status`` when --adapt-state-dir is omitted.
DEFAULT_ADAPT_STATE_DIR = ".repro/adaptation"


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables/figures from 'Time Series Forecasting by "
            "means of Evolutionary Algorithms' (IPPS 2007)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def backend_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for GA executions (default: "
                            "1 without --backend, all available cores with "
                            "a named parallel backend)")
        p.add_argument("--backend", choices=("serial", "process", "shm"),
                       default=None,
                       help="execution backend (default: process pool when "
                            "--jobs > 1, else serial; 'shm' routes large "
                            "arrays through zero-copy shared memory — "
                            "bitwise-identical results, less serialization)")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", choices=("bench", "paper"), default="bench",
                       help="workload scale (paper scale takes hours)")
        p.add_argument("--seed", type=int, default=1, help="root RNG seed")
        backend_args(p)
        p.add_argument("--markdown", action="store_true",
                       help="also print the paper-vs-measured markdown block")
        p.add_argument("--no-incremental", action="store_true",
                       help="disable the engine's incremental population "
                            "state (full per-generation recomputation; "
                            "A/B baseline, identical results)")
        p.add_argument("--no-compiled", action="store_true",
                       help="score predictions through the per-rule "
                            "reference loop instead of the compiled "
                            "batch path (A/B baseline, identical results)")

    p1 = sub.add_parser("table1", help="Venice Lagoon (Table 1)")
    common(p1)
    p1.add_argument("--horizons", type=int, nargs="+",
                    default=[1, 4, 12, 24, 28, 48, 72, 96])

    p2 = sub.add_parser("table2", help="Mackey-Glass (Table 2)")
    common(p2)
    p2.add_argument("--horizons", type=int, nargs="+", default=[50, 85])

    p3 = sub.add_parser("table3", help="Sunspots (Table 3)")
    common(p3)
    p3.add_argument("--horizons", type=int, nargs="+", default=[1, 4, 8, 12, 18])

    pf = sub.add_parser("figure2", help="Unusual high-tide segment (Figure 2)")
    common(pf)

    for name in ("ablation-init", "ablation-replacement", "ablation-emax",
                 "ablation-pooling"):
        pa = sub.add_parser(name, help=f"{name} study")
        common(pa)

    # -- the orchestrator surface --------------------------------------------

    pe = sub.add_parser(
        "experiment",
        help="scenario registry: list, run and resume orchestrated sweeps",
    )
    esub = pe.add_subparsers(dest="exp_command", required=True)

    el = esub.add_parser("list", help="show registered scenarios")
    el.add_argument("--markdown", action="store_true",
                    help="emit the full generated catalog "
                         "(docs/scenarios.md is this output)")

    er = esub.add_parser(
        "run", help="run one or more scenarios through the orchestrator"
    )
    er.add_argument("scenarios", nargs="+", metavar="SCENARIO",
                    help="registered scenario names (see 'experiment list')")
    er.add_argument("--scale", choices=("bench", "paper"), default="bench")
    er.add_argument("--seed", type=int, default=None,
                    help="root seed override (default: each spec's seed)")
    backend_args(er)
    er.add_argument("--state-dir", default=DEFAULT_STATE_DIR,
                    help="checkpoint directory (plan + manifest + cache); "
                         f"default {DEFAULT_STATE_DIR}")
    er.add_argument("--cache-dir", default=None,
                    help="memo cache directory (default: <state-dir>/cache)")
    er.add_argument("--no-state", action="store_true",
                    help="no checkpoint; no memo cache either unless "
                         "--cache-dir is given explicitly")
    er.add_argument("--max-tasks", type=int, default=None,
                    help="execute at most N tasks then stop at a "
                         "checkpoint (finish later with 'resume')")
    er.add_argument("--no-incremental", action="store_true")
    er.add_argument("--no-compiled", action="store_true")

    es = esub.add_parser("resume", help="continue a checkpointed sweep")
    es.add_argument("--state-dir", default=DEFAULT_STATE_DIR)
    es.add_argument("--cache-dir", default=None)
    backend_args(es)
    es.add_argument("--max-tasks", type=int, default=None)

    # -- the serving surface -------------------------------------------------

    pm = sub.add_parser(
        "models",
        help="model registry: register, list, promote, rollback versions",
    )
    msub = pm.add_subparsers(dest="models_command", required=True)

    def registry_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--registry", default=DEFAULT_REGISTRY_DIR,
                       help=f"registry root (default {DEFAULT_REGISTRY_DIR})")

    ml = msub.add_parser("list", help="summarize all registered models")
    registry_arg(ml)

    mw = msub.add_parser("show", help="list every version of one model")
    mw.add_argument("name")
    registry_arg(mw)

    mr = msub.add_parser(
        "register", help="import a rule-system snapshot as a new version"
    )
    mr.add_argument("name", help="model name")
    mr.add_argument("--snapshot", required=True,
                    help="JSON snapshot file (io.serialize format)")
    mr.add_argument("--promote", action="store_true",
                    help="promote the new version immediately")
    registry_arg(mr)

    mp = msub.add_parser("promote", help="promote a version for serving")
    mp.add_argument("name")
    mp.add_argument("version", type=int)
    registry_arg(mp)

    mb = msub.add_parser("rollback", help="undo the last promotion")
    mb.add_argument("name")
    registry_arg(mb)

    ps = sub.add_parser(
        "serve",
        help="multi-stream forecast gateway (stdin or CSV replay -> "
             "JSON lines)",
    )
    ps.add_argument("--registry", default=DEFAULT_REGISTRY_DIR,
                    help=f"registry root (default {DEFAULT_REGISTRY_DIR})")
    ps.add_argument("--bind", action="append", default=[], metavar="SPEC",
                    required=True,
                    help="STREAM=MODEL[@VERSION]; repeat for more streams "
                         "(omitting @VERSION binds the promoted version)")
    ps.add_argument("--csv", default=None,
                    help="replay this series file into the (single) bound "
                         "stream instead of reading stdin")
    ps.add_argument("--column", type=int, default=None,
                    help="CSV column to read (default: last)")
    ps.add_argument("--batch", type=int, default=64,
                    help="micro-batch size: events buffered per scoring "
                         "pass (default 64)")
    ps.add_argument("--listen", default=None, metavar="HOST:PORT",
                    help="run the asyncio network front-end instead of "
                         "reading stdin: TCP line ingest + HTTP /ingest, "
                         "/metrics, /healthz on one port (PORT 0 picks a "
                         "free port)")
    ps.add_argument("--workers", type=int, default=1,
                    help="shard streams across N worker processes "
                         "(consistent-hash routing, shared compiled "
                         "models); 1 = in-process gateway (default)")
    ps.add_argument("--queue-size", type=int, default=4096,
                    help="--listen only: global bound on queued events; a "
                         "full queue answers 'overloaded' / HTTP 429 "
                         "(default 4096)")
    ps.add_argument("--metrics-top-k", type=int, default=20,
                    help="--listen only: per-stream /metrics series cap; "
                         "only the K busiest streams get their own "
                         "labels, the rest aggregate as stream=\"other\" "
                         "(default 20)")
    ps.add_argument("--window-ms", type=float, default=50.0,
                    help="--listen only: ceiling of the adaptive flush "
                         "window in milliseconds (default 50)")
    ps.add_argument("--limit", type=int, default=None,
                    help="stop after N events")
    ps.add_argument("--quiet", action="store_true",
                    help="suppress per-event JSON lines")
    ps.add_argument("--stats", action="store_true",
                    help="print a final service-stats JSON object")
    ps.add_argument("--adapt", action="store_true",
                    help="close the loop: per-stream drift detection, "
                         "background challenger retraining, shadow "
                         "scoring and registry-backed promote/rollback "
                         "(in-process gateway only — not with --listen "
                         "or --workers > 1; see docs/serving.md)")
    ps.add_argument("--adapt-state-dir", default=DEFAULT_ADAPT_STATE_DIR,
                    help="adaptation state root: resumable retrain "
                         "checkpoints + status.json "
                         f"(default {DEFAULT_ADAPT_STATE_DIR})")
    ps.add_argument("--adapt-jobs", type=int, default=0,
                    help="worker processes for challenger retrains "
                         "(0 = retrain serially between batches; N > 1 "
                         "fans GA executions out through the shm "
                         "backend — bitwise-identical challengers)")
    ps.add_argument("--policy", default=None, metavar="FILE",
                    help="attach a guardrail policy (JSON PolicySpec): "
                         "forecasts gain uncertainty fields and a "
                         "decision (alert/suppress/abstain with reason "
                         "codes); works with the in-process, sharded "
                         "and --listen gateways (see docs/serving.md)")

    ppol = sub.add_parser(
        "policy",
        help="guardrail policy tools: validate a spec file",
    )
    polsub = ppol.add_subparsers(dest="policy_command", required=True)
    pc = polsub.add_parser(
        "check",
        help="validate a JSON policy spec (exit 2 on any error)",
    )
    pc.add_argument("file", help="policy spec file (JSON)")
    pc.add_argument("--json", action="store_true",
                    help="print the normalized spec as JSON")

    pad = sub.add_parser(
        "adapt",
        help="online-adaptation status: drift, retrains, promotions",
    )
    asub = pad.add_subparsers(dest="adapt_command", required=True)
    ast = asub.add_parser(
        "status",
        help="summarize the status.json a 'serve --adapt' loop wrote",
    )
    ast.add_argument("--state-dir", default=DEFAULT_ADAPT_STATE_DIR,
                     help="adaptation state root "
                          f"(default {DEFAULT_ADAPT_STATE_DIR})")
    ast.add_argument("--json", action="store_true",
                     help="print the raw status.json payload")

    # -- the benchmark surface -----------------------------------------------

    pbench = sub.add_parser(
        "bench",
        help="benchmark harness: run bench areas, gate perf regressions",
    )
    bsub = pbench.add_subparsers(dest="bench_command", required=True)

    bl = bsub.add_parser("list", help="show bench areas and their files")
    del bl  # no options

    br = bsub.add_parser(
        "run", help="run bench areas (writes BENCH_<area>.json)"
    )
    br.add_argument("areas", nargs="+", metavar="AREA",
                    help="bench areas (see 'bench list')")
    br.add_argument("--bench-dir", default="benchmarks",
                    help="directory holding the bench_*.py files")
    br.add_argument("--tiny", action="store_true",
                    help="REPRO_BENCH_TINY mode (CI-sized data volumes)")
    br.add_argument("-k", dest="keyword", default="",
                    help="pytest -k selection forwarded to the benches")

    bc = bsub.add_parser(
        "compare",
        help="gate a fresh run against baseline trajectories "
             "(exit 1 on regression)",
    )
    bc.add_argument("--baseline", nargs="+", required=True, metavar="FILE",
                    help="baseline BENCH_*.json file(s)")
    bc.add_argument("--current", default=None,
                    help="current trajectory file (default: same basename "
                         "as each baseline, in the current directory)")
    bc.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional regression (default 0.25)")
    bc.add_argument("--strict", action="store_true",
                    help="gate raw throughput even across differing "
                         "environment fingerprints")
    bc.add_argument("--verbose", action="store_true",
                    help="print every compared metric, not just regressions")
    return parser


def _backend(jobs: Optional[int], name: Optional[str] = None) -> Backend:
    """Build the execution backend from --jobs/--backend flags.

    Naming a parallel backend without ``--jobs`` means "use it for
    real": the worker count falls back to every available core
    instead of silently degrading to the one-worker in-process path.
    """
    if name is not None:
        return get_backend(name, workers=jobs)  # None -> default_workers()
    jobs = 1 if jobs is None else jobs
    return ProcessPoolBackend(workers=jobs) if jobs > 1 else SerialBackend()


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


def _print_run(run, resumable: bool = True) -> None:
    """Report an orchestrated run: per-scenario tables plus a summary."""
    from .analysis.report import scenario_report

    for name in run.scenarios():
        spec = next(t.spec for t in run.tasks if t.scenario == name)
        payloads = run.payloads(name)
        planned = sum(1 for t in run.tasks if t.scenario == name)
        if not payloads:
            _print(f"{name}: 0/{planned} tasks finished")
            continue
        _print(scenario_report(spec, payloads))
        if len(payloads) < planned:
            hint = ("'repro experiment resume' completes the sweep"
                    if resumable else "no checkpoint (--no-state)")
            _print(f"({len(payloads)}/{planned} tasks finished — {hint})")
        _print("")
    _print(
        f"tasks: {run.n_executed} executed, {run.n_cached} cached, "
        f"{len(run.tasks)} planned"
        + ("" if run.complete else " (sweep incomplete)")
    )


def _experiment_main(args: argparse.Namespace) -> int:
    from .analysis import (
        ExperimentOrchestrator,
        all_scenarios,
        catalog_markdown,
        format_table,
        scenario_names,
    )

    if args.exp_command == "list":
        if args.markdown:
            sys.stdout.write(catalog_markdown())
            return 0
        rows = [
            [s.name, s.kind, s.dataset.factory, len(s.grid), s.metric,
             s.section]
            for s in all_scenarios()
        ]
        _print(format_table(
            ["Scenario", "Kind", "Dataset", "Points", "Metric", "Source"],
            rows, title="Registered scenarios",
        ))
        return 0

    backend = _backend(args.jobs, args.backend)
    try:
        if args.exp_command == "run":
            # Dedupe, order-preserving: 'run smoke smoke' means one sweep.
            args.scenarios = list(dict.fromkeys(args.scenarios))
            unknown = [s for s in args.scenarios if s not in scenario_names()]
            if unknown:
                _print(f"unknown scenario(s): {', '.join(unknown)} "
                       f"(known: {', '.join(scenario_names())})")
                return 2
            if args.no_state and args.max_tasks is not None:
                _print("--max-tasks stops at a checkpoint to finish later; "
                       "it needs one — drop --no-state")
                return 2
            # --cache-dir with --no-state still memoizes (no checkpoint).
            orchestrator = ExperimentOrchestrator(
                backend=backend,
                state_dir=None if args.no_state else args.state_dir,
                cache_dir=args.cache_dir,
            )
            run = orchestrator.run(
                args.scenarios,
                scale=args.scale,
                seed=args.seed,
                incremental=not args.no_incremental,
                compiled=not args.no_compiled,
                max_tasks=args.max_tasks,
            )
        else:  # resume
            orchestrator = ExperimentOrchestrator(
                backend=backend,
                state_dir=args.state_dir,
                cache_dir=args.cache_dir,
            )
            try:
                run = orchestrator.resume(max_tasks=args.max_tasks)
            except FileNotFoundError as exc:
                _print(str(exc))
                return 2
        _print_run(run, resumable=orchestrator.state_dir is not None)
        return 0 if run.complete else 3
    finally:
        backend.close()


def _models_main(args: argparse.Namespace) -> int:
    """The ``repro models`` registry-lifecycle subcommands."""
    from .analysis import format_table

    registry = ModelRegistry(args.registry)
    try:
        if args.models_command == "list":
            # One manifest read for the whole listing.
            rows = [
                [name, len(records),
                 f"v{promoted}" if promoted is not None else "-",
                 records[-1].n_rules, records[-1].n_lags]
                for name, (promoted, records) in registry.catalog().items()
            ]
            if not rows:
                _print(f"no models registered under {args.registry}")
                return 0
            _print(format_table(
                ["Model", "Versions", "Promoted", "Rules", "D"],
                rows, title=f"Model registry — {args.registry}",
            ))
        elif args.models_command == "show":
            catalog = registry.catalog()
            if args.name not in catalog:
                known = ", ".join(catalog) or "none"
                raise RegistryError(
                    f"unknown model {args.name!r} (registered: {known})"
                )
            promoted, records = catalog[args.name]
            rows = [
                [f"v{r.version}",
                 "promoted" if r.version == promoted else "",
                 r.n_rules, r.digest[:12],
                 r.lineage.get("task_id", "-") or "-", r.created_at]
                for r in records
            ]
            _print(format_table(
                ["Version", "Status", "Rules", "Digest", "Lineage", "Created"],
                rows, title=f"Model {args.name}",
            ))
        elif args.models_command == "register":
            system, metadata = load_rule_system_with_metadata(args.snapshot)
            record = registry.register(
                args.name, system, metadata=metadata,
                lineage={"kind": "snapshot-import", "source": args.snapshot},
                promote=args.promote,
            )
            _print(
                f"registered {record.name} v{record.version} "
                f"({record.n_rules} rules, digest {record.digest[:12]}…)"
                + (" [promoted]" if args.promote else "")
            )
        elif args.models_command == "promote":
            record = registry.promote(args.name, args.version)
            _print(f"promoted {record.name} v{record.version}")
        else:  # rollback
            record = registry.rollback(args.name)
            _print(f"rolled back {record.name} to v{record.version}")
        return 0
    except (RegistryError, ValueError, OSError) as exc:
        _print(f"error: {exc}")
        return 2


def _parse_binds(binds: Sequence[str]) -> List[Tuple[str, str, Optional[int]]]:
    """Decode ``STREAM=MODEL[@VERSION]`` bind specs."""
    parsed = []
    for spec in binds:
        stream, sep, model = spec.partition("=")
        if not sep or not stream or not model:
            raise ValueError(
                f"invalid --bind {spec!r} (expected STREAM=MODEL[@VERSION])"
            )
        version: Optional[int] = None
        model, sep, tail = model.partition("@")
        if sep:
            version = int(tail)
        parsed.append((stream, model, version))
    return parsed


def _serve_events(
    args: argparse.Namespace, streams: List[str]
) -> Iterator[Tuple[str, float]]:
    """The gateway's input: CSV replay or stdin ``stream,value`` lines.

    Malformed stdin input raises ``ValueError`` carrying the 1-based
    line number (``stdin line 7: …``), which ``_serve_main`` turns
    into a one-line diagnostic and exit code 2 — a bad feed must
    never surface as a bare traceback.
    """
    if args.csv is not None:
        if len(streams) != 1:
            raise ValueError(
                "--csv replays into exactly one stream; bind one stream "
                f"(got {len(streams)})"
            )
        for value in read_series_csv(args.csv, column=args.column):
            yield streams[0], float(value)
        return
    only = streams[0] if len(streams) == 1 else None
    for line_no, line in enumerate(sys.stdin, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        stream, sep, value = line.rpartition(",")
        if not sep:
            if only is None:
                raise ValueError(
                    f"stdin line {line_no}: {line!r} has no stream; use "
                    "'stream,value' when several streams are bound"
                )
            stream = only
            value = line
        try:
            v = float(value)
        except ValueError:
            raise ValueError(
                f"stdin line {line_no}: bad value {value!r}"
            ) from None
        if not math.isfinite(v):
            raise ValueError(
                f"stdin line {line_no}: non-finite value {value!r}; fill "
                "or drop sensor gaps upstream"
            )
        yield stream, v


def _forecast_json(forecast) -> str:
    """One output line: a :class:`repro.service.Forecast` as JSON.

    Same envelope as the network server's
    :func:`repro.service.server.forecast_to_dict` — with a policy
    attached each line carries the uncertainty fields and decision.
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
    return json.dumps(out)


def _parse_listen(spec: str) -> Tuple[str, int]:
    """Decode ``HOST:PORT`` (host may be empty for all interfaces)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.lstrip("-").isdigit() or int(port) < 0:
        raise ValueError(
            f"invalid --listen {spec!r} (expected HOST:PORT)"
        )
    return host or "0.0.0.0", int(port)


def _serve_network(args: argparse.Namespace, service, streams) -> int:
    """The ``repro serve --listen`` network front-end (runs until ^C)."""
    import asyncio

    from .service.server import ForecastServer, ServerConfig

    host, port = _parse_listen(args.listen)
    config = ServerConfig(
        host=host, port=port, max_batch=args.batch,
        queue_size=args.queue_size,
        max_window_s=max(args.window_ms, 1.0) / 1000.0,
        metrics_top_k=args.metrics_top_k,
    )

    async def run() -> None:
        server = ForecastServer(service, config)
        await server.start()
        bound_host, bound_port = server.address
        _print(
            f"listening on {bound_host}:{bound_port} "
            f"({len(streams)} streams bound)"
        )
        sys.stdout.flush()
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _serve_main(args: argparse.Namespace) -> int:
    """The ``repro serve`` gateway command."""
    if args.batch < 1:
        _print("error: --batch must be >= 1")
        return 2
    if args.listen is not None and args.csv is not None:
        _print("error: --listen and --csv are mutually exclusive (the "
               "network server ingests over TCP/HTTP, not from a file)")
        return 2
    if args.workers < 1:
        _print("error: --workers must be >= 1")
        return 2
    if args.adapt and args.workers > 1:
        _print("error: --adapt drives the in-process gateway; it does "
               "not combine with --workers > 1 (the sharded service "
               "shadow-scores but keeps promotion decisions out of "
               "workers)")
        return 2
    if args.adapt and args.listen is not None:
        _print("error: --adapt and --listen are mutually exclusive; run "
               "the adaptation loop against the stdin/CSV gateway")
        return 2
    if args.adapt and args.adapt_jobs < 0:
        _print("error: --adapt-jobs must be >= 0")
        return 2
    service = None
    manager = None
    retrain_backend = None
    try:
        binds = _parse_binds(args.bind)
        registry = ModelRegistry(args.registry)
        if args.workers > 1:
            from .service.sharding import ShardConfig, ShardedForecastService

            service = ShardedForecastService(
                registry, ShardConfig(workers=args.workers)
            )
        else:
            service = ForecastService(registry)
        for stream, model, version in binds:
            service.bind(stream, model, version)
        streams = [b[0] for b in binds]
        if args.policy is not None:
            from .service.policy import PolicyEngine, load_policy

            spec = load_policy(args.policy)
            if args.workers > 1:
                # The sharded gateway ships the spec to every worker.
                service.attach_policy(spec)
            else:
                service.attach_policy(PolicyEngine(spec))
        if args.listen is not None:
            return _serve_network(args, service, streams)
        if args.adapt:
            from .service.adaptation import AdaptationManager

            if args.adapt_jobs > 1:
                retrain_backend = get_backend("shm", workers=args.adapt_jobs)
            manager = AdaptationManager(
                service, registry,
                state_root=args.adapt_state_dir,
                backend=retrain_backend,
            )

        n_events = 0
        pending: List[Tuple[str, float]] = []

        def flush() -> None:
            for forecast in service.ingest(pending):
                if not args.quiet:
                    _print(_forecast_json(forecast))
            pending.clear()
            if manager is not None:
                # Retrains advance between batches, never on the
                # ingest hot path.
                manager.poll()

        for event in _serve_events(args, streams):
            pending.append(event)
            n_events += 1
            if len(pending) >= args.batch:
                flush()
            if args.limit is not None and n_events >= args.limit:
                break
        flush()
        if manager is not None:
            manager.save_status()
        if args.stats:
            _print(json.dumps(service.stats(), sort_keys=True))
        return 0
    except (RegistryError, ValueError, OSError) as exc:
        _print(f"error: {exc}")
        return 2
    finally:
        if retrain_backend is not None:
            retrain_backend.close()
        # The sharded gateway owns worker processes and /dev/shm
        # segments; the in-process gateway has nothing to release.
        if service is not None and hasattr(service, "close"):
            service.close()


def _policy_main(args: argparse.Namespace) -> int:
    """The ``repro policy check`` subcommand.

    Validates a JSON policy spec file against
    :class:`repro.service.policy.PolicySpec` — unknown fields, bad
    types and inconsistent thresholds all exit 2 with a one-line
    diagnostic, so a typo'd guardrail fails in CI instead of silently
    doing nothing in production.
    """
    from .analysis import format_table
    from .service.policy import PolicyError, load_policy

    try:
        spec = load_policy(args.file)
    except (OSError, PolicyError) as exc:
        _print(f"error: {exc}")
        return 2
    if args.json:
        _print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return 0
    configured = spec.to_dict()
    if not configured:
        _print(f"{args.file}: valid (empty policy — every decision "
               "passes or abstains)")
        return 0
    rows = [[key, json.dumps(value)]
            for key, value in sorted(configured.items())]
    _print(format_table(["Field", "Value"], rows,
                        title=f"Policy — {args.file} (valid)"))
    return 0


def _adapt_main(args: argparse.Namespace) -> int:
    """The ``repro adapt status`` subcommand.

    Reads the ``status.json`` an adaptation loop (``repro serve
    --adapt``) writes and renders counters, per-model shadow scores
    and the lifecycle timeline; ``--json`` dumps the raw payload for
    scripting.
    """
    from pathlib import Path

    from .analysis import format_table

    path = Path(args.state_dir) / "status.json"
    if not path.exists():
        _print(f"no adaptation status at {path} (write one with "
               f"'repro serve --adapt --adapt-state-dir {args.state_dir}')")
        return 2
    try:
        status = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        _print(f"error: unreadable {path}: {exc}")
        return 2
    if args.json:
        _print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    counters = status.get("counters", {})
    order = ("drift_events", "retrains", "promotions", "rollbacks",
             "rejected", "active_challenges", "probations",
             "pending_retrains")
    rows = [[key, counters.get(key, 0)] for key in order]
    _print(format_table(["Counter", "Value"], rows,
                        title=f"Adaptation — {args.state_dir}"))
    shadow = status.get("shadow", {})
    if shadow:
        rows = [
            [model, s.get("challenger_version", "-"),
             s.get("shadow_scored", 0),
             f"{s.get('champion_error', 0.0):.6g}",
             f"{s.get('challenger_error', 0.0):.6g}"]
            for model, s in sorted(shadow.items())
        ]
        _print("")
        _print(format_table(
            ["Model", "Challenger", "Scored", "Champion err",
             "Challenger err"],
            rows, title="Active shadow challenges",
        ))
    drifted = status.get("drifted", [])
    if drifted:
        _print("")
        _print("drifted streams: " + ", ".join(drifted))
    timeline = status.get("timeline", [])
    if timeline:
        _print("")
        _print("timeline (last 10):")
        for entry in timeline[-10:]:
            detail = {k: v for k, v in entry.items()
                      if k not in ("at", "kind")}
            _print(f"  {entry.get('at', 0.0):>10.3f}  "
                   f"{entry.get('kind', '?'):<22} "
                   + json.dumps(detail, sort_keys=True))
    return 0


def _bench_main(args: argparse.Namespace) -> int:
    """The ``repro bench`` run/compare/list subcommands."""
    from .analysis import format_table
    from .bench import AREAS, compare_files, run_areas
    from .bench.compare import CompareReport

    if args.bench_command == "list":
        rows = [[area, " ".join(files)] for area, files in sorted(AREAS.items())]
        _print(format_table(["Area", "Bench files"], rows,
                            title="Benchmark areas (BENCH_<area>.json)"))
        return 0
    if args.bench_command == "run":
        try:
            return run_areas(args.areas, bench_dir=args.bench_dir,
                             tiny=args.tiny, keyword=args.keyword)
        except ValueError as exc:
            _print(f"error: {exc}")
            return 2
    # compare
    if args.current is not None and len(args.baseline) > 1:
        _print("error: --current only combines with a single --baseline file")
        return 2
    report = CompareReport()
    try:
        for baseline in args.baseline:
            report.extend(compare_files(
                baseline, args.current,
                tolerance=args.tolerance, strict=args.strict,
            ))
    except ValueError as exc:
        _print(f"error: {exc}")
        return 2
    _print(report.format_text(verbose=args.verbose))
    return 0 if report.passed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "experiment":
        return _experiment_main(args)
    if args.command == "models":
        return _models_main(args)
    if args.command == "serve":
        return _serve_main(args)
    if args.command == "adapt":
        return _adapt_main(args)
    if args.command == "policy":
        return _policy_main(args)
    if args.command == "bench":
        return _bench_main(args)
    # The paper's tables, figure and ablations.
    from .analysis import (
        ablation_markdown,
        figure2_markdown,
        format_table,
        overlay_plot,
        run_ablation_emax,
        run_ablation_init,
        run_ablation_pooling,
        run_ablation_replacement,
        run_figure2,
        run_table1,
        run_table2,
        run_table3,
        table1_markdown,
        table2_markdown,
        table3_markdown,
    )

    backend = _backend(args.jobs, args.backend)
    incremental = not args.no_incremental
    compiled = not args.no_compiled
    try:
        if args.command == "table1":
            rows = run_table1(
                horizons=args.horizons, scale=args.scale, seed=args.seed,
                backend=backend, incremental=incremental, compiled=compiled,
            )
            _print(format_table(
                ["Horizon", "% pred", "Error RS", "Error NN"],
                [
                    [r.horizon, f"{r.rs.percentage:.1f}", f"{r.rs.error:.2f}",
                     f"{r.nn_error:.2f}"]
                    for r in rows
                ],
                title="Table 1 — Venice Lagoon (RMSE, cm)",
            ))
            if args.markdown:
                _print("")
                _print(table1_markdown(rows))
        elif args.command == "table2":
            rows = run_table2(
                horizons=args.horizons, scale=args.scale, seed=args.seed,
                backend=backend, incremental=incremental, compiled=compiled,
            )
            _print(format_table(
                ["Horizon", "% pred", "RS", "MRAN", "RAN"],
                [
                    [r.horizon, f"{r.rs.percentage:.1f}", f"{r.rs.error:.3f}",
                     f"{r.mran_error:.3f}", f"{r.ran_error:.3f}"]
                    for r in rows
                ],
                title="Table 2 — Mackey-Glass (NMSE)",
            ))
            if args.markdown:
                _print("")
                _print(table2_markdown(rows))
        elif args.command == "table3":
            rows = run_table3(
                horizons=args.horizons, scale=args.scale, seed=args.seed,
                backend=backend, incremental=incremental, compiled=compiled,
            )
            _print(format_table(
                ["Horizon", "% pred", "RS", "Feedfw NN", "Recurr NN"],
                [
                    [r.horizon, f"{r.rs.percentage:.1f}", f"{r.rs.error:.5f}",
                     f"{r.ff_error:.5f}", f"{r.rec_error:.5f}"]
                    for r in rows
                ],
                title="Table 3 — Sunspots (Galvan error)",
            ))
            if args.markdown:
                _print("")
                _print(table3_markdown(rows))
        elif args.command == "figure2":
            result = run_figure2(
                scale=args.scale, seed=args.seed, backend=backend,
                incremental=incremental, compiled=compiled,
            )
            _print(overlay_plot(
                {"real": result.real, "pred": result.predicted},
                title="Figure 2 — prediction for an unusual tide (horizon 1)",
            ))
            if args.markdown:
                _print("")
                _print(figure2_markdown(result))
        else:
            runner = {
                "ablation-init": (run_ablation_init, "NMSE"),
                "ablation-replacement": (run_ablation_replacement, "NMSE"),
                "ablation-emax": (run_ablation_emax, "RMSE (cm)"),
                "ablation-pooling": (run_ablation_pooling, "Galvan error"),
            }[args.command]
            rows = runner[0](
                scale=args.scale, seed=args.seed, incremental=incremental,
                compiled=compiled,
            )
            _print(format_table(
                ["Variant", runner[1], "% pred", "detail"],
                [
                    [r.variant, f"{r.score.error:.5f}",
                     f"{r.score.percentage:.1f}", r.detail]
                    for r in rows
                ],
                title=f"Ablation — {args.command}",
            ))
            if args.markdown:
                _print("")
                _print(ablation_markdown(rows, runner[1]))
        return 0
    finally:
        backend.close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
