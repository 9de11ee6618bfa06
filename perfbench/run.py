"""The benchmark command: one named workload, from a seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): ``train_venice``, ``gateway_adaptive`` and
``serve_tcp``.  Every measurement runs in fresh processes started here:

* ``--trace 0`` runs ``PROBES`` set-up probes (start, set up, exit),
  half before and half after one measured process; ``setup_s`` is the
  median set-up time of all of them, the other end-to-end metrics come
  from the measured process.
* ``--trace 1`` runs the workload twice on half the work each, first
  untraced, then with the layer wrappers of ``tracing.py`` installed;
  the per-layer metrics come from the traced process and
  ``trace.overhead_pct`` compares the two.

The accounting of the run is printed first, one ``key: value`` line
each; the last stdout line is the JSON result.  The exit code is 1 when
any output check failed and 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import common

#: Set-up probes per --trace 0 run, half of them before the measured
#: process and half after it, so the samples span the whole run rather
#: than one spell of the machine; with the measured process's own
#: set-up they give five samples for the ``setup_s`` median.
PROBES = 4
#: Budget for all processes of one run (the run must end within 180 s).
BUDGET_S = 170.0

E2E = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("events_per_s", "1/s"),
    ("cpu_us_per_event", "us"),
    ("peak_rss_mb", "MB"),
)

LAYERS = (
    ("selection.busy_s", "s"),
    ("operators.busy_s", "s"),
    ("matching.busy_s", "s"),
    ("regression.busy_s", "s"),
    ("replacement.busy_s", "s"),
    ("population_state.busy_s", "s"),
    ("engine.offspring", "count"),
    ("engine.accept_ratio", "ratio"),
    ("compiled.busy_s", "s"),
    ("compiled.calls", "count"),
    ("compiled.windows", "count"),
    ("compiled.rules_per_window", "count"),
    ("gateway.busy_s", "s"),
    ("gateway.self_s", "s"),
    ("policy.busy_s", "s"),
    ("adaptation.on_batch_s", "s"),
    ("adaptation.poll_s", "s"),
    ("adaptation.drift_events", "count"),
    ("adaptation.retrains", "count"),
    ("adaptation.shadowed_windows", "count"),
    ("server.parse_s", "s"),
    ("server.encode_s", "s"),
    ("server.other_s", "s"),
    ("server.batches", "count"),
    ("server.batch_events", "count"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_p99_ms", "ms"),
    ("generator.lag_p99_ms", "ms"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
)


class RunError(RuntimeError):
    """A workload process failed to produce a result."""


def spawn(workload: str, seed: int, work_seconds: float, work: str,
          deadline: float, trace: bool = False, setup_only: bool = False) -> Dict:
    """Run one workload process; its parsed JSON result."""
    os.makedirs(work, exist_ok=True)
    t_spawn = time.monotonic()
    cmd = [sys.executable, os.path.join(common.HERE, "workloads.py"), workload,
           "--seed", str(seed), "--work-seconds", repr(work_seconds),
           "--t-spawn", repr(t_spawn), "--work", work]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    # Own session, so a timeout can stop the process and its server.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=common.child_env(),
                            cwd=common.ROOT, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"{workload} process ran out of time") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # nothing may outlive it
        except (ProcessLookupError, PermissionError):
            pass
    if proc.returncode != 0:
        raise RunError(f"{workload} process exited with {proc.returncode}")
    try:
        return common.last_json_line(out)
    except ValueError as exc:
        raise RunError(f"{workload} process printed no result: {exc}") from None


def measure(workload: str, seed: int, seconds: int, trace: bool,
            work: str) -> Dict:
    """Run the processes of one benchmark run; the printed result."""
    deadline = time.monotonic() + BUDGET_S
    children: List[Dict] = []
    if not trace:
        def probe(k: int) -> float:
            return spawn(workload, seed, seconds, os.path.join(work, f"probe{k}"),
                         deadline, setup_only=True)["setup_s"]

        setups = [probe(k) for k in range(PROBES // 2)]
        main = spawn(workload, seed, seconds, os.path.join(work, "main"), deadline)
        setups.append(main["setup_s"])
        setups += [probe(k) for k in range(PROBES // 2, PROBES)]
        children.append(main)
        values = dict(main["metrics"], setup_s=statistics.median(setups))
        units = E2E
    else:
        plain = spawn(workload, seed, seconds / 2, os.path.join(work, "plain"),
                      deadline)
        traced = spawn(workload, seed, seconds / 2, os.path.join(work, "traced"),
                       deadline, trace=True)
        children += [plain, traced]
        values = {name: 0.0 for name, _ in LAYERS}
        values.update(traced["layers"])
        values["trace.overhead_pct"] = (
            (traced["unit_s"] - plain["unit_s"]) / plain["unit_s"] * 100.0
        )
        units = LAYERS
    failures = [f for c in children for f in c["failures"]]
    accounting: Dict[str, float] = {}
    for child in children:
        for key, v in child["accounting"].items():
            accounting[key] = accounting.get(key, 0) + v
    return {
        "failures": failures,
        "accounting": accounting,
        "result": {
            "correct": not failures,
            "attempted": sum(int(c["attempted"]) for c in children),
            "failed": sum(int(c["failed"]) for c in children),
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    try:
        common.use_repo()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    # Byte-compile once, so no set-up sample pays for it.
    compileall.compile_dir(common.SRC, quiet=1)
    compileall.compile_dir(common.HERE, quiet=1, maxlevels=0)
    work = os.path.join(common.WORK_DIR, f"run-{os.getpid()}")
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(common.WORK_DIR)
        except OSError:
            pass
    for key, value in run["accounting"].items():
        print(f"{key}: {value}")
    for failure in run["failures"]:
        print(f"check failed: {failure}")
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
