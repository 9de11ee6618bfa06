"""Reference figures quoted in README.md, re-measured where it runs.

    python3 perfbench/reference.py

1. Scoring cost of the committed trained pool against the synthetic
   pool the ``BENCH_service.json`` tiers score (240 random boxes on a
   sine, the recipe of ``benchmarks/bench_service.py``): microseconds
   per window and matched rules per window, for a 64-window micro block
   on the fused lag-major path and a 512-window bulk block on the
   row-major path.
2. Server start-up: a fresh process's ``import repro.cli`` against the
   time ``repro serve --listen`` with the 128 ``serve_tcp`` binds takes
   to print ``listening on``.

Every figure is the median of several fresh repetitions.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import common

REPEATS = 5


def synthetic_pool(np, Rule, RuleSystem, WindowDataset, sine_series):
    """240 random boxes on a sine (``benchmarks/bench_service.py``)."""
    series = sine_series(6_000 + common.D + 1, period=480, noise_sigma=0.05, seed=5)
    X = np.ascontiguousarray(WindowDataset.from_series(series, common.D, 1).X)
    span = X.max() - X.min()
    rng = np.random.default_rng(7)
    rules = []
    for k in range(240):
        center = X[int(rng.integers(0, X.shape[0]))]
        rule = Rule.from_box(center - 0.07 * span, center + 0.07 * span,
                             prediction=float(rng.normal()))
        rule.wildcard = rng.random(common.D) < 0.2
        rule.error = 1.0
        if k % 2 == 0:
            rule.coeffs = np.concatenate([rng.normal(size=common.D) * 0.1,
                                          [float(rng.normal())]])
        rules.append(rule)
    return RuleSystem(rules), X


def scoring(label, compiled, windows, np) -> None:
    for width in (64, 512):
        stack = np.ascontiguousarray(windows[:width])
        stackT = np.ascontiguousarray(stack.T)
        costs, rules = [], 0.0
        for _ in range(REPEATS):
            t = time.perf_counter()
            for start in range(0, windows.shape[0] - width + 1, width):
                block = windows[start:start + width]
                if width <= 256:
                    stackT[:] = block.T
                    out = compiled.predict_windowsT(stackT, width)
                else:
                    stack[:] = block
                    out = compiled.predict_windows(stack)
                rules += out.n_rules_used.sum()
            costs.append((time.perf_counter() - t) / windows.shape[0] * 1e6)
        per_window = rules / (REPEATS * (windows.shape[0] // width) * width)
        print(f"{label:9s} {width:4d}-window blocks: {statistics.median(costs):6.1f} "
              f"us/window, {per_window:5.1f} rules/window")


def startup() -> None:
    env = common.child_env()
    imports, listens = [], []
    for _ in range(REPEATS):
        t = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, "-c", "import repro.cli; print('imported', flush=True)"],
            stdout=subprocess.PIPE, text=True, env=env, cwd=common.ROOT,
        )
        probe.stdout.readline()
        imports.append(time.perf_counter() - t)
        probe.wait()
        probe.stdout.close()
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--registry",
               common.POOL_DIR, "--listen", "127.0.0.1:0"]
        for g in range(128):
            cmd += ["--bind", f"g{g:03d}={common.MODEL}"]
        t = time.perf_counter()
        server = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                                  cwd=common.ROOT)
        for line in server.stdout:
            if line.startswith("listening on "):
                break
        listens.append(time.perf_counter() - t)
        server.terminate()
        server.wait()
        server.stdout.close()
    imp, lis = statistics.median(imports), statistics.median(listens)
    print(f"process start + import repro.cli: {imp:.2f} s; start to listening: "
          f"{lis:.2f} s ({imp / lis:.0%})")


def main() -> int:
    common.use_repo()
    import numpy as np

    from repro.core.rule import Rule
    from repro.core.predictor import RuleSystem
    from repro.series.noise import sine_series
    from repro.series.venice import venice_series
    from repro.series.windowing import WindowDataset
    from repro.service.registry import ModelRegistry

    synth, synth_X = synthetic_pool(np, Rule, RuleSystem, WindowDataset, sine_series)
    trained, _ = ModelRegistry(common.POOL_DIR).load(common.MODEL)
    gauges = np.vstack([
        WindowDataset.from_series(venice_series(200, seed=g), common.D, 1).X
        for g in range(64)
    ])
    scoring("synthetic", synth.compile(), synth_X[:gauges.shape[0]], np)
    scoring("trained", trained.compile(), gauges, np)
    startup()
    return 0


if __name__ == "__main__":
    os.chdir(common.ROOT)
    sys.exit(main())
