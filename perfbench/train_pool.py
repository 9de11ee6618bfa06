"""Train the committed serving pool anew from its root seed.

The serving workloads score one pool trained by the program's own GA:
four pooled ``multirun`` executions of ``venice_config(horizon=1,
scale="bench")`` on the bench-scale Venice training split (5 976
windows, D=24), root seed ``POOL_SEED``.  The result is registered as
model ``venice`` v1 (promoted) in a fresh model registry::

    python3 perfbench/train_pool.py --out perfbench/pool   # rewrite it
    python3 perfbench/train_pool.py --check                # re-derive

``--check`` trains into a scratch registry and compares the snapshot
digest with the committed one, which is how the pool's provenance is
verified (about 20 s on one core).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import common

POOL_SEED = 2007
#: Executions pooled; the coverage stop is off so all four always run.
EXECUTIONS = 4


def train_pool():
    """The pool as a ``RuleSystem`` plus its registry metadata."""
    from repro.core.config import venice_config
    from repro.core.multirun import multirun
    from repro.series.datasets import load_venice

    split = load_venice(scale="bench")
    train, _ = split.windows(common.D, common.HORIZON)
    result = multirun(
        train,
        venice_config(horizon=common.HORIZON, scale="bench"),
        coverage_target=2.0,
        max_executions=EXECUTIONS,
        root_seed=POOL_SEED,
    )
    metadata = {
        "d": common.D,
        "horizon": common.HORIZON,
        "dataset": "venice bench split (load_venice(scale='bench'))",
        "config": "venice_config(horizon=1, scale='bench')",
        "executions": EXECUTIONS,
        "root_seed": POOL_SEED,
        "training_coverage": result.coverage_history[-1],
    }
    return result.system, metadata


def write_registry(out: str) -> object:
    """Train and register the pool as ``venice`` v1 under ``out``."""
    from repro.service.registry import ModelRegistry

    system, metadata = train_pool()
    lineage = {"command": "python3 perfbench/train_pool.py"}
    return ModelRegistry(out).register(
        common.MODEL, system, metadata=metadata, lineage=lineage,
        promote=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="registry directory to (re)create")
    parser.add_argument("--check", action="store_true",
                        help="retrain into a scratch registry and compare "
                             "digests with the committed pool")
    args = parser.parse_args(argv)
    common.use_repo()
    if args.check:
        from repro.service.registry import ModelRegistry

        scratch = os.path.join(common.WORK_DIR, "pool-check")
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            fresh = write_registry(scratch)
            committed = ModelRegistry(common.POOL_DIR).record(common.MODEL, 1)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            try:
                os.rmdir(common.WORK_DIR)
            except OSError:
                pass
        same = fresh.digest == committed.digest
        print(f"retrained {fresh.n_rules} rules, digest {fresh.digest[:16]}; "
              f"committed {committed.n_rules} rules, digest "
              f"{committed.digest[:16]}: {'match' if same else 'MISMATCH'}")
        return 0 if same else 1
    if args.out is None:
        parser.error("give --out DIR or --check")
    if os.path.exists(args.out):
        shutil.rmtree(args.out)
    record = write_registry(args.out)
    print(f"registered {record.name} v{record.version}: {record.n_rules} "
          f"rules, digest {record.digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
