"""Paths, constants and small helpers shared by the benchmark scripts.

Every script in this directory is run as ``python3 perfbench/<name>.py``
from the root of a checkout; the program under test is imported from
``src/`` of that same checkout.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: The committed serving pool: a model registry holding one model.
POOL_DIR = os.path.join(HERE, "pool")
MODEL = "venice"
#: Scratch space for registry copies, retrain checkpoints and traces;
#: removed by ``run.py`` when a run ends.
WORK_DIR = os.path.join(HERE, "_work")

WORKLOADS = ("train_venice", "gateway_adaptive", "serve_tcp")

#: Window width and horizon of every model in this benchmark (§4.1).
D = 24
HORIZON = 1


def use_repo() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program sources at {SRC}; run from the root "
            "of a full checkout"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for a child process that imports the program.

    Only the import path and the string hash seed are set; threading
    (BLAS included) is left to the program, as it runs when deployed.
    """
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def last_json_line(text: str) -> Dict:
    """The JSON object on the last non-empty line of ``text``."""
    lines: List[str] = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])
