"""Start-up cost: the CLI and the serving path load no analysis-only
dependency.

``scipy.stats`` (one Wilcoxon test in :mod:`repro.analysis.stats`) and
``networkx`` (the island topology builders) each cost a large share of
a fresh ``import repro.cli``; ``repro serve`` needs neither.  Both are
imported inside the functions that use them, and a fresh interpreter
proves it stays that way.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("module", ["repro.cli", "repro.service.server"])
def test_import_loads_neither_scipy_nor_networkx(module):
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_lazy_imports_still_resolve():
    """The deferred imports work when their functions run."""
    import numpy as np

    from repro.analysis.stats import paired_comparison
    from repro.parallel.islands import complete_topology, ring_topology

    rng = np.random.default_rng(0)
    y = rng.normal(size=40)
    result = paired_comparison(y, y + 0.1, y + rng.normal(size=40))
    assert 0.0 <= result.p_value <= 1.0
    assert ring_topology(3).number_of_edges() == 3
    assert complete_topology(3).number_of_edges() == 6
