"""Statistical support: bootstrap CIs and paired comparisons.

The paper reports point estimates only; a credible reproduction should
state how stable its numbers are.  These helpers back the EXPERIMENTS.md
claims with bootstrap confidence intervals over validation points and
paired sign tests between forecasters on the *shared* predicted subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..metrics.errors import rmse

__all__ = ["BootstrapCI", "bootstrap_metric", "paired_comparison", "PairedResult"]


@dataclass(frozen=True)
class BootstrapCI:
    """A metric point estimate with a percentile bootstrap interval."""

    estimate: float
    lower: float
    upper: float
    confidence: float
    n_resamples: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.estimate:.4g} "
            f"[{self.lower:.4g}, {self.upper:.4g}] "
            f"({100 * self.confidence:.0f}% CI)"
        )


def bootstrap_metric(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    metric: Callable[[np.ndarray, np.ndarray], float] = rmse,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: Optional[int] = None,
) -> BootstrapCI:
    """Percentile bootstrap CI of a metric over prediction points."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError("need equal-length 1-D arrays")
    if y_true.size < 2:
        raise ValueError("need at least 2 points to bootstrap")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    rng = np.random.default_rng(seed)
    n = y_true.shape[0]
    estimate = metric(y_true, y_pred)
    samples = np.empty(n_resamples)
    for b in range(n_resamples):
        idx = rng.integers(0, n, size=n)
        samples[b] = metric(y_true[idx], y_pred[idx])
    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.quantile(samples, [alpha, 1.0 - alpha])
    return BootstrapCI(
        estimate=float(estimate),
        lower=float(lower),
        upper=float(upper),
        confidence=confidence,
        n_resamples=n_resamples,
    )


@dataclass(frozen=True)
class PairedResult:
    """Paired comparison of two forecasters on common points.

    ``p_value`` comes from the Wilcoxon signed-rank test on absolute
    errors (two-sided); ``a_wins`` counts points where A's absolute
    error is strictly smaller.
    """

    n_common: int
    a_mean_abs: float
    b_mean_abs: float
    a_wins: int
    b_wins: int
    p_value: float

    @property
    def significant(self) -> bool:
        """Conventional alpha = 0.05 verdict."""
        return self.p_value < 0.05


def paired_comparison(
    y_true: np.ndarray,
    pred_a: np.ndarray,
    pred_b: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> PairedResult:
    """Compare two prediction vectors on their common predicted subset.

    NaNs in either prediction (abstentions) are excluded, so a partial
    predictor is compared only where both systems commit — the fair
    comparison the paper's tables imply.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    pred_a = np.asarray(pred_a, dtype=np.float64)
    pred_b = np.asarray(pred_b, dtype=np.float64)
    if not (y_true.shape == pred_a.shape == pred_b.shape):
        raise ValueError("all inputs must share a shape")
    common = np.isfinite(pred_a) & np.isfinite(pred_b) & np.isfinite(y_true)
    if mask is not None:
        common &= np.asarray(mask, dtype=bool)
    n = int(common.sum())
    if n < 2:
        raise ValueError("fewer than 2 common predicted points")
    err_a = np.abs(pred_a[common] - y_true[common])
    err_b = np.abs(pred_b[common] - y_true[common])
    diff = err_a - err_b
    if np.allclose(diff, 0.0):
        p_value = 1.0
    else:
        # Imported here: scipy.stats costs about a second of start-up
        # for this one call.
        from scipy.stats import wilcoxon

        p_value = float(wilcoxon(err_a, err_b, zero_method="zsplit").pvalue)
    return PairedResult(
        n_common=n,
        a_mean_abs=float(err_a.mean()),
        b_mean_abs=float(err_b.mean()),
        a_wins=int((diff < 0).sum()),
        b_wins=int((diff > 0).sum()),
        p_value=p_value,
    )
