"""Forecast oracle: every forecast recomputed rule by rule.

Independent of the program's scoring code: it reads a pool straight
from its JSON snapshot (bounds, wildcards, coefficients) and applies
the forecasting contract documented on ``Rule.output`` and
``RuleSystem.predict``:

* a rule matches a window when every non-wildcard lag ``j`` satisfies
  ``lower[j] <= x[j] <= upper[j]`` (bounds inclusive);
* a linear rule's output is its intercept, then ``+ x[j] * a[j]`` for
  ``j = 0 … D-1`` in that order; a constant rule outputs ``p_R``;
* the forecast is the total over the matching rules, added in pool
  order starting from 0.0, divided by their count; with no matching
  rule the system abstains.

Each step is one IEEE-754 double operation, vectorised over windows
only (never over rules or lags), so the result is the exact double the
contract defines.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "OracleRule",
    "count_matches",
    "forecast",
    "from_rule",
    "load_snapshot",
    "rules_from_payload",
]


class OracleRule:
    """One rule as plain per-lag lists, decoded from a snapshot."""

    __slots__ = ("lower", "upper", "wildcard", "coeffs", "prediction")

    def __init__(self, lower, upper, wildcard, coeffs, prediction) -> None:
        self.lower: List[float] = lower
        self.upper: List[float] = upper
        self.wildcard: List[bool] = wildcard
        self.coeffs: Optional[List[float]] = coeffs
        self.prediction: float = prediction


def rules_from_payload(payload: Dict) -> List[OracleRule]:
    """Decode the ``rules`` list of a snapshot payload."""
    rules = []
    for r in payload["rules"]:
        rules.append(OracleRule(
            lower=[float(v) for v in r["lower"]],
            upper=[float(v) for v in r["upper"]],
            wildcard=[bool(w) for w in r["wildcard"]],
            coeffs=None if r.get("coeffs") is None
            else [float(v) for v in r["coeffs"]],
            prediction=float(r["prediction"]),
        ))
    if len(rules) != int(payload.get("n_rules", len(rules))):
        raise ValueError("snapshot rule count disagrees with n_rules")
    return rules


def from_rule(rule) -> OracleRule:
    """Copy an in-memory rule's bounds and predicting part (data only)."""
    return OracleRule(
        lower=[float(v) for v in rule.lower],
        upper=[float(v) for v in rule.upper],
        wildcard=[bool(w) for w in rule.wildcard],
        coeffs=None if rule.coeffs is None else [float(v) for v in rule.coeffs],
        prediction=float(rule.prediction),
    )


def load_snapshot(path: str) -> List[OracleRule]:
    """The rules of one snapshot file, in pool order."""
    with open(path) as fh:
        return rules_from_payload(json.load(fh))


def columns(windows: np.ndarray) -> List[np.ndarray]:
    """``(n, D)`` windows as ``D`` contiguous lag columns."""
    X = np.asarray(windows, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("windows must be (n, D)")
    return [np.ascontiguousarray(X[:, j]) for j in range(X.shape[1])]


def matching_rows(rule: OracleRule, cols: List[np.ndarray]) -> np.ndarray:
    """Indices of the windows inside every non-wildcard interval."""
    if len(rule.lower) != len(cols):
        raise ValueError(
            f"rule arity {len(rule.lower)} != window width {len(cols)}"
        )
    rows = np.arange(cols[0].shape[0])
    for j, col in enumerate(cols):
        if rule.wildcard[j]:
            continue
        x = col[rows]
        rows = rows[(x >= rule.lower[j]) & (x <= rule.upper[j])]
        if not rows.size:
            break
    return rows


def count_matches(rules: List[OracleRule], windows: np.ndarray) -> List[int]:
    """Number of windows each rule matches."""
    cols = columns(windows)
    return [int(matching_rows(rule, cols).size) for rule in rules]


def forecast(
    rules: List[OracleRule], windows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(values, counts)`` for ``(n, D)`` windows.

    ``values`` is NaN where no rule matches; ``counts`` is the number of
    matching rules per window.
    """
    cols = columns(windows)
    n = cols[0].shape[0]
    totals = np.zeros(n, dtype=np.float64)
    counts = np.zeros(n, dtype=np.int64)
    for rule in rules:
        rows = matching_rows(rule, cols)
        if not rows.size:
            continue
        if rule.coeffs is None:
            out = np.full(rows.size, rule.prediction)
        else:
            out = np.full(rows.size, rule.coeffs[-1])
            for j in range(len(cols)):
                out = out + cols[j][rows] * rule.coeffs[j]
        totals[rows] = totals[rows] + out
        counts[rows] += 1
    values = np.full(n, math.nan)
    hit = counts > 0
    values[hit] = totals[hit] / counts[hit]
    return values, counts
