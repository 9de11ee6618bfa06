"""Vectorized rule↦window matching — the GA's hot path.

For a rule with effective bounds ``lo, hi`` (wildcards widened to
``±inf``) and a window matrix ``X`` of shape ``(n, D)``, the match mask
is ``all(lo <= X <= hi, axis=1)``.  :func:`match_mask_dense` computes
exactly that — two broadcasted comparisons and a reduction — and is
the oracle every faster path is property-tested against.

:func:`match_mask` returns the same mask with less work, on one of
three paths:

* **Sorted series.**  A float64 sliding-window view has
  ``strides == (itemsize, itemsize)``, so window ``i`` at lag ``j`` is
  ``s[i + j]`` of one series ``s`` (every
  :class:`~repro.series.windowing.WindowDataset` ``X`` is such a view).
  For ``n >= 512`` windows, a sorted copy of ``s`` — built once per
  window matrix from the memory the view covers, and dropped when the
  view dies — turns each active lag's interval into a range of sorted
  values: ``searchsorted`` with ``"left"`` for ``lo`` and ``"right"``
  for ``hi`` keeps both bounds inclusive.  The lag holding the fewest
  series values proposes the candidate windows, and the other lags are
  checked on the survivors only, most selective first.  The work is
  the candidates, not the ``n x D`` matrix.
* **Lazy.**  Any other matrix of ``n >= 512`` rows with more than two
  active lags is compared one lag at a time over the still-alive rows.
* **Dense.**  Small matrices and rules with at most two active lags.

For whole populations, :func:`population_match_matrix_stacked` gives
the ``(P, n)`` matrix of the cold start behind
:class:`~repro.core.population_state.PopulationState`: on a sliding
view it stacks the sorted-series masks, and on any other matrix it
broadcasts one ``(P, D)`` bounds stack against window blocks.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .intervals import effective_bounds
from .rule import Rule

__all__ = [
    "match_mask",
    "match_mask_dense",
    "match_counts",
    "stack_effective_bounds",
    "population_match_matrix",
    "population_match_matrix_stacked",
    "coverage_mask",
    "coverage_fraction",
]


def stack_effective_bounds(rules: Sequence[Rule]):
    """Stack every rule's effective lo/hi bounds into ``(P, D)`` matrices.

    Wildcard slots are widened to ``±inf``.  This is the single source
    of the bounds layout shared by the batched training kernel
    (:func:`population_match_matrix_stacked`) and the serving-side
    :class:`~repro.core.compiled.CompiledRuleSystem`, so the two can
    never drift apart.
    """
    P = len(rules)
    if P == 0:
        raise ValueError("cannot stack bounds of an empty rule sequence")
    d = rules[0].n_lags
    lo = np.empty((P, d), dtype=np.float64)
    hi = np.empty((P, d), dtype=np.float64)
    for i, rule in enumerate(rules):
        if rule.n_lags != d:
            raise ValueError(
                f"all rules must share one arity; got {rule.n_lags} != {d}"
            )
        lo[i], hi[i] = effective_bounds(rule.lower, rule.upper, rule.wildcard)
    return lo, hi


def match_mask_dense(rule: Rule, windows: np.ndarray) -> np.ndarray:
    """Reference dense implementation of the match mask.

    One shot, ``O(n*D)`` comparisons.  Kept for clarity and as the
    property-test oracle for :func:`match_mask`.
    """
    lo, hi = effective_bounds(rule.lower, rule.upper, rule.wildcard)
    return np.all((windows >= lo) & (windows <= hi), axis=1)


#: Window matrices with fewer rows take the dense one-shot comparison.
_DENSE_BELOW = 512

#: ``id(view) -> (weakref to the view, (series, order, ranked))``.  An
#: entry lives exactly as long as its view: the weakref's callback drops
#: it, and holds the dict itself rather than this module's global, which
#: interpreter shutdown may already have cleared.
_SERIES_INDEX: Dict[int, Tuple["weakref.ref[np.ndarray]", tuple]] = {}


def _series_index(windows: np.ndarray) -> Optional[tuple]:
    """``(series, order, ranked)`` of a sliding-window view, else None.

    ``series`` is the view's underlying series (window ``i``, lag ``j``
    is ``series[i + j]``), copied from the view's own first column and
    last row; ``ranked = series[order]`` is its stably sorted copy.
    Built once per view object and cached by identity, like
    :meth:`~repro.core.rule.Rule.bind_mask` — and, like the rule mask
    cache, it assumes the values under a view do not change while the
    view lives (``WindowDataset`` views are read-only).
    """
    if windows.dtype != np.float64 or windows.strides != (8, 8):
        return None
    key = id(windows)
    entry = _SERIES_INDEX.get(key)
    if entry is not None and entry[0]() is windows:
        return entry[1]
    series = np.concatenate((windows[:, 0], windows[-1, 1:]))
    order = np.argsort(series, kind="stable")
    index = (series, order, series[order])
    _SERIES_INDEX[key] = (
        weakref.ref(
            windows, lambda _ref, key=key, cache=_SERIES_INDEX: cache.pop(key, None)
        ),
        index,
    )
    return index


def _match_sorted(
    index: tuple, lo: np.ndarray, hi: np.ndarray, lags: np.ndarray, n: int
) -> np.ndarray:
    """Match mask over a sliding view from its sorted series index.

    ``lo``/``hi`` are the bounds of the active ``lags``.  ``[first, last)``
    of ``ranked`` holds exactly the series values inside a lag's bounds;
    an empty or NaN bound matches nothing, as in the dense comparison.
    """
    series, order, ranked = index
    if not (lo <= hi).all():
        return np.zeros(n, dtype=bool)
    first = ranked.searchsorted(lo, "left")
    last = ranked.searchsorted(hi, "right")
    by_hits = np.argsort(last - first, kind="stable")
    k = by_hits[0]
    lag = lags[k]
    pos = order[first[k]:last[k]]
    alive = pos[(pos >= lag) & (pos < lag + n)] - lag
    for k in by_hits[1:]:
        if alive.size == 0:
            break
        col = series[lags[k]:][alive]
        alive = alive[(col >= lo[k]) & (col <= hi[k])]
    mask = np.zeros(n, dtype=bool)
    mask[alive] = True
    return mask


def match_mask(rule: Rule, windows: np.ndarray) -> np.ndarray:
    """Boolean mask of the windows matching ``rule``.

    Takes the sorted-series, lazy or dense path described in the module
    docstring; identical results to :func:`match_mask_dense` on all of
    them.
    """
    if windows.ndim != 2 or windows.shape[1] != rule.n_lags:
        raise ValueError(
            f"windows shape {windows.shape} incompatible with rule arity "
            f"{rule.n_lags}"
        )
    active_lags = np.nonzero(~rule.wildcard)[0]
    n = windows.shape[0]
    if active_lags.size == 0:
        return np.ones(n, dtype=bool)
    if n < _DENSE_BELOW:
        return match_mask_dense(rule, windows)
    index = _series_index(windows)
    if index is not None:
        return _match_sorted(
            index, rule.lower[active_lags], rule.upper[active_lags],
            active_lags, n,
        )
    # Heuristic: with few active lags the dense kernel's single pass wins.
    if active_lags.size <= 2:
        return match_mask_dense(rule, windows)

    alive = np.arange(n)
    for lag in active_lags:
        col = windows[alive, lag]
        keep = (col >= rule.lower[lag]) & (col <= rule.upper[lag])
        alive = alive[keep]
        if alive.size == 0:
            break
    mask = np.zeros(n, dtype=bool)
    mask[alive] = True
    return mask


def match_counts(rules: Sequence[Rule], windows: np.ndarray) -> np.ndarray:
    """``N_R`` for each rule against the same window matrix."""
    return np.array([int(match_mask(r, windows).sum()) for r in rules])


def population_match_matrix(
    rules: Sequence[Rule], windows: np.ndarray
) -> np.ndarray:
    """Stack per-rule match masks into a ``(len(rules), n)`` bool matrix.

    Used by crowding replacement (Jaccard phenotype distances) and by
    coverage accounting.  Rules whose cached mask was computed against
    *this* window matrix (identity-keyed via
    :meth:`~repro.core.rule.Rule.cached_mask_for`) reuse it; others are
    matched fresh.  Keying on identity rather than length matters: a
    validation set with the same row count as training must never
    alias stale training masks.
    """
    n = windows.shape[0]
    out = np.empty((len(rules), n), dtype=bool)
    for i, rule in enumerate(rules):
        cached = rule.cached_mask_for(windows)
        if cached is not None:
            out[i] = cached
        else:
            out[i] = match_mask(rule, windows)
    return out


def population_match_matrix_stacked(
    rules: Sequence[Rule], windows: np.ndarray, block_size: int = 4096
) -> np.ndarray:
    """Batched match matrix: the ``(P, n)`` masks of all rules at once.

    The cold-start initializer of
    :class:`~repro.core.population_state.PopulationState`; it returns
    the same matrix as :func:`population_match_matrix` without reading
    any rule's cached mask.  On a sliding-window view of ``n >= 512``
    rows it stacks the per-rule sorted-series masks of
    :func:`match_mask`, whose work is each rule's candidates.  On any
    other matrix it stacks every rule's effective lo/hi bounds into two
    ``(P, D)`` matrices and broadcasts them against the ``(n, D)``
    windows in blocks, with no per-rule Python loop.

    ``block_size`` bounds the broadcast's ``(P, block, D)`` comparison
    temporary so peak memory stays ~``P * block_size * D`` bytes
    regardless of ``n``.
    """
    P = len(rules)
    n = windows.shape[0]
    if P == 0:
        return np.empty((0, n), dtype=bool)
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    d = rules[0].n_lags
    if windows.ndim != 2 or windows.shape[1] != d:
        raise ValueError(
            f"windows shape {windows.shape} incompatible with rule arity {d}"
        )
    out = np.empty((P, n), dtype=bool)
    if n >= _DENSE_BELOW and _series_index(windows) is not None:
        for i, rule in enumerate(rules):
            out[i] = match_mask(rule, windows)
        return out
    lo, hi = stack_effective_bounds(rules)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block = windows[start:stop]  # (B, D)
        hits = (block >= lo[:, None, :]) & (block <= hi[:, None, :])
        out[:, start:stop] = hits.all(axis=2)
    return out


def coverage_mask(rules: Sequence[Rule], windows: np.ndarray) -> np.ndarray:
    """Windows matched by *at least one* rule (the predictable zone).

    Cached masks are reused only when they were computed against this
    exact window matrix (identity-keyed) — equal row counts alone are
    not sufficient provenance.
    """
    n = windows.shape[0]
    covered = np.zeros(n, dtype=bool)
    for rule in rules:
        cached = rule.cached_mask_for(windows)
        if cached is not None:
            covered |= cached
        else:
            covered |= match_mask(rule, windows)
        if covered.all():
            break
    return covered


def coverage_fraction(rules: Sequence[Rule], windows: np.ndarray) -> float:
    """The paper's "percentage of prediction" as a fraction in [0, 1]."""
    if windows.shape[0] == 0:
        return 0.0
    return float(coverage_mask(rules, windows).mean())
