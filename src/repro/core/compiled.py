"""Compiled batch prediction: the whole rule pool as stacked arrays.

:class:`~repro.core.predictor.RuleSystem.predict`'s reference
implementation loops over rules — one
:func:`~repro.core.matching.match_mask` call, one fancy-indexed output
and one scatter-add per rule.  That is fine for analysis but is the
serving hot path (ROADMAP: "heavy traffic"), where per-rule Python and
numpy-call overhead dominates: a 240-rule pool costs ~2 ms *per
pattern* when patterns arrive one at a time.

:class:`CompiledRuleSystem` compiles the pool once into packed arrays —
effective lo/hi bounds stacked ``(R, D)`` exactly like
:func:`~repro.core.matching.population_match_matrix_stacked` stacks
them, and the predicting parts as an ``(R, D+1)`` coefficient block
(constant rules become zero coefficients plus intercept ``p_R``) — and
scores a whole batch with a fixed, batch-size-independent number of
vectorized operations:

1. **candidate generation** via a per-block interval index: sort the
   block's column on the most selective lag, then one ``searchsorted``
   per bound turns every rule's interval into a contiguous index
   range — candidate (rule, pattern) pairs are materialized without
   touching the other lags.  Micro-batches (``<= MICRO_BLOCK``
   patterns) skip the index entirely: their dense mask is cache
   resident, so an adaptive dense-prefix walk generates candidates
   cheaper than any sort (see :meth:`_micro_pairs`);
2. **verification** of the pair list over the remaining lags: a few
   budget-driven compaction passes (1-D gathers, most selective lag
   first) followed by one accumulate sweep that touches each remaining
   lag exactly once with no intermediate pair-list rewrites.  Candidate
   sets denser than ``DENSE_SWITCH`` switch the block to a staged
   dense walk instead — the ``DENSE_PREFIX`` most selective lags as
   contiguous stacked-bounds passes, then the same accumulate sweep
   over the survivors (see :meth:`_match_pairs`);
3. **masked mean**: per-lag multiply-add of the coefficient block over
   the surviving pairs, then ``bincount`` reductions into per-pattern
   totals and counts.

Two A/B escape hatches ride along.  ``matcher="legacy"`` keeps the
previous single-lag-scan/pure-dense kernel generation — the staged
matcher is property-tested bitwise-identical against it, and either
path stays bitwise equal to the per-rule loop.  ``storage="float32"``
(opt-in) halves the compiled pack's memory: bounds are rounded
*outward* to ``float32`` (every float64-matched pair still matches —
a strict superset guarantee) and coefficients round to nearest, so
forecasts carry a documented tolerance instead of the bitwise
contract (see :meth:`__init__`).

**Bitwise contract.**  Every floating-point operation mirrors the
per-rule loop exactly: rule outputs accumulate intercept-first then lag
``0 … D-1`` (:meth:`~repro.core.rule.Rule.output`'s documented scalar
contract), and per-pattern totals add matching rules in ascending rule
order (pairs are rule-major; ``bincount`` and the loop's scatter-add
are both strictly sequential).  Matching itself is exact interval
arithmetic, so any evaluation order gives the same booleans.  The
per-rule loop therefore remains the property-test oracle —
``tests/property/test_compiled_predictor.py`` holds the two paths
bitwise equal — and ``RuleSystem.predict(compiled=False)`` stays
available as the A/B escape hatch.

Patterns must be finite: the compiled path validates and raises on
NaN/inf inputs.  (The lazy per-rule oracle skips wildcard lags without
comparing them, so a NaN at a wildcard lag would match there but fail
the compiled ``±inf`` bound comparison — rejecting non-finite input
keeps the bitwise contract meaningful and protects live streams from
silently flipped abstentions.)
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from .matching import stack_effective_bounds
from .predictor import PredictionBatch, rich_from_moments
from .rule import Rule

__all__ = ["CompiledRuleSystem"]


def _round_bounds_down(bounds: np.ndarray) -> np.ndarray:
    """Cast to float32 rounding toward ``-inf`` (never raises a lo bound).

    Entries the nearest-even cast rounded *up* step back one float32
    ulp; infinities pass through (``-inf`` casts exactly, and a finite
    float64 beyond float32 range casts to ``+inf`` which the step-back
    then pulls below the original — still a superset).
    """
    out = bounds.astype(np.float32)
    raised = out.astype(np.float64) > bounds
    out[raised] = np.nextafter(out[raised], np.float32(-np.inf))
    return out


def _round_bounds_up(bounds: np.ndarray) -> np.ndarray:
    """Cast to float32 rounding toward ``+inf`` (never lowers a hi bound)."""
    out = bounds.astype(np.float32)
    lowered = out.astype(np.float64) < bounds
    out[lowered] = np.nextafter(out[lowered], np.float32(np.inf))
    return out


class CompiledRuleSystem:
    """An immutable, array-packed compilation of a rule pool.

    Parameters
    ----------
    rules:
        Evaluated rules sharing one arity ``D`` (same contract as
        :class:`~repro.core.predictor.RuleSystem`); must be non-empty —
        the empty pool is handled by ``RuleSystem.predict`` directly.
    block_size:
        Patterns processed per internal block.  Blocks bound the
        temporaries (candidate pairs, dense fallback matrix) so peak
        memory is independent of the batch size; the default keeps the
        per-lag gather working set L2-resident.
    matcher:
        ``"staged"`` (default) or ``"legacy"``.  The staged matcher is
        the measured-faster generation (interval-index candidate
        pruning at micro scale, dense-prefix + accumulate-tail at bulk
        scale); ``"legacy"`` keeps the previous single-lag-scan/dense
        kernel as the A/B baseline.  Both are exact — the property
        suite holds them bitwise equal pair-for-pair.
    storage:
        ``"float64"`` (default) or ``"float32"``.  Opting into float32
        halves the compiled pack (bounds, coefficients and their
        kernel-facing transposes), which is what multi-tenant serving
        cares about when hundreds of models share one host.  Bounds
        are rounded **outward** (lo toward ``-inf``, hi toward
        ``+inf``), so the float32 match set is always a superset of
        the float64 one: no true match is ever lost, but patterns
        within one float32 ulp (~6e-8 relative) of a box boundary may
        match extra rules.  Coefficients round to nearest, bounding
        each rule output's relative error by ~``(D+1) * 6e-8`` away
        from match-set boundaries.  Forecasts therefore carry that
        documented tolerance instead of the bitwise contract —
        ``tests/property/test_compiled_float32.py`` pins both halves
        (superset always; value tolerance away from boundaries).

    Attributes
    ----------
    lo, hi:
        ``(R, D)`` effective bounds (wildcards widened to ``±inf``) —
        the same stack :func:`population_match_matrix_stacked` builds.
    coeffs:
        ``(R, D+1)`` predicting parts, intercept last.  Constant rules
        hold zero weights and ``p_R`` as intercept.
    """

    #: Candidate pairs above this fraction of the dense matrix switch
    #: the block from the sparse (interval-index) kernel to the staged
    #: dense walk.  Measured on the bench workloads: at bulk scale the
    #: dense walk streams contiguous memory at ~0.1 ns/element while
    #: sparse verification pays ~1 ns/element for gathers, so sparse
    #: only wins while the candidate set is a small fraction of R*B.
    DENSE_SWITCH = 0.25
    #: Legacy-matcher micro density cap: micro-blocks stay on its
    #: sparse path up to this much higher candidate density than bulk
    #: blocks.  Only ``matcher="legacy"`` reads this — the staged micro
    #: kernel is dense-first (see :meth:`_micro_pairs`).
    MICRO_DENSE_SWITCH = 0.6
    #: Staged bulk matcher: lags walked as contiguous dense passes
    #: before the survivors are extracted into a pair list.  Measured
    #: sweet spot on the kernel bench: survivors shrink geometrically
    #: for ~6 selective lags (283k -> 64k of 983k possible at 240x4096)
    #: and then flatten, at which point per-pair verification of the
    #: remaining lags beats 5 more full-matrix passes per lag.
    DENSE_PREFIX = 6
    #: Once ``remaining_lags * n_pairs`` falls under this, the per-lag
    #: compaction stops and the remaining lags are verified in one
    #: accumulate sweep (no more pair-list rewrites).
    FULL_CHECK_BUDGET = 2_000_000
    #: Blocks of at most this many patterns (serving micro-batches, not
    #: analysis sweeps) use micro-tuned heuristics instead: the dense
    #: kernel is element-bound at ``R*B*D`` comparisons regardless of
    #: block size, so small blocks prefer the pruning sparse path much
    #: longer (see :meth:`_match_pairs`).
    MICRO_BLOCK = 256
    #: Micro matcher: minimum number of most-selective lags walked as
    #: dense full-matrix passes before the adaptive exit check starts.
    #: The first couple of lags always pay for themselves (survivors
    #: shrink geometrically), so pricing the exit earlier just spends
    #: ``count_nonzero`` calls on a foregone conclusion.
    MICRO_DENSE_PREFIX = 3
    #: Micro matcher exit budget: once ``survivors * remaining_lags``
    #: falls under this, the dense walk stops and the remaining lags
    #: are verified in one gather over the extracted pair list.
    #: Measured across both serving-shaped (decorrelated columns) and
    #: sliding-window (correlated) micro blocks at 240 rules x 64
    #: patterns: 32k beats fixed prefixes of 3..6 on both, because the
    #: two shapes want different prefixes (3-4 vs 5-6) and the pricing
    #: picks per block.
    MICRO_VERIFY_BUDGET = 32_000
    #: Legacy-matcher micro budget, *per pattern*: its per-lag
    #: compaction keeps shrinking the pair list while the one-shot
    #: check of the remaining lags would still touch more than this
    #: many (lag, pair) slots per pattern.  The staged micro kernel
    #: does not compact at all (measured slower than its one-shot
    #: verify at micro pair counts); only ``matcher="legacy"`` reads
    #: this.
    MICRO_CHECK_BUDGET_PER_PATTERN = 160

    def __init__(
        self,
        rules: Iterable[Rule],
        block_size: int = 4096,
        matcher: str = "staged",
        storage: str = "float64",
    ) -> None:
        pool: List[Rule] = list(rules)
        if not pool:
            raise ValueError("CompiledRuleSystem requires at least one rule")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if matcher not in ("staged", "legacy"):
            raise ValueError(f"unknown matcher {matcher!r}")
        if storage not in ("float64", "float32"):
            raise ValueError(f"unknown storage {storage!r}")
        d = pool[0].n_lags
        for rule in pool:
            if not np.isfinite(rule.prediction) and rule.coeffs is None:
                raise ValueError(
                    "CompiledRuleSystem requires evaluated rules; got one "
                    "with no predicting part"
                )
        R = len(pool)
        self.n_rules = R
        self.n_lags = d
        self.block_size = int(block_size)
        self.matcher = matcher
        self.storage = storage
        # One shared bounds layout with the training-side stacked kernel.
        self.lo, self.hi = stack_effective_bounds(pool)
        self.coeffs = np.zeros((R, d + 1), dtype=np.float64)
        self.is_linear = np.zeros(R, dtype=bool)
        for i, rule in enumerate(pool):
            if rule.coeffs is not None:
                self.coeffs[i] = rule.coeffs
                self.is_linear[i] = True
            else:
                self.coeffs[i, -1] = rule.prediction
        if storage == "float32":
            self.lo = _round_bounds_down(self.lo)
            self.hi = _round_bounds_up(self.hi)
            self.coeffs = self.coeffs.astype(np.float32)
        self.has_linear = bool(self.is_linear.any())
        # Transposed contiguous copies: the kernels walk lag-major.
        self._loT = np.ascontiguousarray(self.lo.T)
        self._hiT = np.ascontiguousarray(self.hi.T)
        self._weightsT = np.ascontiguousarray(self.coeffs[:, :d].T)
        self._intercept = np.ascontiguousarray(self.coeffs[:, d])
        self._lag_order = self._plan_lag_order()

    def __len__(self) -> int:
        return self.n_rules

    # -- zero-copy sharing ---------------------------------------------------

    #: Every ndarray a compiled system needs at scoring time.  The
    #: kernel-facing transposes are exported too — rebuilding them on
    #: the receiving side would copy, defeating shared-memory attach.
    _BLOCK_ARRAYS = (
        "lo", "hi", "coeffs", "is_linear",
        "_loT", "_hiT", "_weightsT", "_intercept", "_lag_order",
    )

    def export_blocks(self) -> Dict[str, Union[np.ndarray, int]]:
        """The compiled pool as a flat dict of arrays + scalars.

        The export is everything :meth:`from_blocks` needs to rebuild
        a scoring-equivalent system **without the original rules**:
        the packed bounds/coefficient arrays (including the
        lag-major transposes the kernels walk) plus the integer
        shape/tuning scalars.  All arrays are C-contiguous, so a
        :class:`~repro.parallel.shm.SharedArrayPool` can place them
        in shared-memory segments and worker processes can attach
        read-only views — one copy of the model per host, no matter
        how many shards serve it (see
        :class:`repro.service.sharding.ShardedForecastService`).
        """
        blocks: Dict[str, Union[np.ndarray, int]] = {
            name: getattr(self, name) for name in self._BLOCK_ARRAYS
        }
        blocks["block_size"] = self.block_size
        # Kernel generation travels with the pack (storage is implied
        # by the array dtypes); absent in pre-staged exports, where
        # from_blocks falls back to the staged default.
        blocks["matcher"] = 1 if self.matcher == "legacy" else 0
        return blocks

    @classmethod
    def from_blocks(
        cls, blocks: Dict[str, Union[np.ndarray, int]]
    ) -> "CompiledRuleSystem":
        """Rebuild a compiled system from :meth:`export_blocks` output.

        Arrays are adopted as-is — typically read-only shared-memory
        views — with **zero copies**: the scoring kernels only ever
        read them.  Bitwise contract: the arrays hold the same bits,
        the kernels are the same code, so a reconstructed system's
        forecasts equal the original's exactly.
        """
        missing = [
            k for k in (*cls._BLOCK_ARRAYS, "block_size") if k not in blocks
        ]
        if missing:
            raise ValueError(f"incomplete block export: missing {missing}")
        self = cls.__new__(cls)
        for name in cls._BLOCK_ARRAYS:
            setattr(self, name, np.asarray(blocks[name]))
        self.block_size = int(blocks["block_size"])
        self.matcher = "legacy" if int(blocks.get("matcher", 0)) else "staged"
        self.storage = (
            "float32" if self.lo.dtype == np.float32 else "float64"
        )
        self.n_rules, self.n_lags = self.lo.shape
        self.is_linear = self.is_linear.astype(bool, copy=False)
        self.has_linear = bool(self.is_linear.any())
        return self

    # -- compilation --------------------------------------------------------

    def _plan_lag_order(self) -> np.ndarray:
        """Evaluation order over lags: selective first, index-spaced.

        Selectivity is estimated from the summed finite interval widths
        (wildcards rank last).  Consecutive picks are kept ``>= D // 4``
        apart in lag index when possible: windows of a smooth series are
        strongly autocorrelated, so adjacent lags filter almost nothing
        once one of them has been applied, while distant lags
        de-correlate and shrink the candidate set geometrically.
        """
        d = self.n_lags
        width = self.hi - self.lo
        finite = np.isfinite(width)
        score = np.where(finite, width, 0.0).sum(axis=0)
        score += (~finite).sum(axis=0) * (np.abs(score).max() + 1.0) * d
        ranked = list(np.argsort(score, kind="stable"))
        picked: List[int] = []
        min_gap = max(1, d // 4)
        while ranked:
            gap = min_gap
            choice: Optional[int] = None
            while choice is None:
                for j in ranked:
                    if all(abs(j - p) >= gap for p in picked):
                        choice = j
                        break
                gap -= 1
            picked.append(choice)
            ranked.remove(choice)
        return np.asarray(picked, dtype=np.intp)

    # -- matching -----------------------------------------------------------

    def _dense_pairs(self, blkT: np.ndarray, n_block: int):
        """(rule, pattern) pairs via the dense stacked-bounds kernel.

        Same shape as :func:`population_match_matrix_stacked`, walked
        lag-major so the working set is one ``(R, B)`` boolean matrix.
        """
        M = np.ones((self.n_rules, n_block), dtype=bool)
        for j in self._lag_order:
            col = blkT[j]
            np.logical_and(M, col >= self._loT[j][:, None], out=M)
            np.logical_and(M, col <= self._hiT[j][:, None], out=M)
        return self._unravel_pairs(M, n_block)

    def _match_pairs(self, blkT: np.ndarray, n_block: int):
        """All matching (rule, pattern) pairs of one block, rule-major.

        Dispatches on ``matcher`` and scale: the staged generation
        routes micro blocks (serving micro-batches,
        ``n_block <= MICRO_BLOCK``) through the best-of-K interval
        index (:meth:`_micro_pairs`) and bulk blocks (analysis
        re-scoring) through the dense-prefix walk
        (:meth:`_bulk_pairs`); ``matcher="legacy"`` keeps the previous
        single-lag-scan kernel.  Every kernel is exact interval
        arithmetic and returns pairs rule-major (per-pattern ascending
        rule order — what the downstream sequential ``bincount``
        reductions need for the bitwise contract), so the choice never
        changes a single output bit: the property suite runs the same
        pools through both generations pair-for-pair.
        """
        if self.matcher == "legacy":
            return self._match_pairs_legacy(blkT, n_block)
        if n_block <= self.MICRO_BLOCK:
            return self._micro_pairs(blkT, n_block)
        return self._bulk_pairs(blkT, n_block)

    def _tail_pairs(
        self,
        blkT: np.ndarray,
        r_idx: np.ndarray,
        i_idx: np.ndarray,
        lags: np.ndarray,
        budget: int,
    ):
        """Verify candidate pairs over ``lags``; shared kernel tail.

        Two regimes, both built from the cheap primitives (1-D
        ``take`` gathers; never boolean-mask compression, which costs
        ~6x a gather at these sizes):

        * while the remaining work ``len(lags) * n_pairs`` exceeds
          ``budget``, **compaction** passes rewrite the pair list one
          lag at a time (most selective first) so later lags touch
          fewer pairs;
        * then one **accumulate sweep** ANDs every remaining lag into
          a single ``ok`` mask with no intermediate rewrites —
          per-rule bounds are expanded with ``np.repeat`` over the
          rule-major run lengths, avoiding per-pair 2-D fancy
          indexing.

        Order-preserving throughout (``nonzero`` + ``take`` keep the
        rule-major pair order), so bitwise-safe for the downstream
        sequential reductions.
        """
        n_lags = len(lags)
        oi = 0
        while oi < n_lags and r_idx.size and (
            (n_lags - oi) * r_idx.size > budget
        ):
            j = lags[oi]
            vals = blkT[j].take(i_idx)
            keep = vals >= self._loT[j].take(r_idx)
            np.logical_and(keep, vals <= self._hiT[j].take(r_idx), out=keep)
            sel = np.nonzero(keep)[0]
            r_idx = r_idx.take(sel)
            i_idx = i_idx.take(sel)
            oi += 1
        if oi >= n_lags or r_idx.size == 0:
            return r_idx, i_idx
        sizes = np.bincount(r_idx, minlength=self.n_rules)
        ok = np.ones(r_idx.size, dtype=bool)
        for j in lags[oi:]:
            vals = blkT[j].take(i_idx)
            np.logical_and(ok, vals >= np.repeat(self._loT[j], sizes), out=ok)
            np.logical_and(ok, vals <= np.repeat(self._hiT[j], sizes), out=ok)
        sel = np.nonzero(ok)[0]
        return r_idx.take(sel), i_idx.take(sel)

    @staticmethod
    def _unravel_pairs(M: np.ndarray, n_block: int):
        """Survivor (rule, pattern) pairs of a ``(R, n_block)`` mask.

        ``flatnonzero`` + divide instead of 2-D ``np.nonzero``: the
        unravel inside ``nonzero`` costs ~6x the flat scan itself
        (measured 2.4ms vs 0.36ms on a (240, 4096) matrix), while
        dividing flat indices only touches the survivors — a shift
        when the block is a power of two.  C-order flat indices are
        rule-major, so pair order is unchanged.
        """
        flat = np.flatnonzero(M)
        if n_block & (n_block - 1) == 0:
            r_idx = flat >> int(n_block.bit_length() - 1)
            i_idx = flat & (n_block - 1)
        else:
            r_idx = flat // n_block
            i_idx = flat - r_idx * n_block
        return r_idx, i_idx

    def _bulk_pairs(self, blkT: np.ndarray, n_block: int):
        """Bulk-block matcher: priced first pass, then sparse or dense.

        The most selective lag's dense pass is shared work: its
        ``count_nonzero`` (~45us, SIMD) prices the block exactly, so
        no separate sort-based probe is needed.  Sparse candidate sets
        (``<= DENSE_SWITCH`` of ``R*B``) extract that pass's survivors
        directly and verify via :meth:`_tail_pairs`.  Denser blocks
        continue the staged dense walk through the ``DENSE_PREFIX``
        most selective lags before extracting — survivors shrink
        geometrically over the prefix (measured 983k -> 64k at
        240x4096 on the kernel bench), which is why stopping the dense
        walk early and finishing sparse beats walking all ``D`` lags
        densely.
        """
        R, d = self.n_rules, self.n_lags
        order = self._lag_order
        j0 = order[0]
        col = blkT[j0]
        M = col >= self._loT[j0][:, None]
        np.logical_and(M, col <= self._hiT[j0][:, None], out=M)
        total = np.count_nonzero(M)
        if total > self.DENSE_SWITCH * R * n_block:
            prefix = min(self.DENSE_PREFIX, d)
            for j in order[1:prefix]:
                cj = blkT[j]
                np.logical_and(M, cj >= self._loT[j][:, None], out=M)
                np.logical_and(M, cj <= self._hiT[j][:, None], out=M)
            r_idx, i_idx = self._unravel_pairs(M, n_block)
            return self._tail_pairs(
                blkT, r_idx, i_idx, order[prefix:], self.FULL_CHECK_BUDGET
            )
        r_idx, i_idx = self._unravel_pairs(M, n_block)
        return self._tail_pairs(
            blkT, r_idx, i_idx, order[1:], self.FULL_CHECK_BUDGET
        )

    def _micro_pairs(self, blkT: np.ndarray, n_block: int):
        """Micro-block matcher: adaptive dense prefix, one-shot verify.

        At ``B <= 256`` the ``(R, B)`` dense mask is tiny (a 240-rule
        pool x 64 patterns is 15 KB — cache resident), so full-matrix
        ``logical_and`` passes over the most selective lags are cheaper
        than any sort-based candidate index: an argsort +
        ``searchsorted`` probe costs ``O(B log B + R)`` per lag *plus*
        pair materialization, and measured on the serving bench the
        whole probe apparatus (best-of-K ranges, integer rank pruning)
        loses to three in-cache dense passes.  So: walk at least
        ``MICRO_DENSE_PREFIX`` lags dense, then after each further lag
        price the exit — once ``survivors * remaining_lags`` falls
        under ``MICRO_VERIFY_BUDGET`` the mask is extracted into a
        rule-major pair list and the remaining lags are verified in one
        ``(rest, pairs)`` gather against repeat-expanded bounds (no
        per-lag compaction: at micro pair counts the extra passes cost
        more than they prune).  ``count_nonzero`` on the mask is ~1 µs,
        so the adaptive pricing is effectively free and self-tunes the
        prefix per block: correlated sliding windows keep walking while
        survivors stay dense, decorrelated serving batches exit after
        the minimum prefix.
        """
        R, d = self.n_rules, self.n_lags
        order = self._lag_order
        j0 = order[0]
        col = blkT[j0]
        M = col >= self._loT[j0][:, None]
        np.logical_and(M, col <= self._hiT[j0][:, None], out=M)
        t = 1
        while t < d:
            if (
                t >= self.MICRO_DENSE_PREFIX
                and np.count_nonzero(M) * (d - t) <= self.MICRO_VERIFY_BUDGET
            ):
                break
            j = order[t]
            col = blkT[j]
            np.logical_and(M, col >= self._loT[j][:, None], out=M)
            np.logical_and(M, col <= self._hiT[j][:, None], out=M)
            t += 1
        r_idx, i_idx = self._unravel_pairs(M, n_block)
        rest = order[t:]
        if rest.size == 0 or r_idx.size == 0:
            return r_idx, i_idx
        gathered = blkT[rest].take(i_idx, axis=1)
        szs = np.bincount(r_idx, minlength=R)
        Q = gathered >= np.repeat(self._loT[rest], szs, axis=1)
        np.logical_and(
            Q, gathered <= np.repeat(self._hiT[rest], szs, axis=1), out=Q
        )
        sel = np.nonzero(Q.all(axis=0))[0]
        return r_idx.take(sel), i_idx.take(sel)

    def _match_pairs_legacy(self, blkT: np.ndarray, n_block: int):
        """Previous kernel generation, kept verbatim as the A/B baseline.

        Single-lag sorted scan with per-pair compaction, falling back
        to the pure dense walk above ``DENSE_SWITCH``
        (``MICRO_DENSE_SWITCH`` for micro blocks).  Exact, like every
        kernel here — ``matcher="legacy"`` exists so a regression in
        the staged generation can be bisected and flagged off without
        touching rule code, and so the parity suite has a live
        in-tree oracle.
        """
        R, d = self.n_rules, self.n_lags
        if n_block <= self.MICRO_BLOCK:
            sparse_cap = self.MICRO_DENSE_SWITCH * R * n_block
            check_budget = self.MICRO_CHECK_BUDGET_PER_PATTERN * n_block
        else:
            sparse_cap = self.DENSE_SWITCH * R * n_block
            check_budget = self.FULL_CHECK_BUDGET
        order = self._lag_order
        j0 = order[0]
        col = blkT[j0]
        perm = np.argsort(col, kind="stable")
        sorted_col = col[perm]
        first = np.searchsorted(sorted_col, self._loT[j0], side="left")
        last = np.searchsorted(sorted_col, self._hiT[j0], side="right")
        sizes = last - first
        total = int(sizes.sum())
        if total > sparse_cap:
            return self._dense_pairs(blkT, n_block)
        r_idx = np.repeat(np.arange(R, dtype=np.intp), sizes)
        pos = np.arange(total, dtype=np.intp)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        pos -= np.repeat(starts - first, sizes)
        i_idx = perm[pos]
        checked = 1
        for j in order[1:]:
            if r_idx.size == 0:
                return r_idx, i_idx
            if (d - checked) * r_idx.size <= check_budget:
                break
            vals = blkT[j][i_idx]
            keep = (vals >= self.lo[r_idx, j]) & (vals <= self.hi[r_idx, j])
            r_idx = r_idx[keep]
            i_idx = i_idx[keep]
            checked += 1
        if checked < d and r_idx.size:
            rest = order[checked:]
            gathered = blkT[rest][:, i_idx]
            ok = (
                (gathered >= self._loT[rest][:, r_idx])
                & (gathered <= self._hiT[rest][:, r_idx])
            ).all(axis=0)
            r_idx = r_idx[ok]
            i_idx = i_idx[ok]
        return r_idx, i_idx

    # -- prediction ---------------------------------------------------------

    def _pair_outputs(self, blkT: np.ndarray, r_idx, i_idx) -> np.ndarray:
        """Rule outputs for each (rule, pattern) pair — oracle order.

        The scalar contract of :meth:`~repro.core.rule.Rule.output`
        (intercept first, then ``+ x_j * a_j`` for ``j = 0 … D-1``) as
        ``D`` whole-pair-list operations, one per lag: temporaries stay
        one pair wide and each lag reads one contiguous row of the
        lag-major block and of the weights.
        """
        # Accumulate in float64 regardless of storage: float32 packs
        # round the *parameters* only, never the arithmetic.
        out = self._intercept[r_idx].astype(np.float64, copy=False)
        if self.has_linear and r_idx.size:
            lin = self.is_linear[r_idx]
            if lin.any():
                rl = r_idx[lin]
                il = i_idx[lin]
                acc = out[lin]
                for j in range(self.n_lags):
                    acc += blkT[j][il] * self._weightsT[j][rl]
                out[lin] = acc
        return out

    def predict(
        self, patterns: np.ndarray, rich: bool = False
    ) -> PredictionBatch:
        """Mean-of-matching-rules prediction for ``(n, D)`` patterns.

        Bitwise identical to the per-rule reference loop
        (``RuleSystem.predict(..., compiled=False)``).  ``rich=True``
        adds per-pattern dispersion/interval/confidence in one extra
        ``bincount`` pass over the same matched pairs — the point
        values are computed by the unchanged code and stay bitwise
        identical to the plain path.
        """
        patterns = np.atleast_2d(np.asarray(patterns, dtype=np.float64))
        n = patterns.shape[0]
        if patterns.shape[1] != self.n_lags:
            raise ValueError(
                f"patterns have {patterns.shape[1]} lags, rules expect "
                f"{self.n_lags}"
            )
        if n == 1:
            return self._predict_single(patterns[0], rich=rich)
        if not np.isfinite(patterns).all():
            raise ValueError(
                "compiled prediction requires finite patterns (no NaN/inf); "
                "clean the input or use predict(..., compiled=False)"
            )
        return self._predict_blocks(patterns, rich=rich)

    def _predict_blocks(
        self, patterns: np.ndarray, rich: bool = False
    ) -> PredictionBatch:
        """Blocked multi-pattern kernel (validated ``(n, D)`` float64).

        The rich pass rides the block loop: each block's mean is fully
        determined by its own ``bincount`` (blocks partition patterns),
        so squared deviations of the pair outputs from that mean are
        accumulated with a second ``bincount`` over the same rule-major
        pairs — per pattern in ascending rule order, exactly the order
        of the oracle's second scatter-add loop.
        """
        n = patterns.shape[0]
        totals = np.zeros(n, dtype=np.float64)
        counts = np.zeros(n, dtype=np.int64)
        m2 = np.zeros(n, dtype=np.float64) if rich else None
        for start in range(0, n, self.block_size):
            stop = min(start + self.block_size, n)
            blkT = np.ascontiguousarray(patterns[start:stop].T)
            self._score_blockT(blkT, start, stop, totals, counts, m2)
        return self._finish_batch(totals, counts, m2, rich)

    def _predict_blocksT(
        self, stackT: np.ndarray, rich: bool = False
    ) -> PredictionBatch:
        """Blocked kernel over an already-transposed ``(D, n)`` stack.

        The fused-stacking entry: the serving gateway fills a
        lag-major stack buffer directly from its ring buffers, so the
        per-block ``patterns[start:stop].T`` copy of
        :meth:`_predict_blocks` disappears — the kernels run on column
        views of the caller's buffer.  Row slices of a C-order
        ``(D, n)`` buffer stay contiguous under the column slicing, so
        the lag-major walks lose nothing; every arithmetic op sees the
        same values in the same order, keeping the result bitwise
        equal to the row-major path.
        """
        n = stackT.shape[1]
        totals = np.zeros(n, dtype=np.float64)
        counts = np.zeros(n, dtype=np.int64)
        m2 = np.zeros(n, dtype=np.float64) if rich else None
        for start in range(0, n, self.block_size):
            stop = min(start + self.block_size, n)
            self._score_blockT(
                stackT if n <= self.block_size else stackT[:, start:stop],
                start, stop, totals, counts, m2,
            )
        return self._finish_batch(totals, counts, m2, rich)

    def _score_blockT(
        self,
        blkT: np.ndarray,
        start: int,
        stop: int,
        totals: np.ndarray,
        counts: np.ndarray,
        m2: Optional[np.ndarray],
    ) -> None:
        """Match + score one ``(D, stop-start)`` block into the batch
        accumulators (shared by both block-loop orientations)."""
        r_idx, i_idx = self._match_pairs(blkT, stop - start)
        outputs = self._pair_outputs(blkT, r_idx, i_idx)
        totals[start:stop] = np.bincount(
            i_idx, weights=outputs, minlength=stop - start
        )
        counts[start:stop] = np.bincount(i_idx, minlength=stop - start)
        if m2 is not None:
            # Same float ops as the naive masked form, expressed
            # allocation-light: ``divide(where=)`` skips the
            # boolean fancy-index round trips, ``take`` beats
            # advanced indexing for the per-pair gather, and the
            # subtract/multiply reuse the gather buffer in place.
            # Every element's arithmetic is unchanged, so the
            # moments stay bitwise equal to the per-rule oracle.
            blk_counts = counts[start:stop]
            blk_values = np.zeros(stop - start, dtype=np.float64)
            np.divide(
                totals[start:stop], blk_counts, out=blk_values,
                where=blk_counts > 0,
            )
            dev = blk_values.take(i_idx)
            np.subtract(outputs, dev, out=dev)
            np.multiply(dev, dev, out=dev)
            m2[start:stop] = np.bincount(
                i_idx, weights=dev, minlength=stop - start
            )

    @staticmethod
    def _finish_batch(
        totals: np.ndarray,
        counts: np.ndarray,
        m2: Optional[np.ndarray],
        rich: bool,
    ) -> PredictionBatch:
        predicted = counts > 0
        values = np.full(totals.shape[0], np.nan)
        values[predicted] = totals[predicted] / counts[predicted]
        if rich:
            return rich_from_moments(values, predicted, counts, m2)
        return PredictionBatch(
            values=values, predicted=predicted, n_rules_used=counts
        )

    def predict_windows(
        self, windows: np.ndarray, rich: bool = False
    ) -> PredictionBatch:
        """Micro-batch entry point: score a pre-validated window stack.

        The serving gateway (:class:`repro.service.ForecastService`)
        stacks the ready windows of many concurrent streams into one
        ``(k, D)`` matrix and scores them in a single call — this is
        what turns ``k`` per-event :meth:`_predict_single` dispatches
        into one batched kernel pass.  Bitwise identical to scoring
        each row on its own (both paths honour the per-rule loop's
        scalar contract; ``tests/property/test_service_batching.py``
        holds all three equal), so micro-batching is purely a
        throughput decision.

        Unlike :meth:`predict`, rows are **not** re-validated for
        finiteness: the gateway already rejects non-finite observations
        at ingest (before they reach any buffer), so re-scanning every
        micro-batch would tax the hot path to re-prove an invariant.
        Callers that cannot guarantee finite windows must use
        :meth:`predict`.  ``k = 0`` (no stream ready this batch) is
        valid and returns an empty batch.

        ``rich=True`` opts into the uncertainty-carrying
        :class:`~repro.core.predictor.RichPredictionBatch` — same point
        bits, one extra reduction pass.
        """
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 2 or windows.shape[1] != self.n_lags:
            raise ValueError(
                f"expected a (k, {self.n_lags}) window stack, got shape "
                f"{windows.shape}"
            )
        k = windows.shape[0]
        if k == 0:
            if rich:
                return rich_from_moments(
                    np.full(0, np.nan),
                    np.zeros(0, dtype=bool),
                    np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.float64),
                )
            return PredictionBatch(
                values=np.full(0, np.nan),
                predicted=np.zeros(0, dtype=bool),
                n_rules_used=np.zeros(0, dtype=np.int64),
            )
        if k == 1:
            return self._predict_single(windows[0], rich=rich)
        return self._predict_blocks(windows, rich=rich)

    def predict_windowsT(
        self, stackT: np.ndarray, k: Optional[int] = None, rich: bool = False
    ) -> PredictionBatch:
        """Score the first ``k`` columns of a lag-major ``(D, cap)`` stack.

        The zero-copy twin of :meth:`predict_windows` for callers that
        assemble windows **column-wise** — the serving gateway's fused
        stacking path writes each ready ring window straight into a
        column of a persistent per-model buffer and scores it here,
        skipping both the per-flush stack allocation and the per-block
        transpose copy the row-major entry pays.  ``k`` defaults to
        every column; a buffer wider than ``k`` is fine (only the
        leading columns are read).  Results are bitwise identical to
        ``predict_windows(stackT[:, :k].T, rich=rich)`` — the same
        kernels run on the same values, only the memory walk changes
        (``tests/property/test_service_batching.py`` and the compiled
        suite pin this).

        Like :meth:`predict_windows`, multi-column stacks are not
        re-validated for finiteness (the gateway rejects non-finite
        observations at ingest); the single-column path shares
        :meth:`_predict_single` and keeps its check, exactly as the
        row-major entry does.
        """
        stackT = np.asarray(stackT, dtype=np.float64)
        if stackT.ndim != 2 or stackT.shape[0] != self.n_lags:
            raise ValueError(
                f"expected a ({self.n_lags}, cap) window stack, got shape "
                f"{stackT.shape}"
            )
        k = stackT.shape[1] if k is None else int(k)
        if not 0 <= k <= stackT.shape[1]:
            raise ValueError(
                f"k={k} outside the stack's {stackT.shape[1]} columns"
            )
        if k == 0:
            if rich:
                return rich_from_moments(
                    np.full(0, np.nan),
                    np.zeros(0, dtype=bool),
                    np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.float64),
                )
            return PredictionBatch(
                values=np.full(0, np.nan),
                predicted=np.zeros(0, dtype=bool),
                n_rules_used=np.zeros(0, dtype=np.int64),
            )
        if k == 1:
            return self._predict_single(stackT[:, 0], rich=rich)
        return self._predict_blocksT(stackT[:, :k], rich=rich)

    def _predict_single(
        self, pattern: np.ndarray, rich: bool = False
    ) -> PredictionBatch:
        """One-pattern fast path: the streaming/serving step.

        A handful of whole-pool operations instead of the batch
        machinery — ~40x fewer numpy calls than the per-rule loop at
        batch size 1, which is what
        :class:`repro.serve.StreamingForecaster` rides on.
        """
        if not np.isfinite(pattern).all():
            raise ValueError(
                "compiled prediction requires finite patterns (no NaN/inf)"
            )
        matched = ((pattern >= self.lo) & (pattern <= self.hi)).all(axis=1)
        idx = np.nonzero(matched)[0]
        k = idx.size
        if k == 0:
            if rich:
                return rich_from_moments(
                    np.full(1, np.nan),
                    np.zeros(1, dtype=bool),
                    np.zeros(1, dtype=np.int64),
                    np.zeros(1, dtype=np.float64),
                )
            return PredictionBatch(
                values=np.full(1, np.nan),
                predicted=np.zeros(1, dtype=bool),
                n_rules_used=np.zeros(1, dtype=np.int64),
            )
        outputs = self._intercept[idx].astype(np.float64, copy=False)
        lin = self.is_linear[idx]
        if lin.any():
            li = idx[lin]
            acc = outputs[lin]
            for j in range(self.n_lags):
                acc += pattern[j] * self._weightsT[j][li]
            outputs[lin] = acc
        # bincount is a strictly sequential reduction — same addition
        # order as the oracle's per-rule scatter-add (np.sum is not:
        # it unrolls 8-wide above a handful of elements).
        total = np.bincount(np.zeros(k, dtype=np.intp), weights=outputs)[0]
        if rich:
            value = total / k
            dev = outputs - value
            m2 = np.bincount(np.zeros(k, dtype=np.intp), weights=dev * dev)[0]
            return rich_from_moments(
                np.array([value]),
                np.ones(1, dtype=bool),
                np.array([k], dtype=np.int64),
                np.array([m2]),
            )
        return PredictionBatch(
            values=np.array([total / k]),
            predicted=np.ones(1, dtype=bool),
            n_rules_used=np.array([k], dtype=np.int64),
        )

    def predict_one(self, pattern: np.ndarray) -> Optional[float]:
        """Single-pattern convenience; ``None`` when the system abstains."""
        pattern = np.asarray(pattern, dtype=np.float64)
        if pattern.ndim != 1 or pattern.shape[0] != self.n_lags:
            raise ValueError(
                f"pattern shape {pattern.shape} incompatible with arity "
                f"{self.n_lags}"
            )
        batch = self._predict_single(pattern)
        if not batch.predicted[0]:
            return None
        return float(batch.values[0])
