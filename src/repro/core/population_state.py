"""Incrementally maintained population-wide evaluation state.

The steady-state GA (§3.3) replaces *at most one* individual per
generation, so every population-wide quantity the engine consumes —
the match matrix and its packed mirror used by crowding replacement,
the fitness vector behind statistics snapshots, the coverage counts
behind the "percentage of prediction" — changes by at most one row per
generation.  :class:`PopulationState` owns those quantities and
exposes :meth:`PopulationState.replace` so that a generation costs one
row update (``O(n)``) instead of a full recomputation over all ``P``
rules × ``n`` windows (``O(P·n·D)``).

Crowding reads the packed mirror: each mask row is also kept as
``ceil(n / 64)`` ``uint64`` words, next to its set size, so
:meth:`PopulationState.intersections` counts ``|A ∩ B|`` for every
row as AND + popcount over ``n / 64`` words rather than a scan of the
``(P, n)`` bool matrix.  Popcount is ``np.bitwise_count`` on numpy 2,
and a 256-entry byte table on older numpy.

Cold starts (engine initialization, island migration bootstraps) go
through :meth:`PopulationState.from_population`, which reuses the
rules' cached masks when they are valid and otherwise falls back to the
batched :func:`~repro.core.matching.population_match_matrix_stacked`
kernel.  The per-rule dense path
(:func:`~repro.core.matching.match_mask_dense` +
:func:`~repro.core.evaluation.evaluate_population`) remains the
property-test oracle; see ``tests/property/test_population_state.py``.

Setting ``EvolutionConfig(incremental=False)`` (CLI:
``--no-incremental``) makes the engine rebuild this state from scratch
every generation — the A/B baseline for
``benchmarks/bench_kernels.py``'s generations/sec comparison.  Both
paths are bitwise identical in results; only the work differs.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .matching import match_mask_dense, population_match_matrix_stacked
from .rule import Rule

__all__ = ["PopulationState", "MaskSource", "as_mask_matrix", "pack_masks"]


def pack_masks(masks: np.ndarray) -> np.ndarray:
    """Pack bool masks along the last axis into ``uint64`` words.

    ``(..., n)`` bool becomes ``(..., ceil(n / 64))`` ``uint64``; the
    padding bits of the last word are zero, so popcounts of ANDed rows
    count exactly the shared set bits.
    """
    n = masks.shape[-1]
    words = np.zeros(masks.shape[:-1] + ((n + 63) // 64,), dtype=np.uint64)
    words.view(np.uint8)[..., : (n + 7) // 8] = np.packbits(masks, axis=-1)
    return words


_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _table_popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a ``(P, W)`` word matrix, by byte table."""
    return _BYTE_POPCOUNT[words.view(np.uint8)].sum(axis=1, dtype=np.int64)


def _native_popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a ``(P, W)`` word matrix (numpy >= 2.0)."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


#: Row popcounts as int64: ``np.bitwise_count`` exists from numpy 2.0.
_row_popcounts = _native_popcounts if hasattr(np, "bitwise_count") else _table_popcounts


class PopulationState:
    """Cache of population-wide quantities, updated one row at a time.

    Attributes
    ----------
    masks:
        ``(P, n)`` boolean match matrix — row ``i`` is rule ``i``'s
        match mask over the training windows (the crowding phenotype).
    fitness:
        ``(P,)`` float64 — per-rule fitness, kept in sync with
        ``population[i].fitness``.
    coverage_counts:
        ``(n,)`` int64 — number of rules matching each window
        (``masks.sum(axis=0)``), maintained incrementally so coverage
        queries are ``O(n)`` instead of ``O(P·n)``.
    packed:
        ``(P, ceil(n / 64))`` uint64 — ``masks`` packed by
        :func:`pack_masks`; the crowding phenotype as bit rows.
    sizes:
        ``(P,)`` int64 — matched windows per rule
        (``masks.sum(axis=1)``), the ``|B|`` of every Jaccard union.
    windows:
        Optional reference to the window matrix the masks were computed
        against; lets consumers (diagnostics) detect by identity that a
        state belongs to a *different* window set of the same length.
    """

    __slots__ = ("masks", "fitness", "coverage_counts", "packed", "sizes", "windows")

    def __init__(
        self,
        masks: np.ndarray,
        fitness: np.ndarray,
        windows: Optional[np.ndarray] = None,
    ) -> None:
        masks = np.asarray(masks, dtype=bool)
        fitness = np.asarray(fitness, dtype=np.float64)
        if masks.ndim != 2:
            raise ValueError("masks must be a (P, n) boolean matrix")
        if fitness.shape != (masks.shape[0],):
            raise ValueError(
                f"fitness shape {fitness.shape} != ({masks.shape[0]},)"
            )
        if windows is not None and windows.shape[0] != masks.shape[1]:
            raise ValueError(
                f"windows rows {windows.shape[0]} != mask columns "
                f"{masks.shape[1]}"
            )
        self.masks = masks
        self.fitness = fitness
        self.coverage_counts = masks.sum(axis=0, dtype=np.int64)
        self.packed = pack_masks(masks)
        self.sizes = masks.sum(axis=1, dtype=np.int64)
        self.windows = windows

    # -- construction -------------------------------------------------------

    @classmethod
    def from_population(
        cls,
        rules: Sequence[Rule],
        windows: np.ndarray,
        use_cached: bool = True,
    ) -> "PopulationState":
        """Cold-start the state for an evaluated population.

        With ``use_cached=True`` (the default) rules carrying a cached
        ``match_mask`` computed against *this* window matrix
        (identity-keyed) contribute it for free and only the remainder
        is matched fresh.  With ``use_cached=False`` every row is
        recomputed through the batched stacked-bounds kernel — the
        full-recomputation baseline used by ``--no-incremental``
        benchmarking.
        """
        n = windows.shape[0]
        if not use_cached:
            masks = population_match_matrix_stacked(rules, windows)
        else:
            # Cached rows are copied, not aliased: the state's matrix is
            # mutated in place by replace(), and sharing buffers with the
            # rules' own mask caches would corrupt evicted rules.
            masks = np.empty((len(rules), n), dtype=bool)
            missing = []
            for i, rule in enumerate(rules):
                cached = rule.cached_mask_for(windows)
                if cached is not None:
                    masks[i] = cached
                else:
                    missing.append(i)
            if missing:
                fresh = population_match_matrix_stacked(
                    [rules[i] for i in missing], windows
                )
                for row, i in enumerate(missing):
                    masks[i] = fresh[row]
        fitness = np.array([r.fitness for r in rules], dtype=np.float64)
        return cls(masks, fitness, windows=windows)

    # -- basic properties ---------------------------------------------------

    @property
    def n_rules(self) -> int:
        """``P`` — population size."""
        return self.masks.shape[0]

    @property
    def n_windows(self) -> int:
        """``n`` — training windows the masks are defined over."""
        return self.masks.shape[1]

    @property
    def coverage_mask(self) -> np.ndarray:
        """Windows matched by at least one rule (the predictable zone)."""
        return self.coverage_counts > 0

    @property
    def coverage(self) -> float:
        """Fraction of windows covered (paper: percentage of prediction)."""
        if self.n_windows == 0:
            return 0.0
        return float(self.coverage_mask.mean())

    @property
    def best_fitness(self) -> float:
        """Maximum fitness in the population."""
        return float(self.fitness.max())

    @property
    def mean_fitness(self) -> float:
        """Mean fitness over the population."""
        return float(self.fitness.mean())

    def n_valid(self, f_min: float) -> int:
        """Number of rules strictly above the invalid-rule floor."""
        return int((self.fitness > f_min).sum())

    def intersections(self, mask: np.ndarray) -> np.ndarray:
        """``|mask ∩ row|`` for every mask row, as ``(P,)`` int64.

        AND + popcount of ``mask``'s packed words against
        :attr:`packed`: ``P·n/64`` word operations instead of a
        ``(P, n)`` bool scan.
        """
        if mask.shape != (self.n_windows,):
            raise ValueError(
                f"mask shape {mask.shape} != ({self.n_windows},)"
            )
        return _row_popcounts(self.packed & pack_masks(mask))

    # -- incremental updates ------------------------------------------------

    def replace(self, index: int, new_rule: Rule) -> None:
        """Install ``new_rule`` at ``index``: one ``O(n)`` row update.

        Updates the match-matrix row and its packed mirror and size,
        the fitness entry and the coverage counts; the caller is
        responsible for mutating the population list itself (or use
        :meth:`try_replace`).
        """
        if not 0 <= index < self.n_rules:
            raise IndexError(f"index {index} out of range [0, {self.n_rules})")
        mask = new_rule.match_mask
        if mask is None or mask.shape[0] != self.n_windows:
            raise ValueError(
                "new_rule must be evaluated against the same windows "
                "before it can enter the population state"
            )
        old = self.masks[index]
        self.coverage_counts -= old
        self.coverage_counts += mask
        self.masks[index] = mask
        self.packed[index] = pack_masks(mask)
        self.sizes[index] = np.count_nonzero(mask)
        self.fitness[index] = new_rule.fitness

    def try_replace(
        self, population: list, offspring: Rule, index: int
    ) -> bool:
        """Crowding acceptance: replace iff strictly fitter (§3.3).

        On success mutates both ``population[index]`` and this state;
        on rejection nothing changes.  Returns whether the replacement
        happened.
        """
        if offspring.fitness > population[index].fitness:
            population[index] = offspring
            self.replace(index, offspring)
            return True
        return False

    # -- verification -------------------------------------------------------

    def verify(self, rules: Sequence[Rule], windows: np.ndarray) -> None:
        """Assert this state equals a from-scratch recomputation.

        Debug/test helper: raises ``AssertionError`` when any cached
        quantity has drifted from the oracle (per-rule
        :func:`~repro.core.matching.match_mask_dense` plus fresh
        reductions and packing).
        """
        assert len(rules) == self.n_rules
        for i, rule in enumerate(rules):
            expect = match_mask_dense(rule, windows)
            assert np.array_equal(self.masks[i], expect), f"mask row {i} stale"
            assert self.fitness[i] == rule.fitness, f"fitness entry {i} stale"
        assert np.array_equal(
            self.coverage_counts, self.masks.sum(axis=0, dtype=np.int64)
        ), "coverage counts stale"
        assert np.array_equal(self.packed, pack_masks(self.masks)), "packed rows stale"
        assert np.array_equal(
            self.sizes, self.masks.sum(axis=1, dtype=np.int64)
        ), "row sizes stale"


#: Accepted forms of a population mask matrix across the core helpers.
MaskSource = Union[np.ndarray, PopulationState]


def as_mask_matrix(masks: MaskSource) -> np.ndarray:
    """Coerce a raw ``(P, n)`` matrix or a :class:`PopulationState`.

    Lets replacement/diagnostics helpers accept either representation
    so callers holding only a matrix (tests, ad-hoc analysis) keep
    working while the engine routes its state object straight through.
    """
    if isinstance(masks, PopulationState):
        return masks.masks
    return np.asarray(masks)
