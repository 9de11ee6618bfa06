"""Crowding replacement by phenotypic distance (§3.3).

The offspring "replaces the nearest individual … in phenotypic distance,
i.e. … the individual in the population that makes predictions on
similar zones in the prediction space", and only if it is fitter —
De Jong-style crowding, which is what maintains the population's niche
structure (one rule per behaviour regime).

The phenotype of a rule is *where it predicts*: its matched-window set
on the training data.  Distance between two rules is the Jaccard
distance between their matched sets.  On a ``(P, n)`` boolean mask
matrix, :func:`jaccard_distances` counts the intersections by scanning
the matrix and stays the oracle.  Given the engine's
:class:`~repro.core.population_state.PopulationState` it counts them as
AND + popcount over the state's packed rows and takes ``|B|`` from its
cached row sizes.  Both feed the same integers into the same formula,
so the distances, and the slot crowding picks, are bitwise equal.
Prediction-value distance breaks ties and covers rules with empty
matched sets.

Alternative strategies (``prediction``-only distance, ``random``
replacement, replace-``worst``) are provided for the ablation bench.

The mask-matrix argument of these helpers may be a raw ``(P, n)``
boolean matrix or the engine's live
:class:`~repro.core.population_state.PopulationState`; passing the
state lets :func:`try_replace` keep its fitness vector, coverage
counts, packed rows and row sizes in sync with the one-row update.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .population_state import MaskSource, PopulationState
from .rule import Rule

__all__ = [
    "jaccard_distances",
    "prediction_distances",
    "nearest_phenotype_index",
    "replacement_index",
    "try_replace",
]


def jaccard_distances(
    offspring_mask: np.ndarray, population_masks: MaskSource
) -> np.ndarray:
    """Jaccard distance between one mask and each row of a mask matrix.

    ``d(A, B) = 1 - |A ∩ B| / |A ∪ B|``; two empty sets have distance 0
    (identical empty phenotypes), an empty vs non-empty pair has
    distance 1.  On a ``(P, n)`` boolean matrix the intersections come
    from a scan of the whole matrix — the oracle.  On a
    :class:`~repro.core.population_state.PopulationState` they come
    from its packed rows and ``|B|`` from its row sizes: the same int64
    counts, hence bitwise-equal distances.
    """
    if offspring_mask.ndim != 1:
        raise ValueError("expected an (n,) offspring mask")
    if isinstance(population_masks, PopulationState):
        inter = population_masks.intersections(offspring_mask)
        sizes = population_masks.sizes
    else:
        if population_masks.ndim != 2:
            raise ValueError("expected (P, n) mask matrix and (n,) offspring mask")
        if population_masks.shape[1] != offspring_mask.shape[0]:
            raise ValueError("mask lengths disagree")
        inter = (population_masks & offspring_mask).sum(axis=1, dtype=np.int64)
        sizes = population_masks.sum(axis=1, dtype=np.int64)
    union = sizes + int(np.count_nonzero(offspring_mask)) - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        dist = 1.0 - inter / union
    dist[union == 0] = 0.0
    return dist


def prediction_distances(offspring: Rule, population: Sequence[Rule]) -> np.ndarray:
    """|p_offspring − p_i| per individual (NaN-safe: NaN → +inf)."""
    preds = np.array([r.prediction for r in population], dtype=np.float64)
    dist = np.abs(preds - offspring.prediction)
    dist[~np.isfinite(dist)] = np.inf
    return dist


def nearest_phenotype_index(
    offspring: Rule,
    population: Sequence[Rule],
    population_masks: MaskSource,
) -> int:
    """Index of the phenotypically nearest individual to the offspring.

    Primary key: Jaccard distance on training match masks.  Ties (and
    the all-empty degenerate case) are broken by prediction-value
    distance, then by lowest fitness (prefer displacing weak rules).
    ``population_masks`` may be a raw ``(P, n)`` matrix or a
    :class:`~repro.core.population_state.PopulationState`, whose packed
    rows and row sizes give the same distances without a matrix scan.
    """
    if offspring.match_mask is None:
        raise ValueError("offspring must be evaluated before replacement")
    dj = jaccard_distances(offspring.match_mask, population_masks)
    best = np.nonzero(dj == dj.min())[0]
    if best.size == 1:
        return int(best[0])
    dp = prediction_distances(offspring, population)[best]
    best = best[dp == dp.min()]
    if best.size == 1:
        return int(best[0])
    fits = np.array([population[int(i)].fitness for i in best])
    return int(best[int(np.argmin(fits))])


def replacement_index(
    offspring: Rule,
    population: Sequence[Rule],
    population_masks: MaskSource,
    mode: str,
    rng: np.random.Generator,
) -> int:
    """Pick the replacement slot under the configured strategy."""
    if mode == "jaccard":
        return nearest_phenotype_index(offspring, population, population_masks)
    if mode == "prediction":
        dp = prediction_distances(offspring, population)
        return int(np.argmin(dp))
    if mode == "random":
        return int(rng.integers(0, len(population)))
    if mode == "worst":
        fits = np.array([r.fitness for r in population])
        return int(np.argmin(fits))
    raise ValueError(f"unknown crowding mode {mode!r}")


def try_replace(
    population: List[Rule],
    population_masks: MaskSource,
    offspring: Rule,
    index: int,
) -> bool:
    """Replace ``population[index]`` iff the offspring is strictly fitter.

    Updates the stacked mask matrix row in place on success — and, when
    ``population_masks`` is a
    :class:`~repro.core.population_state.PopulationState`, its fitness
    vector, coverage counts, packed rows and row sizes too.  Returns
    whether the replacement happened (§3.3: "else the population
    doesn't change").
    """
    if isinstance(population_masks, PopulationState):
        return population_masks.try_replace(population, offspring, index)
    if offspring.fitness > population[index].fitness:
        population[index] = offspring
        if offspring.match_mask is not None:
            population_masks[index] = offspring.match_mask
        return True
    return False
