"""Rule evaluation: match → fit predicting part → fitness.

This ties together :mod:`~repro.core.matching`,
:mod:`~repro.core.regression` and :mod:`~repro.core.fitness` into the
single operation the engine applies to every offspring, caching the
match mask on the rule (it doubles as the crowding phenotype).

:func:`evaluate_population` matches all rules in one call of
:func:`~repro.core.matching.population_match_matrix_stacked`, the
cold-start path of
:class:`~repro.core.population_state.PopulationState`.  Per-offspring
evaluation (:func:`evaluate_rule` without a precomputed mask) calls
:func:`~repro.core.matching.match_mask`, which on a training set's
sliding-window view works from the sorted series rather than the whole
window matrix.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..series.windowing import WindowDataset
from .config import EvolutionConfig
from .fitness import rule_fitness
from .matching import match_mask, population_match_matrix_stacked
from .regression import fit_predicting_part
from .rule import Rule

__all__ = ["evaluate_rule", "evaluate_population"]


def evaluate_rule(
    rule: Rule,
    dataset: WindowDataset,
    config: EvolutionConfig,
    mask: Optional[np.ndarray] = None,
) -> Rule:
    """Evaluate ``rule`` in place against the training dataset.

    Populates ``match_mask``, ``n_matched``, the predicting part
    (``prediction``, ``error``, ``coeffs``) and ``fitness``.  Zero-match
    rules receive ``f_min`` fitness with an undefined predicting part.
    ``mask`` may carry a precomputed match mask (batched callers);
    when omitted the rule is matched fresh.  Returns the same object
    for chaining.
    """
    if mask is None:
        mask = match_mask(rule, dataset.X)
    n = int(mask.sum())
    rule.bind_mask(mask, dataset.X)
    rule.n_matched = n
    if n == 0:
        rule.prediction = np.nan
        rule.error = np.inf
        rule.coeffs = None
        rule.fitness = config.fitness.f_min
        return rule

    Xm, vm = dataset.subset(mask)
    part = fit_predicting_part(
        Xm, vm, mode=config.predicting_mode, ridge=config.ridge
    )
    rule.prediction = part.prediction
    rule.error = part.error
    rule.coeffs = part.coeffs
    rule.fitness = rule_fitness(n, part.error, config.fitness)
    return rule


def evaluate_population(
    rules: Sequence[Rule], dataset: WindowDataset, config: EvolutionConfig
) -> None:
    """Evaluate every rule in place (used at initialization).

    Matches all rules in one batched call, then fits each predicting
    part from its precomputed mask row.
    """
    if not rules:
        return
    masks = population_match_matrix_stacked(rules, dataset.X)
    for i, rule in enumerate(rules):
        evaluate_rule(rule, dataset, config, mask=masks[i])
