"""The steady-state Michigan GA engine (§3.3).

Each generation: select two parents by three-round trials, produce one
offspring by uniform crossover, mutate it, evaluate it against the
training windows, and let it challenge the phenotypically nearest
individual (crowding) — replacement only on strict fitness improvement.

The *population itself* is the solution (Michigan approach): after
`generations` iterations the engine returns the full rule set plus
run statistics.

Because at most one individual changes per generation, all
population-wide quantities live in an incrementally maintained
:class:`~repro.core.population_state.PopulationState` (match matrix,
fitness vector, coverage counts) that is updated one row at a time.
``EvolutionConfig(incremental=False)`` rebuilds that state from scratch
each generation instead — the A/B baseline for
``benchmarks/bench_kernels.py`` — with bitwise-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..series.windowing import WindowDataset
from .config import EvolutionConfig
from .evaluation import evaluate_population, evaluate_rule
from .initialization import random_population, stratified_population
# Not called here: perfbench's tracer wraps this name in this module.
from .matching import population_match_matrix_stacked  # noqa: F401
from .operators import mutate, uniform_crossover
from .population_state import PopulationState
from .replacement import replacement_index, try_replace
from .rule import Rule
from .selection import select_parents

__all__ = ["GenerationStats", "EvolutionResult", "SteadyStateEngine", "evolve"]


@dataclass(frozen=True)
class GenerationStats:
    """Snapshot of population health at one generation."""

    generation: int
    best_fitness: float
    mean_fitness: float
    coverage: float
    n_valid: int
    replacements: int


@dataclass
class EvolutionResult:
    """Outcome of one evolutionary execution.

    Attributes
    ----------
    rules:
        Final population (all individuals — the Michigan solution).
    stats:
        Periodic :class:`GenerationStats` (empty when ``stats_every=0``).
    replacements:
        Total accepted offspring.
    config:
        The configuration that produced this result.
    """

    rules: List[Rule]
    stats: List[GenerationStats] = field(default_factory=list)
    replacements: int = 0
    config: Optional[EvolutionConfig] = None

    @property
    def valid_rules(self) -> List[Rule]:
        """Rules strictly above the invalid-rule fitness floor.

        The criterion is ``fitness > f_min`` in both branches.  When
        ``config`` is missing (ad-hoc or deserialized results) the floor
        falls back to ``0.0``: §3.1's fitness is either the flat
        ``f_min`` (validated ``<= 0``) or ``N_R·EMAX − e_R > 0`` for a
        valid rule, so zero separates the two regardless of the
        particular ``f_min`` the run used.
        """
        f_min = 0.0 if self.config is None else self.config.fitness.f_min
        return [r for r in self.rules if r.fitness > f_min]


class SteadyStateEngine:
    """Runs one execution of the steady-state rule GA.

    Parameters
    ----------
    dataset:
        Training windows (``D`` and ``horizon`` must match the config).
    config:
        :class:`~repro.core.config.EvolutionConfig`.
    rng:
        Optional generator; defaults to one seeded from ``config.seed``.
    init:
        ``"stratified"`` (§3.2, default) or ``"random"`` (ablation).
    """

    def __init__(
        self,
        dataset: WindowDataset,
        config: EvolutionConfig,
        rng: Optional[np.random.Generator] = None,
        init: str = "stratified",
    ) -> None:
        if dataset.d != config.d:
            raise ValueError(
                f"dataset D={dataset.d} != config D={config.d}"
            )
        if dataset.horizon != config.horizon:
            raise ValueError(
                f"dataset horizon={dataset.horizon} != config horizon="
                f"{config.horizon}"
            )
        if init not in ("stratified", "random"):
            raise ValueError(f"unknown init mode {init!r}")
        self.dataset = dataset
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.init = init
        self.population: List[Rule] = []
        self.state: Optional[PopulationState] = None
        self.replacements = 0
        self.stats: List[GenerationStats] = []

    @property
    def _masks(self) -> Optional[np.ndarray]:
        """The ``(P, n)`` match matrix (back-compat view of the state)."""
        return None if self.state is None else self.state.masks

    # -- lifecycle ----------------------------------------------------------

    def initialize(self) -> None:
        """Build and evaluate the initial population."""
        maker = stratified_population if self.init == "stratified" else random_population
        self.population = maker(self.dataset, self.config, self.rng)
        evaluate_population(self.population, self.dataset, self.config)
        self.state = PopulationState.from_population(
            self.population, self.dataset.X
        )
        self.replacements = 0
        self.stats = []

    def step(self, generation: int = 0) -> bool:
        """One steady-state generation; returns True if accepted."""
        assert self.state is not None, "initialize() must run first"
        cfg = self.config
        if not cfg.incremental:
            # A/B baseline: pretend nothing is cached and rebuild every
            # population-wide quantity from scratch this generation.
            self.state = PopulationState.from_population(
                self.population, self.dataset.X, use_cached=False
            )
        ia, ib = select_parents(self.population, cfg.tournament_rounds, self.rng)
        offspring = uniform_crossover(self.population[ia], self.population[ib], self.rng)
        mutate(offspring, cfg.mutation, self.dataset.input_range, self.rng)
        evaluate_rule(offspring, self.dataset, cfg)
        slot = replacement_index(
            offspring, self.population, self.state, cfg.crowding, self.rng
        )
        accepted = try_replace(self.population, self.state, offspring, slot)
        if accepted:
            self.replacements += 1
        return accepted

    def run(self) -> EvolutionResult:
        """Initialize (if needed) and run the generation budget.

        Stops early when ``config.early_stop_patience`` consecutive
        offspring have been rejected (population converged), if enabled.
        """
        if not self.population:
            self.initialize()
        cfg = self.config
        stagnant = 0
        for gen in range(1, cfg.generations + 1):
            accepted = self.step(gen - 1)
            stagnant = 0 if accepted else stagnant + 1
            if cfg.stats_every and gen % cfg.stats_every == 0:
                self.stats.append(self.snapshot(gen))
            if cfg.early_stop_patience and stagnant >= cfg.early_stop_patience:
                self.stats.append(self.snapshot(gen))
                break
        return EvolutionResult(
            rules=self.population,
            stats=self.stats,
            replacements=self.replacements,
            config=cfg,
        )

    # -- diagnostics ---------------------------------------------------------

    def snapshot(self, generation: int) -> GenerationStats:
        """Current population statistics (O(n) from the cached state)."""
        assert self.state is not None
        state = self.state
        coverage = state.coverage if len(self.dataset) else 0.0
        return GenerationStats(
            generation=generation,
            best_fitness=state.best_fitness,
            mean_fitness=state.mean_fitness,
            coverage=coverage,
            n_valid=state.n_valid(self.config.fitness.f_min),
            replacements=self.replacements,
        )


def evolve(
    dataset: WindowDataset,
    config: EvolutionConfig,
    rng: Optional[np.random.Generator] = None,
    init: str = "stratified",
) -> EvolutionResult:
    """Convenience wrapper: one full execution in a single call."""
    engine = SteadyStateEngine(dataset, config, rng=rng, init=init)
    return engine.run()
