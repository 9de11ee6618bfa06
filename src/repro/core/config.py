"""Hyperparameter bundles for the evolutionary rule system.

Everything the GA needs is gathered in one frozen dataclass so runs are
reproducible from a single value.  Presets mirror the paper's three
domains at two scales:

* ``paper`` — the configuration the paper reports (e.g. Venice: 45 000
  training measures, 75 000 generations).  Provided for completeness;
  these take hours of CPU.
* ``bench`` — scaled-down configurations used by the test suite and the
  benchmark harness; they reproduce the *shape* of the paper's results
  in seconds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from .fitness import FitnessParams

__all__ = [
    "MutationParams",
    "EvolutionConfig",
    "venice_config",
    "mackey_config",
    "sunspot_config",
    "lorenz_config",
]


@dataclass(frozen=True)
class MutationParams:
    """Per-gene mutation behaviour (§3.1: enlarge/shrink/move up/down).

    Attributes
    ----------
    rate:
        Probability that each interval gene mutates.
    scale:
        Magnitude of a mutation step as a fraction of the series range.
    p_wildcard_on / p_wildcard_off:
        Probabilities (within a mutating gene) of toggling the wildcard
        state.  The paper's encoding includes ``*`` genes but does not
        specify how they arise; toggling under mutation is the natural
        mechanism and is ablated in `benchmarks/bench_ablation_init.py`.
    """

    rate: float = 0.15
    scale: float = 0.10
    p_wildcard_on: float = 0.05
    p_wildcard_off: float = 0.25

    def __post_init__(self) -> None:
        for name in ("rate", "p_wildcard_on", "p_wildcard_off"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class EvolutionConfig:
    """Complete configuration of one evolutionary execution.

    Attributes
    ----------
    d:
        Window width ``D`` (consecutive inputs per rule).
    horizon:
        Prediction horizon ``tau``.
    population_size:
        Number of rules (= output-range bins at initialization).
    generations:
        Steady-state iterations (one offspring per generation).
    fitness:
        :class:`~repro.core.fitness.FitnessParams` (``EMAX``, ``f_min``).
    mutation:
        :class:`MutationParams`.
    tournament_rounds:
        Rounds of the selection trials (paper: three).
    predicting_mode:
        ``"linear"`` (§3.1 regression) or ``"constant"``.
    ridge:
        Regularization for the per-rule hyperplane fit.
    crowding:
        ``"jaccard"`` (matched-set phenotype), ``"prediction"``
        (|p_a − p_b|), ``"random"`` or ``"worst"`` (ablation modes).
    seed:
        RNG seed for this execution.
    stats_every:
        Record engine statistics every this many generations (0 = never).
    early_stop_patience:
        Stop the execution early after this many consecutive
        generations without an accepted offspring (0 = disabled, the
        paper's fixed-budget behaviour).  An extension: steady-state
        runs often converge long before the generation budget, and the
        unspent budget is better spent on extra pooled executions.
    incremental:
        Maintain population-wide quantities (match matrix, fitness
        vector, coverage counts) incrementally through
        :class:`~repro.core.population_state.PopulationState` — one
        row update per generation.  ``False`` rebuilds the state from
        scratch every generation (CLI: ``--no-incremental``); results
        are bitwise identical, only the work differs.  Kept as an A/B
        escape hatch for benchmarking and debugging.
    """

    d: int = 24
    horizon: int = 1
    population_size: int = 100
    generations: int = 5000
    fitness: FitnessParams = field(default_factory=lambda: FitnessParams(e_max=0.1))
    mutation: MutationParams = field(default_factory=MutationParams)
    tournament_rounds: int = 3
    predicting_mode: str = "linear"
    ridge: float = 1e-8
    crowding: str = "jaccard"
    seed: Optional[int] = None
    stats_every: int = 0
    early_stop_patience: int = 0
    incremental: bool = True

    def __post_init__(self) -> None:
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be >= 0")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.tournament_rounds < 1:
            raise ValueError("tournament_rounds must be >= 1")
        if self.predicting_mode not in ("linear", "constant"):
            raise ValueError(f"unknown predicting_mode {self.predicting_mode!r}")
        if self.crowding not in ("jaccard", "prediction", "random", "worst"):
            raise ValueError(f"unknown crowding mode {self.crowding!r}")

    def replace(self, **kwargs: object) -> "EvolutionConfig":
        """Functional update (frozen dataclass convenience)."""
        return dataclasses.replace(self, **kwargs)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Domain presets (paper scale and bench scale)
# ---------------------------------------------------------------------------

def venice_config(horizon: int = 1, scale: str = "bench", seed: Optional[int] = None) -> EvolutionConfig:
    """Venice Lagoon preset (Table 1): D=24 hourly levels in cm.

    ``EMAX`` is in centimetres and grows with the horizon: the paper
    tuned each horizon "to maximize the percentage of predicted data …
    avoiding a high mean error" (§4.1), and the weather-surge component
    is genuinely unpredictable beyond its ~30 h correlation time, so the
    worst-case tolerance must widen as τ grows or coverage collapses.
    """
    fitness = FitnessParams(e_max=25.0 + 0.7 * horizon, f_min=-1.0)
    if scale == "paper":
        return EvolutionConfig(
            d=24, horizon=horizon, population_size=100, generations=75_000,
            fitness=fitness, seed=seed,
        )
    if scale == "bench":
        return EvolutionConfig(
            d=24, horizon=horizon, population_size=60, generations=3_000,
            fitness=fitness, seed=seed,
        )
    raise ValueError(f"unknown scale {scale!r}")


def mackey_config(horizon: int = 50, scale: str = "bench", seed: Optional[int] = None) -> EvolutionConfig:
    """Mackey-Glass preset (Table 2): series normalized to [0, 1]."""
    fitness = FitnessParams(e_max=0.15, f_min=-1.0)
    if scale == "paper":
        return EvolutionConfig(
            d=24, horizon=horizon, population_size=100, generations=75_000,
            fitness=fitness, seed=seed,
        )
    if scale == "bench":
        return EvolutionConfig(
            d=12, horizon=horizon, population_size=50, generations=2_500,
            fitness=fitness, seed=seed,
        )
    raise ValueError(f"unknown scale {scale!r}")


def lorenz_config(horizon: int = 1, scale: str = "bench", seed: Optional[int] = None) -> EvolutionConfig:
    """Lorenz-63 preset (extension domain): series min-max scaled to [0, 1].

    Mirrors the generality bench: a shorter window (D=8) suits the
    fast two-lobe dynamics, and ``EMAX`` is tuned to keep coverage
    high without flattening the attractor's switching behaviour.
    """
    fitness = FitnessParams(e_max=0.12, f_min=-1.0)
    if scale == "paper":
        return EvolutionConfig(
            d=8, horizon=horizon, population_size=100, generations=75_000,
            fitness=fitness, seed=seed,
        )
    if scale == "bench":
        return EvolutionConfig(
            d=8, horizon=horizon, population_size=40, generations=2_500,
            fitness=fitness, seed=seed,
        )
    raise ValueError(f"unknown scale {scale!r}")


def sunspot_config(horizon: int = 1, scale: str = "bench", seed: Optional[int] = None) -> EvolutionConfig:
    """Sunspot preset (Table 3): 24 inputs, series standardized to [0, 1]."""
    fitness = FitnessParams(e_max=0.2, f_min=-1.0)
    if scale == "paper":
        return EvolutionConfig(
            d=24, horizon=horizon, population_size=100, generations=75_000,
            fitness=fitness, seed=seed,
        )
    if scale == "bench":
        return EvolutionConfig(
            d=24, horizon=horizon, population_size=50, generations=2_500,
            fitness=fitness, seed=seed,
        )
    raise ValueError(f"unknown scale {scale!r}")
