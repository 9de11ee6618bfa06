"""Online adaptation: drift detection, shadow retraining, promotion.

The serving stack (registry → gateway → sharded workers) assumes the
champion pool stays right forever; live series drift and a stale
champion silently degrades.  This module closes ROADMAP item 3's loop
from per-stream forecast error back through re-evolution and the
:class:`~repro.service.registry.ModelRegistry` lifecycle:

* :class:`DriftMonitor` — per-stream change detection over the
  gateway's own error/coverage signal: a Page-Hinkley test on
  baseline-normalized absolute errors, a windowed error-ratio test
  with a hysteresis streak, and a coverage-drop test.  Decisions never
  read the clock (it only stamps events), so a replayed stream yields
  the identical event log.
* :class:`RetrainJob` — re-evolves a challenger pool on the recent
  window through the existing
  :class:`~repro.analysis.orchestrator.ExperimentOrchestrator` (one
  resumable task per GA execution, so a killed retrain continues from
  its checkpoint) and pools the per-execution rules exactly as
  :func:`~repro.core.multirun.multirun` would — the challenger is
  bitwise identical to a direct ``multirun`` call on the same window.
* :class:`ShadowScorer` — scores the challenger on the *same stacked
  window matrices* the champion just scored inside
  ``ForecastService.ingest``.  Shadow forecasts never reach the wire;
  reusing the champion's stacks makes shadow output bitwise identical
  to a direct ``predict_windows`` replay by construction
  (``tests/property/test_adaptation.py``).
* :class:`AutoPromoter` — registers the challenger with full
  :func:`~repro.service.registry.task_lineage` provenance, promotes it
  only when it beats the champion on matured shadow error, and rolls a
  degraded promotion back through
  :meth:`~repro.service.registry.ModelRegistry.rollback`.
* :class:`AdaptationManager` — the gateway hook gluing the above
  together: it matures forecasts against the observations that arrive
  ``horizon`` steps later, feeds the drift monitor, drives retrains
  from :meth:`~AdaptationManager.poll`, swaps the live binding on
  promotion (rings intact), and supervises a post-promotion probation
  window that auto-rolls-back.

Everything is deterministic under a fixed seed: drift decisions are
pure functions of the observation sequence, retrains are root-seeded
orchestrator tasks, and shadow scoring shares the champion's kernel
input.  With no manager attached the gateway's wire output is bitwise
unchanged (the hook is one ``is not None`` test per batch).
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.compiled import CompiledRuleSystem
from ..core.config import EvolutionConfig
from ..core.matching import coverage_fraction
from ..core.predictor import RuleSystem
from ..io.cache import atomic_write_text
from ..parallel.rng import spawn_seeds
from ..series.windowing import WindowDataset
from .registry import ModelRegistry, task_lineage

__all__ = [
    "AdaptationConfig",
    "AdaptationError",
    "AdaptationManager",
    "AutoPromoter",
    "DriftConfig",
    "DriftEvent",
    "DriftMonitor",
    "PromotionPolicy",
    "RetrainJob",
    "RetrainOutcome",
    "ShadowScorer",
]


class AdaptationError(RuntimeError):
    """Raised on adaptation-lifecycle misuse.

    Covers force-promoting a model with no active challenge or no
    shadow observations, and retrain windows too short to re-window.
    """


def _json_safe(obj):
    """Recursively replace non-finite floats with ``None`` for JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


# -- drift detection ----------------------------------------------------------


@dataclass(frozen=True)
class DriftConfig:
    """Thresholds for :class:`DriftMonitor` (see ``docs/serving.md``).

    Errors are normalized by a per-stream baseline mean frozen after
    the first ``min_samples`` observed errors, so one set of thresholds
    serves streams of any scale.

    Attributes
    ----------
    min_samples:
        Errors to observe before the baseline freezes and detection
        arms; nothing can fire earlier.
    ph_delta, ph_lambda:
        Page-Hinkley drift allowance and decision threshold, in units
        of the baseline mean error.  The PH statistic accumulates
        ``x_t - mean(x_1..x_t) - ph_delta`` over normalized errors
        (running mean, the textbook form — robust to baseline
        estimation noise); stationary streams drift it downward while
        a sustained error increase outruns the lagging mean and climbs
        past ``ph_lambda``.
    ratio_window, ratio_threshold, hysteresis:
        The fast detector: mean error over the last ``ratio_window``
        errors divided by the baseline mean must exceed
        ``ratio_threshold`` for ``hysteresis`` *consecutive* errors.
    coverage_window, coverage_drop:
        Coverage detector: over the last ``coverage_window`` ready
        steps, the matched fraction falling below ``coverage_drop``
        times the baseline coverage fires a ``coverage-drop`` event.
    cooldown:
        Ready steps after any event during which detection is disarmed
        while the baseline re-learns the post-drift regime.
    """

    min_samples: int = 32
    ph_delta: float = 0.2
    ph_lambda: float = 25.0
    ratio_window: int = 32
    ratio_threshold: float = 2.0
    hysteresis: int = 8
    coverage_window: int = 64
    coverage_drop: float = 0.5
    cooldown: int = 64

    def __post_init__(self) -> None:
        """Validate thresholds (all strictly positive where required)."""
        if self.min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        if self.ph_delta < 0 or self.ph_lambda <= 0:
            raise ValueError("ph_delta must be >= 0 and ph_lambda > 0")
        if self.ratio_window < 1 or self.hysteresis < 1:
            raise ValueError("ratio_window and hysteresis must be >= 1")
        if self.ratio_threshold <= 1.0:
            raise ValueError("ratio_threshold must be > 1")
        if self.coverage_window < 1:
            raise ValueError("coverage_window must be >= 1")
        if not 0.0 < self.coverage_drop < 1.0:
            raise ValueError("coverage_drop must be in (0, 1)")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")


@dataclass(frozen=True)
class DriftEvent:
    """One machine-readable drift detection.

    Attributes
    ----------
    stream:
        The stream that drifted.
    kind:
        ``"page-hinkley"``, ``"error-ratio"`` or ``"coverage-drop"``.
    n_errors:
        Errors the detector had observed when it fired.
    statistic, threshold:
        The test statistic and the threshold it crossed.
    baseline, recent:
        Frozen baseline level and the recent level that tripped it
        (mean error for the error tests, coverage for the coverage
        test).
    at:
        Clock stamp (informational only — detection never reads it).
    """

    stream: str
    kind: str
    n_errors: int
    statistic: float
    threshold: float
    baseline: float
    recent: float
    at: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict form (non-finite floats become ``None``)."""
        return _json_safe(
            {
                "stream": self.stream,
                "kind": self.kind,
                "n_errors": self.n_errors,
                "statistic": self.statistic,
                "threshold": self.threshold,
                "baseline": self.baseline,
                "recent": self.recent,
                "at": self.at,
            }
        )


class _StreamDetector:
    """Per-stream detector state (owned by :class:`DriftMonitor`).

    Holds the frozen baseline, the Page-Hinkley accumulator, the
    error-ratio window + hysteresis streak, and the coverage window.
    After any event the whole state resets and a cooldown disarms
    detection while the baseline re-learns.
    """

    __slots__ = (
        "config",
        "n_errors",
        "_baseline_buf",
        "baseline_mean",
        "_ph_m",
        "_ph_min",
        "_ph_n",
        "_ph_sum",
        "_recent",
        "_streak",
        "_coverage",
        "baseline_coverage",
        "_cov_seen",
        "_cov_hits",
        "_cooldown",
    )

    def __init__(self, config: DriftConfig) -> None:
        self.config = config
        self._cooldown = 0
        self._reset()

    def _reset(self) -> None:
        c = self.config
        self.n_errors = 0
        self._baseline_buf: List[float] = []
        self.baseline_mean = 0.0
        self._ph_m = 0.0
        self._ph_min = 0.0
        self._ph_n = 0
        self._ph_sum = 0.0
        self._recent: Deque[float] = deque(maxlen=c.ratio_window)
        self._streak = 0
        self._coverage: Deque[bool] = deque(maxlen=c.coverage_window)
        self.baseline_coverage = 0.0
        self._cov_seen = 0
        self._cov_hits = 0

    def _fire(
        self, kind: str, statistic: float, threshold: float, recent: float
    ) -> Tuple[str, int, float, float, float, float]:
        baseline = (
            self.baseline_mean if kind != "coverage-drop" else self.baseline_coverage
        )
        out = (kind, self.n_errors, statistic, threshold, baseline, recent)
        self._reset()
        self._cooldown = self.config.cooldown
        return out

    def update(
        self, error: Optional[float], predicted: bool
    ) -> Optional[Tuple[str, int, float, float, float, float]]:
        """Observe one ready step; return a fired test or ``None``.

        ``error`` is the champion's absolute matured forecast error
        (``None`` when it abstained); ``predicted`` feeds the coverage
        detector.  Returns ``(kind, n_errors, statistic, threshold,
        baseline, recent)`` when a test fires.
        """
        c = self.config
        if self._cooldown > 0:
            self._cooldown -= 1
        armed = self._cooldown == 0

        # Coverage detector: every ready step is a sample.
        self._coverage.append(bool(predicted))
        if self._cov_seen < c.min_samples:
            self._cov_seen += 1
            self._cov_hits += int(predicted)
            if self._cov_seen == c.min_samples:
                self.baseline_coverage = self._cov_hits / c.min_samples
        elif (
            armed
            and self.baseline_coverage > 0.0
            and len(self._coverage) == c.coverage_window
        ):
            cov = sum(self._coverage) / c.coverage_window
            threshold = c.coverage_drop * self.baseline_coverage
            if cov < threshold:
                return self._fire("coverage-drop", cov, threshold, cov)

        if error is None:
            return None
        error = float(error)

        # Baseline phase: freeze the mean after min_samples errors.
        if self.n_errors < c.min_samples:
            self.n_errors += 1
            self._baseline_buf.append(error)
            if self.n_errors == c.min_samples:
                self.baseline_mean = sum(self._baseline_buf) / c.min_samples
                self._baseline_buf.clear()
            return None
        self.n_errors += 1

        scale = max(self.baseline_mean, 1e-12)
        x = error / scale

        # Page-Hinkley on normalized errors (slow, cumulative test):
        # deviations from the *running* mean, so a noisy baseline
        # estimate cannot bias the statistic into a false positive.
        self._ph_n += 1
        self._ph_sum += x
        self._ph_m += x - self._ph_sum / self._ph_n - c.ph_delta
        self._ph_min = min(self._ph_min, self._ph_m)
        stat = self._ph_m - self._ph_min
        if armed and stat > c.ph_lambda:
            return self._fire(
                "page-hinkley",
                stat,
                c.ph_lambda,
                float(np.mean(self._recent)) if self._recent else error,
            )

        # Windowed error-ratio with hysteresis (fast, abrupt test).
        self._recent.append(error)
        if len(self._recent) == c.ratio_window:
            recent_mean = sum(self._recent) / c.ratio_window
            ratio = recent_mean / scale
            if ratio > c.ratio_threshold:
                self._streak += 1
            else:
                self._streak = 0
            if armed and self._streak >= c.hysteresis:
                return self._fire(
                    "error-ratio", ratio, c.ratio_threshold, recent_mean
                )
        return None


class DriftMonitor:
    """Watches per-stream matured forecast error for distribution drift.

    One :class:`_StreamDetector` per stream, created lazily on the
    first observation.  Detection is a pure function of the observation
    sequence — the injectable ``clock`` only stamps
    :class:`DriftEvent.at`, so replaying a stream reproduces the event
    log bit for bit (``tests/property/test_adaptation.py``).

    Parameters
    ----------
    config:
        Detector thresholds (defaults are the calibrated
        :class:`DriftConfig`).
    clock:
        Monotonic time source for event stamps (injectable for tests).
    """

    def __init__(
        self,
        config: Optional[DriftConfig] = None,
        clock: Callable[[], float] = monotonic,
    ) -> None:
        self.config = config if config is not None else DriftConfig()
        self._clock = clock
        self._detectors: Dict[str, _StreamDetector] = {}
        self._drifted: Dict[str, DriftEvent] = {}
        self.events: List[DriftEvent] = []

    def observe(
        self, stream: str, error: Optional[float], predicted: bool
    ) -> Optional[DriftEvent]:
        """Feed one matured ready step; return the event if one fired.

        ``error`` is the champion's absolute forecast error for the
        observation that just arrived (``None`` when the champion
        abstained on the originating step); ``predicted`` is whether
        the champion matched.
        """
        det = self._detectors.get(stream)
        if det is None:
            det = self._detectors[stream] = _StreamDetector(self.config)
        fired = det.update(error, predicted)
        if fired is None:
            return None
        kind, n_errors, statistic, threshold, baseline, recent = fired
        event = DriftEvent(
            stream=stream,
            kind=kind,
            n_errors=int(n_errors),
            statistic=float(statistic),
            threshold=float(threshold),
            baseline=float(baseline),
            recent=float(recent),
            at=float(self._clock()),
        )
        self.events.append(event)
        self._drifted[stream] = event
        return event

    def drifted(self) -> List[str]:
        """Streams with an unconsumed drift event, sorted."""
        return sorted(self._drifted)

    def clear(self, stream: str) -> None:
        """Consume a stream's drift flag (detector state keeps running)."""
        self._drifted.pop(stream, None)

    def forget(self, stream: str) -> None:
        """Drop all detector state for an evicted/unbound stream."""
        self._detectors.pop(stream, None)
        self._drifted.pop(stream, None)

    def stats(self) -> Dict[str, object]:
        """Counters for ``/metrics``: streams watched, events fired."""
        return {
            "streams": len(self._detectors),
            "drift_events": len(self.events),
            "drifted_streams": len(self._drifted),
        }


# -- shadow scoring -----------------------------------------------------------


class ShadowScorer:
    """Scores a challenger alongside the champion on live traffic.

    Attached to the gateway (directly, or via
    :class:`AdaptationManager`), :meth:`on_batch` re-scores the exact
    stacked window matrix the champion's
    :meth:`~repro.core.compiled.CompiledRuleSystem.predict_windows`
    call just consumed — shadow forecasts are therefore bitwise
    identical to a direct replay of the same windows by construction,
    and they never appear in the gateway's returned
    :class:`~repro.service.gateway.Forecast` values.

    Parameters
    ----------
    model:
        Registry model name under challenge.
    champion_key:
        ``(name, version)`` the champion serves under — selects which
        ready-stack to shadow.
    challenger:
        The challenger pool (compiled on construction if needed).
    challenger_version:
        The challenger's registry version (0 for unregistered pools).
    """

    def __init__(
        self,
        model: str,
        champion_key: Tuple[str, int],
        challenger: Union[RuleSystem, CompiledRuleSystem],
        challenger_version: int = 0,
    ) -> None:
        self.model = model
        self.champion_key = champion_key
        if isinstance(challenger, RuleSystem):
            challenger = challenger.compile()
        self.challenger = challenger
        self.challenger_version = int(challenger_version)
        self._logs: Dict[str, List[Tuple[int, float, bool]]] = {}
        self.n_shadowed = 0
        self.n_scored = 0
        self._champ_sum = 0.0
        self._chal_sum = 0.0

    # -- gateway hook protocol ------------------------------------------------

    def on_batch(
        self, batch, results, ready, stacks
    ) -> Dict[Tuple[str, int], Tuple[float, bool]]:
        """Shadow-score one ingested micro-batch.

        Receives the gateway's internal batch structures (see
        ``ForecastService.ingest``); scores the champion's stack with
        the challenger and logs ``(t, value, predicted)`` per stream.
        Returns ``{(stream, t): (value, predicted)}`` for the caller
        (the manager pairs these with champion forecasts); the gateway
        ignores the return value.
        """
        members = ready.get(self.champion_key)
        if not members:
            return {}
        windows = stacks[self.champion_key][: len(members)]
        scored = self.challenger.predict_windows(windows)
        values = scored.values.tolist()
        flags = scored.predicted.tolist()
        out: Dict[Tuple[str, int], Tuple[float, bool]] = {}
        for row, (i, _state, t) in enumerate(members):
            stream = batch[i][0]
            entry = (t, values[row], flags[row])
            log = self._logs.get(stream)
            if log is None:
                log = self._logs[stream] = []
            log.append(entry)
            out[(stream, t)] = (values[row], flags[row])
        self.n_shadowed += len(members)
        return out

    def forget(self, stream: str) -> None:
        """Drop the shadow log of an evicted/unbound stream."""
        self._logs.pop(stream, None)

    # -- matured comparison ---------------------------------------------------

    def record(self, champion_error: float, challenger_error: float) -> None:
        """Record one matured head-to-head error pair."""
        self.n_scored += 1
        self._champ_sum += float(champion_error)
        self._chal_sum += float(challenger_error)

    @property
    def champion_mean(self) -> float:
        """Mean matured champion error (0.0 before any comparison)."""
        return self._champ_sum / self.n_scored if self.n_scored else 0.0

    @property
    def challenger_mean(self) -> float:
        """Mean matured challenger error (0.0 before any comparison)."""
        return self._chal_sum / self.n_scored if self.n_scored else 0.0

    def logs(self) -> Dict[str, List[Tuple[int, float, bool]]]:
        """Per-stream shadow log: ``[(t, value, predicted), …]``."""
        return {s: list(entries) for s, entries in self._logs.items()}

    def stats(self) -> Dict[str, object]:
        """Shadow counters + means (``/metrics`` + ``stats()``)."""
        return {
            "model": self.model,
            "challenger_version": self.challenger_version,
            "shadowed_windows": self.n_shadowed,
            "shadow_scored": self.n_scored,
            "champion_error": self.champion_mean,
            "challenger_error": self.challenger_mean,
        }


# -- retraining ---------------------------------------------------------------


@dataclass(frozen=True)
class RetrainOutcome:
    """A completed retrain: the pooled challenger + its provenance.

    Attributes
    ----------
    model:
        Registry model name the challenger targets.
    system:
        The pooled challenger rule system (bitwise identical to a
        direct :func:`~repro.core.multirun.multirun` on the same
        window/config/seed).
    n_executions:
        Executions pooled before the coverage target was reached.
    coverage_history:
        Pooled training coverage after each pooled execution.
    task:
        The final pooled orchestrator task — the lineage anchor
        :func:`~repro.service.registry.task_lineage` records.
    task_key:
        The orchestrator memo key of that task (pins spec + code
        version to the cached training artifact).
    """

    model: str
    system: RuleSystem
    n_executions: int
    coverage_history: Tuple[float, ...]
    task: object
    task_key: str


class RetrainJob:
    """Re-evolves a challenger on a recent window, resumably.

    Each GA execution is one orchestrator task
    (:class:`~repro.analysis.orchestrator.RetrainTask`), so the
    existing checkpoint/manifest/memo machinery applies: a retrain
    killed mid-flight (even ``kill -9``) re-runs :meth:`run` and
    continues from the last completed execution.  Per-execution seeds
    and the pooling loop replicate
    :func:`~repro.core.multirun.multirun` exactly — same
    ``spawn_seeds`` tree, same mask re-binding, same truncate-at-target
    rule — so the pooled challenger is bitwise identical to a direct
    ``multirun`` call (asserted in ``tests/property/test_adaptation.py``).

    Parameters
    ----------
    model:
        Registry model name the challenger will register under.
    series:
        The recent observation window to retrain on.
    config:
        Per-execution :class:`~repro.core.config.EvolutionConfig`
        (its ``seed`` is ignored; each execution draws from
        ``root_seed``).
    state_dir:
        Orchestrator checkpoint directory (``None`` disables resume).
    backend:
        Execution fan-out backend (e.g. ``get_backend("shm")``);
        results are backend-invariant.
    coverage_target, max_executions, root_seed, init:
        Pooling knobs, exactly as :func:`~repro.core.multirun.multirun`
        takes them.
    stream:
        The triggering stream, recorded on each task for provenance.
    """

    def __init__(
        self,
        model: str,
        series: np.ndarray,
        config: EvolutionConfig,
        state_dir: Optional[Union[str, Path]] = None,
        backend=None,
        coverage_target: float = 0.95,
        max_executions: int = 4,
        root_seed: int = 0,
        init: str = "stratified",
        stream: str = "",
    ) -> None:
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 1:
            raise AdaptationError("retrain series must be 1-D")
        if series.shape[0] <= config.d + config.horizon:
            raise AdaptationError(
                f"retrain window of {series.shape[0]} observations is too "
                f"short for d={config.d}, horizon={config.horizon}"
            )
        if max_executions < 1:
            raise AdaptationError("max_executions must be >= 1")
        self.model = model
        self.series = series
        self.config = config
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.backend = backend
        self.coverage_target = float(coverage_target)
        self.max_executions = int(max_executions)
        self.root_seed = int(root_seed)
        self.init = init
        self.stream = stream

    def plan(self) -> List[object]:
        """One :class:`RetrainTask` per execution, multirun-seeded."""
        from ..analysis.orchestrator import RetrainTask

        seeds = spawn_seeds(self.max_executions, self.root_seed)
        return [
            RetrainTask(
                model=self.model,
                series=self.series,
                config=self.config.replace(
                    seed=int(seeds[i].generate_state(1)[0])
                ),
                init=self.init,
                index=i,
                seed=self.root_seed,
                stream=self.stream,
            )
            for i in range(self.max_executions)
        ]

    def run(self, max_tasks: Optional[int] = None) -> Optional[RetrainOutcome]:
        """Advance the retrain; return the outcome once complete.

        ``max_tasks`` caps executions run in this call (the manager's
        incremental polling); an incomplete retrain returns ``None``
        and the next :meth:`run` continues from the checkpoint.
        """
        from ..analysis.orchestrator import ExperimentOrchestrator

        orchestrator = ExperimentOrchestrator(
            backend=self.backend, state_dir=self.state_dir
        )
        tasks = self.plan()
        run = orchestrator.run_tasks(tasks, max_tasks=max_tasks)
        if not run.complete:
            return None
        return self._pool(tasks, run, orchestrator)

    def _pool(self, tasks, run, orchestrator) -> RetrainOutcome:
        """Pool per-execution results exactly as ``multirun`` does."""
        dataset = WindowDataset.from_series(
            self.series, self.config.d, self.config.horizon
        )
        pooled: List[object] = []
        history: List[float] = []
        final_task = tasks[0]
        for task in tasks:
            result = run.results[task.task_id].payload
            fresh = result.valid_rules
            for rule in fresh:
                if (
                    rule.match_mask is not None
                    and rule.match_mask.shape[0] == dataset.X.shape[0]
                ):
                    rule.bind_mask(rule.match_mask, dataset.X)
            pooled.extend(fresh)
            cov = coverage_fraction(pooled, dataset.X) if pooled else 0.0
            history.append(cov)
            final_task = task
            if cov >= self.coverage_target:
                break
        return RetrainOutcome(
            model=self.model,
            system=RuleSystem(pooled),
            n_executions=len(history),
            coverage_history=tuple(history),
            task=final_task,
            task_key=orchestrator.task_key(final_task),
        )


# -- promotion ----------------------------------------------------------------


@dataclass(frozen=True)
class PromotionPolicy:
    """When a challenger wins, and when a promotion is undone.

    Attributes
    ----------
    min_scored:
        Matured head-to-head comparisons required before a verdict.
    min_improvement:
        The challenger must beat the champion's mean shadow error by
        this relative margin (``chal <= (1 - min_improvement) * champ``).
    probation_scored:
        Matured post-promotion errors the new champion is judged on.
    degradation:
        Relative worsening versus the pre-promotion champion level
        that triggers auto-rollback.
    """

    min_scored: int = 32
    min_improvement: float = 0.05
    probation_scored: int = 32
    degradation: float = 0.25

    def __post_init__(self) -> None:
        """Validate policy knobs."""
        if self.min_scored < 1 or self.probation_scored < 1:
            raise ValueError("min_scored and probation_scored must be >= 1")
        if not 0.0 <= self.min_improvement < 1.0:
            raise ValueError("min_improvement must be in [0, 1)")
        if self.degradation <= 0.0:
            raise ValueError("degradation must be > 0")


class AutoPromoter:
    """Registers, judges, promotes and rolls back challengers.

    Owns the registry side of the lifecycle: challenger versions are
    registered (unpromoted) with full
    :func:`~repro.service.registry.task_lineage` provenance; the shadow
    verdict is a pure function of the scorer's matured error means; and
    promotion/rollback go through the registry's own promotion history
    so ``repro models`` tooling sees the whole trail.

    Parameters
    ----------
    registry:
        The :class:`~repro.service.registry.ModelRegistry` to manage.
    policy:
        Verdict thresholds (defaults to :class:`PromotionPolicy`).
    clock:
        Stamp source for the event timeline (injectable).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        policy: Optional[PromotionPolicy] = None,
        clock: Callable[[], float] = monotonic,
    ) -> None:
        self.registry = registry
        self.policy = policy if policy is not None else PromotionPolicy()
        self._clock = clock
        self.promotions = 0
        self.rollbacks = 0
        self.rejected = 0
        self.events: List[Dict[str, object]] = []

    def _event(self, kind: str, model: str, **extra) -> None:
        entry: Dict[str, object] = {
            "at": float(self._clock()),
            "kind": kind,
            "model": model,
        }
        entry.update(extra)
        self.events.append(_json_safe(entry))

    def register_challenger(
        self, model: str, outcome: RetrainOutcome, trigger: DriftEvent
    ):
        """Register a retrained challenger (unpromoted) with lineage.

        The lineage is the standard orchestrator-task record of the
        final pooled execution, extended with the drift event that
        triggered the retrain; returns the new
        :class:`~repro.service.registry.ModelRecord`.
        """
        lineage = task_lineage(outcome.task, outcome.task_key)
        lineage["trigger"] = trigger.to_dict()
        record = self.registry.register(
            model,
            outcome.system,
            metadata={
                "retrain": True,
                "n_executions": outcome.n_executions,
                "coverage": (
                    outcome.coverage_history[-1]
                    if outcome.coverage_history
                    else 0.0
                ),
                "trigger_stream": trigger.stream,
                "trigger_kind": trigger.kind,
            },
            lineage=lineage,
            promote=False,
        )
        self._event(
            "challenger-registered",
            model,
            version=record.version,
            stream=trigger.stream,
        )
        return record

    def consider(self, scorer: ShadowScorer) -> str:
        """The shadow verdict: ``"wait"``, ``"promote"`` or ``"reject"``.

        Pure function of the scorer's matured comparison state — no
        clock, no randomness — so the verdict sequence is
        replay-deterministic.
        """
        if scorer.n_scored < self.policy.min_scored:
            return "wait"
        champ = scorer.champion_mean
        chal = scorer.challenger_mean
        if chal <= (1.0 - self.policy.min_improvement) * champ:
            return "promote"
        return "reject"

    def promote(self, model: str, version: int):
        """Promote a challenger version; returns its record."""
        record = self.registry.promote(model, version)
        self.promotions += 1
        self._event("promote", model, version=int(version))
        return record

    def reject(self, model: str, version: int) -> None:
        """Record a losing challenger (stays registered, unpromoted)."""
        self.rejected += 1
        self._event("reject", model, version=int(version))

    def rollback(self, model: str):
        """Undo the last promotion; returns the restored record."""
        record = self.registry.rollback(model)
        self.rollbacks += 1
        self._event("rollback", model, restored_version=record.version)
        return record

    def stats(self) -> Dict[str, object]:
        """Lifetime promotion counters."""
        return {
            "promotions": self.promotions,
            "rollbacks": self.rollbacks,
            "rejected": self.rejected,
        }


# -- the manager --------------------------------------------------------------


@dataclass(frozen=True)
class AdaptationConfig:
    """Everything :class:`AdaptationManager` needs to run the loop.

    Attributes
    ----------
    drift:
        Detector thresholds.
    policy:
        Promotion/rollback thresholds.
    horizon:
        Forecast horizon of the served models — a forecast made at
        step ``t`` matures when observation ``t + horizon`` arrives.
    recent_window:
        Observations retained per stream as retrain material.
    min_retrain_window:
        Minimum retained observations before a retrain may launch.
    retrain_config:
        Per-execution GA config for retrains; ``None`` derives a small
        config from the champion's window width.
    retrain_max_executions, retrain_coverage_target:
        Pooling knobs for :class:`RetrainJob`.
    retrain_seed:
        Root seed of retrain attempt 0; attempt ``k`` uses
        ``retrain_seed + 1000 * k`` so repeated retrains of one model
        explore fresh seed trees deterministically.
    retrain_init:
        Initialization mode forwarded to the engine.
    """

    drift: DriftConfig = field(default_factory=DriftConfig)
    policy: PromotionPolicy = field(default_factory=PromotionPolicy)
    horizon: int = 1
    recent_window: int = 512
    min_retrain_window: int = 64
    retrain_config: Optional[EvolutionConfig] = None
    retrain_max_executions: int = 4
    retrain_coverage_target: float = 0.95
    retrain_seed: int = 7
    retrain_init: str = "stratified"

    def __post_init__(self) -> None:
        """Validate window/horizon sizing."""
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.recent_window < self.min_retrain_window:
            raise ValueError("recent_window must be >= min_retrain_window")
        if self.min_retrain_window < 4:
            raise ValueError("min_retrain_window must be >= 4")
        if self.retrain_max_executions < 1:
            raise ValueError("retrain_max_executions must be >= 1")


class _AdaptStream:
    """Per-stream manager state: pending forecasts + recent window."""

    __slots__ = ("pending", "recent")

    def __init__(self, recent_window: int) -> None:
        # target observation index -> (model, champion value,
        # (challenger value, predicted) or None, observation the
        # forecast was made from — the persistence fallback).
        self.pending: Dict[
            int, Tuple[str, float, Optional[Tuple[float, bool]], float]
        ] = {}
        self.recent: Deque[float] = deque(maxlen=recent_window)


class _Challenge:
    """An active shadow challenge for one model."""

    __slots__ = ("scorer", "record", "trigger")

    def __init__(self, scorer: ShadowScorer, record, trigger: DriftEvent) -> None:
        self.scorer = scorer
        self.record = record
        self.trigger = trigger


class _Probation:
    """Post-promotion supervision: roll back if the winner degrades."""

    __slots__ = (
        "model",
        "previous_key",
        "promoted_version",
        "baseline",
        "n",
        "err_sum",
    )

    def __init__(
        self,
        model: str,
        previous_key: Tuple[str, int],
        promoted_version: int,
        baseline: float,
    ) -> None:
        self.model = model
        self.previous_key = previous_key
        self.promoted_version = promoted_version
        self.baseline = baseline
        self.n = 0
        self.err_sum = 0.0

    def observe(self, error: float, policy: PromotionPolicy) -> Optional[str]:
        """Feed one matured error; ``"rollback"``/``"pass"``/``None``."""
        self.n += 1
        self.err_sum += float(error)
        if self.n < policy.probation_scored:
            return None
        mean = self.err_sum / self.n
        if self.baseline > 0.0 and mean > (1.0 + policy.degradation) * self.baseline:
            return "rollback"
        return "pass"


class AdaptationManager:
    """Glues drift → retrain → shadow → promote onto a live gateway.

    Attach by constructing with the service (registration is automatic
    via ``ForecastService.attach_adaptation``); from then on every
    ingested batch flows through :meth:`on_batch`, which matures
    pending forecasts against arriving observations, feeds the
    :class:`DriftMonitor`, shadow-scores active challengers and applies
    promotion verdicts.  Retrains are *pulled*, not pushed:
    :meth:`poll` (called between batches by the serve loop, never on
    the ingest hot path) launches and advances :class:`RetrainJob`
    instances for drifted models.

    Shadow forecasts never reach the wire, promotion swaps the live
    binding in place (ring buffers intact — the new champion scores
    the very next window), and the demoted pool is retained so
    probation rollback restores it without a registry round-trip.

    Parameters
    ----------
    service:
        The :class:`~repro.service.gateway.ForecastService` to manage.
    registry:
        Registry for challenger registration/promotion/rollback.
    config:
        Loop configuration (defaults to :class:`AdaptationConfig`).
    state_root:
        Directory for retrain checkpoints + ``status.json`` (``None``
        disables both).
    backend:
        Retrain fan-out backend (e.g. ``get_backend("shm")``).
    clock:
        Stamp source for events (injectable; never affects decisions).
    """

    def __init__(
        self,
        service,
        registry: ModelRegistry,
        config: Optional[AdaptationConfig] = None,
        state_root: Optional[Union[str, Path]] = None,
        backend=None,
        clock: Callable[[], float] = monotonic,
    ) -> None:
        # Import the retrain machinery at set-up, so that no
        # drift-triggered poll on the serving loop pays for it.
        from ..analysis import orchestrator  # noqa: F401

        self.service = service
        self.registry = registry
        self.config = config if config is not None else AdaptationConfig()
        self.state_root = Path(state_root) if state_root is not None else None
        self.backend = backend
        self._clock = clock
        self.monitor = DriftMonitor(self.config.drift, clock=clock)
        self.promoter = AutoPromoter(registry, self.config.policy, clock=clock)
        self._streams: Dict[str, _AdaptStream] = {}
        self._challenges: Dict[str, _Challenge] = {}
        self._probations: Dict[str, _Probation] = {}
        # model -> (trigger event, champion key) awaiting a retrain
        self._pending: Dict[str, Tuple[DriftEvent, Tuple[str, int]]] = {}
        self._jobs: Dict[str, RetrainJob] = {}
        self._attempts: Dict[str, int] = {}
        self.retrains = 0
        self.events: List[Dict[str, object]] = []
        service.attach_adaptation(self)

    def _event(self, kind: str, **extra) -> None:
        entry: Dict[str, object] = {"at": float(self._clock()), "kind": kind}
        entry.update(extra)
        self.events.append(_json_safe(entry))

    # -- gateway hook ---------------------------------------------------------

    def on_batch(self, batch, results, ready, stacks) -> None:
        """Process one ingested micro-batch (gateway hook).

        Runs after the champion's score phase: shadow-scores active
        challenges on the champion's own stacks, matures pending
        forecasts against the observations that just arrived, feeds
        drift/probation/shadow accounting, registers this batch's new
        forecasts as pending, and applies any promotion verdicts.
        Never mutates ``results`` — wire output is untouched.
        """
        cfg = self.config
        shadow_now: Dict[Tuple[str, int], Tuple[float, bool]] = {}
        for challenge in self._challenges.values():
            shadow_now.update(
                challenge.scorer.on_batch(batch, results, ready, stacks)
            )

        for i, forecast in enumerate(results):
            stream = forecast.stream
            value = batch[i][2]
            st = self._streams.get(stream)
            if st is None:
                st = self._streams[stream] = _AdaptStream(cfg.recent_window)

            matured = st.pending.pop(forecast.t, None)
            if matured is not None:
                model, champ_value, shadow, last_obs = matured
                # An abstaining model is charged the persistence
                # fallback |actual - last observation| — abstention is
                # not free, otherwise a champion that stops matching
                # could never lose a shadow comparison.
                fallback = abs(value - last_obs)
                champ_err = (
                    abs(champ_value - value)
                    if math.isfinite(champ_value)
                    else None
                )
                champ_score = champ_err if champ_err is not None else fallback
                challenge = self._challenges.get(model)
                if challenge is not None and shadow is not None:
                    chal_value, chal_flag = shadow
                    chal_score = (
                        abs(chal_value - value)
                        if chal_flag and math.isfinite(chal_value)
                        else fallback
                    )
                    challenge.scorer.record(champ_score, chal_score)
                probation = self._probations.get(model)
                if probation is not None:
                    verdict = probation.observe(champ_score, cfg.policy)
                    if verdict is not None:
                        self._end_probation(model, probation, verdict)
                # Drift sees the raw signal: error tests only on real
                # forecasts, abstention drift via the coverage test.
                event = self.monitor.observe(
                    stream, champ_err, champ_err is not None
                )
                if event is not None:
                    self._on_drift(event, forecast)

            if forecast.ready:
                st.pending[forecast.t + cfg.horizon] = (
                    forecast.model,
                    forecast.value,
                    shadow_now.get((stream, forecast.t)),
                    value,
                )
            st.recent.append(value)

        self._check_promotions()

    def _on_drift(self, event: DriftEvent, forecast) -> None:
        model = forecast.model
        self._event(
            "drift", model=model, stream=event.stream, test=event.kind
        )
        busy = (
            model in self._pending
            or model in self._jobs
            or model in self._challenges
            or model in self._probations
        )
        if not busy:
            self._pending[model] = (event, (forecast.model, forecast.version))
        self.monitor.clear(event.stream)

    # -- retrain driving ------------------------------------------------------

    def _retrain_config(self, champion: CompiledRuleSystem) -> EvolutionConfig:
        if self.config.retrain_config is not None:
            return self.config.retrain_config
        return EvolutionConfig(
            d=champion.n_lags,
            horizon=self.config.horizon,
            population_size=60,
            generations=150,
            early_stop_patience=40,
        )

    def poll(self, max_tasks: Optional[int] = None) -> Dict[str, List[str]]:
        """Launch/advance retrains for drifted models (off the hot path).

        Call between ingested batches (the serve loop does).  Each
        pending drifted model gets a resumable :class:`RetrainJob`;
        ``max_tasks`` caps GA executions advanced per job per call so
        serving latency stays bounded.  Completed retrains register
        their challenger and open a shadow challenge.  Returns the
        models ``{"started": […], "completed": […], "waiting": […]}``.
        """
        started: List[str] = []
        completed: List[str] = []
        waiting: List[str] = []
        for model in sorted(set(self._pending) | set(self._jobs)):
            job = self._jobs.get(model)
            if job is None:
                job = self._launch(model)
                if job is None:
                    waiting.append(model)
                    continue
                started.append(model)
            outcome = job.run(max_tasks=max_tasks)
            if outcome is None:
                waiting.append(model)
                continue
            self._finish_retrain(model, outcome)
            completed.append(model)
        return {"started": started, "completed": completed, "waiting": waiting}

    def _launch(self, model: str) -> Optional[RetrainJob]:
        event, champion_key = self._pending[model]
        st = self._streams.get(event.stream)
        champion = self.service._models.get(champion_key)
        if champion is None or st is None:
            self._pending.pop(model)
            return None
        config = self._retrain_config(champion)
        if len(st.recent) < max(
            self.config.min_retrain_window, config.d + config.horizon + 1
        ):
            return None  # stays pending until enough window accrues
        attempt = self._attempts.get(model, 0)
        self._attempts[model] = attempt + 1
        state_dir = (
            self.state_root / "retrain" / f"{model}-r{attempt}"
            if self.state_root is not None
            else None
        )
        job = RetrainJob(
            model=model,
            series=np.array(st.recent, dtype=np.float64),
            config=config,
            state_dir=state_dir,
            backend=self.backend,
            coverage_target=self.config.retrain_coverage_target,
            max_executions=self.config.retrain_max_executions,
            root_seed=self.config.retrain_seed + 1000 * attempt,
            init=self.config.retrain_init,
            stream=event.stream,
        )
        self._jobs[model] = job
        self._event(
            "retrain-start", model=model, stream=event.stream, attempt=attempt
        )
        return job

    def _finish_retrain(self, model: str, outcome: RetrainOutcome) -> None:
        event, champion_key = self._pending.pop(model)
        self._jobs.pop(model, None)
        self.retrains += 1
        if not len(outcome.system):
            self._event("retrain-empty", model=model, stream=event.stream)
            return
        record = self.promoter.register_challenger(model, outcome, event)
        scorer = ShadowScorer(
            model, champion_key, outcome.system.compile(), record.version
        )
        self._challenges[model] = _Challenge(scorer, record, event)
        self._event(
            "retrain-complete",
            model=model,
            stream=event.stream,
            version=record.version,
            n_executions=outcome.n_executions,
        )

    # -- promotion / probation ------------------------------------------------

    def _check_promotions(self) -> None:
        for model in list(self._challenges):
            challenge = self._challenges[model]
            verdict = self.promoter.consider(challenge.scorer)
            if verdict == "promote":
                self._promote(model, challenge)
            elif verdict == "reject":
                self.promoter.reject(model, challenge.record.version)
                del self._challenges[model]

    def _promote(self, model: str, challenge: _Challenge) -> None:
        scorer = challenge.scorer
        self.promoter.promote(model, challenge.record.version)
        self.service.swap_model(
            scorer.champion_key, scorer.challenger, challenge.record.version
        )
        self._probations[model] = _Probation(
            model=model,
            previous_key=scorer.champion_key,
            promoted_version=challenge.record.version,
            baseline=scorer.champion_mean,
        )
        del self._challenges[model]

    def force_promote(self, model: str) -> None:
        """Promote the active challenger regardless of the verdict.

        Operational escape hatch (and the rollback test's entry
        point): the promotion still goes through the registry and the
        probation window still applies, so a degraded force-promote is
        rolled back automatically.  Requires at least one matured
        shadow comparison (the probation baseline).
        """
        challenge = self._challenges.get(model)
        if challenge is None:
            raise AdaptationError(f"no active challenge for model {model!r}")
        if challenge.scorer.n_scored == 0:
            raise AdaptationError(
                f"cannot force-promote {model!r}: no matured shadow "
                "comparisons to baseline the probation window on"
            )
        self._promote(model, challenge)

    def _end_probation(
        self, model: str, probation: _Probation, verdict: str
    ) -> None:
        self._probations.pop(model, None)
        if verdict == "pass":
            self._event(
                "probation-pass", model=model, version=probation.promoted_version
            )
            return
        self.promoter.rollback(model)
        previous = self.service._models[probation.previous_key]
        self.service.swap_model(
            (model, probation.promoted_version),
            previous,
            probation.previous_key[1],
        )
        self._event(
            "probation-rollback",
            model=model,
            demoted_version=probation.promoted_version,
            restored_version=probation.previous_key[1],
        )

    # -- bookkeeping ----------------------------------------------------------

    def forget(self, stream: str) -> None:
        """Drop all per-stream state (the store's eviction callback)."""
        self._streams.pop(stream, None)
        self.monitor.forget(stream)
        for challenge in self._challenges.values():
            challenge.scorer.forget(stream)

    def stats(self) -> Dict[str, object]:
        """Adaptation counters, merged into ``ForecastService.stats()``.

        Flat numeric counters (summable across sharded workers) plus a
        nested ``"shadow"`` block with per-model matured error means.
        """
        shadow = {
            model: challenge.scorer.stats()
            for model, challenge in sorted(self._challenges.items())
        }
        return {
            "drift_events": len(self.monitor.events),
            "retrains": self.retrains,
            "promotions": self.promoter.promotions,
            "rollbacks": self.promoter.rollbacks,
            "rejected": self.promoter.rejected,
            "active_challenges": len(self._challenges),
            "probations": len(self._probations),
            "pending_retrains": len(self._pending) + len(self._jobs),
            "shadow": shadow,
        }

    def save_status(self) -> Optional[Path]:
        """Write ``status.json`` under ``state_root`` (atomic).

        The machine-readable record ``repro adapt status`` reads:
        counters, the drift-event log, and the full lifecycle timeline
        (manager + promoter events merged in stamp order).  Returns
        the path, or ``None`` when no ``state_root`` is configured.
        """
        if self.state_root is None:
            return None
        stats = self.stats()
        timeline = sorted(
            self.events + self.promoter.events, key=lambda e: e["at"]
        )
        payload = {
            "counters": {k: v for k, v in stats.items() if k != "shadow"},
            "shadow": stats["shadow"],
            "drift_events": [e.to_dict() for e in self.monitor.events],
            "timeline": timeline,
            "drifted": self.monitor.drifted(),
        }
        self.state_root.mkdir(parents=True, exist_ok=True)
        path = self.state_root / "status.json"
        atomic_write_text(path, json.dumps(_json_safe(payload), indent=1))
        return path
