"""Span tracing for traced runs: wrappers around the program's layers.

A traced run calls :func:`install`, which replaces each function or
method listed in ``TARGETS`` *where the program looks it up* — the
names ``repro.core.engine`` imported, the ``CompiledRuleSystem``
methods, the ``repro.service.server`` module globals — with a wrapper
that records one span: ``(name, at, start, end, parent, round,
extra)``.  ``at`` is the ``perf_counter()`` reading at the call, by
which :func:`summarize` keeps the spans of the measured phase;
``start`` and ``end`` are readings of the tracer's clock, which gives
the durations: wall time (``perf_counter``) where the end-to-end figure
is wall time, process CPU time (``process_time``) in the server, whose
end-to-end figure is CPU time.  Spans stay in a list in memory;
:func:`summarize` turns them into the per-layer metrics when the run
ends.  Untraced runs never import this module, so they execute the
program unmodified.

A span's name is ``layer:function``.  A layer's busy time counts only
its outermost spans (a layer calling itself is not counted twice); a
span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (module path, attribute path, span name, measure kind, starts a round)
TARGETS: Tuple[Tuple[str, str, str, str, bool], ...] = (
    # GA step (§3.3), as repro.core.engine looks the stages up.
    ("repro.core.engine", "SteadyStateEngine.step", "engine:step", "", True),
    ("repro.core.engine", "select_parents", "selection:select_parents", "", False),
    ("repro.core.engine", "uniform_crossover", "operators:uniform_crossover", "", False),
    ("repro.core.engine", "mutate", "operators:mutate", "", False),
    ("repro.core.engine", "replacement_index", "replacement:replacement_index", "", False),
    ("repro.core.engine", "try_replace", "population_state:try_replace", "accepted", False),
    ("repro.core.engine", "population_match_matrix_stacked",
     "matching:population_match_matrix_stacked", "", False),
    ("repro.core.evaluation", "match_mask", "matching:match_mask", "", False),
    ("repro.core.evaluation", "population_match_matrix_stacked",
     "matching:population_match_matrix_stacked", "", False),
    ("repro.core.evaluation", "fit_predicting_part", "regression:fit_predicting_part", "", False),
    ("repro.core.population_state", "population_match_matrix_stacked",
     "matching:population_match_matrix_stacked", "", False),
    ("repro.core.matching", "match_mask", "matching:match_mask", "", False),
    ("repro.core.multirun", "coverage_fraction", "matching:coverage_fraction", "", False),
    ("repro.service.adaptation", "coverage_fraction", "matching:coverage_fraction", "", False),
    # Pooled-vote scoring (§3.4).
    ("repro.core.compiled", "CompiledRuleSystem.predict", "compiled:predict", "rows", False),
    ("repro.core.compiled", "CompiledRuleSystem.predict_windows",
     "compiled:predict_windows", "rows", False),
    ("repro.core.compiled", "CompiledRuleSystem.predict_windowsT",
     "compiled:predict_windowsT", "columns", False),
    # Serving layers.
    ("repro.service.gateway", "ForecastService.ingest", "gateway:ingest", "", True),
    ("repro.service.policy", "PolicyEngine.decide", "policy:decide", "", False),
    ("repro.service.policy", "PolicyEngine.prefilter", "policy:prefilter", "", False),
    ("repro.service.policy", "PolicyEngine.tally", "policy:tally", "", False),
    ("repro.service.adaptation", "AdaptationManager.on_batch", "adaptation:on_batch", "", False),
    ("repro.service.adaptation", "AdaptationManager.poll", "adaptation:poll", "", False),
    ("repro.service.adaptation", "ShadowScorer.on_batch", "adaptation:shadow", "shadowed", False),
    ("repro.service.server", "parse_event_line", "server:parse", "", False),
    ("repro.service.server", "forecast_to_dict", "server:encode", "", False),
)


def _measure(kind: str) -> Optional[Callable]:
    """Extra data a span records from its call: ``(a, b)`` or None."""
    if kind == "rows":
        def rows(args, kwargs, result):
            x = args[1] if len(args) > 1 else next(iter(kwargs.values()))
            n = x.shape[0] if np.ndim(x) == 2 else 1
            return (n, int(result.n_rules_used.sum()))
        return rows
    if kind == "columns":
        def columns(args, kwargs, result):
            k = args[2] if len(args) > 2 else kwargs.get("k")
            n = args[1].shape[1] if k is None else int(k)
            return (n, int(result.n_rules_used.sum()))
        return columns
    if kind == "accepted":
        return lambda args, kwargs, result: (1, int(bool(result)))
    if kind == "shadowed":
        return lambda args, kwargs, result: (len(result), 0)
    return None


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.round = 0

    def begin(self, name: str, new_round: bool = False) -> int:
        """Open a span by hand (the benchmark's own round spans)."""
        if new_round:
            self.round += 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), self.clock(), 0.0, parent,
                           self.round, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        """Close the span :meth:`begin` opened."""
        self.spans[idx][3] = self.clock()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, measure, new_round: bool) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, self.clock
        wall = clock is perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_round:
                tracer.round += 1
            idx = len(spans)
            span = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.round, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            span[2] = span[1] if wall else clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if measure is not None:
                span[6] = measure(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        """Write the spans as JSON (the server launcher does this at exit)."""
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer) -> Tracer:
    """Wrap every target in ``TARGETS``; returns the tracer."""
    for module_name, attr_path, name, kind, new_round in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        tracer.wrap(owner, attr, name, _measure(kind), new_round)
    return tracer


def summarize(spans: List[list], t_lo: float = float("-inf"),
              t_hi: float = float("inf")) -> Dict[str, float]:
    """Per-layer aggregates over the spans whose ``at`` is in ``[t_lo, t_hi]``.

    Returns flat keys: ``busy:`` and ``self:`` per layer and per span
    name, ``calls:<layer>``, ``a:<span name>`` and
    ``b:<span name>`` (sums of the two ``extra`` fields), plus
    ``root_s`` — the time covered by spans with no parent.  Times are
    in the clock the spans were recorded with.
    """
    keep = [i for i, s in enumerate(spans) if t_lo <= s[1] <= t_hi]
    child_time: Dict[int, float] = {}
    for i in keep:
        parent = spans[i][4]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + spans[i][3] - spans[i][2]
    out: Dict[str, float] = {"root_s": 0.0}

    def add(key: str, v: float) -> None:
        out[key] = out.get(key, 0.0) + v

    for i in keep:
        name, _at, t0, t1, parent, _round, extra = spans[i]
        layer = name.split(":", 1)[0]
        dur = t1 - t0
        own = dur - child_time.get(i, 0.0)
        add(f"self:{layer}", own)
        add(f"self:{name}", own)
        if parent < 0:
            out["root_s"] += dur
        # Outermost span of its layer: no ancestor in the same layer.
        outer, p = True, parent
        while p >= 0:
            if spans[p][0].split(":", 1)[0] == layer:
                outer = False
                break
            p = spans[p][4]
        if outer:
            add(f"busy:{layer}", dur)
            add(f"busy:{name}", dur)
            add(f"calls:{layer}", 1)
        if extra is not None:
            add(f"a:{name}", extra[0])
            add(f"b:{name}", extra[1])
    return out
