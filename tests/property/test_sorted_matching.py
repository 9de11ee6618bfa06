"""Property tests for the sorted-series matcher behind ``match_mask``.

On a float64 sliding-window view of at least 512 windows,
:func:`~repro.core.matching.match_mask` works from a sorted copy of the
view's series instead of the window matrix.  Oracle discipline:
:func:`~repro.core.matching.match_mask_dense` defines the ground truth,
and every case here compares bitwise against it — bounds sitting
exactly on (repeated) series values, wildcard lags, empty boxes, views
sliced from longer views, ``D = 1``, and the C-contiguous copy of the
same windows that takes the lazy path instead.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import matching
from repro.core.matching import (
    match_mask,
    match_mask_dense,
    population_match_matrix_stacked,
)
from repro.core.rule import Rule
from repro.series.windowing import WindowDataset, make_windows

SRC = Path(__file__).resolve().parents[2] / "src"


def _series(rng: np.random.Generator, m: int, levels: int) -> np.ndarray:
    """A random walk rounded to ``levels`` distinct values (many repeats)."""
    walk = np.cumsum(rng.normal(size=m))
    lo, hi = walk.min(), walk.max()
    return np.round((walk - lo) / (hi - lo + 1e-12) * (levels - 1)) / 4.0


def _view(series: np.ndarray, d: int) -> np.ndarray:
    return make_windows(series, d, 1)[0]


def _rule_on_values(
    rng: np.random.Generator, windows: np.ndarray, p_wild: float
) -> Rule:
    """A rule whose bounds are series values, so edges sit on data."""
    d = windows.shape[1]
    picks = windows[rng.integers(0, windows.shape[0], size=2)]
    rule = Rule.from_box(picks.min(axis=0), picks.max(axis=0))
    rule.wildcard = rng.random(d) < p_wild
    return rule


def _assert_oracle(rule: Rule, windows: np.ndarray) -> None:
    got = match_mask(rule, windows)
    assert got.dtype == bool and got.shape == (windows.shape[0],)
    assert np.array_equal(got, match_mask_dense(rule, windows))


class TestSortedPathTaken:
    @pytest.mark.parametrize("d", [1, 3, 24])
    def test_every_dataset_view_gets_an_index(self, d):
        ds = WindowDataset.from_series(np.sin(np.arange(1200) / 7.0), d, 2)
        assert ds.X.strides == (8, 8)
        assert matching._series_index(ds.X) is not None

    def test_other_layouts_do_not(self):
        view = _view(np.arange(700.0), 5)
        assert matching._series_index(np.ascontiguousarray(view)) is None
        assert matching._series_index(view[::2]) is None
        assert matching._series_index(view.astype(np.float32)) is None

    def test_index_series_is_the_views_series(self):
        series = np.random.default_rng(0).normal(size=800)
        view = _view(series, 7)
        indexed, order, ranked = matching._series_index(view)
        assert np.array_equal(indexed, series[: view.shape[0] + 6])
        assert np.array_equal(ranked, np.sort(indexed))
        assert np.array_equal(indexed[order], ranked)


class TestSortedEqualsDense:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 9),
        st.sampled_from([3, 12, 200]),
        st.sampled_from([0.0, 0.3, 0.8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_on_repeated_series_values(self, seed, d, levels, p_wild):
        rng = np.random.default_rng(seed)
        windows = _view(_series(rng, 600 + int(rng.integers(0, 400)), levels), d)
        assert windows.shape[0] >= 512
        for _ in range(8):
            _assert_oracle(_rule_on_values(rng, windows, p_wild), windows)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_sliced_view_and_its_contiguous_copy(self, seed, d):
        rng = np.random.default_rng(seed)
        longer = _view(_series(rng, 2000, 40), d)
        start = int(rng.integers(1, 600))
        sliced = longer[start:start + 512 + int(rng.integers(0, 700))]
        assert sliced.strides == (8, 8)
        copy = np.ascontiguousarray(sliced)
        for _ in range(6):
            rule = _rule_on_values(rng, sliced, 0.25)
            _assert_oracle(rule, sliced)
            _assert_oracle(rule, copy)
            assert np.array_equal(
                match_mask(rule, sliced), match_mask(rule, longer)[start:start + sliced.shape[0]]
            )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_single_lag_windows(self, seed):
        rng = np.random.default_rng(seed)
        windows = _view(_series(rng, 900, 25), 1)
        assert windows.shape == (900 - 1, 1)
        for _ in range(6):
            _assert_oracle(_rule_on_values(rng, windows, 0.0), windows)

    def test_all_wildcard_rule_matches_everything(self):
        windows = _view(np.linspace(0.0, 1.0, 800), 4)
        rule = Rule.from_box(np.zeros(4), np.ones(4))
        rule.wildcard[:] = True
        assert match_mask(rule, windows).all()

    def test_single_active_lag_among_wildcards(self):
        windows = _view(_series(np.random.default_rng(5), 1000, 9), 6)
        value = windows[100, 3]
        rule = Rule.from_box(np.full(6, value), np.full(6, value))
        rule.wildcard[:] = True
        rule.wildcard[3] = False
        mask = match_mask(rule, windows)
        assert mask[100] and np.array_equal(mask, windows[:, 3] == value)
        _assert_oracle(rule, windows)

    def test_empty_boxes(self):
        windows = _view(_series(np.random.default_rng(6), 900, 30), 5)
        top = windows.max()
        outside = Rule.from_box(np.full(5, top + 1.0), np.full(5, top + 2.0))
        assert not match_mask(outside, windows).any()
        # Between two adjacent data values: no series value in the box.
        gap = Rule.from_box(np.full(5, 0.1), np.full(5, 0.2))
        assert not match_mask(gap, windows).any()
        _assert_oracle(gap, windows)

    def test_inverted_and_nan_bounds_match_nothing(self):
        windows = _view(_series(np.random.default_rng(7), 900, 30), 5)
        rule = Rule.from_box(np.zeros(5), np.full(5, 9.0))
        rule.lower[2], rule.upper[2] = 3.0, 1.0
        _assert_oracle(rule, windows)
        rule = Rule.from_box(np.zeros(5), np.full(5, 9.0))
        rule.upper[4] = np.nan
        _assert_oracle(rule, windows)
        rule.wildcard[:4] = True  # the NaN lag is the only candidate lag
        assert not match_mask(rule, windows).any()

    def test_most_selective_lag_with_zero_hits(self):
        """One lag's interval holds no series value: nothing matches,
        however wide the other lags are."""
        windows = _view(_series(np.random.default_rng(8), 1200, 12), 6)
        lo = np.full(6, windows.min())
        hi = np.full(6, windows.max())
        lo[4], hi[4] = 0.05, 0.2  # strictly between the first two levels
        rule = Rule.from_box(lo, hi)
        assert not match_mask(rule, windows).any()
        _assert_oracle(rule, windows)

    def test_series_edges_reach_first_and_last_window(self):
        """Values that only the first window's first lag and the last
        window's last lag hold must be found through the index."""
        series = np.full(700, 5.0)
        series[0], series[698], series[699] = 1.0, 9.0, 7.0
        windows = _view(series, 4)  # 696 windows over series[:699]
        first = Rule.from_box(np.array([1.0, 5.0, 5.0, 5.0]), np.array([1.0, 5.0, 5.0, 5.0]))
        last = Rule.from_box(np.array([5.0, 5.0, 5.0, 9.0]), np.array([5.0, 5.0, 5.0, 9.0]))
        target = Rule.from_box(np.full(4, 7.0), np.full(4, 7.0))
        assert np.flatnonzero(match_mask(first, windows)).tolist() == [0]
        assert np.flatnonzero(match_mask(last, windows)).tolist() == [695]
        assert not match_mask(target, windows).any()  # a target, not an input
        for rule in (first, last, target):
            _assert_oracle(rule, windows)


class TestStackedColdStart:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_stacked_equals_dense_rows(self, seed, n_rules):
        rng = np.random.default_rng(seed)
        windows = _view(_series(rng, 1100, 50), 5)
        rules = [_rule_on_values(rng, windows, 0.3) for _ in range(n_rules)]
        oracle = np.stack([match_mask_dense(r, windows) for r in rules])
        assert np.array_equal(population_match_matrix_stacked(rules, windows), oracle)
        assert np.array_equal(
            population_match_matrix_stacked(rules, np.ascontiguousarray(windows)), oracle
        )


class TestIndexLifetime:
    def test_index_dies_with_its_view(self):
        view = _view(np.random.default_rng(1).normal(size=900), 4)
        match_mask(Rule.from_box(np.full(4, -1.0), np.full(4, 1.0)), view)
        key = id(view)
        assert matching._SERIES_INDEX[key][0]() is view
        del view
        gc.collect()
        assert key not in matching._SERIES_INDEX

    def test_no_error_at_interpreter_exit(self):
        """An index whose view is still alive at shutdown goes quietly."""
        code = (
            "import numpy as np\n"
            "from repro.core.matching import match_mask\n"
            "from repro.core.rule import Rule\n"
            "from repro.series.windowing import make_windows\n"
            "X = make_windows(np.arange(1000.0), 3, 1)[0]\n"
            "match_mask(Rule.from_box(np.zeros(3), np.full(3, 50.0)), X)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
