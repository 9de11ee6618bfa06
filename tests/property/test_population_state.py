"""Property-based tests for the incremental evaluation subsystem.

Oracle discipline: the per-rule kernels (:func:`match_mask_dense`,
:func:`evaluate_population`'s effects on each rule) define the ground
truth.  The batched stacked kernel and the incrementally maintained
:class:`PopulationState` must agree with from-scratch recomputation
after *arbitrary* replacement sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EvolutionConfig
from repro.core.evaluation import evaluate_rule
from repro.core.fitness import FitnessParams
from repro.core.matching import (
    match_mask,
    match_mask_dense,
    population_match_matrix_stacked,
)
from repro.core.population_state import (
    PopulationState,
    _native_popcounts,
    _table_popcounts,
    as_mask_matrix,
    pack_masks,
)
from repro.core.replacement import jaccard_distances, nearest_phenotype_index
from repro.core.rule import Rule
from repro.series.noise import sine_series
from repro.series.windowing import WindowDataset

D = 4

_SERIES = sine_series(300, period=30, noise_sigma=0.05, seed=11)
_DATASET = WindowDataset.from_series(_SERIES, D, 1)
_CONFIG = EvolutionConfig(
    d=D, horizon=1, population_size=8, generations=0,
    fitness=FitnessParams(e_max=0.5),
)


def _random_rule(rng: np.random.Generator) -> Rule:
    """An evaluated rule boxed around a random training window."""
    center = _DATASET.X[int(rng.integers(0, len(_DATASET)))]
    width = float(rng.uniform(0.05, 1.5))
    rule = Rule.from_box(center - width, center + width)
    rule.wildcard = rng.random(D) < 0.25
    return evaluate_rule(rule, _DATASET, _CONFIG)


def _oracle_state(rules) -> PopulationState:
    """Full recomputation through the per-rule dense oracle."""
    masks = np.stack([match_mask_dense(r, _DATASET.X) for r in rules])
    fitness = np.array([r.fitness for r in rules])
    return PopulationState(masks, fitness)


class TestStackedKernel:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_stacked_equals_per_rule_oracle(self, seed, n_rules):
        rng = np.random.default_rng(seed)
        rules = [_random_rule(rng) for _ in range(n_rules)]
        stacked = population_match_matrix_stacked(rules, _DATASET.X)
        oracle = np.stack([match_mask_dense(r, _DATASET.X) for r in rules])
        assert np.array_equal(stacked, oracle)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 64, 10_000]))
    @settings(max_examples=20, deadline=None)
    def test_block_size_never_changes_result(self, seed, block_size):
        rng = np.random.default_rng(seed)
        rules = [_random_rule(rng) for _ in range(5)]
        full = population_match_matrix_stacked(rules, _DATASET.X)
        blocked = population_match_matrix_stacked(
            rules, _DATASET.X, block_size=block_size
        )
        assert np.array_equal(full, blocked)

    def test_empty_population(self):
        out = population_match_matrix_stacked([], _DATASET.X)
        assert out.shape == (0, len(_DATASET))


class TestIncrementalState:
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(0, 7), st.booleans()), max_size=25),
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_replacement_sequence_matches_oracle(self, seed, moves):
        """After any replace()/try_replace() sequence the state equals a
        from-scratch recomputation (masks, fitness, coverage)."""
        rng = np.random.default_rng(seed)
        population = [_random_rule(rng) for _ in range(8)]
        state = PopulationState.from_population(population, _DATASET.X)
        for index, forced in moves:
            challenger = _random_rule(rng)
            if forced:
                population[index] = challenger
                state.replace(index, challenger)
            else:
                accepted = state.try_replace(population, challenger, index)
                assert accepted == (
                    population[index] is challenger
                ), "try_replace must mutate the population iff accepted"
        oracle = _oracle_state(population)
        assert np.array_equal(state.masks, oracle.masks)
        assert np.array_equal(state.fitness, oracle.fitness)
        assert np.array_equal(state.coverage_counts, oracle.coverage_counts)
        assert state.coverage == oracle.coverage
        assert len(_DATASET) % 64 != 0  # a partial last word
        assert np.array_equal(state.packed, pack_masks(oracle.masks))
        assert np.array_equal(state.sizes, oracle.masks.sum(axis=1))
        state.verify(population, _DATASET.X)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_cold_start_paths_agree(self, seed):
        """Cached-mask and stacked-kernel cold starts are identical."""
        rng = np.random.default_rng(seed)
        population = [_random_rule(rng) for _ in range(6)]
        cached = PopulationState.from_population(
            population, _DATASET.X, use_cached=True
        )
        fresh = PopulationState.from_population(
            population, _DATASET.X, use_cached=False
        )
        assert np.array_equal(cached.masks, fresh.masks)
        assert np.array_equal(cached.fitness, fresh.fitness)
        assert np.array_equal(cached.coverage_counts, fresh.coverage_counts)

    def test_replace_rejects_unevaluated_rule(self):
        rng = np.random.default_rng(0)
        population = [_random_rule(rng) for _ in range(3)]
        state = PopulationState.from_population(population, _DATASET.X)
        bare = Rule.from_box(np.zeros(D), np.ones(D))
        try:
            state.replace(0, bare)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("unevaluated rule must be rejected")

    def test_as_mask_matrix_coercion(self):
        rng = np.random.default_rng(1)
        population = [_random_rule(rng) for _ in range(3)]
        state = PopulationState.from_population(population, _DATASET.X)
        assert as_mask_matrix(state) is state.masks
        raw = np.zeros((2, 5), dtype=bool)
        assert as_mask_matrix(raw) is raw

    def test_diagnostics_reject_state_for_other_windows(self):
        """A state built on train windows must not be reused for a
        same-length but different window matrix (identity guard)."""
        from repro.core.diagnostics import summarize_pool

        rng = np.random.default_rng(2)
        population = [_random_rule(rng) for _ in range(4)]
        state = PopulationState.from_population(population, _DATASET.X)
        assert state.windows is _DATASET.X
        other = _DATASET.X + 10.0  # same shape, different data
        via_state = summarize_pool(population, other, masks=state)
        fresh = summarize_pool(population, other)
        assert via_state == fresh  # state was (correctly) not reused
        assert summarize_pool(population, _DATASET.X, masks=state) == \
            summarize_pool(population, _DATASET.X)


class TestPackedCrowding:
    """Distances from the packed mirror equal the bool-matrix oracle."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 63, 64, 65, 296, 640, 1000]),
        st.integers(2, 12),
        st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_distances_bitwise_equal_oracle(self, seed, n, p, density):
        rng = np.random.default_rng(seed)
        masks = rng.random((p, n)) < density
        masks[rng.random(p) < 0.2] = False  # some empty rows
        state = PopulationState(masks, np.zeros(p))
        for off in (rng.random(n) < density, masks[0].copy(), np.zeros(n, bool)):
            got = jaccard_distances(off, state)
            want = jaccard_distances(off, masks)
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)

    def test_empty_offspring_and_empty_rows(self):
        masks = np.zeros((4, 100), dtype=bool)
        masks[1, :10] = True
        masks[3, 50:] = True
        state = PopulationState(masks, np.zeros(4))
        empty = np.zeros(100, dtype=bool)
        got = jaccard_distances(empty, state)
        assert got.tolist() == [0.0, 1.0, 0.0, 1.0]  # union 0 gives 0.0
        assert np.array_equal(got, jaccard_distances(empty, masks))
        some = np.zeros(100, dtype=bool)
        some[5:60] = True
        assert np.array_equal(
            jaccard_distances(some, state), jaccard_distances(some, masks)
        )

    def test_nearest_slot_same_from_state_and_matrix(self):
        rng = np.random.default_rng(4)
        population = [_random_rule(rng) for _ in range(8)]
        state = PopulationState.from_population(population, _DATASET.X)
        for _ in range(20):
            child = _random_rule(rng)
            assert nearest_phenotype_index(
                child, population, state
            ) == nearest_phenotype_index(child, population, state.masks)

    def test_mask_of_wrong_length_rejected(self):
        state = PopulationState(np.zeros((2, 70), dtype=bool), np.zeros(2))
        with pytest.raises(ValueError, match="mask shape"):
            state.intersections(np.zeros(64, dtype=bool))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_byte_table_popcount_equals_native(self, seed, width):
        """The numpy < 2 fallback counts the same bits."""
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2**64, size=(5, width), dtype=np.uint64)
        words[0] = np.uint64(2**64 - 1)
        words[1] = 0
        expect = np.array(
            [sum(bin(int(w)).count("1") for w in row) for row in words]
        )
        assert np.array_equal(_table_popcounts(words), expect)
        if hasattr(np, "bitwise_count"):
            assert np.array_equal(_native_popcounts(words), expect)

    def test_pack_masks_layout(self):
        masks = np.zeros((2, 70), dtype=bool)
        masks[0, [0, 63, 64, 69]] = True
        packed = pack_masks(masks)
        assert packed.shape == (2, 2) and packed.dtype == np.uint64
        assert _table_popcounts(packed).tolist() == [4, 0]
        assert pack_masks(masks[0]).shape == (2,)


class TestEngineEquivalence:
    def test_incremental_and_full_recompute_identical(self):
        """evolve() returns a bitwise-identical rule set either way."""
        from repro.core.engine import evolve

        cfg = _CONFIG.replace(generations=120, seed=3, stats_every=40)
        inc = evolve(_DATASET, cfg)
        full = evolve(_DATASET, cfg.replace(incremental=False))
        assert inc.replacements == full.replacements
        assert [r.encode() for r in inc.rules] == [
            r.encode() for r in full.rules
        ]
        assert inc.stats == full.stats

    def test_fast_paths_match_dense_oracle_run(self, monkeypatch):
        """A GA on a >= 512-window sliding view is bitwise the same run
        as one whose matching goes through ``match_mask_dense`` and
        whose crowding scans the bool matrix (``jaccard_distances``)."""
        from repro.core import engine, evaluation, matching, population_state
        from repro.core.engine import evolve

        series = sine_series(760, period=45, noise_sigma=0.05, seed=21)
        dataset = WindowDataset.from_series(series, 6, 1)
        assert len(dataset) >= 512
        assert matching._series_index(dataset.X) is not None
        cfg = EvolutionConfig(
            d=6, horizon=1, population_size=16, generations=250, seed=17,
            fitness=FitnessParams(e_max=0.3),
        )
        fast = evolve(dataset, cfg)

        def dense_stack(rules, windows):
            return np.stack([match_mask_dense(r, windows) for r in rules])

        def matrix_crowding(offspring, population, state, mode, rng):
            return replacement_index(offspring, population, state.masks, mode, rng)

        replacement_index = engine.replacement_index
        monkeypatch.setattr(evaluation, "match_mask", match_mask_dense)
        monkeypatch.setattr(evaluation, "population_match_matrix_stacked", dense_stack)
        monkeypatch.setattr(population_state, "population_match_matrix_stacked", dense_stack)
        monkeypatch.setattr(engine, "replacement_index", matrix_crowding)
        oracle = evolve(dataset, cfg)
        assert fast.replacements == oracle.replacements > 0
        assert [r.encode() for r in fast.rules] == [r.encode() for r in oracle.rules]

    def test_engine_state_matches_oracle_after_run(self):
        from repro.core.engine import SteadyStateEngine

        eng = SteadyStateEngine(_DATASET, _CONFIG.replace(generations=0, seed=9))
        eng.initialize()
        for _ in range(80):
            eng.step()
        eng.state.verify(eng.population, _DATASET.X)
        for i, rule in enumerate(eng.population):
            assert np.array_equal(
                eng.state.masks[i], match_mask(rule, _DATASET.X)
            )
