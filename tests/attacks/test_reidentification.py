"""Tests for the re-identification (matching) attack."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import (
    ReidentificationAttack,
    ReidentificationReport,
    run_reidentification,
)
from repro.errors import ConfigurationError, EstimatorError
from tests.oracles import rank_candidates_reference


@pytest.fixture()
def pool(rng):
    return rng.normal(size=(40, 4, 5, 5)).astype(np.float32)


class TestRanking:
    def test_clean_observations_rank_self_first(self, pool):
        attack = ReidentificationAttack(pool)
        ranking = attack.rank_candidates(pool)
        np.testing.assert_array_equal(ranking[:, 0], np.arange(len(pool)))

    def test_ranking_shape(self, pool, rng):
        attack = ReidentificationAttack(pool)
        observed = pool[:7] + 0.01 * rng.normal(size=(7, 4, 5, 5))
        assert attack.rank_candidates(observed).shape == (7, 40)

    def test_width_mismatch_rejected(self, pool, rng):
        attack = ReidentificationAttack(pool)
        with pytest.raises(EstimatorError):
            attack.rank_candidates(rng.normal(size=(3, 2, 5, 5)))

    def test_tiny_pool_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            ReidentificationAttack(rng.normal(size=(1, 8)))


class TestEvaluate:
    def test_perfect_on_clean(self, pool):
        report = run_reidentification(pool, pool)
        assert report.top1_rate == 1.0
        assert report.topk_rate == 1.0
        assert report.mean_rank == 1.0

    def test_small_noise_keeps_identification(self, pool, rng):
        observed = pool + 0.05 * rng.normal(size=pool.shape).astype(np.float32)
        report = run_reidentification(pool, observed)
        assert report.top1_rate > 0.9

    def test_huge_noise_collapses_to_chance(self, pool, rng):
        observed = pool + 50.0 * rng.normal(size=pool.shape).astype(np.float32)
        report = run_reidentification(pool, observed)
        # With noise dwarfing the signal, top-1 should approach 1/pool.
        assert report.top1_rate < 0.2
        assert report.advantage < 0.2

    def test_noise_monotonically_degrades_attack(self, pool, rng):
        rates = []
        for sigma in (0.0, 1.0, 30.0):
            observed = pool + sigma * rng.normal(size=pool.shape).astype(np.float32)
            rates.append(run_reidentification(pool, observed).top1_rate)
        assert rates[0] >= rates[1] >= rates[2]

    def test_explicit_indices(self, pool, rng):
        subset = np.array([3, 17, 29])
        observed = pool[subset] + 0.01 * rng.normal(size=(3, 4, 5, 5)).astype(
            np.float32
        )
        attack = ReidentificationAttack(pool)
        report = attack.evaluate(observed, subset, k=3)
        assert report.top1_rate == 1.0
        assert report.pool_size == 40

    def test_topk_at_least_top1(self, pool, rng):
        observed = pool + 2.0 * rng.normal(size=pool.shape).astype(np.float32)
        report = run_reidentification(pool, observed, k=5)
        assert report.topk_rate >= report.top1_rate

    def test_chance_levels(self):
        report = ReidentificationReport(0.5, 0.8, 5, 20, 3.0)
        assert report.chance_top1 == pytest.approx(0.05)
        assert report.chance_topk == pytest.approx(0.25)
        assert 0.0 < report.advantage < 0.5


class TestValidation:
    def test_unpaired_rejected(self, pool):
        attack = ReidentificationAttack(pool)
        with pytest.raises(EstimatorError):
            attack.evaluate(pool[:5], np.arange(4))

    def test_empty_rejected(self, pool):
        attack = ReidentificationAttack(pool)
        with pytest.raises(EstimatorError):
            attack.evaluate(pool[:0], np.arange(0))

    def test_bad_k(self, pool):
        attack = ReidentificationAttack(pool)
        with pytest.raises(ConfigurationError):
            attack.evaluate(pool, np.arange(40), k=0)
        with pytest.raises(ConfigurationError):
            attack.evaluate(pool, np.arange(40), k=41)

    def test_indices_out_of_pool(self, pool):
        attack = ReidentificationAttack(pool)
        with pytest.raises(EstimatorError):
            attack.evaluate(pool[:2], np.array([0, 40]))

    def test_wrapper_requires_bijection_without_indices(self, pool):
        with pytest.raises(EstimatorError):
            run_reidentification(pool, pool[:10])


class TestProperties:
    @given(seed=st.integers(0, 2**16), pool_size=st.integers(4, 32))
    @settings(max_examples=20, deadline=None)
    def test_mean_rank_bounds(self, seed, pool_size):
        rng = np.random.default_rng(seed)
        pool = rng.normal(size=(pool_size, 6))
        observed = pool + rng.normal(size=pool.shape)
        report = run_reidentification(pool, observed, k=min(5, pool_size))
        assert 1.0 <= report.mean_rank <= pool_size
        assert 0.0 <= report.top1_rate <= report.topk_rate <= 1.0

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_constant_shift_does_not_hide_identity(self, seed):
        """A fixed tensor added to every activation preserves all pairwise
        distances — the re-identification analogue of I(x; a+c) = I(x; a)."""
        rng = np.random.default_rng(seed)
        pool = rng.normal(size=(16, 8))
        # Shift small relative to the pool spread: the true candidate's
        # distance ||s||² stays below typical cross distances.
        shift = 0.3 * rng.normal(size=(1, 8))
        report = run_reidentification(pool, pool + shift)
        assert report.top1_rate >= 0.5
        assert report.top1_rate > report.chance_top1


def _assert_rankings_equivalent(attack, a, b, observed):
    """Rankings from two computation paths must order by the same
    distances: identical where gaps are real, tolerant of ulp-level
    swaps between near-equal candidates (different GEMM geometries may
    round differently in the last place)."""
    if np.array_equal(a, b):
        return
    flat = observed.reshape(len(observed), -1).astype(np.float64)
    for row, (ranked_a, ranked_b) in enumerate(zip(a, b)):
        distances = ((attack._pool - flat[row][None, :]) ** 2).sum(axis=1)
        np.testing.assert_allclose(
            distances[ranked_a], distances[ranked_b], rtol=1e-9, atol=1e-9
        )


class TestVectorisedRankingParity:
    def test_blocked_matches_reference_loop(self, pool, rng):
        attack = ReidentificationAttack(pool)
        observed = pool + rng.normal(0, 0.05, size=pool.shape)
        _assert_rankings_equivalent(
            attack,
            attack.rank_candidates(observed),
            rank_candidates_reference(attack, observed),
            observed,
        )

    def test_blocking_boundaries_do_not_change_ranking(self, pool, rng, monkeypatch):
        from repro.attacks import _matching

        attack = ReidentificationAttack(pool)
        observed = pool + rng.normal(0, 0.1, size=pool.shape)
        unblocked = attack.rank_candidates(observed)
        monkeypatch.setattr(_matching, "BLOCK_ELEMENTS", 8)
        blocked = attack.rank_candidates(observed)
        _assert_rankings_equivalent(attack, unblocked, blocked, observed)

    def test_report_identical_between_paths(self, pool, rng):
        attack = ReidentificationAttack(pool)
        observed = pool + rng.normal(0, 0.2, size=pool.shape)
        fast = attack.evaluate(observed, np.arange(len(pool)), k=3)
        ranking = rank_candidates_reference(attack, observed)
        positions = np.argmax(ranking == np.arange(len(pool))[:, None], axis=1)
        assert fast.top1_rate == pytest.approx(float(np.mean(positions == 0)))
        assert fast.mean_rank == pytest.approx(float(np.mean(positions + 1)))
