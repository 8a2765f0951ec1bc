"""Shuffle-leakage evaluator and the jitter-seed estimator fix (PR 8).

Two bug classes are regression-locked here alongside the new evaluator:

* ``_jittered`` used to hardcode ``np.random.default_rng(0)``, so every
  KSG call — including every bootstrap replicate — added the *same*
  tie-breaking noise.  The ``jitter_rng`` thread-through must (a) keep
  the historical default bitwise stable, (b) actually vary with the
  seed, and (c) give each bootstrap replicate its own independent draw.
* the evaluator itself must be a pure function of its inputs and seeds:
  identical calls, identical numbers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, EstimatorError
from repro.privacy import (
    amplified_epsilon,
    estimate_leakage,
    evaluate_shuffle_leakage,
    ksg_mutual_information,
    subsampled_mi_interval,
    sweep_mixing_tradeoff,
    tap_wire_batches,
)
from tests.oracles import ksg_mutual_information_reference


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(7)
    activations = rng.normal(size=(48, 12)).astype(np.float64)
    sessions = [f"user-{i % 6}" for i in range(48)]
    return activations, sessions


class TestJitterSeedThreading:
    """Satellite bugfix: explicit jitter randomness in the KSG path."""

    def _pair(self, n=200, seed=3):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 2))
        y = 0.8 * x + rng.normal(0.0, 0.6, size=(n, 2))
        return x, y

    def test_default_is_bitwise_stable(self):
        """``jitter_rng=None`` must reproduce the historical fixed-seed
        behaviour bit for bit (downstream pinned numbers depend on it)."""
        x, y = self._pair()
        legacy = ksg_mutual_information(x, y)
        assert ksg_mutual_information(x, y, jitter_rng=None) == legacy
        assert ksg_mutual_information(x, y, jitter_rng=0) == legacy
        assert ksg_mutual_information_reference(
            x, y, jitter_rng=0
        ) == ksg_mutual_information_reference(x, y)

    def test_distinct_seeds_change_the_tie_breaking(self):
        """Ties broken differently => (slightly) different estimates; the
        old hardcoded rng made this impossible."""
        # Heavy ties: quantised coordinates make the jitter decisive.
        rng = np.random.default_rng(0)
        x = np.round(rng.normal(size=(150, 2)), 1)
        y = np.round(0.9 * x + rng.normal(0.0, 0.3, size=(150, 2)), 1)
        a = ksg_mutual_information(x, y, jitter=1e-6, jitter_rng=1)
        b = ksg_mutual_information(x, y, jitter=1e-6, jitter_rng=2)
        assert a != b
        # Same seed: identical.
        assert a == ksg_mutual_information(x, y, jitter=1e-6, jitter_rng=1)

    def test_generator_and_int_seeds_agree(self):
        x, y = self._pair()
        assert ksg_mutual_information(
            x, y, jitter=1e-6, jitter_rng=11
        ) == ksg_mutual_information(
            x, y, jitter=1e-6, jitter_rng=np.random.default_rng(11)
        )

    def test_estimate_leakage_forwards_jitter_rng(self):
        rng = np.random.default_rng(5)
        inputs = np.round(rng.normal(size=(120, 6)), 1)
        activations = np.round(
            0.7 * inputs + rng.normal(0.0, 0.4, size=(120, 6)), 1
        )
        default = estimate_leakage(inputs, activations, n_components=4)
        stable = estimate_leakage(
            inputs, activations, n_components=4, jitter_rng=None
        )
        assert default.mi_bits == stable.mi_bits

    def test_bootstrap_draws_one_seed_per_replicate(self, monkeypatch):
        """Each replicate must get its own jitter seed, deterministically
        derived from the caller's rng (a shared fixed seed correlates the
        replicates and understates the interval)."""
        import repro.privacy.bootstrap as bootstrap

        seen: list[object] = []
        real = bootstrap.estimate_leakage

        def spy(*args, **kwargs):
            seen.append(kwargs.get("jitter_rng"))
            return real(*args, **kwargs)

        monkeypatch.setattr(bootstrap, "estimate_leakage", spy)
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(60, 4))
        activations = 0.8 * inputs + rng.normal(0.0, 0.5, size=(60, 4))
        subsampled_mi_interval(
            inputs, activations, n_replicates=5, n_components=3,
            rng=np.random.default_rng(9),
        )
        # Point estimate (no jitter_rng kwarg) + 5 replicates.
        replicate_seeds = [s for s in seen if s is not None]
        assert len(replicate_seeds) == 5
        assert all(isinstance(s, int) for s in replicate_seeds)
        assert len(set(replicate_seeds)) == 5  # independent draws
        # Deterministic in the caller's rng.
        seen.clear()
        subsampled_mi_interval(
            inputs, activations, n_replicates=5, n_components=3,
            rng=np.random.default_rng(9),
        )
        assert [s for s in seen if s is not None] == replicate_seeds


class TestAmplifiedEpsilon:
    def test_closed_form_and_clamp(self):
        # Large anonymity sets amplify; tiny ones fall back to the local
        # guarantee (never weaker than epsilon0).
        assert amplified_epsilon(1.0, 10_000) < 0.2
        assert amplified_epsilon(1.0, 1) == 1.0
        assert amplified_epsilon(1.0, 2) == 1.0  # bound useless this small
        assert amplified_epsilon(0.0, 100) == 0.0
        for n in (2, 10, 100, 10_000):
            assert amplified_epsilon(2.0, n) <= 2.0

    def test_theorem_precondition(self):
        """Feldman, McMillan and Talwar (arXiv:2012.12803), Theorem 3.1,
        holds only for epsilon0 <= log(n / (16 log(2 / delta))); below
        that many reports the local guarantee epsilon0 stands.  At
        delta = 1e-5 the smallest qualifying n is 531 at epsilon0 = 1 and
        3923 at epsilon0 = 3."""
        assert amplified_epsilon(1.0, 530) == 1.0
        assert amplified_epsilon(1.0, 531) < 1.0
        assert amplified_epsilon(3.0, 3922) == 3.0
        assert amplified_epsilon(3.0, 3923) < 3.0
        # Serving-window-sized anonymity sets never qualify.
        assert amplified_epsilon(3.0, 100) == 3.0
        assert amplified_epsilon(2.0, 64) == 2.0

    def test_theorem_closed_form(self):
        """Theorem 3.1's bound: epsilon <= log(1 + (e^e0 - 1) / (e^e0 + 1)
        * (8 sqrt(e^e0 log(4 / delta)) / sqrt(n) + 8 e^e0 / n))."""
        delta = 1e-5
        for epsilon0, n in ((1.0, 10_000), (0.5, 1_000), (2.0, 100_000)):
            e0 = math.exp(epsilon0)
            theorem = math.log(
                1 + (e0 - 1) / (e0 + 1) * (
                    8 * math.sqrt(e0 * math.log(4 / delta)) / math.sqrt(n)
                    + 8 * e0 / n
                )
            )
            assert amplified_epsilon(epsilon0, n, delta) == pytest.approx(
                theorem, rel=1e-12
            )
        assert amplified_epsilon(1.0, 10_000) == pytest.approx(0.1988, abs=1e-4)

    def test_monotone_in_n(self):
        values = [amplified_epsilon(1.0, n) for n in (10, 100, 1000, 100_000)]
        assert values == sorted(values, reverse=True)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            amplified_epsilon(-0.1, 10)
        with pytest.raises(ConfigurationError):
            amplified_epsilon(1.0, 0)
        with pytest.raises(ConfigurationError):
            amplified_epsilon(1.0, 10, delta=1.5)


class TestTap:
    def test_unshuffled_frames_tell_the_truth(self, stream):
        activations, sessions = stream
        frames = tap_wire_batches(activations, sessions, batch_window=8)
        assert sum(len(f.true_indices) for f in frames) == len(activations)
        for frame in frames:
            assert frame.claimed_sessions == frame.true_sessions

    def test_shuffled_frames_keep_the_rows_but_not_the_story(self, stream):
        activations, sessions = stream
        frames = tap_wire_batches(
            activations, sessions, batch_window=8, shuffle=True
        )
        lied = 0
        for frame in frames:
            # Same multiset of rows (the content is intact)...
            assert sorted(frame.true_indices) == sorted(
                range(min(frame.true_indices), max(frame.true_indices) + 1)
            ) or len(frame.true_indices) == len(set(frame.true_indices))
            # ...but the request table's ownership story can be false.
            if frame.claimed_sessions != frame.true_sessions:
                lied += 1
        assert lied > 0

    def test_isolation_caps_anonymity_at_one(self, stream):
        activations, sessions = stream
        frames = tap_wire_batches(
            activations, sessions, batch_window=8, shuffle=True,
            isolate_sessions=True,
        )
        assert all(frame.anonymity_set == 1 for frame in frames)

    def test_sharding_respects_route_session(self, stream):
        from repro.serve import route_session

        activations, sessions = stream
        frames = tap_wire_batches(activations, sessions, shards=2)
        for frame in frames:
            for session in frame.true_sessions:
                assert route_session(session, 2) == frame.shard

    def test_validation(self, stream):
        activations, sessions = stream
        with pytest.raises(EstimatorError):
            tap_wire_batches(activations, sessions[:-1])
        with pytest.raises(EstimatorError):
            tap_wire_batches(activations[:0], [])
        with pytest.raises(ConfigurationError):
            tap_wire_batches(activations, sessions, batch_window=0)


class TestEvaluator:
    def test_shuffle_kills_the_positional_attacker_only(self, stream):
        activations, sessions = stream
        off = evaluate_shuffle_leakage(activations, sessions, batch_window=8)
        on = evaluate_shuffle_leakage(
            activations, sessions, batch_window=8, shuffle=True
        )
        # Positional attacker: perfect without shuffling, at the chance
        # floor with it.
        assert off.positional_accuracy == 1.0
        assert on.positional_accuracy == pytest.approx(
            on.positional_chance, abs=0.15
        )
        assert on.session_mi_bits < off.session_mi_bits
        # Content attacker: shuffling alone moves nothing (clean rows).
        assert off.reid_top1 == on.reid_top1 == 1.0
        # Mixing is a composition property, identical either way.
        assert on.mixing_index == pytest.approx(off.mixing_index)

    def test_noise_weakens_the_content_attacker(self, stream):
        activations, sessions = stream
        rng = np.random.default_rng(1)
        noisy = activations + rng.laplace(0.0, 3.0, size=activations.shape)
        clean = evaluate_shuffle_leakage(
            activations, sessions, shuffle=True
        )
        noised = evaluate_shuffle_leakage(
            activations, sessions, observed=noisy, shuffle=True
        )
        assert noised.reid_top1 < clean.reid_top1

    def test_deterministic_under_a_seed(self, stream):
        activations, sessions = stream
        kwargs = dict(
            batch_window=4, shuffle=True, shuffle_seed=3, shards=2,
            epsilon0=1.0,
        )
        first = evaluate_shuffle_leakage(activations, sessions, **kwargs)
        second = evaluate_shuffle_leakage(activations, sessions, **kwargs)
        assert first == second
        moved = evaluate_shuffle_leakage(
            activations, sessions, **{**kwargs, "shuffle_seed": 4}
        )
        assert moved.batches == first.batches  # composition unchanged

    def test_amplification_reported_at_min_anonymity(self, stream):
        """Two of the six sessions put 2 rows in every window-8 frame, and
        a session's rows compose before amplification (the rule
        ``ServingMetrics.shuffle_amplification`` applies to a live plane)."""
        activations, sessions = stream
        report = evaluate_shuffle_leakage(
            activations, sessions, batch_window=8, shuffle=True, epsilon0=1.0
        )
        assert report.min_anonymity_set is not None
        assert report.epsilon_amplified == amplified_epsilon(
            2.0, report.min_anonymity_set
        )
        unshuffled = evaluate_shuffle_leakage(
            activations, sessions, batch_window=8, epsilon0=1.0
        )
        assert unshuffled.epsilon_amplified is None

    def test_amplification_per_row_with_one_row_per_session(self, stream):
        """With one row per session per frame nothing composes, so the
        figure is the per-row bound at the minimum anonymity set."""
        activations, _ = stream
        sessions = [f"user-{i}" for i in range(len(activations))]
        report = evaluate_shuffle_leakage(
            activations, sessions, batch_window=8, shuffle=True, epsilon0=1.0
        )
        assert report.min_anonymity_set == 8
        assert report.epsilon_amplified == amplified_epsilon(1.0, 8)

    def test_report_is_json_ready(self, stream):
        import json

        activations, sessions = stream
        report = evaluate_shuffle_leakage(activations, sessions, shuffle=True)
        json.dumps(report.as_dict())


class TestSweep:
    def test_surface_covers_the_cross_product_deterministically(self, stream):
        activations, sessions = stream
        kwargs = dict(
            batch_windows=(2, 8), shard_counts=(1, 2),
            isolation_policies=(False, True), shuffle_modes=(False, True),
            epsilon0=1.0,
        )
        surface = sweep_mixing_tradeoff(activations, sessions, **kwargs)
        assert len(surface) == 2 * 2 * 2 * 2
        assert surface == sweep_mixing_tradeoff(activations, sessions, **kwargs)
        # Shuffled mixed legs never leak more positionally than their
        # unshuffled twins.
        by_key = {
            (r["batch_window"], r["shards"], r["isolate_sessions"], r["shuffle"]): r
            for r in surface
        }
        for window in (2, 8):
            for shards in (1, 2):
                off = by_key[(window, shards, False, False)]
                on = by_key[(window, shards, False, True)]
                assert on["positional_accuracy"] <= off["positional_accuracy"]
                assert on["session_mi_bits"] <= off["session_mi_bits"]
