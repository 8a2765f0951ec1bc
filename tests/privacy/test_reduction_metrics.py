"""Tests for PCA reduction and the leakage measurement pipeline."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.privacy.metrics as metrics
from repro.errors import EstimatorError
from repro.privacy import (
    PCAReducer,
    estimate_leakage,
    flatten_batch,
    information_loss_bits,
    information_loss_percent,
)
from repro.privacy.reduction import RANDOMIZED_SVD_MIN_RANK, _use_randomized
from tests.oracles import SVDPCAReducer

EPS = np.finfo(np.float64).eps

#: The audit's fit shapes: 96 held-out rows, or 67 in a 0.7 subsample, of
#: 3072 input or 1024 activation features.
WORKLOAD_SHAPES = [(96, 3072), (67, 3072), (96, 1024), (67, 1024)]


class TestPCAReducer:
    def test_reduces_dimension(self, rng):
        data = rng.standard_normal((50, 20))
        out = PCAReducer(5).fit_transform(data)
        assert out.shape == (50, 5)

    def test_whitening_unit_variance(self, rng):
        data = rng.standard_normal((500, 10)) * np.arange(1, 11)
        out = PCAReducer(4, whiten=True).fit_transform(data)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=0.05)

    def test_components_capped_by_rank(self, rng):
        data = rng.standard_normal((5, 20))
        out = PCAReducer(10).fit_transform(data)
        assert out.shape[1] == 4  # n-1

    def test_first_component_captures_dominant_direction(self, rng):
        # Data varies along one axis 100x more than the others.
        base = rng.standard_normal((300, 1)) * 10.0
        noise = rng.standard_normal((300, 9)) * 0.1
        data = np.concatenate([base, noise], axis=1)
        reducer = PCAReducer(2, whiten=False).fit(data)
        leading = np.abs(reducer.components_[0])
        assert leading[0] > 0.99

    def test_transform_before_fit_rejected(self, rng):
        with pytest.raises(EstimatorError):
            PCAReducer(2).transform(rng.standard_normal((5, 4)))

    def test_invalid_component_count(self):
        with pytest.raises(EstimatorError):
            PCAReducer(0)

    def test_requires_2d(self, rng):
        with pytest.raises(EstimatorError):
            PCAReducer(2).fit(rng.standard_normal(10))

    def test_deterministic(self, rng):
        data = rng.standard_normal((40, 8))
        a = PCAReducer(3).fit_transform(data)
        b = PCAReducer(3).fit_transform(data)
        np.testing.assert_allclose(a, b)


class TestFlattenBatch:
    def test_flattens_nchw(self, rng):
        out = flatten_batch(rng.standard_normal((4, 3, 2, 2)))
        assert out.shape == (4, 12)

    def test_rejects_scalars(self):
        with pytest.raises(EstimatorError):
            flatten_batch(np.zeros(5))


class TestEstimateLeakage:
    def test_noise_monotonically_destroys_information(self, rng):
        x = rng.standard_normal((300, 40))
        mis = []
        for sigma in [0.1, 1.0, 10.0]:
            a = x + sigma * rng.standard_normal(x.shape)
            mis.append(estimate_leakage(x, a, n_components=6).mi_bits)
        assert mis[0] > mis[1] > mis[2]

    def test_identity_map_leaks_most(self, rng):
        x = rng.standard_normal((200, 30))
        identity = estimate_leakage(x, x.copy(), n_components=5).mi_bits
        independent = estimate_leakage(
            x, rng.standard_normal(x.shape), n_components=5
        ).mi_bits
        assert identity > independent + 1.0

    def test_result_fields(self, rng):
        x = rng.standard_normal((100, 20))
        est = estimate_leakage(x, x + rng.standard_normal(x.shape), n_components=4)
        assert est.n_samples == 100
        assert est.estimator == "ksg"
        assert est.ex_vivo_privacy == pytest.approx(1.0 / est.mi_bits, rel=1e-6)

    def test_subsampling(self, rng):
        x = rng.standard_normal((300, 10))
        est = estimate_leakage(
            x, x + 0.5 * rng.standard_normal(x.shape), n_components=4, max_samples=64, rng=rng
        )
        assert est.n_samples == 64

    def test_entropy_sum_estimator_option(self, rng):
        x = rng.standard_normal((200, 10))
        a = x + rng.standard_normal(x.shape)
        ksg = estimate_leakage(x, a, n_components=4, estimator="ksg").mi_bits
        esum = estimate_leakage(x, a, n_components=4, estimator="entropy_sum").mi_bits
        assert esum == pytest.approx(ksg, abs=0.7)

    def test_unknown_estimator(self, rng):
        x = rng.standard_normal((50, 5))
        with pytest.raises(EstimatorError):
            estimate_leakage(x, x, estimator="mine")

    def test_unpaired_batches_rejected(self, rng):
        with pytest.raises(EstimatorError):
            estimate_leakage(
                rng.standard_normal((10, 4)), rng.standard_normal((11, 4))
            )

    def test_accepts_image_shaped_batches(self, rng):
        x = rng.standard_normal((80, 1, 8, 8))
        a = rng.standard_normal((80, 4, 4, 4))
        est = estimate_leakage(x, a, n_components=4)
        assert np.isfinite(est.mi_bits)


class TestInformationLoss:
    def test_bits(self):
        assert information_loss_bits(300.0, 18.9) == pytest.approx(281.1)

    def test_percent_table1_lenet(self):
        # Table 1: LeNet 301.84 -> 18.9 is a 93.74% loss.
        assert information_loss_percent(301.84, 18.9) == pytest.approx(93.74, abs=0.01)

    def test_percent_requires_positive_original(self):
        with pytest.raises(EstimatorError):
            information_loss_percent(0.0, 0.0)


class TestRandomizedSVD:
    def _spectrum_data(self, rng, n=60, d=40, k=6):
        # Well-separated decaying spectrum so the sketch captures the
        # subspace to near machine precision.
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((d, d)))
        s = np.zeros((n, d))
        s[np.arange(min(n, d)), np.arange(min(n, d))] = 10.0 ** -np.arange(min(n, d))
        return u @ s @ v.T

    def test_seeded_parity_with_exact_svd(self, rng):
        from repro.privacy import randomized_svd

        data = self._spectrum_data(rng)
        _, s_exact, vt_exact = np.linalg.svd(data, full_matrices=False)
        _, s_rand, vt_rand = randomized_svd(
            data, 5, rng=np.random.default_rng(7)
        )
        np.testing.assert_allclose(s_rand, s_exact[:5], rtol=1e-8)
        # Components agree up to sign.
        overlap = np.abs(np.sum(vt_rand * vt_exact[:5], axis=1))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-8)

    def test_reducer_randomized_matches_exact_projection(self, rng):
        n, d = RANDOMIZED_SVD_MIN_RANK + 20, RANDOMIZED_SVD_MIN_RANK
        data = self._spectrum_data(rng, n=n, d=d) + rng.standard_normal((n, d)) * 1e-9
        assert _use_randomized(n, d, 4)
        exact = SVDPCAReducer(4).fit(data)
        randomized = PCAReducer(4, rng=np.random.default_rng(3)).fit(data)
        np.testing.assert_allclose(
            randomized.explained_variance_, exact.explained_variance_, rtol=1e-6
        )
        # Projections agree up to per-component sign.
        signs = np.sign(
            np.sum(randomized.components_ * exact.components_, axis=1)
        )
        np.testing.assert_allclose(
            randomized.transform(data) * signs,
            exact.transform(data),
            atol=1e-6,
        )

    def test_randomized_is_seed_deterministic(self, rng):
        n = RANDOMIZED_SVD_MIN_RANK
        data = rng.standard_normal((n, n + 8))
        a = PCAReducer(3, rng=np.random.default_rng(5)).fit_transform(data)
        b = PCAReducer(3, rng=np.random.default_rng(5)).fit_transform(data)
        np.testing.assert_array_equal(a, b)

    def test_auto_stays_exact_on_small_inputs(self, rng):
        data = rng.standard_normal((50, 20))
        assert not _use_randomized(50, 20, 4)
        auto = PCAReducer(4).fit(data)
        exact = SVDPCAReducer(4).fit(data)
        signs = np.sign(np.sum(auto.components_ * exact.components_, axis=1))
        np.testing.assert_allclose(
            auto.components_ * signs[:, None], exact.components_, atol=1e-12
        )

    def test_auto_goes_randomized_at_scale(self):
        assert _use_randomized(n=1000, d=4000, k=8)
        assert not _use_randomized(n=100, d=50, k=8)
        # Keyed on min(n, d): the audits' fits stay exact, paper scale does not.
        for n, d in WORKLOAD_SHAPES:
            assert not _use_randomized(n, d, 12)
        assert not _use_randomized(RANDOMIZED_SVD_MIN_RANK - 1, 3072, 12)
        assert _use_randomized(RANDOMIZED_SVD_MIN_RANK, 3072, 12)
        assert _use_randomized(3072, RANDOMIZED_SVD_MIN_RANK, 12)
        assert _use_randomized(1000, 12288, 16)

    def test_invalid_arguments(self, rng):
        from repro.privacy import randomized_svd

        with pytest.raises(EstimatorError):
            randomized_svd(rng.standard_normal((10, 5)), 9)
        with pytest.raises(EstimatorError):
            randomized_svd(rng.standard_normal(10), 2)


#: Fit shapes on both sides of n = d, all below the randomized crossover.
shapes = st.one_of(
    st.sampled_from(WORKLOAD_SHAPES),
    st.tuples(st.integers(8, 160), st.integers(1, 160)),
)


@st.composite
def gapped_data(draw):
    """Full-rank data whose top ``k + 1`` singular values are evenly spaced
    in ``[low, 1]`` (times a scale), with the rest below ``0.9·low``.

    Returns ``(data, k, singular_values)``; ``data`` centres to
    ``u·diag(s)·vᵀ`` of rank ``min(n - 1, d)``.
    """
    n, d = draw(shapes)
    k = min(draw(st.integers(1, 16)), d, n - 1)
    low = draw(st.floats(0.1, 0.5))
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = min(n - 1, d)
    left = rng.standard_normal((n, rank))
    u, _ = np.linalg.qr(left - left.mean(axis=0))
    v, _ = np.linalg.qr(rng.standard_normal((d, rank)))
    top = np.linspace(1.0, low, min(k + 1, rank))
    tail = np.sort(rng.uniform(0.0, 0.9 * low, rank - len(top)))[::-1]
    s = scale * np.concatenate([top, tail])
    offset = scale * rng.standard_normal(d)
    return (u * s) @ v.T + offset, k, s


@st.composite
def deficient_data(draw):
    """Paired inputs and rank-deficient activations of known rank.

    Kinds: rank below ``k`` (a linear function of the inputs, so the pair
    shares information), duplicate rows, all but a few columns constant,
    and every column constant.  Returns ``(inputs, data, k, rank)``.
    """
    n, d = draw(shapes)
    k = min(draw(st.integers(2, 16)), d, n - 1)
    kind = draw(
        st.sampled_from(["low_rank", "duplicate_rows", "constant_columns", "constant"])
    )
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = rng.standard_normal((n, 64))
    data = np.tile(rng.standard_normal(d), (n, 1))
    if kind == "low_rank":
        rank = draw(st.integers(1, max(1, k - 1)))
        data = inputs[:, :rank] @ rng.standard_normal((rank, d))
    elif kind == "duplicate_rows":
        unique = draw(st.integers(2, max(2, k)))
        data = rng.standard_normal((unique, d))[np.arange(n) % unique]
        rank = min(unique - 1, d)
    elif kind == "constant_columns":
        rank = draw(st.integers(1, max(1, k - 1)))
        data[:, :rank] = rng.standard_normal((n, rank))
    else:
        rank = 0
    return inputs, scale * data, k, rank


def _oracle_leakage(inputs, activations):
    """``estimate_leakage`` with the economy-SVD PCA in place of the
    library's."""
    with mock.patch.object(metrics, "PCAReducer", SVDPCAReducer):
        return estimate_leakage(inputs, activations).mi_bits


class TestEigendecompositionAgainstSVDOracle:
    """The Gram (n <= d) and scatter (n > d) eigendecompositions give the
    economy SVD's components."""

    @given(gapped_data())
    @settings(max_examples=60, deadline=None)
    def test_full_rank_matches_oracle(self, drawn):
        """Variances to a relative 1e-8; each component up to sign within
        ``1000·eps·σ₁²/gap``, where ``gap`` is the smallest distance
        between consecutive eigenvalues ``σ²`` among the top ``k + 1``.
        First-order perturbation bounds a component's error by
        ``‖δG‖/gap``, and forming ``G`` rounds it by about
        ``√max(n, d)·eps·σ₁²`` (55 at ``d = 3072``)."""
        data, k, s = drawn
        ours = PCAReducer(k).fit(data)
        oracle = SVDPCAReducer(k).fit(data)
        np.testing.assert_allclose(
            ours.explained_variance_, oracle.explained_variance_, rtol=1e-8
        )
        eigenvalues = s[: k + 1] ** 2
        gap = np.min(-np.diff(eigenvalues)) if len(eigenvalues) > 1 else eigenvalues[0]
        tolerance = 1000 * EPS * eigenvalues[0] / gap
        signs = np.sign(np.sum(ours.components_ * oracle.components_, axis=1))
        np.testing.assert_allclose(
            ours.components_ * signs[:, None],
            oracle.components_,
            rtol=0,
            atol=tolerance,
        )

    @given(deficient_data())
    @settings(max_examples=60, deadline=None)
    def test_rank_deficient_components_are_zero_rows(self, drawn):
        inputs, data, k, rank = drawn
        reducer = PCAReducer(k).fit(data)
        reduced = reducer.transform(data)
        assert np.isfinite(reduced).all()
        assert np.all(reducer.components_[rank:] == 0)
        assert np.all(reducer.explained_variance_[rank:] == 0)
        assert np.all(reduced[:, rank:] == 0)
        np.testing.assert_allclose(
            np.linalg.norm(reducer.components_[:rank], axis=1), 1.0, atol=1e-6
        )

    @given(deficient_data())
    @settings(max_examples=40, deadline=None)
    def test_rank_deficient_leakage_agrees_with_oracle(self, drawn):
        """Within 0.5 bits.  Beyond the rank, the oracle keeps rounding-
        noise directions that whitening and the estimator's standardisation
        blow up to unit variance; they are independent noise, and move the
        oracle's own estimate by up to about 0.3 bits when the data are
        rescaled.  The library projects them to exactly 0."""
        inputs, data, _, _ = drawn
        ours = estimate_leakage(inputs, data).mi_bits
        assert np.isfinite(ours)
        assert ours == pytest.approx(_oracle_leakage(inputs, data), abs=0.5)

    def test_rank_three_activations(self):
        """96 rows of rank-3 activations reduced to 12 components.  For a
        tiny positive Gram eigenvalue, ``Cᵀu / σ`` is a rounding-error
        direction in the row space; kept, its whitened projection makes the
        estimate depend on the data's scale.  Treated as zero, components
        3-11 project to exactly 0 and rescaling changes nothing."""
        rng = np.random.default_rng(3)
        inputs = rng.standard_normal((96, 3072))
        factors = inputs @ rng.standard_normal((3072, 3))
        activations = factors @ rng.standard_normal((3, 1024))
        reducer = PCAReducer(12).fit(activations)
        assert np.all(reducer.components_[3:] == 0)
        assert np.all(reducer.transform(activations)[:, 3:] == 0)
        estimates = [
            estimate_leakage(inputs, scale * activations).mi_bits
            for scale in (1.0, 1e-3, 1e3)
        ]
        assert estimates[0] == estimates[1] == estimates[2]
