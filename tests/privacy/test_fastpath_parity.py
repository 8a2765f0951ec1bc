"""Parity of the vectorised estimator backends with the original loops.

The fast paths (compiled kernel, vectorised+chunked scipy queries) must be
numerically indistinguishable from the pre-change implementations, which
are retained verbatim as the ``*_reference`` functions of ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.privacy import (
    entropy_sum_mi,
    kl_entropy,
    ksg_mutual_information,
    kth_neighbor_distances,
)
from repro.privacy import _fastknn
from repro.errors import EstimatorError
from tests.oracles import kl_entropy_reference, ksg_mutual_information_reference

needs_kernel = pytest.mark.skipif(
    not _fastknn.available(), reason="no C compiler for the fastknn kernel"
)


def paired(n: int, d: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = 0.6 * x + rng.normal(size=(n, d))
    return x, y


BACKENDS = ["scipy"] + (["c"] if _fastknn.available() else [])


class TestKSGParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n,d,k", [(60, 1, 3), (200, 3, 3), (500, 8, 4), (900, 12, 1)])
    def test_matches_reference(self, backend, n, d, k):
        x, y = paired(n, d, seed=n + d)
        reference = ksg_mutual_information_reference(x, y, k=k)
        fast = ksg_mutual_information(x, y, k=k, backend=backend)
        assert fast == pytest.approx(reference, abs=1e-9)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_asymmetric_dimensions(self, backend):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(300, 2))
        y = np.concatenate([0.8 * x, rng.normal(size=(300, 5))], axis=1)
        reference = ksg_mutual_information_reference(x, y, k=3)
        fast = ksg_mutual_information(x, y, k=3, backend=backend)
        assert fast == pytest.approx(reference, abs=1e-9)

    def test_chunked_scipy_path_matches_unchunked(self):
        x, y = paired(400, 4, seed=11)
        whole = ksg_mutual_information(x, y, backend="scipy", chunk_size=10_000)
        chunked = ksg_mutual_information(x, y, backend="scipy", chunk_size=37)
        assert chunked == pytest.approx(whole, abs=1e-12)

    @needs_kernel
    def test_auto_prefers_kernel_and_agrees(self):
        x, y = paired(500, 6, seed=3)
        auto = ksg_mutual_information(x, y)
        forced = ksg_mutual_information(x, y, backend="c")
        assert auto == forced

    def test_unknown_backend_rejected(self):
        x, y = paired(64, 2)
        with pytest.raises(EstimatorError):
            ksg_mutual_information(x, y, backend="gpu")

    def test_nonpositive_chunk_size_rejected(self):
        x, y = paired(64, 2)
        with pytest.raises(EstimatorError):
            ksg_mutual_information(x, y, backend="scipy", chunk_size=0)
        with pytest.raises(EstimatorError):
            kl_entropy(x, backend="scipy", chunk_size=-3)

    def test_duplicate_points_tolerated(self):
        # Jitter breaks ties; fast paths must agree on degenerate data too.
        x = np.repeat(np.arange(30.0)[:, None], 4, axis=0)
        y = x.copy()
        reference = ksg_mutual_information_reference(x, y, k=3)
        for backend in BACKENDS:
            assert ksg_mutual_information(x, y, k=3, backend=backend) == pytest.approx(
                reference, abs=1e-9
            )


class TestKLParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n,d,k", [(80, 1, 3), (300, 5, 3), (700, 10, 5)])
    def test_matches_reference(self, backend, n, d, k):
        rng = np.random.default_rng(n + d)
        samples = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
        reference = kl_entropy_reference(samples, k=k)
        fast = kl_entropy(samples, k=k, backend=backend)
        assert fast == pytest.approx(reference, abs=1e-9)

    def test_chunked_distances_match(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(size=(250, 4))
        whole = kth_neighbor_distances(samples, k=3, backend="scipy", chunk_size=10_000)
        chunked = kth_neighbor_distances(samples, k=3, backend="scipy", chunk_size=19)
        np.testing.assert_array_equal(whole, chunked)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_k_out_of_range_rejected(self, backend):
        # k >= N would read uninitialised selection state in the C kernel
        # (and silent infs from scipy); both must refuse instead.
        rng = np.random.default_rng(8)
        samples = rng.normal(size=(4, 2))
        with pytest.raises(EstimatorError):
            kth_neighbor_distances(samples, k=6, backend=backend)
        with pytest.raises(EstimatorError):
            kth_neighbor_distances(samples, k=0, backend=backend)

    @needs_kernel
    def test_kernel_distances_match_scipy(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=(400, 7))
        scipy_eps = kth_neighbor_distances(samples, k=4, backend="scipy")
        kernel_eps = kth_neighbor_distances(samples, k=4, backend="c")
        np.testing.assert_allclose(kernel_eps, scipy_eps, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_entropy_sum_mi_matches_reference_composition(self, backend):
        x, y = paired(400, 5, seed=21)
        fast = entropy_sum_mi(x, y, k=3, backend=backend)
        # Reference composition built from the reference entropy terms on
        # the same standardised inputs the estimator uses internally.
        from repro.privacy.mutual_information import _paired

        xs, ys = _paired(x, y, 3)
        joint = np.concatenate([xs, ys], axis=1)
        reference = max(
            kl_entropy_reference(xs, k=3)
            + kl_entropy_reference(ys, k=3)
            - kl_entropy_reference(joint, k=3),
            0.0,
        )
        assert fast == pytest.approx(reference, abs=1e-9)


@needs_kernel
class TestKernelInternals:
    def test_radius_bitwise_vs_scipy(self):
        from scipy.spatial import cKDTree

        x, y = paired(500, 8, seed=9)
        radius, nx, ny = _fastknn.ksg_counts(x, y, k=3)
        joint = np.concatenate([x, y], axis=1)
        tree = cKDTree(joint)
        expected = tree.query(joint, k=4, p=np.inf)[0][:, 3]
        np.testing.assert_array_equal(radius, expected)
        x_tree = cKDTree(x)
        expected_nx = (
            x_tree.query_ball_point(
                x, expected - 1e-12, p=np.inf, return_length=True
            )
            - 1
        )
        np.testing.assert_array_equal(nx, expected_nx)

    def test_invalid_k_rejected(self):
        x, y = paired(100, 2)
        with pytest.raises(ValueError):
            _fastknn.ksg_counts(x, y, k=0)
        with pytest.raises(ValueError):
            _fastknn.euclidean_kth_distance(x, k=_fastknn.MAX_K + 1)
