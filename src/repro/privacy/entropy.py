"""Differential entropy estimators.

The paper measures privacy with Shannon mutual information estimated by the
ITE toolbox's kNN ("KL divergence", i.e. Kozachenko-Leonenko) estimators.
This module implements the same estimator family from scratch:

* :func:`kl_entropy` — the Kozachenko-Leonenko k-nearest-neighbour
  differential entropy estimator (Kozachenko & Leonenko, 1987).
* :func:`histogram_entropy` — a simple binned (plug-in) estimator, used as a
  cross-check and for low-dimensional discrete summaries.
* :func:`gaussian_entropy` — the closed form for Gaussians, used to
  validate the estimators in tests.

All entropies are reported in **bits**.

The k-NN search behind :func:`kl_entropy` has two interchangeable
backends: a compiled cache-blocked kernel (:mod:`repro.privacy._fastknn`,
several times faster than tree traversal in the post-PCA regime) and a
``cKDTree`` path whose queries run chunked (flat memory in ``N``) and
parallelised across all cores via ``workers=-1``.  Both produce the same
distances; the original unvectorised implementation is kept in
``tests/oracles.py`` for parity tests and benchmarks.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import EstimatorError
from repro.privacy import _fastknn

_LN2 = math.log(2.0)

#: Query points processed per chunked tree query.
DEFAULT_CHUNK_SIZE = 4096

#: Above this sample count the O(N^2) compiled kernel yields to the tree.
_BRUTE_FORCE_MAX_N = 20000

_BACKENDS = ("auto", "c", "scipy")


def _resolve_backend(backend: str, n: int, k: int) -> str:
    """Pick the concrete kNN backend for an ``(n, k)`` problem."""
    if backend not in _BACKENDS:
        raise EstimatorError(
            f"unknown backend {backend!r}; options: {_BACKENDS}"
        )
    if backend == "c" and not _fastknn.available():
        raise EstimatorError("compiled kNN kernel is not available")
    if backend == "auto":
        usable = (
            _fastknn.available()
            and n <= _BRUTE_FORCE_MAX_N
            and k <= _fastknn.MAX_K
        )
        return "c" if usable else "scipy"
    return backend


def _validate_samples(samples: np.ndarray, minimum: int = 8) -> np.ndarray:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2:
        raise EstimatorError(f"expected (N, d) samples, got shape {samples.shape}")
    if len(samples) < minimum:
        raise EstimatorError(
            f"need at least {minimum} samples for a kNN estimate, got {len(samples)}"
        )
    return samples


def unit_ball_log_volume(dim: int) -> float:
    """Natural log of the volume of the d-dimensional unit L2 ball."""
    from scipy.special import gammaln

    return (dim / 2.0) * math.log(math.pi) - gammaln(dim / 2.0 + 1.0)


def kth_neighbor_distances(
    samples: np.ndarray,
    k: int,
    backend: str = "auto",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """Euclidean distance from every sample to its k-th nearest neighbour.

    Args:
        samples: ``(N, d)`` array.
        k: Neighbour order (self excluded); must satisfy ``1 <= k < N``.
        backend: ``"auto"`` (compiled kernel when available and the problem
            is in its sweet spot), ``"c"``, or ``"scipy"``.
        chunk_size: Query-chunk length for the scipy path, bounding its
            working memory at ``O(chunk_size * k)``.
    """
    n = len(samples)
    if not 1 <= k < n:
        raise EstimatorError(f"k must be in [1, N); got k={k}, N={n}")
    if chunk_size < 1:
        raise EstimatorError(f"chunk_size must be >= 1, got {chunk_size}")
    if _resolve_backend(backend, n, k) == "c":
        return _fastknn.euclidean_kth_distance(samples, k)
    from scipy.spatial import cKDTree

    tree = cKDTree(samples)
    distances = np.empty(n, dtype=np.float64)
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        # k+1 because the closest neighbour of each point is itself.
        chunk, _ = tree.query(samples[start:stop], k=k + 1, workers=-1)
        distances[start:stop] = chunk[:, k]
    return distances


def kl_entropy(
    samples: np.ndarray,
    k: int = 3,
    jitter: float = 1e-10,
    backend: str = "auto",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> float:
    """Kozachenko-Leonenko kNN differential entropy in bits.

    ``H ≈ ψ(N) − ψ(k) + log V_d + (d/N) Σ_i log ε_i`` where ``ε_i`` is the
    distance from sample ``i`` to its k-th nearest neighbour and ``V_d`` the
    unit-ball volume.

    Args:
        samples: ``(N, d)`` array of i.i.d. samples.
        k: Neighbour order (small k = low bias, high variance).
        jitter: Tiny noise added to break exact ties (duplicate samples
            would otherwise give ``log 0``).
        backend: kNN backend (see :func:`kth_neighbor_distances`).
        chunk_size: Query-chunk length for the scipy backend.
    """
    samples = _validate_samples(samples, minimum=k + 2)
    n, d = samples.shape
    if k < 1 or k >= n:
        raise EstimatorError(f"k must be in [1, N); got k={k}, N={n}")
    if jitter:
        rng = np.random.default_rng(0)
        samples = samples + rng.normal(0.0, jitter, size=samples.shape)
    eps = np.maximum(
        kth_neighbor_distances(samples, k, backend=backend, chunk_size=chunk_size),
        1e-300,
    )
    from scipy.special import digamma

    nats = (
        digamma(n)
        - digamma(k)
        + unit_ball_log_volume(d)
        + d * float(np.mean(np.log(eps)))
    )
    return nats / _LN2


def histogram_entropy(samples: np.ndarray, bins: int = 16) -> float:
    """Plug-in entropy of binned samples, in bits.

    For continuous data this approximates the differential entropy plus the
    log bin volume; it is used as an order-of-magnitude cross-check of the
    kNN estimator and for discrete summaries.
    """
    samples = _validate_samples(samples, minimum=2)
    if bins < 2:
        raise EstimatorError(f"need at least 2 bins, got {bins}")
    n, d = samples.shape
    edges = [np.linspace(samples[:, j].min(), samples[:, j].max() + 1e-9, bins + 1) for j in range(d)]
    counts, _ = np.histogramdd(samples, bins=edges)
    probabilities = counts.reshape(-1) / n
    probabilities = probabilities[probabilities > 0]
    discrete = -float(np.sum(probabilities * np.log(probabilities))) / _LN2
    # Differential correction: add log2 of the bin volume.
    log_volume = sum(math.log2(max(e[1] - e[0], 1e-300)) for e in edges)
    return discrete + log_volume


def gaussian_entropy(covariance: np.ndarray) -> float:
    """Closed-form entropy of a multivariate Gaussian, in bits."""
    covariance = np.atleast_2d(np.asarray(covariance, dtype=np.float64))
    d = covariance.shape[0]
    if covariance.shape != (d, d):
        raise EstimatorError(f"covariance must be square, got {covariance.shape}")
    sign, logdet = np.linalg.slogdet(covariance)
    if sign <= 0:
        raise EstimatorError("covariance must be positive definite")
    nats = 0.5 * (d * math.log(2.0 * math.pi * math.e) + logdet)
    return nats / _LN2
