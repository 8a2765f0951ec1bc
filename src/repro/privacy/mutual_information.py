"""Mutual information estimators.

Two kNN estimators of Shannon MI between continuous vectors:

* :func:`ksg_mutual_information` — the Kraskov-Stögbauer-Grassberger
  (KSG-1) estimator, the standard low-bias choice.
* :func:`entropy_sum_mi` — ``I(X;Y) = H(X) + H(Y) − H(X,Y)`` with each term
  from the Kozachenko-Leonenko estimator; this mirrors the ITE toolbox's
  "Shannon MI with KL divergence" configuration the paper cites.

Both report **bits**.

KSG's geometric queries run on one of two backends: a compiled
cache-blocked kernel (:mod:`repro.privacy._fastknn`) that derives the joint
radii and both marginal counts from shared per-query distance rows, or a
scipy path using a ``workers=-1`` parallel tree query plus a single
vectorised ``query_ball_point(points, radii, return_length=True)`` call,
chunked over query points so memory stays flat at large sample counts.
Both backends reproduce the original implementation's results exactly;
the pre-vectorisation per-point loop is kept in ``tests/oracles.py`` as the
parity baseline and benchmark "before" side.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import EstimatorError
from repro.privacy import _fastknn
from repro.privacy.entropy import (
    DEFAULT_CHUNK_SIZE,
    _resolve_backend,
    _validate_samples,
    kl_entropy,
)

_LN2 = math.log(2.0)

#: Strictness margin making the marginal ball count exclude the boundary.
_RADIUS_TOL = 1e-12


def _paired(x: np.ndarray, y: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    x = _validate_samples(x, minimum=k + 2)
    y = _validate_samples(y, minimum=k + 2)
    if len(x) != len(y):
        raise EstimatorError(
            f"x and y must be paired samples; got {len(x)} vs {len(y)}"
        )
    return _standardize(x), _standardize(y)


def _standardize(samples: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance per dimension.

    MI is invariant under invertible per-variable transforms, but the KSG
    max-norm neighbourhoods are not: wildly different marginal scales let
    one variable dominate the joint radius.  Standardising first is the
    standard fix and restores practical scale invariance.
    """
    mean = samples.mean(axis=0)
    std = samples.std(axis=0)
    return (samples - mean) / np.maximum(std, 1e-12)


def _jitter_generator(
    jitter_rng: np.random.Generator | int | None,
) -> np.random.Generator:
    """Resolve the tie-breaking jitter randomness.

    ``None`` keeps the historical fixed seed 0, so single estimator calls
    stay bitwise identical to every release before the seed was exposed.
    Resampling loops must pass a distinct seed (or generator) per draw —
    a shared fixed seed adds *identical* jitter to every replicate, which
    correlates the draws and understates interval width.
    """
    if jitter_rng is None:
        return np.random.default_rng(0)
    if isinstance(jitter_rng, np.random.Generator):
        return jitter_rng
    return np.random.default_rng(jitter_rng)


def _jittered(
    x: np.ndarray,
    y: np.ndarray,
    jitter: float,
    jitter_rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    if not jitter:
        return x, y
    rng = _jitter_generator(jitter_rng)
    x = x + rng.normal(0.0, jitter, size=x.shape)
    y = y + rng.normal(0.0, jitter, size=y.shape)
    return x, y


def _ksg_counts_scipy(
    x: np.ndarray, y: np.ndarray, k: int, chunk_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal neighbour counts via vectorised, chunked scipy queries."""
    from scipy.spatial import cKDTree

    n = len(x)
    if chunk_size < 1:
        raise EstimatorError(f"chunk_size must be >= 1, got {chunk_size}")
    joint = np.concatenate([x, y], axis=1)
    joint_tree = cKDTree(joint)
    x_tree = cKDTree(x)
    y_tree = cKDTree(y)
    nx = np.empty(n, dtype=np.int64)
    ny = np.empty(n, dtype=np.int64)
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        # Chebyshev (max) norm is what makes the KSG marginal counts exact.
        distances, _ = joint_tree.query(
            joint[start:stop], k=k + 1, p=np.inf, workers=-1
        )
        radius = distances[:, k] - _RADIUS_TOL
        # Count within-radius marginal neighbours, excluding self.
        nx[start:stop] = (
            x_tree.query_ball_point(
                x[start:stop], radius, p=np.inf, return_length=True, workers=-1
            )
            - 1
        )
        ny[start:stop] = (
            y_tree.query_ball_point(
                y[start:stop], radius, p=np.inf, return_length=True, workers=-1
            )
            - 1
        )
    return nx, ny


def ksg_mutual_information(
    x: np.ndarray,
    y: np.ndarray,
    k: int = 3,
    jitter: float = 1e-10,
    backend: str = "auto",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    jitter_rng: np.random.Generator | int | None = None,
) -> float:
    """KSG estimator (algorithm 1) of I(X;Y) in bits.

    ``I ≈ ψ(k) + ψ(N) − <ψ(n_x + 1) + ψ(n_y + 1)>`` where ``n_x``/``n_y``
    count neighbours within the joint-space k-NN radius (max-norm).

    Args:
        x: ``(N, dx)`` samples.
        y: ``(N, dy)`` samples, paired with ``x``.
        k: Neighbour order.
        jitter: Tie-breaking noise.
        backend: ``"auto"``, ``"c"`` (compiled kernel), or ``"scipy"``
            (parallel tree queries).  All backends agree exactly.
        chunk_size: Query-chunk length for the scipy backend, keeping its
            memory flat in ``N``.
        jitter_rng: Seed or generator for the tie-breaking jitter.
            ``None`` (the default) keeps the historical fixed seed 0;
            resampling callers must pass a distinct value per draw.
    """
    x, y = _paired(x, y, k)
    n = len(x)
    if k < 1 or k >= n:
        raise EstimatorError(f"k must be in [1, N); got k={k}, N={n}")
    x, y = _jittered(x, y, jitter, jitter_rng)
    if _resolve_backend(backend, n, k) == "c":
        _, nx, ny = _fastknn.ksg_counts(x, y, k, tol=_RADIUS_TOL)
    else:
        nx, ny = _ksg_counts_scipy(x, y, k, chunk_size)
    from scipy.special import digamma

    nats = (
        digamma(k)
        + digamma(n)
        - float(np.mean(digamma(nx + 1) + digamma(ny + 1)))
    )
    return max(nats, 0.0) / _LN2


def entropy_sum_mi(
    x: np.ndarray,
    y: np.ndarray,
    k: int = 3,
    backend: str = "auto",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> float:
    """MI via the entropy combination H(X)+H(Y)−H(X,Y), in bits.

    This is the ITE-toolbox-style construction the paper used.  It shares
    the KL entropy estimator's bias on each term, which largely cancels in
    the combination.
    """
    x, y = _paired(x, y, k)
    joint = np.concatenate([x, y], axis=1)
    value = (
        kl_entropy(x, k=k, backend=backend, chunk_size=chunk_size)
        + kl_entropy(y, k=k, backend=backend, chunk_size=chunk_size)
        - kl_entropy(joint, k=k, backend=backend, chunk_size=chunk_size)
    )
    return max(value, 0.0)


def discrete_mutual_information(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Plug-in MI between two discrete label arrays, in bits."""
    labels_a = np.asarray(labels_a).reshape(-1)
    labels_b = np.asarray(labels_b).reshape(-1)
    if labels_a.shape != labels_b.shape:
        raise EstimatorError("label arrays must have identical length")
    n = len(labels_a)
    if n == 0:
        raise EstimatorError("cannot estimate MI from zero samples")
    values_a, inverse_a = np.unique(labels_a, return_inverse=True)
    values_b, inverse_b = np.unique(labels_b, return_inverse=True)
    joint = np.zeros((len(values_a), len(values_b)))
    np.add.at(joint, (inverse_a, inverse_b), 1.0)
    joint /= n
    pa = joint.sum(axis=1, keepdims=True)
    pb = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    ratio = np.zeros_like(joint)
    ratio[mask] = joint[mask] / (pa @ pb)[mask]
    return float(np.sum(joint[mask] * np.log2(ratio[mask])))
