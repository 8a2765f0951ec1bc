"""Dimensionality reduction ahead of kNN MI estimation.

kNN information estimators are unusable in the raw pixel/activation space
(thousands of dimensions, tiny sample counts), so — like every practical MI
measurement pipeline — we project both variables to a small number of
principal components first, then estimate MI in the reduced space.

:class:`PCAReducer` keeps the top ``k`` principal components of the
centred ``(N, D)`` data ``C``.  Its exact path is a symmetric
eigendecomposition: of the ``N×N`` Gram matrix ``C Cᵀ`` when ``N ≤ D``
(components ``Cᵀu / σ``), of the ``D×D`` scatter matrix ``Cᵀ C``
otherwise.  That costs about ``min(N, D)³``, a few milliseconds for the
96-row fits of a leakage audit.  Once ``min(N, D)`` reaches
:data:`RANDOMIZED_SVD_MIN_RANK` — ``paper`` scale fits are ``(N≈1000,
D≈3-12k)`` — a seeded randomized range-finder SVD (Halko, Martinsson &
Tropp 2011), ``O(N·D·k)``, is faster and takes over.  The tests hold both
paths to the economy SVD of ``C``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EstimatorError

#: ``min(N, D)`` from which :class:`PCAReducer` fits by randomized SVD.
#: The crossover moves with ``max(N, D)``: on one OpenBLAS thread of a
#: 2-vCPU AVX-512 Xeon, keeping 12 components, it lay below 288 at
#: ``D = 1024``, near 420 at ``D = 3072`` and near 1000 at ``D = 12288``.
RANDOMIZED_SVD_MIN_RANK = 400

#: Extra random probe directions beyond ``k`` (oversampling parameter p).
RANDOMIZED_SVD_OVERSAMPLES = 10

#: Power (subspace) iterations; 4 is plenty for PCA spectra with decay.
RANDOMIZED_SVD_ITERATIONS = 4


def randomized_svd(
    data: np.ndarray,
    k: int,
    n_oversamples: int = RANDOMIZED_SVD_OVERSAMPLES,
    n_iter: int = RANDOMIZED_SVD_ITERATIONS,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated SVD via a randomized range finder with power iterations.

    Projects ``data`` onto ``k + n_oversamples`` random Gaussian
    directions, sharpens the captured subspace with QR-stabilised power
    iterations, and solves the small exact SVD inside it.

    Args:
        data: ``(N, D)`` matrix.
        k: Singular triplets to return (``k <= min(N, D)``).
        n_oversamples: Extra probe directions (improves accuracy).
        n_iter: Power iterations (improves accuracy for flat spectra).
        rng: Probe randomness; seeded by callers for reproducibility.

    Returns:
        ``(U, s, Vt)`` with shapes ``(N, k)``, ``(k,)``, ``(k, D)``.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise EstimatorError(f"expected a matrix, got shape {data.shape}")
    n, d = data.shape
    if not 1 <= k <= min(n, d):
        raise EstimatorError(f"k must be in [1, {min(n, d)}], got {k}")
    rng = rng or np.random.default_rng(0)
    width = min(k + max(0, n_oversamples), min(n, d))
    probes = rng.standard_normal((d, width))
    sketch = data @ probes
    q, _ = np.linalg.qr(sketch)
    for _ in range(max(0, n_iter)):
        q, _ = np.linalg.qr(data.T @ q)
        q, _ = np.linalg.qr(data @ q)
    small = q.T @ data  # (width, D)
    u_small, singular_values, vt = np.linalg.svd(small, full_matrices=False)
    u = q @ u_small
    return u[:, :k], singular_values[:k], vt[:k]


def _use_randomized(n: int, d: int, k: int) -> bool:
    """Whether an ``(n, d)`` fit keeping ``k`` components goes randomized:
    only at scale, and only when the kept subspace (plus oversampling) is a
    small fraction of ``min(n, d)``."""
    return (
        min(n, d) >= RANDOMIZED_SVD_MIN_RANK
        and (k + RANDOMIZED_SVD_OVERSAMPLES) * 4 <= min(n, d)
    )


def _top_eigenpairs(
    centered: np.ndarray, mean: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top ``k`` squared singular values and right singular vectors of the
    centred data, by eigendecomposition of its Gram or scatter matrix.

    Args:
        centered: ``(n, d)`` data minus ``mean``.
        mean: The ``(d,)`` column means that were subtracted.
        k: Components to return (``k <= min(n - 1, d)``).

    Returns:
        ``(λ, V)``: eigenvalues ``λ = σ²`` in descending order and the
        ``(k, d)`` unit components.  An eigenvalue within rounding error
        of zero comes back as 0 with a zero component row; for a tiny
        ``σ``, ``Cᵀu / σ`` is a rounding-error direction inside the data's
        row space that whitening would amplify.
    """
    n, d = centered.shape
    gram = centered @ centered.T if n <= d else centered.T @ centered
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    eigenvalues = eigenvalues[::-1][:k]
    eigenvectors = eigenvectors[:, ::-1][:, :k]
    # The product resolves eigenvalues to about max(n, d)·eps·λ_max.
    # Centring leaves up to about n·eps·|mean| of rounding in each entry
    # (the column sums accumulate row by row), an eigenvalue of up to
    # n³·eps²·|mean|², so the floor also covers data whose only spread is
    # that rounding (constant columns).
    eps = np.finfo(np.float64).eps
    floor = max(n, d) * eps * max(eigenvalues[0], eps * n**2 * float(mean @ mean))
    kept = eigenvalues > floor
    eigenvalues = np.where(kept, eigenvalues, 0.0)
    components = np.zeros((k, d))
    if n <= d:
        components[kept] = (
            (centered.T @ eigenvectors[:, kept]) / np.sqrt(eigenvalues[kept])
        ).T
    else:
        components[kept] = eigenvectors[:, kept].T
    return eigenvalues, components


class PCAReducer:
    """Principal component projection.

    Fits by eigendecomposition of the centred data's Gram (``N ≤ D``) or
    scatter (``N > D``) matrix, or by seeded randomized SVD when
    :func:`_use_randomized` says the input is large enough.  Components
    whose variance is within rounding error of zero are zero rows, so
    they project every sample to exactly 0.

    Args:
        n_components: Output dimensionality.
        whiten: Scale components to unit variance — recommended before
            kNN estimation so all dimensions contribute comparably.
        rng: Randomness for the randomized path; defaults to a fixed seed
            so repeated fits of the same data agree.
    """

    def __init__(
        self,
        n_components: int,
        whiten: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        if n_components < 1:
            raise EstimatorError(f"n_components must be >= 1, got {n_components}")
        self.n_components = n_components
        self.whiten = whiten
        self._rng = rng
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None
        self.scales_: np.ndarray | None = None
        self.explained_variance_: np.ndarray | None = None

    def fit(self, data: np.ndarray) -> "PCAReducer":
        """Fit the projection on ``(N, D)`` data (rows = samples)."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise EstimatorError(f"expected (N, D) data, got shape {data.shape}")
        n, d = data.shape
        if n < 2:
            raise EstimatorError("need at least 2 samples to fit PCA")
        k = min(self.n_components, d, n - 1)
        self.mean_ = data.mean(axis=0)
        centered = data - self.mean_
        if _use_randomized(n, d, k):
            rng = self._rng or np.random.default_rng(0)
            _, singular_values, self.components_ = randomized_svd(
                centered, k, rng=rng
            )
            squared = singular_values**2
        else:
            squared, self.components_ = _top_eigenpairs(centered, self.mean_, k)
        variance = squared / (n - 1)
        self.explained_variance_ = variance
        self.scales_ = np.sqrt(np.maximum(variance, 1e-12))
        return self

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Project ``(N, D)`` data onto the fitted components."""
        if self.components_ is None:
            raise EstimatorError("PCAReducer must be fitted before transform")
        data = np.asarray(data, dtype=np.float64)
        projected = (data - self.mean_) @ self.components_.T
        if self.whiten:
            projected = projected / self.scales_
        return projected

    def fit_transform(self, data: np.ndarray) -> np.ndarray:
        """Fit on ``data`` then project it."""
        return self.fit(data).transform(data)


def flatten_batch(array: np.ndarray) -> np.ndarray:
    """Flatten any (N, ...) batch into (N, D) for the estimators."""
    array = np.asarray(array)
    if array.ndim < 2:
        raise EstimatorError(f"expected a batch, got shape {array.shape}")
    return array.reshape(len(array), -1)
