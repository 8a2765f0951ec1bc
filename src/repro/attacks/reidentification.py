"""Re-identification attack: *which* input produced this activation?

The sharpest operational privacy question for split inference: given an
observed (noisy) activation and a candidate pool of known inputs, can the
adversary pick out the one that generated it?  This is a matching attack
rather than a reconstruction — it needs no decoder, works at any
activation width, and its success rate has a direct interpretation
(probability the user is singled out of a crowd).

Protocol: the adversary holds the pool's *clean* activations (it can run
the public local network on its candidate inputs) and matches each
observed tensor to its nearest pool entry.  Reported are top-1 / top-k hit
rates against the ``1/pool`` chance floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks._matching import iter_distance_blocks
from repro.errors import ConfigurationError, EstimatorError


@dataclass(frozen=True)
class ReidentificationReport:
    """Outcome of a re-identification attack.

    Attributes:
        top1_rate: Fraction of observations whose true source ranked first.
        topk_rate: Fraction whose true source ranked within ``k``.
        k: The k of ``topk_rate``.
        pool_size: Candidate pool size.
        mean_rank: Mean (1-based) rank of the true source.
    """

    top1_rate: float
    topk_rate: float
    k: int
    pool_size: int
    mean_rank: float

    @property
    def chance_top1(self) -> float:
        """Chance-level top-1 rate (uniform guessing)."""
        return 1.0 / self.pool_size

    @property
    def chance_topk(self) -> float:
        """Chance-level top-k rate."""
        return min(self.k / self.pool_size, 1.0)

    @property
    def advantage(self) -> float:
        """Top-1 rate above chance, normalised to [~0, 1]."""
        return (self.top1_rate - self.chance_top1) / (1.0 - self.chance_top1)


class ReidentificationAttack:
    """Nearest-activation matching over a candidate pool.

    Args:
        pool_activations: ``(P, ...)`` clean activations of the candidate
            inputs (the adversary computes these itself with the public
            local network).
    """

    def __init__(self, pool_activations: np.ndarray) -> None:
        pool = np.asarray(pool_activations)
        if pool.ndim < 2 or len(pool) < 2:
            raise ConfigurationError(
                "candidate pool needs >= 2 activation tensors"
            )
        self._pool = pool.reshape(len(pool), -1).astype(np.float64)

    @property
    def pool_size(self) -> int:
        """Number of candidates."""
        return len(self._pool)

    def _flat_observed(self, observed: np.ndarray) -> np.ndarray:
        observed = np.asarray(observed)
        flat = observed.reshape(len(observed), -1).astype(np.float64)
        if flat.shape[1] != self._pool.shape[1]:
            raise EstimatorError(
                f"activation width {flat.shape[1]} does not match the pool "
                f"width {self._pool.shape[1]}"
            )
        return flat

    def rank_candidates(self, observed: np.ndarray) -> np.ndarray:
        """Candidate indices per observation, nearest first ``(N, P)``.

        The distance matrix is computed in observation blocks — one GEMM
        per block via the shared ``||a-b||²`` expansion helper — so memory
        stays flat in the number of observations while the matching itself
        is a single matrix op (no per-sample Python loop; the loop form is
        kept in ``tests/oracles.py`` as the parity reference).
        """
        flat = self._flat_observed(observed)
        pool_norms = (self._pool**2).sum(axis=1)
        ranking = np.empty((len(flat), self.pool_size), dtype=np.int64)
        for start, distances in iter_distance_blocks(flat, self._pool, pool_norms):
            ranking[start : start + len(distances)] = np.argsort(
                distances, axis=1, kind="stable"
            )
        return ranking

    def evaluate(
        self, observed: np.ndarray, true_indices: np.ndarray, k: int = 5
    ) -> ReidentificationReport:
        """Score the attack on observations with known sources.

        Args:
            observed: ``(N, ...)`` observed (noisy) activations.
            true_indices: ``(N,)`` pool index that generated each one.
            k: Top-k threshold to report alongside top-1.
        """
        true_indices = np.asarray(true_indices).reshape(-1)
        observed = np.asarray(observed)
        if len(observed) != len(true_indices):
            raise EstimatorError(
                f"observations and labels must pair; got {len(observed)} vs "
                f"{len(true_indices)}"
            )
        if len(observed) == 0:
            raise EstimatorError("need at least one observation")
        if not 1 <= k <= self.pool_size:
            raise ConfigurationError(
                f"k must be in [1, {self.pool_size}], got {k}"
            )
        if true_indices.min() < 0 or true_indices.max() >= self.pool_size:
            raise EstimatorError("true indices outside the candidate pool")
        ranking = self.rank_candidates(observed)
        # Position of the true candidate within each observation's ranking.
        positions = np.argmax(ranking == true_indices[:, None], axis=1)
        return ReidentificationReport(
            top1_rate=float(np.mean(positions == 0)),
            topk_rate=float(np.mean(positions < k)),
            k=k,
            pool_size=self.pool_size,
            mean_rank=float(np.mean(positions + 1)),
        )


def run_reidentification(
    pool_activations: np.ndarray,
    observed_activations: np.ndarray,
    true_indices: np.ndarray | None = None,
    k: int = 5,
) -> ReidentificationReport:
    """Convenience wrapper: build the attack and score it in one call.

    When ``true_indices`` is omitted, observation ``i`` is assumed to come
    from pool entry ``i`` (the common "noisy copy of the pool" setup).
    """
    attack = ReidentificationAttack(pool_activations)
    if true_indices is None:
        if len(observed_activations) != attack.pool_size:
            raise EstimatorError(
                "without explicit indices, observations must map 1:1 to the pool"
            )
        true_indices = np.arange(attack.pool_size)
    return attack.evaluate(observed_activations, true_indices, k=k)
