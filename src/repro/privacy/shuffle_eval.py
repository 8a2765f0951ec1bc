"""Empirical leakage evaluation for the cross-session shuffling stage.

The serving layer's :class:`~repro.serve.scheduler.Shuffler` permutes the
rows of every closed micro-batch across sessions before the frame goes on
the wire, so the frame's request table no longer truthfully describes row
ownership.  This module measures what that actually buys (and what it
does not) by attacking *tapped wire frames* with the repository's real
adversaries:

* the **positional attacker** — an honest-but-curious cloud (or on-path
  observer) that attributes each wire row to the session named by the
  frame's contiguous request table, exactly as the dispatcher would.
  Without shuffling this attacker is perfect; with shuffling its accuracy
  collapses toward the batch's anonymity-set chance floor.  Residual
  positional information is also reported as the plug-in mutual
  information between the claimed and true session labels
  (:func:`~repro.privacy.mutual_information.discrete_mutual_information`).
* the **content attacker** —
  :class:`~repro.attacks.reidentification.ReidentificationAttack`
  matching observed rows against a clean candidate pool.  Nearest-pool
  matching is permutation-invariant, so shuffling alone does *not* defeat
  it: only the noise on the rows does.  Reporting both attackers side by
  side keeps the claim honest — shuffling removes the positional side
  channel; content privacy still comes from the learned noise.

Batch composition (window size, session isolation, shard routing via
:func:`~repro.serve.shard.route_session`) is replayed faithfully from the
serving layer's own primitives, so the evaluator's mixing index and
anonymity sets are the same quantities
:class:`~repro.serve.metrics.ServingMetrics` reports for a live plane.

The module also carries the closed-form **shuffle amplification** bound
(:func:`amplified_epsilon`): per the shuffling framework for local DP
(Meehan et al., *A Shuffling Framework for Local Differential Privacy*,
building on Feldman–McMillan–Talwar's amplification-by-shuffling bound),
``n`` users each satisfying ``epsilon0``-LDP whose reports pass through a
uniform shuffler jointly satisfy a much smaller central ``epsilon`` once
``n`` is large enough.  Serving metrics surface the bound at the
*smallest* observed anonymity set, with each session's rows composed
(conservative), via
:meth:`~repro.serve.metrics.ServingMetrics.shuffle_amplification`.

Everything here is a pure function of its inputs and explicit seeds —
no wall clock, no global RNG — so identical calls produce identical
numbers (pinned by ``tests/privacy/test_shuffle_eval.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.reidentification import ReidentificationAttack
from repro.errors import ConfigurationError, EstimatorError
from repro.privacy.mutual_information import discrete_mutual_information

__all__ = [
    "WireBatch",
    "ShuffleLeakageReport",
    "amplified_epsilon",
    "tap_wire_batches",
    "evaluate_shuffle_leakage",
    "sweep_mixing_tradeoff",
]


# ----------------------------------------------------------------------
# Shuffle amplification (closed form)
# ----------------------------------------------------------------------
def amplified_epsilon(
    epsilon0: float, n: int, delta: float = 1e-5
) -> float:
    """Central ``epsilon`` after uniformly shuffling ``n`` local reports.

    Feldman, McMillan and Talwar, *Hiding Among the Clones*
    (arXiv:2012.12803), Theorem 3.1: for ``delta`` in ``[0, 1]`` and
    ``epsilon0 <= log(n / (16 log(2 / delta)))``, shuffling the reports
    of ``n`` users, each ``epsilon0``-LDP, is ``(epsilon, delta)``-DP
    with ::

        epsilon <= log(1 + (e^{epsilon0} - 1) / (e^{epsilon0} + 1) * (
            8 * sqrt(e^{epsilon0} * log(4 / delta)) / sqrt(n)
            + 8 * e^{epsilon0} / n
        ))

    Where the precondition fails — small anonymity sets, ``n == 1``
    (shuffling is the identity), or a large ``epsilon0`` — the theorem
    says nothing and the local guarantee ``epsilon0`` is returned.  The
    result is also clamped at ``epsilon0``: amplification never
    *weakens* a guarantee.

    Args:
        epsilon0: Per-report local DP parameter (>= 0).
        n: Number of shuffled reports — operationally, the batch's
            anonymity set (distinct sessions mixed together).
        delta: Target failure probability of the central guarantee.
    """
    if epsilon0 < 0:
        raise ConfigurationError(f"epsilon0 must be >= 0, got {epsilon0}")
    if n < 1:
        raise ConfigurationError(f"need >= 1 shuffled report, got {n}")
    if not 0 < delta < 1:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
    if epsilon0 > np.log(n / (16.0 * np.log(2.0 / delta))):
        return float(epsilon0)
    e0 = np.exp(epsilon0)
    bound = np.log1p(
        (e0 - 1.0) / (e0 + 1.0)
        * (8.0 * np.sqrt(e0 * np.log(4.0 / delta) / n) + 8.0 * e0 / n)
    )
    return float(min(epsilon0, bound))


# ----------------------------------------------------------------------
# Wire-frame tap (faithful batch-composition replay)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WireBatch:
    """One tapped uplink frame, as the adversary sees it.

    Attributes:
        rows: ``(R, D)`` observed rows in **wire order**.
        claimed_sessions: Per wire row, the session the frame's contiguous
            request table *claims* owns it (the positional attacker's
            guess).
        true_sessions: Per wire row, the session that actually produced it.
        true_indices: Per wire row, its index into the evaluator's
            activation pool (content-attack ground truth).
        shard: Shard index the frame was tapped from.
    """

    rows: np.ndarray
    claimed_sessions: tuple
    true_sessions: tuple
    true_indices: tuple[int, ...]
    shard: int

    @property
    def anonymity_set(self) -> int:
        """Distinct sessions mixed into this frame."""
        return len(set(self.true_sessions))


def _batch_windows(
    indices: list[int],
    session_ids,
    batch_window: int,
    isolate_sessions: bool,
) -> list[list[int]]:
    """FIFO micro-batch composition over ``indices``, mirroring a flushed
    :class:`~repro.serve.scheduler.AdaptiveBatcher`: up to
    ``batch_window`` requests per batch, closed early at the first session
    boundary when the isolation policy is on."""
    batches: list[list[int]] = []
    window: list[int] = []
    for index in indices:
        if window and (
            len(window) >= batch_window
            or (
                isolate_sessions
                and session_ids[window[-1]] != session_ids[index]
            )
        ):
            batches.append(window)
            window = []
        window.append(index)
    if window:
        batches.append(window)
    return batches


def tap_wire_batches(
    activations: np.ndarray,
    session_ids,
    *,
    batch_window: int = 8,
    shuffle: bool = False,
    shuffle_seed: int = 0,
    isolate_sessions: bool = False,
    shards: int = 1,
) -> list[WireBatch]:
    """Replay the serving layer's batch composition over a request stream
    and return every uplink frame as the wire adversary observes it.

    One activation row per request, submitted in pool order.  Requests
    are routed to shards with the real
    :func:`~repro.serve.shard.route_session` (deterministic CRC32 of the
    session id's string form), each shard composes FIFO micro-batches
    under the given window/isolation policy, and — when ``shuffle`` is
    on — permutes each frame's rows with its own
    :class:`~repro.serve.scheduler.Shuffler` (seeded per shard from
    ``SeedSequence([shuffle_seed, shard])``, the same derivation
    :func:`~repro.serve.shard.shard_seed` uses for noise).

    Args:
        activations: ``(N, ...)`` per-request communicated tensors (noisy
            or clean — the evaluator does not add noise itself).
        session_ids: ``(N,)`` owning session per request.
        batch_window: Max requests per micro-batch.
        shuffle: Apply the shuffler stage to each frame.
        shuffle_seed: Shuffling-policy base seed.
        isolate_sessions: Close batches at session boundaries (no mixing).
        shards: Partition sessions across this many shards first.
    """
    from repro.serve.scheduler import Shuffler
    from repro.serve.shard import route_session, shard_seed

    activations = np.asarray(activations)
    session_ids = list(session_ids)
    if len(activations) != len(session_ids):
        raise EstimatorError(
            f"paired request stream required; got {len(activations)} "
            f"activations vs {len(session_ids)} session ids"
        )
    if len(activations) == 0:
        raise EstimatorError("need at least one request to tap")
    if batch_window < 1:
        raise ConfigurationError(
            f"batch window must be >= 1, got {batch_window}"
        )
    flat = activations.reshape(len(activations), -1)

    per_shard: dict[int, list[int]] = {}
    for index, session in enumerate(session_ids):
        per_shard.setdefault(route_session(session, shards), []).append(index)

    frames: list[WireBatch] = []
    for shard in sorted(per_shard):
        shuffler = (
            Shuffler(seed=shard_seed(shuffle_seed, shard)) if shuffle else None
        )
        for window in _batch_windows(
            per_shard[shard], session_ids, batch_window, isolate_sessions
        ):
            # The frame's request table stays in request order — that is
            # the claim the positional attacker reads.
            claimed = tuple(session_ids[i] for i in window)
            order = list(range(len(window)))
            if shuffler is not None:
                permutation = shuffler.permute(len(window))
                if permutation is not None:
                    order = list(permutation.forward)
            wire = [window[i] for i in order]
            frames.append(
                WireBatch(
                    rows=np.ascontiguousarray(flat[wire]),
                    claimed_sessions=claimed,
                    true_sessions=tuple(session_ids[i] for i in wire),
                    true_indices=tuple(wire),
                    shard=shard,
                )
            )
    return frames


# ----------------------------------------------------------------------
# Attacks over tapped frames
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShuffleLeakageReport:
    """Leakage of one serving configuration, measured empirically.

    Attributes:
        positional_accuracy: Fraction of wire rows whose request-table
            session claim is correct (1.0 = no shuffling protection).
        positional_chance: Expected accuracy of the positional attacker
            under a uniform in-batch permutation — the row-weighted mean
            of each frame's correct-by-luck probability; the shuffled
            attacker should sit at this floor.
        session_mi_bits: Plug-in MI between claimed and true session
            labels over all wire rows (bits/row of residual positional
            information).
        session_entropy_bits: Entropy of the true session labels — the
            MI ceiling, for normalisation.
        reid_top1 / reid_advantage: Content attack
            (:class:`~repro.attacks.reidentification.ReidentificationAttack`)
            top-1 rate and above-chance advantage; shuffling does not
            move these — only row noise does.
        mixing_index: Mean fraction of each frame's rows from other
            sessions (``None`` when nothing was tapped), matching
            :attr:`repro.serve.metrics.ServingMetrics.mixing_index`.
        mean_anonymity_set / min_anonymity_set: Distinct sessions per
            frame.
        epsilon_amplified: The shuffled frames'
            :meth:`~repro.serve.metrics.ServingMetrics.shuffle_amplification`
            (``None`` without an ``epsilon0``, or when the configuration
            never shuffled a frame).
        batches / rows: Tap volume.
    """

    positional_accuracy: float
    positional_chance: float
    session_mi_bits: float
    session_entropy_bits: float
    reid_top1: float
    reid_advantage: float
    mixing_index: float | None
    mean_anonymity_set: float | None
    min_anonymity_set: int | None
    epsilon_amplified: float | None
    batches: int
    rows: int

    def as_dict(self) -> dict:
        """JSON-ready mapping (bench reports embed this verbatim)."""
        return {
            "positional_accuracy": self.positional_accuracy,
            "positional_chance": self.positional_chance,
            "session_mi_bits": self.session_mi_bits,
            "session_entropy_bits": self.session_entropy_bits,
            "reid_top1": self.reid_top1,
            "reid_advantage": self.reid_advantage,
            "mixing_index": self.mixing_index,
            "mean_anonymity_set": self.mean_anonymity_set,
            "min_anonymity_set": self.min_anonymity_set,
            "epsilon_amplified": self.epsilon_amplified,
            "batches": self.batches,
            "rows": self.rows,
        }


def _entropy_bits(labels) -> float:
    _, counts = np.unique(np.asarray(labels), return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def evaluate_shuffle_leakage(
    activations: np.ndarray,
    session_ids,
    *,
    observed: np.ndarray | None = None,
    batch_window: int = 8,
    shuffle: bool = False,
    shuffle_seed: int = 0,
    isolate_sessions: bool = False,
    shards: int = 1,
    epsilon0: float | None = None,
    delta: float = 1e-5,
) -> ShuffleLeakageReport:
    """Attack one serving configuration's tapped wire frames.

    Args:
        activations: ``(N, ...)`` *clean* per-request activations — the
            content attacker's candidate pool (it can run the public
            local network itself).
        session_ids: ``(N,)`` owning session per request.
        observed: ``(N, ...)`` what actually crossed the wire (noisy /
            quantised rows).  Defaults to ``activations`` — a noiseless
            deployment, against which the content attack is perfect and
            only the positional channel varies.
        batch_window / shuffle / shuffle_seed / isolate_sessions /
        shards: Batch-composition knobs, forwarded to
            :func:`tap_wire_batches`.
        epsilon0 / delta: When given, report the amplified epsilon of
            ``epsilon0``-LDP rows (see ``epsilon_amplified``).
    """
    activations = np.asarray(activations)
    wire = activations if observed is None else np.asarray(observed)
    if len(wire) != len(activations):
        raise EstimatorError(
            f"observed rows must pair with the pool; got {len(wire)} vs "
            f"{len(activations)}"
        )
    frames = tap_wire_batches(
        wire,
        session_ids,
        batch_window=batch_window,
        shuffle=shuffle,
        shuffle_seed=shuffle_seed,
        isolate_sessions=isolate_sessions,
        shards=shards,
    )

    from repro.serve.metrics import ServingMetrics

    # Accounted as a live plane accounts its shuffled micro-batches, so
    # a session's rows compose by the same rule.
    shuffled = ServingMetrics()
    claimed: list = []
    true: list = []
    chance_weighted = 0.0
    mixing: list[float] = []
    observed_rows = []
    observed_indices: list[int] = []
    for frame in frames:
        claimed.extend(frame.claimed_sessions)
        true.extend(frame.true_sessions)
        counts: dict = {}
        for session in frame.true_sessions:
            counts[session] = counts.get(session, 0) + 1
        n = len(frame.true_sessions)
        # P(claim at position j is correct | uniform permutation) is the
        # frequency of the claimed session among the frame's rows.
        chance_weighted += sum(
            counts.get(session, 0) / n for session in frame.claimed_sessions
        )
        # Same per-request quantity ServingMetrics.record_mixing keeps
        # (one row per request here): other rows / total rows.
        for session in frame.claimed_sessions:
            mixing.append((n - counts[session]) / n)
        if shuffle and n > 1:
            shuffled.record_shuffle(frame.claimed_sessions, [1] * n)
        observed_rows.append(frame.rows)
        observed_indices.extend(frame.true_indices)

    claimed_arr = np.asarray(claimed)
    true_arr = np.asarray(true)
    rows = len(true_arr)
    reid = ReidentificationAttack(
        activations.reshape(len(activations), -1)
    ).evaluate(
        np.concatenate(observed_rows, axis=0),
        np.asarray(observed_indices),
        k=min(5, len(activations)),
    )
    anonymity = shuffled.anonymity_sets
    return ShuffleLeakageReport(
        positional_accuracy=float(np.mean(claimed_arr == true_arr)),
        positional_chance=chance_weighted / rows,
        session_mi_bits=discrete_mutual_information(claimed_arr, true_arr),
        session_entropy_bits=_entropy_bits(true_arr),
        reid_top1=reid.top1_rate,
        reid_advantage=reid.advantage,
        mixing_index=(float(np.mean(mixing)) if mixing else None),
        mean_anonymity_set=(float(np.mean(anonymity)) if anonymity else None),
        min_anonymity_set=min(anonymity) if anonymity else None,
        epsilon_amplified=(
            shuffled.shuffle_amplification(epsilon0, delta)
            if epsilon0 is not None
            else None
        ),
        batches=len(frames),
        rows=rows,
    )


def sweep_mixing_tradeoff(
    activations: np.ndarray,
    session_ids,
    *,
    observed: np.ndarray | None = None,
    batch_windows=(2, 4, 8),
    shard_counts=(1, 2),
    isolation_policies=(False, True),
    shuffle_modes=(False, True),
    shuffle_seed: int = 0,
    epsilon0: float | None = None,
    delta: float = 1e-5,
) -> list[dict]:
    """The privacy/mixing tradeoff surface: one leakage report per
    configuration on the cross product of the given axes.

    Isolation and shuffling are mutually pointless (an isolated batch has
    nothing to mix), so the ``(isolate_sessions=True, shuffle=True)``
    corner is still evaluated — its report *demonstrates* the pointlessness
    (anonymity sets of 1, no amplification) rather than hiding it.

    Returns a list of plain dicts (``config`` knobs +
    :meth:`ShuffleLeakageReport.as_dict` fields), ready for JSON bench
    reports.  Deterministic: same inputs and seed, same list.
    """
    surface: list[dict] = []
    for batch_window in batch_windows:
        for shards in shard_counts:
            for isolate in isolation_policies:
                for shuffle in shuffle_modes:
                    report = evaluate_shuffle_leakage(
                        activations,
                        session_ids,
                        observed=observed,
                        batch_window=batch_window,
                        shuffle=shuffle,
                        shuffle_seed=shuffle_seed,
                        isolate_sessions=isolate,
                        shards=shards,
                        epsilon0=epsilon0,
                        delta=delta,
                    )
                    row = {
                        "batch_window": int(batch_window),
                        "shards": int(shards),
                        "isolate_sessions": bool(isolate),
                        "shuffle": bool(shuffle),
                    }
                    row.update(report.as_dict())
                    surface.append(row)
    return surface
