"""Deadline-aware batching-window policy.

A greedy batcher drains whatever is pending the moment it is asked.  That
maximises occupancy only when the caller already holds a backlog; under a
live arrival process a serving plane must decide *when to stop waiting
for more requests*, and that decision is the latency/throughput trade-off
the ROADMAP names ("deadline-aware batching windows").

:class:`AdaptiveBatcher` closes the current window at::

    min(earliest deadline - service estimate,   # SLO slack (deadline-aware)
        head arrival + batch_timeout)           # bounded wait for everyone

or immediately when ``batch_window`` requests are pending (or on an
explicit ``flush``).  With ``deadline_aware=False`` the SLO term is
ignored, which is exactly the fixed-window baseline the property suite
compares against: same timeout, same window, no knowledge of deadlines.
With ``batch_timeout=0`` as well it is the greedy FIFO batcher.

The policy is a pure function of the queue and the caller-supplied ``now``
— it never reads the wall clock itself — so the identical code path runs
under the real-time control plane (:mod:`repro.serve.controlplane`) and
the deterministic virtual-time simulator (:mod:`repro.serve.replay`).

The module's second stage is the :class:`Shuffler`: once a micro-batch is
closed, it permutes the *rows* of the stacked (already-noisy) activation
across sessions under an explicit seeded policy, and records the inverse
permutation so the dispatcher can restore per-request order bit-exactly
after the cloud half returns.  Shuffling severs the wire-visible link
between a row's batch position and the frame's request table — the
positional side channel a curious cloud or on-path observer would use to
attribute rows to users — while the row-invariant executor guarantees the
permute → compute → unpermute round trip is the identity on every
request's logits (the shuffling contract; see ROADMAP standing
constraints).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.queue import InferenceRequest, RequestQueue


class AdaptiveBatcher:
    """Closes micro-batch windows on deadline slack instead of fixed counts.

    Args:
        queue: The request source.
        batch_window: Maximum requests stacked per micro-batch.
        max_rows: Optional cap on total image rows per micro-batch (bounds
            the stacked activation's memory for multi-image requests); a
            single oversized request still ships alone rather than starve.
        batch_timeout: Longest the head request may wait for the window to
            fill, in clock seconds.  Bounds the latency of SLO-free
            requests and is the only closing rule (besides a full window)
            for the deadline-unaware baseline.
        service_estimate: Expected seconds to serve one micro-batch, used
            as slack when translating a deadline into a close time.  The
            engine keeps this current with an EWMA of measured batch
            service times (:meth:`observe_service`); simulations set it
            from their service model.
        deadline_aware: ``False`` ignores request SLOs entirely (the
            fixed-window baseline policy).
        isolate_sessions: Batch-composition policy.  ``False`` (the
            ``mixed`` policy) stacks any pending requests together —
            maximal occupancy, but one micro-batch mixes activations of
            independent users, the cross-user surface the shuffling
            analyses warn about.  ``True`` closes every micro-batch at the
            first session boundary, so a batch only ever carries one
            session's requests (sessionless requests each form their own
            batch).  Both policies drain the queue as a FIFO *prefix*, so
            noise draws stay in arrival order and bit parity is unaffected
            — only batch composition (and therefore occupancy/throughput
            and the mixing index) changes.
    """

    #: EWMA weight of the newest observed batch service time.
    SERVICE_EWMA = 0.3

    def __init__(
        self,
        queue: RequestQueue,
        batch_window: int = 8,
        *,
        max_rows: int | None = None,
        batch_timeout: float = 0.005,
        service_estimate: float = 0.0,
        deadline_aware: bool = True,
        isolate_sessions: bool = False,
    ) -> None:
        if batch_window < 1:
            raise ConfigurationError(
                f"batch window must be >= 1, got {batch_window}"
            )
        if max_rows is not None and max_rows < 1:
            raise ConfigurationError(f"max_rows must be >= 1, got {max_rows}")
        if batch_timeout < 0:
            raise ConfigurationError(
                f"batch timeout must be >= 0 seconds, got {batch_timeout}"
            )
        if service_estimate < 0:
            raise ConfigurationError(
                f"service estimate must be >= 0 seconds, got {service_estimate}"
            )
        self.queue = queue
        self.batch_window = batch_window
        self.max_rows = max_rows
        self.batch_timeout = batch_timeout
        self.service_estimate = service_estimate
        self.deadline_aware = deadline_aware
        self.isolate_sessions = isolate_sessions

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def close_time(self) -> float | None:
        """The clock time at which the pending window must be closed.

        ``None`` when the queue is empty (nothing to close).  When the
        window is already full the head's own arrival time is returned —
        a time that is always in the past, i.e. "close now".  Drivers use
        this to sleep (control plane) or jump the virtual clock (simulator) to
        the next scheduling event.
        """
        head = self.queue.peek()
        if head is None:
            return None
        if self._prefix()[1]:
            return head.submitted_at
        close = head.submitted_at + self.batch_timeout
        if self.deadline_aware:
            for request in self.queue:
                deadline = request.deadline
                if deadline is not None:
                    close = min(close, deadline - self.service_estimate)
        return close

    def _prefix(self) -> tuple[int, bool]:
        """The next micro-batch's length and whether it is full.

        The batch is the longest FIFO prefix of the queue that fits: at
        most ``batch_window`` requests and ``max_rows`` rows (a lone
        oversized request still ships), and under the isolation policy
        only the head's session.  It is *full* when waiting cannot grow
        it — by count, by a session boundary or a row-capped request
        queued behind it, or by the row cap itself.
        """
        queued = len(self.queue)
        if self.max_rows is None and not self.isolate_sessions:
            return min(queued, self.batch_window), queued >= self.batch_window
        count = rows = 0
        head_key = None
        for request in self.queue:
            if count == self.batch_window:
                break
            if count == 0:
                head_key = request.ordering_key
            elif (
                self.isolate_sessions and request.ordering_key != head_key
            ) or (
                self.max_rows is not None
                and rows + request.rows > self.max_rows
            ):
                break
            count += 1
            rows += request.rows
        full = (
            count == self.batch_window
            or count < queued
            or (self.max_rows is not None and rows >= self.max_rows)
        )
        return count, full

    def next_batch(
        self, now: float, *, flush: bool = False
    ) -> list[InferenceRequest]:
        """The next micro-batch, or ``[]`` if the window should stay open.

        Args:
            now: Current time on the queue's clock.
            flush: Close the window regardless of slack (stream shutdown /
                drain — never leaves requests to starve).
        """
        close = self.close_time()
        if close is None or not (flush or now >= close):
            return []
        return self.queue.pop_window(self._prefix()[0])

    def observe_service(self, seconds: float) -> None:
        """Fold one measured batch service time into the slack estimate."""
        if seconds < 0:
            return
        if self.service_estimate <= 0.0:
            self.service_estimate = seconds
        else:
            self.service_estimate += self.SERVICE_EWMA * (
                seconds - self.service_estimate
            )


@dataclass(frozen=True)
class BatchPermutation:
    """One micro-batch's recorded row permutation and its inverse.

    Attributes:
        forward: ``wire[i] = plain[forward[i]]`` — the row order that
            actually went over the wire.
        inverse: ``plain[j] = wire[inverse[j]]`` — recorded at shuffle
            time so the dispatcher can restore per-request order without
            recomputing (or trusting) anything.
    """

    forward: tuple[int, ...]
    inverse: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.forward)

    def apply(self, tensor: np.ndarray) -> np.ndarray:
        """Rows of ``tensor`` in wire order (a fresh contiguous array)."""
        if len(tensor) != len(self.forward):
            raise ConfigurationError(
                f"permutation covers {len(self.forward)} rows, "
                f"tensor has {len(tensor)}"
            )
        return np.ascontiguousarray(tensor[np.asarray(self.forward)])

    def restore(self, tensor: np.ndarray) -> np.ndarray:
        """Rows of a wire-order ``tensor`` back in plain (request) order."""
        if len(tensor) != len(self.inverse):
            raise ConfigurationError(
                f"permutation covers {len(self.inverse)} rows, "
                f"tensor has {len(tensor)}"
            )
        return np.ascontiguousarray(tensor[np.asarray(self.inverse)])


class Shuffler:
    """Seeded cross-session row shuffling for closed micro-batches.

    The shuffling contract (enforced by the parity suites):

    * the permutation is drawn from an **explicit seeded policy** —
      batch ``b`` of a shuffler seeded ``s`` uses
      ``np.random.SeedSequence([s, b])`` — so runs are reproducible and
      two identically-seeded deployments shuffle identically;
    * the **inverse is recorded** (:class:`BatchPermutation`) before the
      frame is encoded, and the dispatcher restores per-request order
      with it after the cloud half returns;
    * shuffling happens **after** noise sampling and quantisation, both
      of which are row-local, and the executor is row-invariant — so
      per-session logits stay bit-identical to the unshuffled (and to
      the sequential reference) path.

    The stage permutes at *row* granularity over the whole stacked
    tensor, so multi-row requests are dispersed too: a wire row's
    position carries no information about which request — or session —
    contributed it beyond "one of the batch's sessions" (the anonymity
    set recorded in :class:`~repro.serve.metrics.ServingMetrics`).

    Args:
        seed: Policy seed.  The per-batch counter advances on every
            :meth:`permute` call, including trivially small batches, so
            batch ``b`` always draws from the same stream position.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.batches = 0

    def permute(self, n_rows: int) -> BatchPermutation | None:
        """Draw the next batch's permutation; ``None`` if under 2 rows
        (a single row cannot mix, and recording it would be noise)."""
        if n_rows < 0:
            raise ConfigurationError(f"row count must be >= 0, got {n_rows}")
        counter = self.batches
        self.batches += 1
        if n_rows < 2:
            return None
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, counter]))
        forward = rng.permutation(n_rows)
        inverse = np.empty(n_rows, dtype=np.int64)
        inverse[forward] = np.arange(n_rows)
        return BatchPermutation(
            forward=tuple(int(i) for i in forward),
            inverse=tuple(int(i) for i in inverse),
        )
