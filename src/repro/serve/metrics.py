"""Per-session serving metrics: latency percentiles, SLO attainment,
queue-age histograms, per-worker occupancy, traffic.

Wall-clock latency is measured from request submission to result delivery
(so it includes queueing delay inside the batching window *and* any wait
for per-session ordering); the simulated channel seconds come from the
:class:`~repro.edge.Channel` cost model and are reported separately — the
two axes a deployment tunes against each other when picking a batching
window.  Deadline-aware serving adds a third axis: the fraction of
SLO-carrying requests delivered inside their deadline
(:attr:`ServingMetrics.slo_attainment`).

The percentile math is implemented explicitly (:func:`percentile`, linear
interpolation over the sorted sample — numpy's default method) rather than
delegated, and is pinned against ``np.percentile`` on adversarial
distributions by ``tests/serve/test_metrics.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` of ``values`` by linear interpolation.

    Matches ``np.percentile``'s default (``linear``) method: the quantile
    position is ``(q/100) * (n-1)`` over the sorted sample, interpolating
    between the two bracketing order statistics.  An empty sample returns
    0.0 (metrics objects start empty).
    """
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
    data = np.sort(np.asarray(values, dtype=np.float64))
    if data.size == 0:
        return 0.0
    if data.size == 1:
        return float(data[0])
    position = (q / 100.0) * (data.size - 1)
    low = int(np.floor(position))
    high = int(np.ceil(position))
    fraction = position - low
    return float(data[low] + (data[high] - data[low]) * fraction)


@dataclass
class ServingMetrics:
    """Accumulated statistics for one serving session.

    Attributes:
        requests: Completed requests.
        samples: Total image rows across completed requests.
        micro_batches: Stacked round trips taken.
        uplink_bytes / downlink_bytes: Wire traffic.
        wall_seconds: Wall-clock (or virtual) time spent serving.
        simulated_wire_seconds: Channel-model transfer time.
        latencies: Per-request latency (submission to delivery).
        occupancies: Requests per micro-batch.
        queue_ages: Per-request queueing delay (submission to dispatch);
            the part of latency the batching window is responsible for.
        slo_met / slo_total: Deadline bookkeeping over requests that
            carried an SLO.
        worker_batches: Micro-batches served per worker id.
        worker_busy_seconds: Busy time per worker id.
        mixing_fractions: Per dispatched request, the fraction of its
            micro-batch's rows that belong to *other* sessions — the
            cross-user mixing surface of shared micro-batches (deployments
            never share a batch, so cross-deployment mixing is
            structurally zero).  Recorded at dispatch time.
        requeued_batches: Micro-batches requeued onto surviving workers
            after a worker crash (exactly-once recovery).
        rejected_requests: Requests refused at the admission gate
            (:class:`~repro.errors.AdmissionError`: token bucket empty or
            ``max_pending`` reached).  Rejected requests never enter the
            queue and appear in no other counter.
        shed_requests: Requests shed at submission because their SLO was
            already unmeetable (:class:`~repro.errors.OverloadError`).
            Like rejections, shed requests never enter the queue.
        respawned_workers: Workers re-spawned by healing after a
            crash (pool-level; tracked on the plane's pool metrics).
        pool_size_samples: Live-worker-count samples over the session
            (taken at each dispatch and on every scale/heal event) —
            the autoscaler's observable trace.
        shuffled_batches: Micro-batches whose wire rows were permuted by
            the :class:`~repro.serve.scheduler.Shuffler` stage before
            encoding.
        anonymity_sets: Distinct sessions per shuffled micro-batch — the
            ``n`` that enters the shuffle-amplification accounting (a
            row's position reveals at best "one of n users").
        max_session_rows: The most rows one session put in a shuffled
            micro-batch; a session's rows compose before amplification.
    """

    requests: int = 0
    samples: int = 0
    micro_batches: int = 0
    uplink_bytes: int = 0
    downlink_bytes: int = 0
    wall_seconds: float = 0.0
    simulated_wire_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    occupancies: list[int] = field(default_factory=list)
    queue_ages: list[float] = field(default_factory=list)
    slo_met: int = 0
    slo_total: int = 0
    worker_batches: dict[int, int] = field(default_factory=dict)
    worker_busy_seconds: dict[int, float] = field(default_factory=dict)
    mixing_fractions: list[float] = field(default_factory=list)
    requeued_batches: int = 0
    rejected_requests: int = 0
    shed_requests: int = 0
    respawned_workers: int = 0
    pool_size_samples: list[int] = field(default_factory=list)
    shuffled_batches: int = 0
    anonymity_sets: list[int] = field(default_factory=list)
    max_session_rows: int = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_completion(
        self, latency: float, slo_seconds: float | None = None
    ) -> None:
        """Account one delivered request (latency + deadline outcome)."""
        self.latencies.append(latency)
        if slo_seconds is not None:
            self.slo_total += 1
            if latency <= slo_seconds:
                self.slo_met += 1

    def record_worker(self, worker_id: int, busy_seconds: float) -> None:
        """Account one micro-batch served by ``worker_id``."""
        self.worker_batches[worker_id] = self.worker_batches.get(worker_id, 0) + 1
        self.worker_busy_seconds[worker_id] = (
            self.worker_busy_seconds.get(worker_id, 0.0) + busy_seconds
        )

    def record_mixing(
        self, request_keys: Sequence, request_rows: Sequence[int]
    ) -> None:
        """Account cross-user mixing for one dispatched micro-batch.

        Args:
            request_keys: One ordering key per request in the batch.
            request_rows: Image rows each request contributes.

        Every request records ``other_rows / total_rows`` — the fraction
        of the stacked activation it shared a batch with that belongs to
        *other* sessions.  A single-session batch records 0.0 per request.
        """
        total = int(sum(request_rows))
        if total == 0:
            return
        own: dict = {}
        for key, rows in zip(request_keys, request_rows):
            own[key] = own.get(key, 0) + int(rows)
        for key in request_keys:
            self.mixing_fractions.append((total - own[key]) / total)

    def record_shuffle(
        self, request_keys: Sequence, request_rows: Sequence[int]
    ) -> None:
        """Account one shuffled micro-batch and its anonymity set.

        Args:
            request_keys: One ordering key per request in the batch.
            request_rows: Image rows per request (same order).

        The anonymity set is the number of *distinct* sessions whose rows
        were permuted together: a positional adversary observing the wire
        can attribute a row to at best "one of n users".  Recorded once
        per batch the :class:`~repro.serve.scheduler.Shuffler` permuted,
        together with the most rows any one session contributed.
        """
        own: dict = {}
        for key, rows in zip(request_keys, request_rows):
            own[key] = own.get(key, 0) + int(rows)
        self.shuffled_batches += 1
        self.anonymity_sets.append(len(own))
        self.max_session_rows = max(
            self.max_session_rows, max(own.values(), default=0)
        )

    # ------------------------------------------------------------------
    # Aggregation (sharded serving)
    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, parts: Sequence["ServingMetrics"]) -> "ServingMetrics":
        """One coherent view over per-shard metrics.

        The sharded parent holds N independent :class:`ServingMetrics`
        (one per shard subprocess); this combines them:

        * **Counters** (requests, bytes, SLO tallies, requeues,
          rejections, respawns, ...) are summed.
        * **Percentile samples** (latencies, queue ages, mixing
          fractions) are concatenated — order is irrelevant to the
          percentile math.
        * **Occupancy and pool-size samples** are interleaved
          round-robin across shards, approximating global time order
          (shards record them concurrently).
        * **Wall seconds** take the maximum: shards serve concurrently,
          so the plane's serving span is the slowest shard's span and
          ``requests_per_second`` reads as aggregate throughput.
          Simulated wire seconds stay summed (total modelled transfer).
        * **Per-worker tallies** are namespaced as ``(part, worker)``
          keys — worker 0 of shard 1 is not worker 0 of shard 2.
        """
        merged = cls()
        for part in parts:
            merged.requests += part.requests
            merged.samples += part.samples
            merged.micro_batches += part.micro_batches
            merged.uplink_bytes += part.uplink_bytes
            merged.downlink_bytes += part.downlink_bytes
            merged.wall_seconds = max(merged.wall_seconds, part.wall_seconds)
            merged.simulated_wire_seconds += part.simulated_wire_seconds
            merged.latencies.extend(part.latencies)
            merged.queue_ages.extend(part.queue_ages)
            merged.mixing_fractions.extend(part.mixing_fractions)
            merged.slo_met += part.slo_met
            merged.slo_total += part.slo_total
            merged.requeued_batches += part.requeued_batches
            merged.rejected_requests += part.rejected_requests
            merged.shed_requests += part.shed_requests
            merged.respawned_workers += part.respawned_workers
            merged.shuffled_batches += part.shuffled_batches
            merged.anonymity_sets.extend(part.anonymity_sets)
            merged.max_session_rows = max(
                merged.max_session_rows, part.max_session_rows
            )
        for index, part in enumerate(parts):
            for worker, batches in part.worker_batches.items():
                merged.worker_batches[(index, worker)] = batches
            for worker, busy in part.worker_busy_seconds.items():
                merged.worker_busy_seconds[(index, worker)] = busy
        for samples, target in (
            ([part.occupancies for part in parts], merged.occupancies),
            ([part.pool_size_samples for part in parts], merged.pool_size_samples),
        ):
            longest = max((len(s) for s in samples), default=0)
            for position in range(longest):
                for shard_samples in samples:
                    if position < len(shard_samples):
                        target.append(shard_samples[position])
        return merged

    # ------------------------------------------------------------------
    # Wire round-trip (shard subprocess -> parent; raw samples, not the
    # as_dict() summary, so the parent can merge and re-derive)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """Every raw field as JSON-safe data (no live objects)."""
        return {
            "requests": self.requests,
            "samples": self.samples,
            "micro_batches": self.micro_batches,
            "uplink_bytes": self.uplink_bytes,
            "downlink_bytes": self.downlink_bytes,
            "wall_seconds": self.wall_seconds,
            "simulated_wire_seconds": self.simulated_wire_seconds,
            "latencies": list(self.latencies),
            "occupancies": list(self.occupancies),
            "queue_ages": list(self.queue_ages),
            "slo_met": self.slo_met,
            "slo_total": self.slo_total,
            "worker_batches": {str(k): v for k, v in self.worker_batches.items()},
            "worker_busy_seconds": {
                str(k): v for k, v in self.worker_busy_seconds.items()
            },
            "mixing_fractions": list(self.mixing_fractions),
            "requeued_batches": self.requeued_batches,
            "rejected_requests": self.rejected_requests,
            "shed_requests": self.shed_requests,
            "respawned_workers": self.respawned_workers,
            "pool_size_samples": list(self.pool_size_samples),
            "shuffled_batches": self.shuffled_batches,
            "anonymity_sets": list(self.anonymity_sets),
            "max_session_rows": self.max_session_rows,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ServingMetrics":
        """Rebuild a metrics object written by :meth:`to_payload`."""

        def worker_key(key: str):
            return int(key) if key.lstrip("-").isdigit() else key

        metrics = cls(
            requests=int(payload["requests"]),
            samples=int(payload["samples"]),
            micro_batches=int(payload["micro_batches"]),
            uplink_bytes=int(payload["uplink_bytes"]),
            downlink_bytes=int(payload["downlink_bytes"]),
            wall_seconds=float(payload["wall_seconds"]),
            simulated_wire_seconds=float(payload["simulated_wire_seconds"]),
            slo_met=int(payload["slo_met"]),
            slo_total=int(payload["slo_total"]),
            requeued_batches=int(payload["requeued_batches"]),
            rejected_requests=int(payload["rejected_requests"]),
            shed_requests=int(payload["shed_requests"]),
            respawned_workers=int(payload["respawned_workers"]),
            shuffled_batches=int(payload.get("shuffled_batches", 0)),
            max_session_rows=int(payload["max_session_rows"]),
        )
        metrics.latencies = [float(v) for v in payload["latencies"]]
        metrics.occupancies = [int(v) for v in payload["occupancies"]]
        metrics.queue_ages = [float(v) for v in payload["queue_ages"]]
        metrics.mixing_fractions = [float(v) for v in payload["mixing_fractions"]]
        metrics.pool_size_samples = [int(v) for v in payload["pool_size_samples"]]
        metrics.anonymity_sets = [int(v) for v in payload.get("anonymity_sets", [])]
        metrics.worker_batches = {
            worker_key(k): int(v) for k, v in payload["worker_batches"].items()
        }
        metrics.worker_busy_seconds = {
            worker_key(k): float(v)
            for k, v in payload["worker_busy_seconds"].items()
        }
        return metrics

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def latency_percentile(self, q: float) -> float:
        """Latency percentile ``q`` (in seconds)."""
        return percentile(self.latencies, q)

    def queue_age_percentile(self, q: float) -> float:
        """Queueing-delay percentile ``q`` (in seconds)."""
        return percentile(self.queue_ages, q)

    def queue_age_histogram(self, bins: int = 8) -> dict:
        """Queue-age histogram: ``{"edges": [s...], "counts": [n...]}``."""
        if bins < 1:
            raise ConfigurationError(f"need >= 1 histogram bin, got {bins}")
        if not self.queue_ages:
            return {"edges": [], "counts": []}
        counts, edges = np.histogram(np.asarray(self.queue_ages), bins=bins)
        return {"edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}

    @property
    def slo_attainment(self) -> float | None:
        """Fraction of SLO-carrying requests delivered in time.

        ``None`` when no request carried an SLO (attainment is undefined,
        not perfect).
        """
        if self.slo_total == 0:
            return None
        return self.slo_met / self.slo_total

    @property
    def mixing_index(self) -> float | None:
        """Mean cross-user mixing over dispatched requests.

        0.0 under the ``isolate_sessions`` batch policy (no batch ever
        carries two sessions) and whenever traffic is single-session; up
        to ``(window-1)/window`` when every batch row belongs to a
        different user.  This is the measurable knob the shuffling-privacy
        analyses ask for: how much of the stacked activation a request
        travels with belongs to someone else.

        ``None`` when nothing was dispatched (mixing is undefined, not
        perfect isolation — matching :attr:`slo_attainment`).  Isolated
        or single-session dispatches still record 0.0 fractions, so a
        served-but-unmixed session reads 0.0, never ``None``.
        """
        if not self.mixing_fractions:
            return None
        return float(np.mean(self.mixing_fractions))

    @property
    def mean_anonymity_set(self) -> float | None:
        """Mean distinct sessions per shuffled batch (``None`` if no
        batch was shuffled)."""
        if not self.anonymity_sets:
            return None
        return float(np.mean(self.anonymity_sets))

    def shuffle_amplification(
        self, epsilon0: float, delta: float = 1e-5
    ) -> float | None:
        """Amplified central epsilon from the recorded shuffled batches.

        Every row is one ``epsilon0``-LDP report, so by basic composition
        the ``k`` rows one session puts in a batch are jointly
        ``k * epsilon0``-LDP.  The shuffle-amplification bound (see
        :func:`repro.privacy.shuffle_eval.amplified_epsilon`) is evaluated
        at ``max_session_rows * epsilon0`` over the *smallest* recorded
        anonymity set — conservative on both counts, since the bound
        grows with the local epsilon and shrinks with the number of
        shuffled reports.  Returns ``None`` when no batch was shuffled.

        Args:
            epsilon0: Per-row local epsilon of the on-device noise.
            delta: Amplification failure probability.
        """
        if not self.anonymity_sets:
            return None
        from repro.privacy.shuffle_eval import amplified_epsilon

        return amplified_epsilon(
            epsilon0 * self.max_session_rows, min(self.anonymity_sets), delta
        )

    @property
    def mean_occupancy(self) -> float:
        """Mean requests per micro-batch (the batching win)."""
        if not self.occupancies:
            return 0.0
        return float(np.mean(self.occupancies))

    @property
    def requests_per_second(self) -> float:
        """Completed requests per second of serving time."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.requests / self.wall_seconds

    def worker_occupancy(self) -> dict[int, float]:
        """Busy fraction per worker over the session's serving time."""
        if self.wall_seconds <= 0:
            return {worker: 0.0 for worker in self.worker_busy_seconds}
        return {
            worker: busy / self.wall_seconds
            for worker, busy in sorted(self.worker_busy_seconds.items())
        }

    def as_dict(self) -> dict:
        """JSON-friendly summary (used by the serving benchmark)."""
        return {
            "requests": self.requests,
            "samples": self.samples,
            "micro_batches": self.micro_batches,
            "mean_occupancy": self.mean_occupancy,
            "uplink_bytes": self.uplink_bytes,
            "downlink_bytes": self.downlink_bytes,
            "wall_seconds": self.wall_seconds,
            "simulated_wire_seconds": self.simulated_wire_seconds,
            "requests_per_second": self.requests_per_second,
            "latency_p50_ms": 1e3 * self.latency_percentile(50),
            "latency_p90_ms": 1e3 * self.latency_percentile(90),
            "latency_p99_ms": 1e3 * self.latency_percentile(99),
            "queue_age_p50_ms": 1e3 * self.queue_age_percentile(50),
            "queue_age_p90_ms": 1e3 * self.queue_age_percentile(90),
            "slo_total": self.slo_total,
            "slo_attainment": self.slo_attainment,
            "mixing_index": self.mixing_index,
            "shuffled_batches": self.shuffled_batches,
            "mean_anonymity_set": self.mean_anonymity_set,
            "requeued_batches": self.requeued_batches,
            "rejected_requests": self.rejected_requests,
            "shed_requests": self.shed_requests,
            "respawned_workers": self.respawned_workers,
            "pool_size": {
                "samples": len(self.pool_size_samples),
                "min": min(self.pool_size_samples) if self.pool_size_samples else None,
                "max": max(self.pool_size_samples) if self.pool_size_samples else None,
                "mean": (
                    float(np.mean(self.pool_size_samples))
                    if self.pool_size_samples
                    else None
                ),
            },
            "workers": {
                str(worker): {
                    "micro_batches": self.worker_batches.get(worker, 0),
                    "busy_seconds": busy,
                }
                for worker, busy in sorted(self.worker_busy_seconds.items())
            },
        }

    def format(self) -> str:
        """Human-readable multi-line summary."""
        d = self.as_dict()
        lines = [
            f"requests          {d['requests']} ({d['samples']} samples in "
            f"{d['micro_batches']} micro-batches, "
            f"occupancy {d['mean_occupancy']:.2f})",
            f"throughput        {d['requests_per_second']:.0f} req/s "
            f"({d['wall_seconds']*1e3:.1f} ms wall)",
            f"latency           p50 {d['latency_p50_ms']:.2f} ms   "
            f"p90 {d['latency_p90_ms']:.2f} ms   p99 {d['latency_p99_ms']:.2f} ms",
            f"queue age         p50 {d['queue_age_p50_ms']:.2f} ms   "
            f"p90 {d['queue_age_p90_ms']:.2f} ms",
            f"wire              {d['uplink_bytes']/1e6:.3f} MB up / "
            f"{d['downlink_bytes']/1e6:.3f} MB down, "
            f"{d['simulated_wire_seconds']*1e3:.1f} ms simulated",
        ]
        if self.slo_total:
            lines.insert(
                4,
                f"SLO attainment    {self.slo_attainment:.1%} "
                f"({self.slo_met}/{self.slo_total} deadlines met)",
            )
        if self.mixing_fractions:
            lines.append(
                f"cross-user mix    {self.mixing_index:.1%} of batch rows "
                "from other sessions (mean per request)"
            )
        if self.shuffled_batches:
            lines.append(
                f"shuffling         {self.shuffled_batches} micro-batches "
                f"permuted (mean anonymity set "
                f"{self.mean_anonymity_set:.1f} sessions)"
            )
        if self.requeued_batches:
            lines.append(
                f"crash recovery    {self.requeued_batches} micro-batches "
                "requeued after worker loss"
            )
        if self.rejected_requests or self.shed_requests:
            lines.append(
                f"admission         {self.rejected_requests} rejected "
                f"(rate/queue cap), {self.shed_requests} shed "
                "(unmeetable SLO)"
            )
        if self.respawned_workers:
            lines.append(
                f"healing           {self.respawned_workers} workers respawned"
            )
        if self.pool_size_samples:
            lines.append(
                f"pool size         min {min(self.pool_size_samples)}   "
                f"mean {float(np.mean(self.pool_size_samples)):.1f}   "
                f"max {max(self.pool_size_samples)} "
                f"({len(self.pool_size_samples)} samples)"
            )
        if self.worker_busy_seconds:
            occupancy = self.worker_occupancy()
            lines.append(
                "workers           "
                + "   ".join(
                    f"w{worker}: {self.worker_batches.get(worker, 0)} batches "
                    f"({occupancy[worker]:.0%} busy)"
                    for worker in sorted(self.worker_busy_seconds)
                )
            )
        return "\n".join(lines)
