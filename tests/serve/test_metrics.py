"""ServingMetrics: percentile math vs numpy, SLO attainment edge cases.

The metrics module implements its percentile explicitly; these tests pin
it to ``np.percentile`` (default linear interpolation) on adversarial
distributions — heavy ties, single samples, constant vectors, already
sorted / reversed, subnormal spreads — and exercise the SLO-attainment
bookkeeping around its edge cases (no SLOs, all met, all missed, exact
deadline hits).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.serve import ServingMetrics, percentile

ADVERSARIAL = [
    [0.0],
    [5.0, 5.0, 5.0, 5.0],
    [1.0, 1.0, 2.0, 2.0, 2.0, 3.0],
    [3.0, 2.0, 1.0],
    list(range(100)),
    list(range(100))[::-1],
    [0.1] * 99 + [1e9],
    [1e-300, 2e-300, 3e-300],
    [-5.0, -1.0, 0.0, 1.0, 5.0],
]


class TestPercentile:
    @pytest.mark.parametrize("values", ADVERSARIAL)
    @pytest.mark.parametrize("q", [0, 1, 25, 50, 75, 90, 99, 100])
    def test_matches_numpy_on_adversarial_distributions(self, values, q):
        assert percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)), rel=1e-12, abs=1e-312
        )

    @given(
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50
        ),
        q=st.floats(0, 100, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_everywhere(self, values, q):
        assert percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)), rel=1e-9, abs=1e-9
        )

    def test_empty_sample_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_out_of_range_percentile_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101)
        with pytest.raises(ConfigurationError):
            percentile([1.0], -0.1)

    def test_single_sample_is_every_percentile(self):
        for q in (0, 37.5, 100):
            assert percentile([42.0], q) == 42.0


class TestSloAttainment:
    def test_undefined_without_slos(self):
        metrics = ServingMetrics()
        metrics.record_completion(0.010)  # best-effort request
        assert metrics.slo_attainment is None
        assert metrics.slo_total == 0

    def test_exact_deadline_hit_counts_as_met(self):
        metrics = ServingMetrics()
        metrics.record_completion(0.020, slo_seconds=0.020)
        assert metrics.slo_attainment == 1.0

    def test_mixed_outcomes(self):
        metrics = ServingMetrics()
        metrics.record_completion(0.010, slo_seconds=0.020)  # met
        metrics.record_completion(0.030, slo_seconds=0.020)  # missed
        metrics.record_completion(0.500)  # best-effort, not counted
        assert metrics.slo_total == 2
        assert metrics.slo_attainment == 0.5
        assert len(metrics.latencies) == 3

    def test_all_missed(self):
        metrics = ServingMetrics()
        for _ in range(3):
            metrics.record_completion(1.0, slo_seconds=0.001)
        assert metrics.slo_attainment == 0.0

    def test_format_mentions_attainment_only_with_slos(self):
        metrics = ServingMetrics()
        metrics.record_completion(0.010)
        assert "SLO" not in metrics.format()
        metrics.record_completion(0.010, slo_seconds=0.5)
        assert "SLO attainment    100.0%" in metrics.format()


class TestQueueAgesAndWorkers:
    def test_queue_age_histogram(self):
        metrics = ServingMetrics()
        metrics.queue_ages.extend([0.0, 0.001, 0.002, 0.010])
        histogram = metrics.queue_age_histogram(bins=4)
        assert len(histogram["counts"]) == 4
        assert len(histogram["edges"]) == 5
        assert sum(histogram["counts"]) == 4

    def test_queue_age_histogram_empty_and_invalid(self):
        metrics = ServingMetrics()
        assert metrics.queue_age_histogram() == {"edges": [], "counts": []}
        with pytest.raises(ConfigurationError):
            metrics.queue_age_histogram(bins=0)

    def test_queue_age_percentile_vs_numpy(self):
        metrics = ServingMetrics()
        metrics.queue_ages.extend([0.004, 0.001, 0.001, 0.100])
        assert metrics.queue_age_percentile(90) == pytest.approx(
            float(np.percentile(metrics.queue_ages, 90))
        )

    def test_worker_occupancy(self):
        metrics = ServingMetrics()
        metrics.wall_seconds = 2.0
        metrics.record_worker(0, 1.0)
        metrics.record_worker(1, 0.5)
        metrics.record_worker(0, 0.5)
        assert metrics.worker_batches == {0: 2, 1: 1}
        assert metrics.worker_occupancy() == {0: 0.75, 1: 0.25}
        assert "w0: 2 batches" in metrics.format()

    def test_worker_occupancy_without_wall_time(self):
        metrics = ServingMetrics()
        metrics.record_worker(0, 1.0)
        assert metrics.worker_occupancy() == {0: 0.0}

    def test_as_dict_round_trips_new_fields(self):
        import json

        metrics = ServingMetrics()
        metrics.record_completion(0.010, slo_seconds=0.020)
        metrics.queue_ages.append(0.003)
        metrics.record_worker(0, 0.004)
        payload = metrics.as_dict()
        assert payload["slo_attainment"] == 1.0
        assert payload["slo_total"] == 1
        assert payload["queue_age_p50_ms"] == pytest.approx(3.0)
        assert payload["workers"]["0"]["micro_batches"] == 1
        json.dumps(payload)  # must stay JSON-serialisable


class TestElasticCounters:
    def test_empty_metrics_dict_and_format_are_safe(self):
        """A deployment that never saw traffic (or a freshly-built pool
        metrics object) must still render and serialise."""
        import json

        metrics = ServingMetrics()
        payload = metrics.as_dict()
        assert payload["rejected_requests"] == 0
        assert payload["shed_requests"] == 0
        assert payload["respawned_workers"] == 0
        assert payload["pool_size"] == {
            "samples": 0, "min": None, "max": None, "mean": None,
        }
        json.dumps(payload)
        rendered = metrics.format()  # must not raise on empty samples
        assert "admission" not in rendered
        assert "healing" not in rendered
        assert "pool size" not in rendered

    def test_admission_and_healing_surface_in_dict_and_format(self):
        import json

        metrics = ServingMetrics()
        metrics.rejected_requests = 3
        metrics.shed_requests = 1
        metrics.respawned_workers = 2
        metrics.pool_size_samples.extend([2, 4, 3])
        payload = metrics.as_dict()
        assert payload["rejected_requests"] == 3
        assert payload["shed_requests"] == 1
        assert payload["respawned_workers"] == 2
        assert payload["pool_size"]["samples"] == 3
        assert payload["pool_size"]["min"] == 2
        assert payload["pool_size"]["max"] == 4
        assert payload["pool_size"]["mean"] == pytest.approx(3.0)
        json.dumps(payload)
        rendered = metrics.format()
        assert "admission" in rendered
        assert "healing" in rendered
        assert "pool size" in rendered


class TestMixingIndex:
    def test_single_session_batch_is_zero(self):
        metrics = ServingMetrics()
        metrics.record_mixing(["A", "A", "A"], [1, 1, 1])
        assert metrics.mixing_index == 0.0
        assert metrics.mixing_fractions == [0.0, 0.0, 0.0]

    def test_even_two_session_mix_is_half(self):
        metrics = ServingMetrics()
        metrics.record_mixing(["A", "B", "A", "B"], [1, 1, 1, 1])
        assert metrics.mixing_index == pytest.approx(0.5)

    def test_rows_weight_the_fraction(self):
        metrics = ServingMetrics()
        # A carries 3 of 4 rows; B carries 1 of 4.
        metrics.record_mixing(["A", "B"], [3, 1])
        assert metrics.mixing_fractions == [pytest.approx(0.25),
                                            pytest.approx(0.75)]
        assert metrics.mixing_index == pytest.approx(0.5)

    def test_undefined_when_nothing_dispatched(self):
        """No dispatches means mixing is *undefined*, not perfect
        isolation — matching ``slo_attainment``'s convention (regression:
        this used to read 0.0, indistinguishable from a genuinely
        isolated deployment)."""
        metrics = ServingMetrics()
        assert metrics.mixing_index is None
        metrics.record_mixing([], [])  # empty batch records nothing
        assert metrics.mixing_index is None
        assert metrics.as_dict()["mixing_index"] is None
        assert "cross-user mix" not in metrics.format()
        # A served-but-unmixed stream still reads 0.0, never None.
        metrics.record_mixing(["A"], [1])
        assert metrics.mixing_index == 0.0

    def test_surfaces_in_dict_and_format(self):
        metrics = ServingMetrics()
        metrics.record_mixing(["A", "B"], [1, 1])
        metrics.requeued_batches = 2
        payload = metrics.as_dict()
        assert payload["mixing_index"] == pytest.approx(0.5)
        assert payload["requeued_batches"] == 2
        rendered = metrics.format()
        assert "cross-user mix" in rendered
        assert "requeued" in rendered


class TestShuffleAccounting:
    def test_record_shuffle_counts_distinct_sessions(self):
        metrics = ServingMetrics()
        metrics.record_shuffle(["A", "B", "A", "C"], [1, 1, 1, 1])
        metrics.record_shuffle(["A", "A"], [1, 1])
        assert metrics.shuffled_batches == 2
        assert metrics.anonymity_sets == [3, 1]
        assert metrics.mean_anonymity_set == pytest.approx(2.0)

    def test_empty_metrics_have_no_anonymity(self):
        metrics = ServingMetrics()
        assert metrics.mean_anonymity_set is None
        assert metrics.shuffle_amplification(1.0) is None
        assert metrics.as_dict()["mean_anonymity_set"] is None
        assert "shuffling" not in metrics.format()

    def test_amplification_uses_minimum_anonymity_set(self):
        from repro.privacy.shuffle_eval import amplified_epsilon

        metrics = ServingMetrics()
        metrics.record_shuffle([f"u{i}" for i in range(64)], [1] * 64)
        metrics.record_shuffle([f"u{i}" for i in range(8)], [1] * 8)
        assert metrics.shuffle_amplification(1.0) == pytest.approx(
            amplified_epsilon(1.0, 8)
        )
        # Amplification never exceeds the local guarantee.
        assert metrics.shuffle_amplification(0.5) <= 0.5

    def test_amplification_composes_a_sessions_rows(self):
        """Each row is one epsilon0-LDP report, so the k rows one session
        puts in a shuffled batch are jointly (k * epsilon0)-LDP by basic
        composition: the bound is evaluated at the composed epsilon over
        the number of distinct sessions."""
        from repro.privacy.shuffle_eval import amplified_epsilon

        sessions = [f"u{i}" for i in range(10_000)]
        metrics = ServingMetrics()
        metrics.record_shuffle(sessions + ["u0", "u0"], [1] * 10_002)
        assert metrics.anonymity_sets == [10_000]
        assert metrics.max_session_rows == 3
        assert metrics.shuffle_amplification(0.5) == pytest.approx(
            amplified_epsilon(1.5, 10_000)
        )
        assert metrics.shuffle_amplification(0.5) > amplified_epsilon(
            0.5, 10_000
        )
        # Multi-row requests count their rows, not one report each.
        rows = ServingMetrics()
        rows.record_shuffle(sessions, [1] * 9_999 + [4])
        assert rows.max_session_rows == 4
        assert rows.shuffle_amplification(0.5) == pytest.approx(
            amplified_epsilon(2.0, 10_000)
        )

    def test_surfaces_in_dict_and_format(self):
        import json

        metrics = ServingMetrics()
        metrics.record_shuffle(["A", "B"], [1, 1])
        payload = metrics.as_dict()
        assert payload["shuffled_batches"] == 1
        assert payload["mean_anonymity_set"] == pytest.approx(2.0)
        json.dumps(payload)
        assert "shuffling" in metrics.format()


def _loaded_metrics(seed: int, workers: int = 2) -> ServingMetrics:
    """One shard's worth of realistic metrics content."""
    rng = np.random.default_rng(seed)
    metrics = ServingMetrics()
    n = int(rng.integers(5, 20))
    metrics.requests = n
    metrics.samples = 2 * n
    metrics.micro_batches = max(1, n // 3)
    metrics.uplink_bytes = int(rng.integers(1000, 100000))
    metrics.downlink_bytes = int(rng.integers(1000, 100000))
    metrics.wall_seconds = float(rng.uniform(0.1, 2.0))
    metrics.simulated_wire_seconds = float(rng.uniform(0.0, 0.5))
    for _ in range(n):
        metrics.record_completion(
            float(rng.uniform(0.001, 0.2)),
            [None, 0.05, 0.2][int(rng.integers(0, 3))],
        )
    metrics.queue_ages = [float(v) for v in rng.uniform(0, 0.05, size=n)]
    metrics.occupancies = [int(v) for v in rng.integers(1, 5, size=n)]
    metrics.pool_size_samples = [workers] * (n // 2)
    for worker in range(workers):
        metrics.record_worker(worker, float(rng.uniform(0.01, 0.5)))
    metrics.record_mixing(["A", "B", "A"], [1, 2, 1])
    metrics.record_shuffle(["A", "B", "A"], [1, 2, 1])
    metrics.requeued_batches = int(rng.integers(0, 3))
    metrics.rejected_requests = int(rng.integers(0, 3))
    metrics.shed_requests = int(rng.integers(0, 2))
    metrics.respawned_workers = int(rng.integers(0, 2))
    return metrics


class TestMerge:
    """``ServingMetrics.merge`` vs manual aggregation (PR 7, sharding)."""

    def test_counters_are_summed(self):
        parts = [_loaded_metrics(s) for s in (0, 1, 2)]
        merged = ServingMetrics.merge(parts)
        for counter in (
            "requests", "samples", "micro_batches", "uplink_bytes",
            "downlink_bytes", "slo_met", "slo_total", "requeued_batches",
            "rejected_requests", "shed_requests", "respawned_workers",
            "shuffled_batches",
        ):
            assert getattr(merged, counter) == sum(
                getattr(p, counter) for p in parts
            ), counter
        assert merged.simulated_wire_seconds == pytest.approx(
            sum(p.simulated_wire_seconds for p in parts)
        )

    def test_wall_seconds_is_concurrent_max_not_sum(self):
        parts = [_loaded_metrics(s) for s in (3, 4)]
        merged = ServingMetrics.merge(parts)
        assert merged.wall_seconds == max(p.wall_seconds for p in parts)
        # Aggregate throughput: all shards' requests over the span.
        assert merged.requests_per_second == pytest.approx(
            sum(p.requests for p in parts) / max(p.wall_seconds for p in parts)
        )

    def test_percentile_samples_are_concatenated(self):
        parts = [_loaded_metrics(s) for s in (5, 6, 7)]
        merged = ServingMetrics.merge(parts)
        for samples in (
            "latencies", "queue_ages", "mixing_fractions", "anonymity_sets"
        ):
            got = sorted(getattr(merged, samples))
            want = sorted(sum((getattr(p, samples) for p in parts), []))
            assert got == pytest.approx(want), samples
        assert merged.latency_percentile(90) == pytest.approx(
            percentile(sum((p.latencies for p in parts), []), 90)
        )

    def test_occupancy_samples_interleave_round_robin(self):
        a, b = ServingMetrics(), ServingMetrics()
        a.occupancies = [1, 3, 5]
        b.occupancies = [2, 4]
        merged = ServingMetrics.merge([a, b])
        assert merged.occupancies == [1, 2, 3, 4, 5]
        a.pool_size_samples = [10]
        b.pool_size_samples = [20, 30]
        merged = ServingMetrics.merge([a, b])
        assert merged.pool_size_samples == [10, 20, 30]

    def test_worker_tallies_are_namespaced_per_part(self):
        parts = [_loaded_metrics(s, workers=2) for s in (8, 9)]
        merged = ServingMetrics.merge(parts)
        assert set(merged.worker_batches) == {
            (part, worker) for part in range(2) for worker in range(2)
        }
        for index, part in enumerate(parts):
            for worker, batches in part.worker_batches.items():
                assert merged.worker_batches[(index, worker)] == batches
        # Derived views still work over tuple keys.
        assert merged.worker_occupancy()
        assert "workers" in merged.as_dict()
        assert merged.format()

    def test_merge_of_empty_and_single(self):
        empty = ServingMetrics.merge([])
        assert empty.requests == 0 and empty.requests_per_second == 0.0
        part = _loaded_metrics(10)
        merged = ServingMetrics.merge([part])
        assert merged.requests == part.requests
        assert merged.latencies == part.latencies

    def test_slo_attainment_matches_manual(self):
        parts = [_loaded_metrics(s) for s in (11, 12)]
        merged = ServingMetrics.merge(parts)
        met = sum(p.slo_met for p in parts)
        total = sum(p.slo_total for p in parts)
        assert merged.slo_attainment == pytest.approx(met / total)


class TestPayloadRoundTrip:
    """Shard subprocesses ship raw metrics as JSON; nothing may be lost."""

    def test_round_trip_is_lossless(self):
        import json

        original = _loaded_metrics(21)
        payload = json.loads(json.dumps(original.to_payload()))
        rebuilt = ServingMetrics.from_payload(payload)
        assert rebuilt == original

    def test_merge_after_round_trip_equals_direct_merge(self):
        import json

        parts = [_loaded_metrics(s) for s in (22, 23, 24)]
        shipped = [
            ServingMetrics.from_payload(json.loads(json.dumps(p.to_payload())))
            for p in parts
        ]
        assert ServingMetrics.merge(shipped) == ServingMetrics.merge(parts)
