"""Multi-worker serving on a one-deployment plane: parity, ordering, and
determinism.

The acceptance property of the deadline-aware multi-worker plane: on
randomized request streams (arrival jitter is irrelevant to content —
batch composition is decided by the FIFO dispatcher — but sizes, SLOs,
sessions, and worker counts all vary), the plane produces **bit-identical
logits** to the sequential reference path, releases responses of one
session in submission order, and draws noise deterministically no matter
how worker threads race.

The CI ``serve-stress`` job re-runs this module across a seed × worker
matrix via ``REPRO_SERVE_SEED`` / ``REPRO_SERVE_WORKERS``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.config import TINY, Config
from repro.core import NoiseCollection, ShredderPipeline, SplitInferenceModel
from repro.edge import Channel, InferenceSession, _fastexec
from repro.edge.protocol import decode_activation_batch
from repro.errors import ConfigurationError
from repro.serve import ControlPlane

_ENV_SEED = os.environ.get("REPRO_SERVE_SEED")
_ENV_WORKERS = int(os.environ.get("REPRO_SERVE_WORKERS", "0"))
STREAM_SEEDS = [11, 23, 57] + ([1000 + int(_ENV_SEED)] if _ENV_SEED else [])
WORKER_COUNTS = sorted({1, 4} | ({_ENV_WORKERS} if _ENV_WORKERS else set()))
# The parity matrix runs with the executor kernels forced on AND forced
# off: scheduling correctness must not depend on which backend computes.
KERNEL_BACKENDS = ["numpy"] + (["native"] if _fastexec.available() else [])


@pytest.fixture(scope="module")
def bundle():
    from repro.models import get_pretrained

    return get_pretrained("lenet", Config(scale=TINY))


@pytest.fixture(scope="module")
def collection(bundle):
    split = SplitInferenceModel(bundle.model)
    rng = np.random.default_rng(5)
    collection = NoiseCollection(split.activation_shape)
    for _ in range(4):
        collection.add(
            rng.laplace(0, 0.05, size=split.activation_shape).astype(np.float32),
            accuracy=0.8,
            in_vivo_privacy=0.1,
        )
    return collection


def _random_stream(bundle, rng, n_requests):
    """Mixed-size request batches with mixed SLOs and sessions."""
    images = bundle.test_set.images
    stream, slos, sessions = [], [], []
    cursor = 0
    for _ in range(n_requests):
        size = int(rng.integers(1, 4))
        stream.append(images[cursor % len(images) : cursor % len(images) + 1].repeat(size, axis=0))
        cursor += size
        slos.append([None, 0.050, 0.200][int(rng.integers(0, 3))])
        sessions.append(f"user-{int(rng.integers(0, 3))}")
    return stream, slos, sessions


def _engine(
    bundle, collection, *, seed=11, workers=1, window=4, channel=None,
    kernel_backend="auto", plane=ControlPlane, **register,
):
    """A one-deployment plane (``plane`` may be a ControlPlane subclass)."""
    engine = plane(workers=workers, channel=channel,
                   kernel_backend=kernel_backend)
    engine.register(
        "lenet", bundle.model, bundle.model.last_conv_cut(),
        noise=collection, rng=np.random.default_rng(seed),
        batch_window=window, **register,
    )
    return engine


class TestBitwiseParity:
    @pytest.mark.parametrize("stream_seed", STREAM_SEEDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("kernel_backend", KERNEL_BACKENDS)
    def test_randomized_stream_matches_sequential(
        self, bundle, collection, stream_seed, workers, kernel_backend
    ):
        stream, slos, sessions = _random_stream(
            bundle, np.random.default_rng(stream_seed), 11
        )
        cut = bundle.model.last_conv_cut()
        mean, std = np.zeros(1, np.float32), np.ones(1, np.float32)
        sequential = InferenceSession(
            bundle.model, cut, mean, std, noise=collection,
            rng=np.random.default_rng(7), kernel_backend=kernel_backend,
        )
        expected = [sequential.infer(images) for images in stream]
        with _engine(
            bundle, collection, seed=7, workers=workers,
            kernel_backend=kernel_backend,
        ) as engine:
            actual = engine.infer_stream(
                stream, slo_seconds=slos, session_ids=sessions
            )
        assert len(actual) == len(expected)
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_deterministic_across_runs(self, bundle, collection, workers):
        stream, slos, sessions = _random_stream(
            bundle, np.random.default_rng(3), 9
        )
        outputs = []
        for _ in range(2):
            with _engine(bundle, collection, seed=13, workers=workers) as engine:
                outputs.append(
                    engine.infer_stream(
                        stream, slo_seconds=slos, session_ids=sessions
                    )
                )
        for a, b in zip(*outputs):
            np.testing.assert_array_equal(a, b)

    def test_noise_draws_match_total_rows(self, bundle, collection):
        """The dispatcher consumes exactly one draw per sample — the
        explicit generator-handoff accounting."""
        stream, slos, sessions = _random_stream(
            bundle, np.random.default_rng(4), 8
        )
        with _engine(bundle, collection, workers=4) as engine:
            engine.infer_stream(stream, slo_seconds=slos, session_ids=sessions)
            assert engine.deployment().noise_stream.draws == sum(
                len(r) for r in stream
            )

    def test_deadline_unaware_engine_same_bits(self, bundle, collection):
        """Scheduling policy shifts *when* batches close, never *what*
        they compute."""
        stream, _, _ = _random_stream(bundle, np.random.default_rng(6), 7)
        with _engine(bundle, collection, seed=21, deadline_aware=False) as a:
            fixed = a.infer_stream(stream)
        with _engine(bundle, collection, seed=21, deadline_aware=True) as b:
            adaptive = b.infer_stream(stream)
        for x, y in zip(fixed, adaptive):
            np.testing.assert_array_equal(x, y)


class _StallRequestZero(ControlPlane):
    """Deterministically delays the micro-batch carrying request id 0, so
    later batches always complete first — forcing the ordering gate."""

    STALL_SECONDS = 0.05

    def _execute(self, worker, task):
        if 0 in decode_activation_batch(task.uplink).request_ids:
            time.sleep(self.STALL_SECONDS)
        return super()._execute(worker, task)


def _poll(engine, *, until, timeout=5.0):
    delivered = []
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        delivered.extend(
            handle.request_id for handle in engine.pump(flush=True)
        )
        if until(delivered):
            return delivered
        time.sleep(0.002)
    raise AssertionError(f"poll timed out with delivered={delivered}")


class TestSessionOrdering:
    def test_out_of_order_completion_gated_per_session(self, bundle, collection):
        """Requests of one session interleaved across two batches: the
        stalled first batch must gate the finished second one."""
        images = bundle.test_set.images
        with _engine(
            bundle, collection, seed=1, workers=2, window=2,
            batch_timeout=0.0, plane=_StallRequestZero,
        ) as engine:
            for i, session in enumerate(["A", "B", "A", "B"]):
                engine.submit(images[i : i + 1], session_id=session)
            delivered = _poll(engine, until=lambda ids: len(ids) == 4)
        # Per-session delivery respects submission order...
        assert [i for i in delivered if i in (0, 2)] == [0, 2]
        assert [i for i in delivered if i in (1, 3)] == [1, 3]
        # ...and nothing from the second batch leaked ahead of the stalled
        # first batch, because every request was gated by a session peer.
        assert delivered.index(2) > delivered.index(0)
        assert delivered.index(3) > delivered.index(1)

    def test_sessionless_requests_deliver_independently(self, bundle, collection):
        """Without session ids the second batch's results become
        deliverable while the first batch is still in flight."""
        images = bundle.test_set.images
        with _engine(
            bundle, collection, seed=1, workers=2, window=2,
            batch_timeout=0.0, plane=_StallRequestZero,
        ) as engine:
            for i in range(4):
                engine.submit(images[i : i + 1])
            early = _poll(engine, until=lambda ids: {2, 3} <= set(ids))
            # The stalled batch (ids 0, 1) may not have landed yet; the
            # poll deadline says ids 2 and 3 did not wait for it.
            assert {2, 3} <= set(early)
            late = _poll(engine, until=lambda ids: {0, 1} <= set(ids))
            assert set(early + late) == {0, 1, 2, 3}

    def test_result_before_delivery_raises(self, bundle, collection):
        images = bundle.test_set.images
        with _engine(bundle, collection) as engine:
            request = engine.submit(images[:1])
            with pytest.raises(ConfigurationError):
                engine.result(request)
            engine.drain()
            assert engine.result(request).shape == (1, 10)


class TestEngineMechanics:
    def test_metrics_and_report(self, bundle, collection):
        stream, slos, sessions = _random_stream(
            bundle, np.random.default_rng(8), 10
        )
        with _engine(bundle, collection, workers=2) as engine:
            engine.infer_stream(stream, slo_seconds=slos, session_ids=sessions)
            metrics = engine.deployment().metrics
            assert metrics.requests == 10
            assert metrics.samples == sum(len(r) for r in stream)
            assert metrics.micro_batches >= 3
            assert len(metrics.latencies) == 10
            assert len(metrics.queue_ages) == 10
            assert all(age >= 0 for age in metrics.queue_ages)
            assert metrics.slo_total == sum(1 for s in slos if s is not None)
            assert metrics.uplink_bytes > 0 and metrics.downlink_bytes > 0
            assert metrics.wall_seconds > 0
            assert sum(metrics.worker_batches.values()) == metrics.micro_batches
            report = engine.report_for()
            assert report.requests == 10
            assert report.uplink_bytes == metrics.uplink_bytes
            assert report.simulated_seconds > 0

    def test_all_workers_used_under_overlap(self, bundle, collection):
        """With slept wire time and a queue of batches, every worker
        context serves traffic."""
        images = bundle.test_set.images
        stream = [images[i : i + 1] for i in range(16)]
        with _engine(
            bundle, collection, workers=4, window=2,
            channel=Channel(latency_ms=2.0, realtime=True), batch_timeout=0.0,
        ) as engine:
            engine.infer_stream(stream)
            assert set(engine.deployment().metrics.worker_batches) == {
                0, 1, 2, 3
            }

    def test_worker_error_propagates_without_wedging(self, bundle, collection):
        """A worker failure surfaces once; the failed batch's requests are
        lost but the engine — and their session — keeps serving."""

        class FailOnce(ControlPlane):
            failures = 0

            def _execute(self, worker, task):
                if type(self).failures == 0:
                    type(self).failures += 1
                    raise RuntimeError("worker down")
                return super()._execute(worker, task)

        FailOnce.failures = 0
        images = bundle.test_set.images
        with _engine(
            bundle, collection, seed=1, batch_timeout=0.0, plane=FailOnce,
        ) as engine:
            lost = engine.submit(images[:1], session_id="S")
            with pytest.raises(RuntimeError, match="worker down"):
                engine.drain()
            assert engine.in_flight == 0
            # The same session is not gated behind the lost request.
            retry = engine.submit(images[:1], session_id="S")
            delivered = engine.drain()
            assert delivered == [retry]
            assert engine.result(retry).shape == (1, 10)
            with pytest.raises(ConfigurationError):
                engine.result(lost)

    def test_closed_engine_rejects_work(self, bundle, collection):
        engine = _engine(bundle, collection)
        engine.close()
        engine.close()  # idempotent
        engine.submit(bundle.test_set.images[:1])
        with pytest.raises(ConfigurationError, match="closed"):
            engine.drain()


class TestPipelineDeploy:
    def test_deploy_returns_engine_and_matches_sequential(self, bundle):
        pipeline = ShredderPipeline(bundle, config=Config(scale=TINY))
        collection = pipeline.collect(2, iterations=10)
        engine = pipeline.deploy(collection, workers=2, batch_window=4)
        sequential = pipeline.deploy(collection, batched=False)
        assert isinstance(engine, ControlPlane)
        images = bundle.test_set.images
        stream = [images[i : i + 1] for i in range(6)]
        expected = [sequential.infer(x) for x in stream]
        with engine:
            actual = engine.infer_stream(stream)
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    def test_engine_knobs_require_batched(self, bundle):
        pipeline = ShredderPipeline(bundle, config=Config(scale=TINY))
        with pytest.raises(ConfigurationError):
            pipeline.deploy(None, batched=False, workers=4)
