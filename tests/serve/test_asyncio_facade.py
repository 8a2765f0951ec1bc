"""Asyncio facade over the control plane: concurrent awaits, bounded
backpressure, cancellation safety, and failure propagation.

The facade's contract: ``await client.submit(...)`` callers multiplexed
on one event loop get exactly the logits the synchronous path would
produce (arrival order is the gather order, so parity against the
sequential reference is still bitwise); at most ``max_pending`` requests
are admitted-but-unfinished (the bounded-queue backpressure); and a
cancelled caller releases its slot without wedging the dispatcher or any
other caller.

The elastic PR adds lifecycle bridges: ``await client.swap(...)`` /
``unregister(...)`` run on the dispatcher thread between serving turns
(:class:`TestElasticControlOps`), and admission rejections surface as a
typed :class:`~repro.errors.AdmissionError` on the rejected caller only.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.config import TINY, Config
from repro.core import NoiseCollection, SplitInferenceModel
from repro.edge import Channel, InferenceSession
from repro.errors import AdmissionError, ConfigurationError, ServingFaultError
from repro.serve import AsyncServingClient, ControlPlane


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


def _plane(bundle, collection, *, deployments=2, workers=2, channel=None,
           fault_injector=None):
    plane = ControlPlane(
        workers=workers, channel=channel, fault_injector=fault_injector
    )
    cut = bundle.model.last_conv_cut()
    for index in range(deployments):
        plane.register(
            f"dep{index}",
            bundle.model,
            cut,
            noise=collection,
            rng=np.random.default_rng(300 + index),
            batch_window=4,
            batch_timeout=0.0,
        )
    return plane


def _reference(bundle, collection, plan, deployments=2):
    cut = bundle.model.last_conv_cut()
    mean, std = np.zeros(1, np.float32), np.ones(1, np.float32)
    sessions = {
        f"dep{index}": InferenceSession(
            bundle.model, cut, mean, std, noise=collection,
            rng=np.random.default_rng(300 + index),
        )
        for index in range(deployments)
    }
    return [sessions[dep].infer(images) for dep, images, _ in plan]


class TestConcurrentAwaits:
    def test_gathered_callers_get_bitwise_results(self, bundle, collection):
        images = bundle.test_set.images
        plan = [
            (f"dep{i % 2}", images[i : i + 1], f"user-{i % 3}")
            for i in range(12)
        ]
        expected = _reference(bundle, collection, plan)

        async def main():
            with _plane(bundle, collection) as plane:
                async with AsyncServingClient(plane, max_pending=32) as client:
                    return await asyncio.gather(
                        *[
                            client.submit(
                                images, deployment=dep, session_id=session
                            )
                            for dep, images, session in plan
                        ]
                    )

        actual = asyncio.run(main())
        assert len(actual) == len(expected)
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    def test_facade_over_single_deployment_plane(self, bundle, collection):
        """A one-deployment plane: the facade drives it directly
        (deployment defaults to its sole tenant)."""
        images = bundle.test_set.images
        stream = [images[i : i + 1] for i in range(6)]
        cut = bundle.model.last_conv_cut()
        mean, std = np.zeros(1, np.float32), np.ones(1, np.float32)
        sequential = InferenceSession(
            bundle.model, cut, mean, std, noise=collection,
            rng=np.random.default_rng(7),
        )
        expected = [sequential.infer(x) for x in stream]

        async def main():
            plane = ControlPlane(workers=2)
            plane.register(
                "lenet", bundle.model, cut, mean=mean, std=std,
                noise=collection, rng=np.random.default_rng(7),
                batch_window=4, batch_timeout=0.0,
            )
            with plane:
                async with AsyncServingClient(plane) as client:
                    return await asyncio.gather(
                        *[client.submit(x) for x in stream]
                    )

        actual = asyncio.run(main())
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    def test_classify_helper(self, bundle, collection):
        async def main():
            with _plane(bundle, collection, deployments=1) as plane:
                async with AsyncServingClient(plane) as client:
                    return await client.classify(bundle.test_set.images[:1])

        labels = asyncio.run(main())
        assert labels.shape == (1,)


class TestBackpressure:
    def test_bounded_pending_engages(self, bundle, collection):
        """With a budget of 3 and 10 eager callers over a slow wire, the
        admitted-but-unfinished count never exceeds the bound — and
        everyone still completes correctly."""
        images = bundle.test_set.images

        async def main():
            channel = Channel(latency_ms=2.0, realtime=True)
            with _plane(
                bundle, collection, deployments=1, channel=channel
            ) as plane:
                async with AsyncServingClient(plane, max_pending=3) as client:
                    results = await asyncio.gather(
                        *[
                            client.submit(images[i : i + 1], deployment="dep0")
                            for i in range(10)
                        ]
                    )
                    return results, client.peak_pending

        results, peak = asyncio.run(main())
        assert len(results) == 10
        assert all(logits.shape == (1, 10) for logits in results)
        assert peak <= 3  # the bound engaged...
        assert peak > 1  # ...and concurrency actually happened

    def test_invalid_bounds_rejected(self, bundle, collection):
        with _plane(bundle, collection, deployments=1) as plane:
            with pytest.raises(ConfigurationError):
                AsyncServingClient(plane, max_pending=0)


class TestCancellation:
    def test_cancelled_caller_does_not_wedge_dispatcher(
        self, bundle, collection
    ):
        images = bundle.test_set.images

        async def main():
            channel = Channel(latency_ms=5.0, realtime=True)
            with _plane(
                bundle, collection, deployments=1, channel=channel
            ) as plane:
                async with AsyncServingClient(plane, max_pending=4) as client:
                    doomed = asyncio.ensure_future(
                        client.submit(images[:1], deployment="dep0",
                                      session_id="S")
                    )
                    await asyncio.sleep(0)  # let it reach the inbox
                    doomed.cancel()
                    # Later callers — including the same session, which
                    # orders behind the cancelled request — still finish.
                    survivors = await asyncio.gather(
                        *[
                            client.submit(images[i : i + 1], deployment="dep0",
                                          session_id="S")
                            for i in range(1, 4)
                        ]
                    )
                    with pytest.raises(asyncio.CancelledError):
                        await doomed
                    assert client.pending == 0
                    return survivors

        survivors = asyncio.run(main())
        assert len(survivors) == 3
        assert all(logits.shape == (1, 10) for logits in survivors)

    def test_close_releases_backpressure_waiters(self, bundle, collection):
        """A caller parked on the backpressure semaphore when close() runs
        must fail fast, not enqueue into the dead dispatcher and hang."""
        images = bundle.test_set.images

        async def main():
            channel = Channel(latency_ms=5.0, realtime=True)
            with _plane(
                bundle, collection, deployments=1, channel=channel
            ) as plane:
                client = AsyncServingClient(plane, max_pending=1)
                first = asyncio.ensure_future(
                    client.submit(images[:1], deployment="dep0")
                )
                await asyncio.sleep(0)  # first takes the only slot
                second = asyncio.ensure_future(
                    client.submit(images[1:2], deployment="dep0")
                )
                await asyncio.sleep(0)  # second parks on the semaphore
                # Blocks until the dispatcher drains `first` and exits;
                # only then does `first`'s slot release and wake `second`.
                client.close()
                assert (await first).shape == (1, 10)
                with pytest.raises(ConfigurationError, match="closed"):
                    await second

        asyncio.run(main())

    def test_submit_after_close_rejected(self, bundle, collection):
        async def main():
            with _plane(bundle, collection, deployments=1) as plane:
                client = AsyncServingClient(plane)
                await client.aclose()
                with pytest.raises(ConfigurationError, match="closed"):
                    await client.submit(bundle.test_set.images[:1])

        asyncio.run(main())


class TestElasticControlOps:
    def test_swap_between_awaits_preserves_parity(self, bundle, collection):
        """``await client.swap(...)`` runs on the dispatcher thread between
        serving turns; awaits before it see the old regime, awaits after
        it see the new one — both bit-identical to their references."""
        images = bundle.test_set.images
        cut = bundle.model.last_conv_cut()
        mean, std = np.zeros(1, np.float32), np.ones(1, np.float32)

        async def main():
            with _plane(bundle, collection, deployments=1) as plane:
                async with AsyncServingClient(plane, max_pending=16) as client:
                    before = await asyncio.gather(
                        *[
                            client.submit(images[i : i + 1], deployment="dep0")
                            for i in range(4)
                        ]
                    )
                    delivered = await client.swap(
                        "dep0", rng=np.random.default_rng(777)
                    )
                    after = await asyncio.gather(
                        *[
                            client.submit(images[i : i + 1], deployment="dep0")
                            for i in range(4, 8)
                        ]
                    )
                    return before, delivered, after

        before, delivered, after = asyncio.run(main())
        assert delivered == []  # nothing was queued at the barrier
        reference_old = InferenceSession(
            bundle.model, cut, mean, std, noise=collection,
            rng=np.random.default_rng(300),
        )
        reference_new = InferenceSession(
            bundle.model, cut, mean, std, noise=collection,
            rng=np.random.default_rng(777),
        )
        for i, logits in enumerate(before):
            np.testing.assert_array_equal(
                logits, reference_old.infer(images[i : i + 1])
            )
        for i, logits in enumerate(after, start=4):
            np.testing.assert_array_equal(
                logits, reference_new.infer(images[i : i + 1])
            )

    def test_unregister_never_hangs_awaiting_callers(self, bundle, collection):
        """Unregistering a tenant with callers in flight resolves every
        admitted await (the drain barrier serves them) and fails later
        submissions typed — nobody hangs."""
        images = bundle.test_set.images

        async def main():
            channel = Channel(latency_ms=2.0, realtime=True)
            with _plane(
                bundle, collection, deployments=2, channel=channel
            ) as plane:
                async with AsyncServingClient(plane, max_pending=16) as client:
                    in_flight = [
                        asyncio.ensure_future(
                            client.submit(
                                images[i : i + 1], deployment=f"dep{i % 2}"
                            )
                        )
                        for i in range(6)
                    ]
                    await asyncio.sleep(0)  # let them reach the inbox
                    await client.unregister("dep0")
                    results = await asyncio.gather(*in_flight)
                    assert "dep0" not in plane.registry
                    with pytest.raises(ConfigurationError,
                                       match="unknown deployment"):
                        await client.submit(images[:1], deployment="dep0")
                    survivor = await client.submit(
                        images[:1], deployment="dep1"
                    )
                    return results, survivor

        results, survivor = asyncio.run(main())
        assert all(logits.shape == (1, 10) for logits in results)
        assert survivor.shape == (1, 10)

    def test_admission_rejection_fails_only_that_caller(
        self, bundle, collection
    ):
        """A token-bucket rejection surfaces as a typed AdmissionError on
        the rejected caller alone; admitted neighbours still complete."""
        images = bundle.test_set.images

        async def main():
            plane = ControlPlane(workers=1)
            plane.register(
                "dep0",
                bundle.model,
                bundle.model.last_conv_cut(),
                noise=collection,
                rng=np.random.default_rng(300),
                batch_window=4,
                batch_timeout=0.0,
                admission_rate_rps=1e-6,  # ~one token, ever
                admission_burst=1.0,
            )
            with plane:
                async with AsyncServingClient(plane) as client:
                    outcomes = await asyncio.gather(
                        *[
                            client.submit(images[i : i + 1], deployment="dep0")
                            for i in range(3)
                        ],
                        return_exceptions=True,
                    )
                    rejected = plane.metrics_by_deployment()[
                        "dep0"
                    ].rejected_requests
                    return outcomes, rejected

        outcomes, rejected = asyncio.run(main())
        served = [o for o in outcomes if isinstance(o, np.ndarray)]
        refused = [o for o in outcomes if isinstance(o, AdmissionError)]
        assert len(served) == 1 and served[0].shape == (1, 10)
        assert len(refused) == 2
        assert rejected == 2


class TestFailurePropagation:
    def test_unrecoverable_fault_rejects_awaits(self, bundle, collection):
        """When every worker dies, outstanding awaits fail with the
        serving fault instead of hanging forever."""

        async def main():
            plane = _plane(
                bundle, collection, deployments=1, workers=1,
                fault_injector=lambda worker_id, task: True,
            )
            with plane:
                client = AsyncServingClient(plane)
                try:
                    with pytest.raises(ServingFaultError):
                        await asyncio.wait_for(
                            client.submit(
                                bundle.test_set.images[:1], deployment="dep0"
                            ),
                            timeout=10.0,
                        )
                finally:
                    client.close()

        asyncio.run(main())
