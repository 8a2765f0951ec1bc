"""Admission control: token-bucket invariants, typed rejection at the
plane's front door, and the admitted-means-served contract.

Three layers under test:

* :class:`repro.serve.TokenBucket` alone, under hypothesis-generated
  clock/acquire traces — the never-admits-above-rate bound
  (``admitted <= burst + rate * elapsed``), monotone refill under clock
  skew, and the capacity cap;
* :class:`repro.serve.AdmissionController` alone — check ordering (a
  request rejected by the queue cap or shed on its deadline never burns
  a token) and constructor validation;
* the :class:`repro.serve.ControlPlane` front door on a deterministic
  virtual clock — ``max_pending`` / rate rejections surface as typed
  :class:`~repro.errors.AdmissionError`, deadline sheds as
  :class:`~repro.errors.OverloadError`, each counted on the deployment's
  metrics, rejected requests never consume a request id, and every
  *admitted* request still completes bit-identically to the sequential
  reference over the admitted sub-stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TINY, Config
from repro.core import NoiseCollection, SplitInferenceModel
from repro.edge import InferenceSession
from repro.errors import AdmissionError, ConfigurationError, OverloadError
from repro.serve import AdmissionController, ControlPlane, TokenBucket


class _VirtualClock:
    """A hand-advanced clock shared by the plane and the test."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


@pytest.fixture(scope="module")
def bundle():
    from repro.models import get_pretrained

    return get_pretrained("lenet", Config(scale=TINY))


@pytest.fixture(scope="module")
def collection(bundle):
    split = SplitInferenceModel(bundle.model)
    rng = np.random.default_rng(5)
    collection = NoiseCollection(split.activation_shape)
    for _ in range(3):
        collection.add(
            rng.laplace(0, 0.05, size=split.activation_shape).astype(np.float32),
            accuracy=0.8,
            in_vivo_privacy=0.1,
        )
    return collection


def _admission_plane(bundle, collection, clock, **admission_kwargs):
    plane = ControlPlane(workers=1, clock=clock)
    plane.register(
        "dep0",
        bundle.model,
        bundle.model.last_conv_cut(),
        noise=collection,
        rng=np.random.default_rng(100),
        batch_window=4,
        batch_timeout=0.0,
        **admission_kwargs,
    )
    return plane


class TestTokenBucket:
    @given(
        rate=st.floats(0.5, 50.0),
        burst=st.floats(1.0, 20.0),
        trace=st.lists(
            st.tuples(
                st.floats(0.0, 0.5),  # clock advance before the attempts
                st.integers(0, 5),  # admission attempts at that instant
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_admits_above_rate(self, rate, burst, trace):
        """Over any window, admitted work is bounded by the initial burst
        plus the refill: ``admitted <= burst + rate * elapsed``."""
        bucket = TokenBucket(rate, burst)
        now = 0.0
        admitted = 0
        for advance, attempts in trace:
            now += advance
            for _ in range(attempts):
                if bucket.try_acquire(now):
                    admitted += 1
        assert admitted <= burst + rate * now + 1e-6

    @given(
        rate=st.floats(0.5, 50.0),
        burst=st.floats(1.0, 20.0),
        times=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_refill_is_monotone_and_capped(self, rate, burst, times):
        """Out-of-order ``now`` values never drain the bucket, and the
        level never exceeds the configured burst."""
        bucket = TokenBucket(rate, burst)
        previous = bucket.available(times[0])
        high_water = times[0]
        for now in times[1:]:
            level = bucket.available(now)
            assert level <= burst + 1e-9
            if now <= high_water:  # stale clock: no refund, no drain
                assert level == pytest.approx(previous)
            else:
                assert level >= previous - 1e-9
                high_water = now
            previous = level

    def test_starts_full_and_absorbs_burst(self):
        bucket = TokenBucket(10.0, burst=3.0)
        assert all(bucket.try_acquire(0.0) for _ in range(3))
        assert not bucket.try_acquire(0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(10.0, burst=2.0)
        assert bucket.try_acquire(0.0) and bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        assert bucket.available(0.05) == pytest.approx(0.5)
        assert bucket.try_acquire(0.1)  # one token back after 100 ms
        assert not bucket.try_acquire(0.1)

    def test_failed_acquire_leaves_bucket_untouched(self):
        bucket = TokenBucket(1.0, burst=1.0)
        assert bucket.try_acquire(0.0)
        before = bucket.available(0.2)
        assert not bucket.try_acquire(0.2)
        assert bucket.available(0.2) == pytest.approx(before)

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError, match="rate"):
            TokenBucket(0.0)
        with pytest.raises(ConfigurationError, match="rate"):
            TokenBucket(-1.0)
        with pytest.raises(ConfigurationError, match="burst"):
            TokenBucket(5.0, burst=0.5)
        with pytest.raises(ConfigurationError, match="> 0 tokens"):
            TokenBucket(5.0).try_acquire(0.0, tokens=0.0)

    def test_default_burst_is_one_second_but_at_least_one(self):
        assert TokenBucket(8.0).burst == 8.0
        assert TokenBucket(0.25).burst == 1.0


class TestAdmissionController:
    def test_queue_cap_rejects_before_burning_a_token(self):
        gate = AdmissionController(max_pending=2, rate_rps=10.0, burst=1.0)
        with pytest.raises(AdmissionError, match="max_pending"):
            gate.check(now=0.0, pending=2)
        # The rejection above must not have consumed the single token.
        gate.check(now=0.0, pending=0)
        with pytest.raises(AdmissionError, match="rate limit"):
            gate.check(now=0.0, pending=0)

    def test_deadline_shed_rejects_before_burning_a_token(self):
        gate = AdmissionController(
            rate_rps=10.0, burst=1.0, shed_unmeetable=True
        )
        with pytest.raises(OverloadError, match="shed"):
            gate.check(
                now=0.0,
                pending=0,
                predicted_delay_seconds=1.0,
                slo_seconds=0.010,
            )
        gate.check(now=0.0, pending=0)  # the token is still there

    def test_shed_is_a_distinct_type_from_admission(self):
        gate = AdmissionController(shed_unmeetable=True)
        with pytest.raises(OverloadError) as excinfo:
            gate.check(
                now=0.0,
                pending=0,
                predicted_delay_seconds=1.0,
                slo_seconds=0.010,
            )
        assert not isinstance(excinfo.value, AdmissionError)

    def test_best_effort_requests_are_never_shed(self):
        gate = AdmissionController(shed_unmeetable=True)
        gate.check(now=0.0, pending=10, predicted_delay_seconds=99.0)

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError, match="max_pending"):
            AdmissionController(max_pending=0)
        with pytest.raises(ConfigurationError, match="rate_rps"):
            AdmissionController(burst=4.0)


class TestPlaneFrontDoor:
    def test_max_pending_rejects_typed_and_counts(self, bundle, collection):
        clock = _VirtualClock()
        images = bundle.test_set.images[:1]
        with _admission_plane(
            bundle, collection, clock, max_pending=2
        ) as plane:
            first = plane.submit(images, deployment="dep0")
            second = plane.submit(images, deployment="dep0")
            with pytest.raises(AdmissionError, match="max_pending"):
                plane.submit(images, deployment="dep0")
            metrics = plane.metrics_by_deployment()["dep0"]
            assert metrics.rejected_requests == 1
            assert metrics.shed_requests == 0
            # Rejected submissions never consume a request id: the next
            # admitted request is contiguous with the last admitted one.
            plane.drain()
            third = plane.submit(images, deployment="dep0")
            assert [h.request_id for h in (first, second, third)] == [0, 1, 2]
            plane.drain()

    def test_rate_limit_rejects_then_recovers(self, bundle, collection):
        clock = _VirtualClock()
        images = bundle.test_set.images[:1]
        with _admission_plane(
            bundle, collection, clock, admission_rate_rps=10.0,
            admission_burst=2.0,
        ) as plane:
            plane.submit(images, deployment="dep0")
            plane.submit(images, deployment="dep0")
            with pytest.raises(AdmissionError, match="rate limit"):
                plane.submit(images, deployment="dep0")
            assert plane.metrics_by_deployment()["dep0"].rejected_requests == 1
            clock.advance(0.1)  # one token refills at 10 req/s
            plane.submit(images, deployment="dep0")
            plane.drain()

    def test_malformed_request_never_takes_a_token(self, bundle, collection):
        """Requests are validated before the admission gate: a malformed
        one is refused with ConfigurationError without spending the
        bucket's only token, so the next valid request is admitted."""
        clock = _VirtualClock()
        images = bundle.test_set.images[:1]
        with _admission_plane(
            bundle, collection, clock, admission_rate_rps=1.0,
            admission_burst=1.0,
        ) as plane:
            for bad in (images[None], images[:0], images[:, :, :-1]):
                with pytest.raises(ConfigurationError):
                    plane.submit(bad, deployment="dep0")
            with pytest.raises(ConfigurationError, match="SLO"):
                plane.submit(images, deployment="dep0", slo_seconds=0.0)
            handle = plane.submit(images, deployment="dep0")
            assert plane.metrics_by_deployment()["dep0"].rejected_requests == 0
            assert plane.drain() == [handle]
            assert plane.result(handle).shape == (1, 10)

    def test_unmeetable_slo_is_shed_as_overload(self, bundle, collection):
        clock = _VirtualClock()
        images = bundle.test_set.images[:1]
        with _admission_plane(
            bundle, collection, clock, shed_unmeetable=True
        ) as plane:
            # Build a backlog so the predicted delay is strictly positive,
            # then offer a request whose SLO cannot possibly be met.
            for _ in range(4):
                plane.submit(images, deployment="dep0")
            with pytest.raises(OverloadError, match="shed"):
                plane.submit(images, deployment="dep0", slo_seconds=1e-12)
            metrics = plane.metrics_by_deployment()["dep0"]
            assert metrics.shed_requests == 1
            assert metrics.rejected_requests == 0
            # Best-effort requests sail through the same gate.
            plane.submit(images, deployment="dep0")
            plane.drain()

    def test_admitted_requests_keep_bit_parity(self, bundle, collection):
        """Rejections interleaved with admissions must not disturb the
        admitted sub-stream: it stays bit-identical to a sequential
        reference run over exactly the admitted requests."""
        clock = _VirtualClock()
        images = bundle.test_set.images
        with _admission_plane(
            bundle, collection, clock, admission_rate_rps=10.0,
            admission_burst=3.0,
        ) as plane:
            admitted = []
            rejections = 0
            for index in range(8):
                try:
                    handle = plane.submit(
                        images[index : index + 1], deployment="dep0"
                    )
                except AdmissionError:
                    rejections += 1
                    clock.advance(0.1)  # back off: let one token refill
                else:
                    admitted.append((index, handle))
            assert rejections > 0
            plane.drain()
            reference = InferenceSession(
                bundle.model,
                bundle.model.last_conv_cut(),
                np.zeros(1, np.float32),
                np.ones(1, np.float32),
                noise=collection,
                rng=np.random.default_rng(100),
            )
            for index, handle in admitted:
                np.testing.assert_array_equal(
                    plane.result(handle),
                    reference.infer(images[index : index + 1]),
                )

    def test_unadmitted_deployment_is_never_gated(self, bundle, collection):
        clock = _VirtualClock()
        images = bundle.test_set.images[:1]
        with _admission_plane(bundle, collection, clock) as plane:
            for _ in range(20):  # no admission knobs: nothing rejects
                plane.submit(images, deployment="dep0")
            plane.drain()
            metrics = plane.metrics_by_deployment()["dep0"]
            assert metrics.rejected_requests == 0
            assert metrics.shed_requests == 0
