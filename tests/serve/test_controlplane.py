"""Multi-deployment serving control plane: routing, parity, crash
recovery, and the batch-composition policy.

The acceptance properties, per deployment, on interleaved multi-tenant
streams across worker counts:

* **bit parity** — every deployment's logits are bit-identical to that
  deployment's own sequential reference path
  (:class:`repro.edge.InferenceSession` with the same seed), no matter
  how tenants interleave or how many shared workers race;
* **ordering** — within one (deployment, session), responses deliver in
  submission order;
* **exactly-once under crash** — a worker killed mid-batch (deterministic
  fault injection) loses capacity, not requests: the in-flight batch is
  requeued to the survivors, completes exactly once, and parity/ordering
  still hold;
* **noise-draw accounting** — each deployment's single-owner stream is
  consumed exactly once per sample of that deployment.

The CI ``serve-stress`` job re-runs this module across the same
seed × worker matrix as the engine suite (``REPRO_SERVE_SEED`` /
``REPRO_SERVE_WORKERS``), plus a fault leg (``REPRO_SERVE_FAULT=1``:
every parity run also crashes one worker), a multi-deployment leg
(``REPRO_SERVE_DEPLOYMENTS=3``), and — since the elastic PR — a chaos
leg (``REPRO_SERVE_CHAOS=1``: every parity run crashes one worker on an
``auto_heal`` plane and asserts the pool healed back to target, parity
intact).  :class:`TestElasticLifecycle` covers the elastic surface
deterministically: heal-then-parity, auto-heal under total loss,
hot-swap and unregister under live traffic, manual scaling, the
autoscaler, and context release on close.
"""

from __future__ import annotations

import gc
import os
import threading
import time

import numpy as np
import pytest

from repro.config import TINY, Config
from repro.core import NoiseCollection, ShredderPipeline, SplitInferenceModel
from repro.edge import (
    Channel,
    InferenceSession,
    cut_cost,
    plan_batch_window,
    predict_window_latency,
)
from repro.errors import (
    ConfigurationError,
    DeploymentDrainError,
    ServingFaultError,
)
from repro.serve import ControlPlane, DeploymentSpec, RequestHandle

_ENV_SEED = os.environ.get("REPRO_SERVE_SEED")
_ENV_WORKERS = int(os.environ.get("REPRO_SERVE_WORKERS", "0"))
STREAM_SEEDS = [31, 77] + ([2000 + int(_ENV_SEED)] if _ENV_SEED else [])
WORKER_COUNTS = sorted({1, 2, 4} | ({_ENV_WORKERS} if _ENV_WORKERS else set()))
#: CI legs: REPRO_SERVE_DEPLOYMENTS=3 widens the tenant matrix;
#: REPRO_SERVE_FAULT=1 injects a worker crash into every parity run;
#: REPRO_SERVE_CHAOS=1 additionally runs the parity matrix on an
#: auto-healing plane and asserts the crashed capacity grew back.
#: REPRO_SERVE_SHUFFLE=1 runs the whole parity matrix with the
#: cross-session row shuffler on (the shuffling contract: permute →
#: compute → unpermute must be bit-exact, crashes included).
#: REPRO_SERVE_WEIGHT_BITS=8 runs the whole parity matrix with int8
#: weight quantisation on — parity is against a sequential reference in
#: the *same* weight regime (quantised vs quantised), never across.
N_DEPLOYMENTS = int(os.environ.get("REPRO_SERVE_DEPLOYMENTS", "2"))
FAULT_LEG = os.environ.get("REPRO_SERVE_FAULT") == "1"
CHAOS_LEG = os.environ.get("REPRO_SERVE_CHAOS") == "1"
SHUFFLE_LEG = os.environ.get("REPRO_SERVE_SHUFFLE") == "1"
WEIGHT_BITS = int(os.environ.get("REPRO_SERVE_WEIGHT_BITS", "0")) or None


@pytest.fixture(scope="module")
def bundle():
    from repro.models import get_pretrained

    return get_pretrained("lenet", Config(scale=TINY))


@pytest.fixture(scope="module")
def collections(bundle):
    """One distinct noise collection per deployment (the third tenant is
    the privacy-free baseline: ``None``)."""
    split = SplitInferenceModel(bundle.model)
    built = []
    for seed in (5, 17):
        rng = np.random.default_rng(seed)
        collection = NoiseCollection(split.activation_shape)
        for _ in range(3):
            collection.add(
                rng.laplace(0, 0.05, size=split.activation_shape).astype(
                    np.float32
                ),
                accuracy=0.8,
                in_vivo_privacy=0.1,
            )
        built.append(collection)
    return built + [None]


def _noise_for(collections, index):
    return collections[index % len(collections)]


def _make_plane(
    bundle,
    collections,
    *,
    n_deployments=None,
    workers=1,
    window=4,
    isolate_sessions=False,
    fault_injector=None,
    channel=None,
    shuffle=None,
    **plane_kwargs,
):
    if shuffle is None:
        shuffle = SHUFFLE_LEG
    plane = ControlPlane(
        workers=workers, channel=channel, fault_injector=fault_injector,
        **plane_kwargs,
    )
    cut = bundle.model.last_conv_cut()
    for index in range(n_deployments or N_DEPLOYMENTS):
        plane.register(
            f"dep{index}",
            bundle.model,
            cut,
            noise=_noise_for(collections, index),
            rng=np.random.default_rng(100 + index),
            batch_window=window,
            batch_timeout=0.0,
            isolate_sessions=isolate_sessions,
            shuffle=shuffle,
            weight_bits=WEIGHT_BITS,
        )
    return plane


def _interleaved_plan(bundle, rng, n_requests, n_deployments):
    """A randomized multi-tenant request plan: (deployment, images, slo,
    session) in one global arrival order."""
    images = bundle.test_set.images
    plan = []
    cursor = 0
    for _ in range(n_requests):
        deployment = f"dep{int(rng.integers(0, n_deployments))}"
        size = int(rng.integers(1, 4))
        start = cursor % (len(images) - 1)
        plan.append(
            (
                deployment,
                images[start : start + 1].repeat(size, axis=0),
                [None, 0.050, 0.200][int(rng.integers(0, 3))],
                f"user-{int(rng.integers(0, 3))}",
            )
        )
        cursor += size
    return plan


def _sequential_reference(bundle, collections, plan, n_deployments):
    """Each deployment's own sequential reference on its sub-stream."""
    cut = bundle.model.last_conv_cut()
    mean, std = np.zeros(1, np.float32), np.ones(1, np.float32)
    sessions = {
        f"dep{index}": InferenceSession(
            bundle.model, cut, mean, std,
            noise=_noise_for(collections, index),
            rng=np.random.default_rng(100 + index),
            weight_bits=WEIGHT_BITS,
        )
        for index in range(n_deployments)
    }
    return [sessions[deployment].infer(images) for deployment, images, _, _ in plan]


def _one_shot_fault(target_deployment="dep0", target_request=0):
    """Kill the (first) worker that picks up the batch holding one
    specific request — the ISSUE's deterministic crash scenario."""
    crashed: list[int] = []

    def injector(worker_id, task):
        if (
            not crashed
            and task.deployment == target_deployment
            and target_request in task.request_ids
        ):
            crashed.append(worker_id)
            return True
        return False

    injector.crashed = crashed
    return injector


class TestRoutingAndRegistry:
    def test_duplicate_registration_rejected(self, bundle, collections):
        with _make_plane(bundle, collections, n_deployments=1) as plane:
            with pytest.raises(ConfigurationError, match="already registered"):
                plane.register(
                    "dep0", bundle.model, bundle.model.last_conv_cut()
                )

    def test_unknown_deployment_rejected(self, bundle, collections):
        with _make_plane(bundle, collections, n_deployments=1) as plane:
            with pytest.raises(ConfigurationError, match="unknown deployment"):
                plane.submit(bundle.test_set.images[:1], deployment="nope")

    def test_default_routing_needs_single_deployment(self, bundle, collections):
        images = bundle.test_set.images[:1]
        with _make_plane(bundle, collections, n_deployments=1) as plane:
            handle = plane.submit(images)  # sole deployment: routes there
            assert handle == RequestHandle("dep0", 0)
        with _make_plane(bundle, collections, n_deployments=2) as plane:
            with pytest.raises(ConfigurationError, match="must\\s+name"):
                plane.submit(images)

    def test_wrong_image_shape_is_refused_at_submit(self, bundle, collections):
        """A request whose images do not fit the deployment's input shape
        is refused at the front door.  It never reaches a window, so the
        requests batched around it — and later requests of its session —
        are all delivered."""
        images = bundle.test_set.images
        with _make_plane(
            bundle, collections, n_deployments=1, window=4
        ) as plane:
            first = plane.submit(images[0:1], session_id="s")
            with pytest.raises(ConfigurationError, match="shape"):
                plane.submit(
                    np.zeros((3, 32, 32), np.float32), session_id="s"
                )
            rest = [plane.submit(images[i : i + 1], session_id="s")
                    for i in (1, 2)]
            assert plane.drain() == [first, *rest]
            assert plane.pending == 0 and plane.in_flight == 0
            for handle in (first, *rest):
                assert plane.result(handle).shape == (1, 10)
            later = plane.submit(images[3:4], session_id="s")
            assert plane.drain() == [later]

    def test_per_deployment_request_ids(self, bundle, collections):
        images = bundle.test_set.images[:1]
        with _make_plane(bundle, collections, n_deployments=2) as plane:
            assert plane.submit(images, deployment="dep0").request_id == 0
            assert plane.submit(images, deployment="dep1").request_id == 0
            assert plane.submit(images, deployment="dep0").request_id == 1
            plane.drain()

    def test_failed_registration_rolls_back(self, bundle, collections):
        """A mid-warm failure must not leave a half-equipped, routable
        deployment behind (workers would KeyError on its batches)."""

        class ExplodingChannel(Channel):
            def clone(self, rng=None):
                raise RuntimeError("no link for you")

        with _make_plane(bundle, collections, n_deployments=1) as plane:
            cut = bundle.model.last_conv_cut()
            with pytest.raises(RuntimeError, match="no link"):
                plane.register(
                    "broken", bundle.model, cut, channel=ExplodingChannel()
                )
            assert "broken" not in plane.registry
            # The pool is intact: the same name registers cleanly and the
            # original deployment still serves.
            plane.register("broken", bundle.model, cut)
            a = plane.submit(bundle.test_set.images[:1], deployment="dep0")
            b = plane.submit(bundle.test_set.images[:1], deployment="broken")
            plane.drain()
            assert plane.result(a).shape == (1, 10)
            assert plane.result(b).shape == (1, 10)

    def test_registration_during_flight_rejected(self, bundle, collections):
        channel = Channel(latency_ms=30.0, realtime=True)
        with _make_plane(
            bundle, collections, n_deployments=1, channel=channel
        ) as plane:
            plane.submit(bundle.test_set.images[:1], deployment="dep0")
            plane.pump(flush=True)  # dispatches; the wire sleep keeps it in flight
            assert plane.in_flight == 1
            with pytest.raises(ConfigurationError, match="in\\s+flight"):
                plane.register(
                    "late", bundle.model, bundle.model.last_conv_cut()
                )
            plane.drain()


class TestWarmBindings:
    def test_registration_binds_each_lowered_program_once(
        self, bundle, collections
    ):
        """Registration warms every executor once, at its window: each
        lowered program holds one binding sized for the window (a noisy
        edge half has two programs, with and without the noise add), and
        serving partial windows adds none."""
        window = 4
        images = bundle.test_set.images
        with _make_plane(
            bundle, collections, n_deployments=3, workers=2, window=window
        ) as plane:
            executors = [deployment.device._executor for deployment in plane.registry]
            executors += [
                server._executor
                for worker in plane._workers.values()
                for server in worker.servers.values()
            ]
            bindings = [dict(executor._programs) for executor in executors]
            for executor, programs in zip(executors, bindings):
                assert programs.keys() == executor._lowered.keys()
                for binding in programs.values():
                    assert getattr(binding, "capacity", window) == window
            # Edge halves dep0 and dep1 carry noise, dep2 none; six clouds.
            assert [len(programs) for programs in bindings] == [2, 2] + [1] * 7
            for rows in (1, 3, 2):
                for deployment in ("dep0", "dep2"):
                    for index in range(rows):
                        plane.submit(images[index : index + 1], deployment=deployment)
                plane.drain()
            assert [dict(executor._programs) for executor in executors] == bindings


class TestCutPricing:
    """A deployment's edge kMACs and one window's wire time come from one
    pricing of its cut, at registration and again at a swap."""

    @staticmethod
    def _expected(model, cut, link):
        wire = predict_window_latency(
            model, cut, 8, arrival_rate_rps=1.0, service_seconds_per_sample=0.0,
            channel=link,
        )[2]
        return cut_cost(model, cut).kilomacs, wire

    def test_registration_runs_one_dry_run(self, bundle, monkeypatch):
        from repro.edge import costs

        dry_runs = []
        profile_network = costs.profile_network

        def counted(model):
            dry_runs.append(model)
            return profile_network(model)

        monkeypatch.setattr(costs, "profile_network", counted)
        link = Channel(bandwidth_mbps=1.0)
        with ControlPlane(workers=1, channel=link) as plane:
            for cut in bundle.model.cut_names():
                dry_runs.clear()
                deployment = plane.register(cut, bundle.model, cut, batch_window=8)
                assert len(dry_runs) == 1
                priced = (deployment.edge_kilomacs, deployment.window_wire_seconds)
                assert priced == self._expected(bundle.model, cut, link)

    def test_swap_reprices_the_wire_time(self, bundle):
        link = Channel(bandwidth_mbps=1.0)
        first, *_, last = bundle.model.cut_names()
        with ControlPlane(workers=1, channel=link) as plane:
            swapped = plane.register("swapped", bundle.model, last, batch_window=8)
            plane.swap("swapped", cut=first)
            priced = (swapped.edge_kilomacs, swapped.window_wire_seconds)
            assert priced == self._expected(bundle.model, first, link)
            assert priced != self._expected(bundle.model, last, link)


class TestMultiDeploymentParity:
    @pytest.mark.parametrize("stream_seed", STREAM_SEEDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_interleaved_streams_match_sequential(
        self, bundle, collections, stream_seed, workers
    ):
        n_deployments = N_DEPLOYMENTS
        plan = _interleaved_plan(
            bundle, np.random.default_rng(stream_seed), 14, n_deployments
        )
        expected = _sequential_reference(bundle, collections, plan, n_deployments)
        # The optional fault leg crashes one worker mid-run; recovery must
        # keep the run indistinguishable (needs a survivor to requeue to).
        # The chaos leg does the same on an auto-healing plane, so the
        # crashed capacity must also grow back by the end of the run.
        injector = (
            _one_shot_fault()
            if (FAULT_LEG or CHAOS_LEG) and workers > 1
            else None
        )
        with _make_plane(
            bundle,
            collections,
            n_deployments=n_deployments,
            workers=workers,
            fault_injector=injector,
            auto_heal=CHAOS_LEG,
        ) as plane:
            handles = [
                plane.submit(
                    images,
                    deployment=deployment,
                    slo_seconds=slo,
                    session_id=session,
                )
                for deployment, images, slo, session in plan
            ]
            delivered = plane.drain()
            assert sorted(delivered) == sorted(handles)  # exactly once
            if CHAOS_LEG and injector is not None and injector.crashed:
                assert plane.alive_workers == workers
                assert plane.pool_metrics.respawned_workers >= 1
            actual = [plane.result(handle) for handle in handles]
        assert len(actual) == len(expected)
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_deterministic_across_runs(self, bundle, collections, workers):
        plan = _interleaved_plan(
            bundle, np.random.default_rng(9), 10, N_DEPLOYMENTS
        )
        outputs = []
        for _ in range(2):
            with _make_plane(
                bundle, collections, workers=workers
            ) as plane:
                handles = [
                    plane.submit(
                        images, deployment=dep, slo_seconds=slo, session_id=sid
                    )
                    for dep, images, slo, sid in plan
                ]
                plane.drain()
                outputs.append([plane.result(h) for h in handles])
        for a, b in zip(*outputs):
            np.testing.assert_array_equal(a, b)

    def test_noise_draws_accounted_per_deployment(self, bundle, collections):
        plan = _interleaved_plan(
            bundle, np.random.default_rng(12), 12, N_DEPLOYMENTS
        )
        with _make_plane(bundle, collections, workers=4) as plane:
            for dep, images, slo, sid in plan:
                plane.submit(
                    images, deployment=dep, slo_seconds=slo, session_id=sid
                )
            plane.drain()
            for deployment in plane.registry:
                expected_rows = sum(
                    len(images) for dep, images, _, _ in plan
                    if dep == deployment.name
                )
                if deployment.device.noise is None:
                    assert deployment.noise_stream.draws == 0
                else:
                    assert deployment.noise_stream.draws == expected_rows

    def test_per_session_ordering_within_each_deployment(
        self, bundle, collections
    ):
        plan = _interleaved_plan(
            bundle, np.random.default_rng(21), 16, N_DEPLOYMENTS
        )
        with _make_plane(bundle, collections, workers=4, window=2) as plane:
            submitted: dict[tuple, list] = {}
            for dep, images, slo, sid in plan:
                handle = plane.submit(
                    images, deployment=dep, slo_seconds=slo, session_id=sid
                )
                submitted.setdefault((dep, sid), []).append(handle)
            delivered = plane.drain()
            for handles in submitted.values():
                order = [delivered.index(handle) for handle in handles]
                assert order == sorted(order)
            for handle in [h for hs in submitted.values() for h in hs]:
                plane.result(handle)


class TestCrashRecovery:
    def test_crash_requeues_exactly_once_with_parity(self, bundle, collections):
        """Kill the worker holding request 0's batch: the batch lands on
        the survivor, completes exactly once, in order, bit-identical."""
        n_deployments = 2
        plan = _interleaved_plan(
            bundle, np.random.default_rng(3), 12, n_deployments
        )
        # Guarantee request 0 of dep0 exists regardless of the random plan.
        plan[0] = ("dep0", bundle.test_set.images[:1], None, "user-0")
        expected = _sequential_reference(bundle, collections, plan, n_deployments)
        injector = _one_shot_fault("dep0", 0)
        with _make_plane(
            bundle,
            collections,
            n_deployments=n_deployments,
            workers=2,
            fault_injector=injector,
        ) as plane:
            handles = [
                plane.submit(images, deployment=dep, slo_seconds=slo, session_id=sid)
                for dep, images, slo, sid in plan
            ]
            delivered = plane.drain()
            # The crash actually happened, capacity shrank, and the batch
            # was requeued exactly once.
            assert len(injector.crashed) == 1
            assert plane.alive_workers == 1
            assert (
                plane.metrics_by_deployment()["dep0"].requeued_batches == 1
            )
            # Exactly-once delivery, per-session order intact.
            assert sorted(delivered) == sorted(handles)
            per_session: dict[tuple, list] = {}
            for (dep, _, _, sid), handle in zip(plan, handles):
                per_session.setdefault((dep, sid), []).append(handle)
            for session_handles in per_session.values():
                order = [delivered.index(h) for h in session_handles]
                assert order == sorted(order)
            actual = [plane.result(handle) for handle in handles]
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    def test_total_worker_loss_surfaces_fault(self, bundle, collections):
        with _make_plane(
            bundle,
            collections,
            n_deployments=1,
            workers=1,
            fault_injector=lambda worker_id, task: True,
        ) as plane:
            plane.submit(bundle.test_set.images[:1], deployment="dep0")
            with pytest.raises(ServingFaultError, match="every cloud worker"):
                plane.drain()
            assert plane.alive_workers == 0
            assert plane.in_flight == 0

    def test_total_worker_loss_discards_every_queued_flight_at_once(
        self, bundle, collections
    ):
        """When the last worker crashes, the crashed flight and every
        flight still queued fail in one ``ServingFaultError``, as does work
        dispatched while no worker is left; healed workers then serve new
        traffic bit-identically (the lost requests drew their noise before
        dispatch)."""
        crashing = [True]
        images = bundle.test_set.images
        plan = [("dep0", images[i : i + 1], None, None) for i in range(7)]
        expected = _sequential_reference(bundle, collections, plan, 1)
        with _make_plane(
            bundle, collections, n_deployments=1, workers=2, window=1,
            fault_injector=lambda worker_id, task: crashing[0],
        ) as plane:
            for deployment, image, _, _ in plan[:4]:
                plane.submit(image, deployment=deployment)
            with pytest.raises(ServingFaultError, match="every cloud worker"):
                plane.drain()
            assert plane.in_flight == 0
            assert plane.alive_workers == 0
            plane.submit(plan[4][1], deployment="dep0")
            with pytest.raises(ServingFaultError, match="every cloud worker"):
                plane.drain()
            assert plane.in_flight == 0
            crashing[0] = False
            assert plane.heal() == 2
            handles = [
                plane.submit(image, deployment=deployment)
                for deployment, image, _, _ in plan[5:]
            ]
            assert sorted(plane.drain()) == sorted(handles)
            for handle, reference in zip(handles, expected[5:]):
                np.testing.assert_array_equal(plane.result(handle), reference)

    @pytest.mark.parametrize("both_crash", [False, True])
    def test_crashed_retiring_worker_strands_no_stop_marker(
        self, bundle, collections, both_crash
    ):
        """Worker 0 crashes while worker 1 holds the other flight queued
        ahead of ``scale_to(1)``'s stop marker: the crash counts as the
        shrink's retirement and takes the marker back.  Worker 1 then
        serves both requests once, bit-identically; if it crashes too, one
        ``drain()`` fails both flights and no marker is left for the
        healed worker to take."""
        release = threading.Event()

        def injector(worker_id, task):
            if worker_id == 0:
                return True
            release.wait(timeout=10.0)
            return both_crash and worker_id == 1

        images = bundle.test_set.images
        plan = [("dep0", images[i : i + 1], None, None) for i in range(3)]
        expected = _sequential_reference(bundle, collections, plan, 1)
        with _make_plane(
            bundle, collections, n_deployments=1, workers=2, window=1,
            fault_injector=injector,
        ) as plane:
            handles = [
                plane.submit(image, deployment=deployment)
                for deployment, image, _, _ in plan[:2]
            ]
            plane.pump(flush=True)  # one flight per worker, then the marker
            assert plane.scale_to(1) == 1
            deadline = time.monotonic() + 10.0
            while not plane.metrics_by_deployment()["dep0"].requeued_batches:
                assert time.monotonic() < deadline
                plane.pump()  # until worker 0's crash is collected
            assert plane.alive_workers == 1
            release.set()
            if both_crash:
                with pytest.raises(ServingFaultError, match="every cloud worker"):
                    plane.drain()
                assert plane.in_flight == 0
                assert plane.alive_workers == 0
                assert plane.heal() == 1
                handles, expected = [], expected[2:]
            else:
                assert sorted(plane.drain()) == sorted(handles)
            handles.append(plane.submit(plan[2][1], deployment="dep0"))
            assert plane.drain() == handles[-1:]
            assert plane.alive_workers == 1
            actual = [plane.result(handle) for handle in handles]
        for a, b in zip(expected, actual, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_serving_continues_after_recovery(self, bundle, collections):
        """Post-crash, the shrunken pool keeps serving new traffic."""
        injector = _one_shot_fault("dep0", 0)
        images = bundle.test_set.images
        with _make_plane(
            bundle, collections, n_deployments=2, workers=3,
            fault_injector=injector,
        ) as plane:
            first = [
                plane.submit(images[i : i + 1], deployment=f"dep{i % 2}",
                             session_id="S")
                for i in range(4)
            ]
            plane.drain()
            assert plane.alive_workers == 2
            second = [
                plane.submit(images[i : i + 1], deployment=f"dep{i % 2}",
                             session_id="S")
                for i in range(4)
            ]
            plane.drain()
            for handle in first + second:
                assert plane.result(handle).shape == (1, 10)


class TestBatchCompositionPolicy:
    def _submit_alternating(self, plane, images, n=4):
        return [
            plane.submit(
                images[i : i + 1], deployment="dep0",
                session_id="AB"[i % 2],
            )
            for i in range(n)
        ]

    def test_mixed_policy_reports_mixing_index(self, bundle, collections):
        with _make_plane(
            bundle, collections, n_deployments=1, window=4
        ) as plane:
            handles = self._submit_alternating(plane, bundle.test_set.images)
            plane.drain()
            metrics = plane.metrics_by_deployment()["dep0"]
            # One window of 4 alternating single-row sessions: every
            # request shared its batch half-and-half with the other user.
            assert metrics.micro_batches == 1
            assert metrics.mixing_index == pytest.approx(0.5)
            for handle in handles:
                plane.result(handle)

    def test_isolated_policy_never_mixes(self, bundle, collections):
        with _make_plane(
            bundle, collections, n_deployments=1, window=4,
            isolate_sessions=True,
        ) as plane:
            handles = self._submit_alternating(plane, bundle.test_set.images)
            plane.drain()
            metrics = plane.metrics_by_deployment()["dep0"]
            assert metrics.micro_batches == 4  # one per session boundary
            assert metrics.mixing_index == 0.0
            for handle in handles:
                plane.result(handle)

    def test_isolation_preserves_parity(self, bundle, collections):
        """Isolation changes batch composition, never content: the FIFO
        prefix rule keeps noise draws in arrival order."""
        plan = _interleaved_plan(bundle, np.random.default_rng(6), 10, 1)
        expected = _sequential_reference(bundle, collections, plan, 1)
        with _make_plane(
            bundle, collections, n_deployments=1, workers=2,
            isolate_sessions=True,
        ) as plane:
            handles = [
                plane.submit(images, deployment=dep, slo_seconds=slo,
                             session_id=sid)
                for dep, images, slo, sid in plan
            ]
            plane.drain()
            actual = [plane.result(h) for h in handles]
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)


class TestShuffledServing:
    """The shuffling contract on the control plane: permuted wire frames,
    bit-exact restored results — interleaved tenants, racing workers, and
    crashed workers included."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_shuffled_parity_across_workers(self, bundle, collections, workers):
        plan = _interleaved_plan(
            bundle, np.random.default_rng(42), 14, N_DEPLOYMENTS
        )
        expected = _sequential_reference(bundle, collections, plan, N_DEPLOYMENTS)
        with _make_plane(
            bundle, collections, workers=workers, shuffle=True
        ) as plane:
            handles = [
                plane.submit(images, deployment=dep, slo_seconds=slo,
                             session_id=sid)
                for dep, images, slo, sid in plan
            ]
            plane.drain()
            shuffled = sum(
                m.shuffled_batches
                for m in plane.metrics_by_deployment().values()
            )
            assert shuffled > 0  # the stage actually ran
            actual = [plane.result(h) for h in handles]
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    def test_shuffled_crash_recovery_preserves_parity(self, bundle, collections):
        """A worker killed mid-shuffled-batch: the *permuted* uplink bytes
        are requeued on the survivor and the recorded inverse stays valid
        across attempts — exactly-once, bit-identical."""
        n_deployments = 2
        plan = _interleaved_plan(
            bundle, np.random.default_rng(3), 12, n_deployments
        )
        plan[0] = ("dep0", bundle.test_set.images[:1], None, "user-0")
        expected = _sequential_reference(bundle, collections, plan, n_deployments)
        injector = _one_shot_fault("dep0", 0)
        with _make_plane(
            bundle, collections, n_deployments=n_deployments, workers=2,
            fault_injector=injector, shuffle=True,
        ) as plane:
            handles = [
                plane.submit(images, deployment=dep, slo_seconds=slo,
                             session_id=sid)
                for dep, images, slo, sid in plan
            ]
            delivered = plane.drain()
            assert len(injector.crashed) == 1
            assert plane.metrics_by_deployment()["dep0"].requeued_batches == 1
            assert sorted(delivered) == sorted(handles)
            actual = [plane.result(h) for h in handles]
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    def test_anonymity_sets_and_amplification_surface(self, bundle, collections):
        from repro.privacy.shuffle_eval import amplified_epsilon

        images = bundle.test_set.images
        with _make_plane(
            bundle, collections, n_deployments=1, window=4, shuffle=True
        ) as plane:
            handles = [
                plane.submit(images[i : i + 1], deployment="dep0",
                             session_id=f"user-{i % 4}")
                for i in range(8)
            ]
            plane.drain()
            metrics = plane.metrics_by_deployment()["dep0"]
            assert metrics.shuffled_batches == 2
            assert metrics.anonymity_sets == [4, 4]
            assert metrics.shuffle_amplification(1.0) == pytest.approx(
                amplified_epsilon(1.0, 4)
            )
            for handle in handles:
                plane.result(handle)

    def test_explicit_seed_reproduces_the_stream(self, bundle, collections):
        """Same shuffle seed, same permutation stream: two identically
        configured planes serve identical bytes end to end."""
        plan = _interleaved_plan(bundle, np.random.default_rng(8), 10, 1)
        outputs = []
        for _ in range(2):
            plane = _make_plane(
                bundle, collections, n_deployments=1, workers=2, shuffle=True
            )
            with plane:
                handles = [
                    plane.submit(images, deployment=dep, slo_seconds=slo,
                                 session_id=sid)
                    for dep, images, slo, sid in plan
                ]
                plane.drain()
                outputs.append([plane.result(h) for h in handles])
        for a, b in zip(*outputs):
            np.testing.assert_array_equal(a, b)


class TestDeployMany:
    def test_pipeline_deploy_many(self, bundle):
        pipeline = ShredderPipeline(bundle, config=Config(scale=TINY))
        collection = pipeline.collect(2, iterations=10)
        plane = pipeline.deploy_many(
            {
                "shredded": collection,
                "baseline": None,
                "planned": DeploymentSpec(
                    noise=collection,
                    batch_window=None,
                    target_slo_seconds=0.5,
                    arrival_rate_rps=200.0,
                ),
            },
            workers=2,
        )
        try:
            assert isinstance(plane, ControlPlane)
            assert plane.registry.names() == ["shredded", "baseline", "planned"]
            assert plane.registry.get("planned").batch_window >= 1
            images = bundle.test_set.images
            handles = [
                plane.submit(
                    images[i : i + 1],
                    deployment=name,
                    session_id=f"user-{i % 2}",
                )
                for i, name in enumerate(
                    ["shredded", "baseline", "planned"] * 3
                )
            ]
            plane.drain()
            for handle in handles:
                assert plane.result(handle).shape == (1, 10)
            report = plane.report_for("shredded")
            assert report.requests == 3
            assert report.uplink_bytes > 0
        finally:
            plane.close()

    def test_deploy_many_rejects_bad_spec(self, bundle):
        pipeline = ShredderPipeline(bundle, config=Config(scale=TINY))
        with pytest.raises(ConfigurationError):
            pipeline.deploy_many({})
        with pytest.raises(ConfigurationError, match="DeploymentSpec"):
            pipeline.deploy_many({"x": 42})

    def test_planner_windows_per_deployment(self, bundle):
        """Two planned deployments of one plane each get the planner's
        window for their own SLO."""
        cut = bundle.model.last_conv_cut()
        planned = DeploymentSpec(
            batch_window=None,
            arrival_rate_rps=500.0,
            service_seconds_per_sample=1e-4,
        )
        with ControlPlane() as plane:
            tight = plane.register(
                "tight", bundle.model, cut, planned, target_slo_seconds=0.030
            )
            loose = plane.register(
                "loose", bundle.model, cut, planned, target_slo_seconds=0.500
            )
        assert tight.batch_window <= loose.batch_window
        plan = plan_batch_window(
            bundle.model,
            cut,
            target_slo_seconds=0.500,
            arrival_rate_rps=500.0,
            service_seconds_per_sample=1e-4,
        )
        assert plan.feasible
        assert loose.batch_window == plan.window


class _StepClock:
    """Hand-advanced clock for deterministic autoscaler/admission tests."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestElasticLifecycle:
    """The elastic surface: healing, scaling, hot-swap, unregister — all
    without ever disturbing bit parity or dropping admitted work."""

    def test_heal_restores_pool_with_parity(self, bundle, collections):
        """Crash one worker mid-stream, heal, keep serving: the whole
        stream (before and after the heal) stays bit-identical to the
        sequential reference — noise streams continue across the heal."""
        plan = _interleaved_plan(bundle, np.random.default_rng(41), 12, 2)
        plan[0] = ("dep0", bundle.test_set.images[:1], None, "user-0")
        expected = _sequential_reference(bundle, collections, plan, 2)
        injector = _one_shot_fault("dep0", 0)
        with _make_plane(
            bundle, collections, n_deployments=2, workers=2,
            fault_injector=injector,
        ) as plane:
            first = [
                plane.submit(images, deployment=dep, slo_seconds=slo,
                             session_id=sid)
                for dep, images, slo, sid in plan[:6]
            ]
            plane.drain()
            assert len(injector.crashed) == 1
            assert plane.alive_workers == 1
            spawned = plane.heal()
            assert spawned == 1
            assert plane.alive_workers == 2
            assert plane.pool_metrics.respawned_workers == 1
            second = [
                plane.submit(images, deployment=dep, slo_seconds=slo,
                             session_id=sid)
                for dep, images, slo, sid in plan[6:]
            ]
            plane.drain()
            actual = [plane.result(h) for h in first + second]
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    def test_auto_heal_recovers_total_worker_loss(self, bundle, collections):
        """With ``auto_heal``, even the sole worker dying mid-batch is
        survivable: the pool respawns, the batch requeues, and the result
        is bit-identical to the undisturbed reference."""
        plan = _interleaved_plan(bundle, np.random.default_rng(43), 8, 1)
        plan[0] = ("dep0", bundle.test_set.images[:1], None, "user-0")
        expected = _sequential_reference(bundle, collections, plan, 1)
        injector = _one_shot_fault("dep0", 0)
        with _make_plane(
            bundle, collections, n_deployments=1, workers=1,
            fault_injector=injector, auto_heal=True,
        ) as plane:
            handles = [
                plane.submit(images, deployment=dep, slo_seconds=slo,
                             session_id=sid)
                for dep, images, slo, sid in plan
            ]
            delivered = plane.drain()
            assert sorted(delivered) == sorted(handles)
            assert len(injector.crashed) == 1
            assert plane.alive_workers == 1
            assert plane.pool_metrics.respawned_workers == 1
            assert (
                plane.metrics_by_deployment()["dep0"].requeued_batches == 1
            )
            actual = [plane.result(h) for h in handles]
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    def test_hot_swap_preserves_parity_on_both_sides(
        self, bundle, collections
    ):
        """Swap dep0's noise/rng under live traffic: pre-barrier requests
        serve under the old regime (bit-identical to the old reference),
        post-swap requests under the new one (bit-identical to a fresh
        reference), and the untouched tenant never notices."""
        images = bundle.test_set.images
        cut = bundle.model.last_conv_cut()
        mean, std = np.zeros(1, np.float32), np.ones(1, np.float32)
        phase_a = [
            (f"dep{i % 2}", images[i : i + 1]) for i in range(6)
        ]
        phase_b = [
            (f"dep{i % 2}", images[6 + i : 7 + i]) for i in range(6)
        ]
        with _make_plane(
            bundle, collections, n_deployments=2, workers=2
        ) as plane:
            a_handles = [
                plane.submit(img, deployment=dep) for dep, img in phase_a
            ]
            delivered = plane.swap(
                "dep0",
                noise=collections[1],
                rng=np.random.default_rng(777),
            )
            # The drain barrier finished every pre-swap dep0 request
            # under the old configuration before re-equipping.
            dep0_a = [h for h in a_handles if h.deployment == "dep0"]
            assert set(dep0_a) <= set(delivered)
            plane.drain()  # dep1's phase-A remainder
            b_handles = [
                plane.submit(img, deployment=dep) for dep, img in phase_b
            ]
            plane.drain()

            reference_old = InferenceSession(
                bundle.model, cut, mean, std,
                noise=_noise_for(collections, 0),
                rng=np.random.default_rng(100),
                weight_bits=WEIGHT_BITS,
            )
            reference_new = InferenceSession(
                bundle.model, cut, mean, std,
                noise=collections[1],
                rng=np.random.default_rng(777),
                weight_bits=WEIGHT_BITS,
            )
            reference_dep1 = InferenceSession(
                bundle.model, cut, mean, std,
                noise=_noise_for(collections, 1),
                rng=np.random.default_rng(101),
                weight_bits=WEIGHT_BITS,
            )
            for (dep, img), handle in zip(phase_a, a_handles):
                reference = (
                    reference_old if dep == "dep0" else reference_dep1
                )
                np.testing.assert_array_equal(
                    plane.result(handle), reference.infer(img)
                )
            for (dep, img), handle in zip(phase_b, b_handles):
                reference = (
                    reference_new if dep == "dep0" else reference_dep1
                )
                np.testing.assert_array_equal(
                    plane.result(handle), reference.infer(img)
                )

    def test_unregister_returns_leftovers_and_spares_other_tenants(
        self, bundle, collections
    ):
        """Removing a tenant under live traffic drains it first (nothing
        admitted is dropped — uncollected results come back), then frees
        its name; the surviving tenant keeps serving bit-identically."""
        images = bundle.test_set.images
        cut = bundle.model.last_conv_cut()
        mean, std = np.zeros(1, np.float32), np.ones(1, np.float32)
        with _make_plane(
            bundle, collections, n_deployments=2, workers=2
        ) as plane:
            dep0_handles = [
                plane.submit(images[i : i + 1], deployment="dep0")
                for i in range(3)
            ]
            dep1_handles = [
                plane.submit(images[i : i + 1], deployment="dep1")
                for i in range(3)
            ]
            leftovers = plane.unregister("dep0")
            assert set(leftovers) == {h.request_id for h in dep0_handles}
            assert "dep0" not in plane.registry
            with pytest.raises(ConfigurationError, match="unknown deployment"):
                plane.submit(images[:1], deployment="dep0")
            reference_0 = InferenceSession(
                bundle.model, cut, mean, std,
                noise=_noise_for(collections, 0),
                rng=np.random.default_rng(100),
                weight_bits=WEIGHT_BITS,
            )
            for i, handle in enumerate(dep0_handles):
                np.testing.assert_array_equal(
                    leftovers[handle.request_id],
                    reference_0.infer(images[i : i + 1]),
                )
            # The surviving tenant serves on, parity intact.
            more = [
                plane.submit(images[3 + i : 4 + i], deployment="dep1")
                for i in range(2)
            ]
            plane.drain()
            reference_1 = InferenceSession(
                bundle.model, cut, mean, std,
                noise=_noise_for(collections, 1),
                rng=np.random.default_rng(101),
                weight_bits=WEIGHT_BITS,
            )
            for i, handle in enumerate(dep1_handles + more):
                np.testing.assert_array_equal(
                    plane.result(handle),
                    reference_1.infer(images[i : i + 1]),
                )

    def test_scale_to_grows_and_shrinks_within_bounds(
        self, bundle, collections
    ):
        with _make_plane(
            bundle, collections, n_deployments=1, workers=1, max_workers=4
        ) as plane:
            assert plane.scale_to(3) == 3
            assert plane.alive_workers == 3
            assert plane.scale_to(1) == 1
            assert plane.alive_workers == 1
            # Registration first waits for the retiring workers to leave,
            # so only the one that stays is equipped.
            plane.register("late", bundle.model, bundle.model.last_conv_cut())
            assert len(plane.deployment("late").channels) == 1
            # Grow/shrink cycles, each serving one request through drain()
            # so the retirements complete, leave one channel clone for the
            # one live worker; the report still counts the link time of
            # the workers that left.
            images = bundle.test_set.images
            for cycle in range(50):
                plane.scale_to(3)
                plane.scale_to(1)
                plane.submit(images[cycle : cycle + 1], deployment="dep0")
                plane.drain()
            assert plane.alive_workers == 1
            assert len(plane.deployment("dep0").channels) == 1
            simulated = plane.report_for("dep0").simulated_seconds
            assert simulated > 0
            assert simulated == pytest.approx(
                plane.deployment("dep0").metrics.simulated_wire_seconds
            )
            with pytest.raises(ConfigurationError, match="pool size"):
                plane.scale_to(0)
            with pytest.raises(ConfigurationError, match="pool size"):
                plane.scale_to(5)
            # An explicit heal target overrides the shrink target, and
            # the next pump keeps it.
            assert plane.heal(to=3) == 2
            plane.pump()
            assert plane.alive_workers == 3
            assert plane.pool_metrics.pool_size_samples
            assert max(plane.pool_metrics.pool_size_samples) >= 3

    @pytest.mark.parametrize("sizes", [(1,), (1, 3, 2, 1)])
    def test_shrink_serves_queued_flights_then_retires_threads(
        self, bundle, collections, sizes
    ):
        """``scale_to`` queues its stop markers behind the micro-batches
        already dispatched, here also when the pool is resized between
        batches: every request is served once, bit-identical, and the
        surplus workers' threads exit."""
        images = bundle.test_set.images
        plan = [("dep0", images[i : i + 1], None, None) for i in range(12)]
        expected = _sequential_reference(bundle, collections, plan, 1)
        chunk = len(plan) // len(sizes)
        with _make_plane(
            bundle, collections, n_deployments=1, workers=1, window=1,
            max_workers=3,
        ) as plane:
            plane.scale_to(3)
            threads, handles, delivered = set(plane._threads), [], []
            for step, size in enumerate(sizes):
                for deployment, image, _, _ in plan[step * chunk :][:chunk]:
                    handles.append(plane.submit(image, deployment=deployment))
                delivered += plane.pump(flush=True)  # ahead of the markers
                assert plane.scale_to(size) == size
                threads.update(plane._threads)
            delivered += plane.pump() + plane.drain()
            assert sorted(delivered) == sorted(handles)
            assert plane.alive_workers == 1
            deadline = time.monotonic() + 10.0
            while (
                sum(thread.is_alive() for thread in threads) > 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert sum(thread.is_alive() for thread in threads) == 1
            actual = [plane.result(handle) for handle in handles]
        for a, b in zip(expected, actual, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_drain_barriers_honour_their_timeout(self, bundle, collections):
        """A flight held by the fault hook bounds ``drain_deployment``,
        ``swap`` and ``unregister`` by their timeout: each raises within
        about it, the deployment stays registered and un-swapped, and a
        later ``drain()`` delivers the held flight once, bit-identically."""
        release = threading.Event()

        def injector(worker_id, task):
            release.wait(timeout=10.0)  # hold the worker on its flight
            return False

        images = bundle.test_set.images
        plan = [("dep0", images[0:1], None, None)]
        expected = _sequential_reference(bundle, collections, plan, 1)
        with _make_plane(
            bundle, collections, n_deployments=1, workers=1, window=1,
            fault_injector=injector,
        ) as plane:
            handle = plane.submit(images[0:1], deployment="dep0")
            plane.pump(flush=True)
            spec = plane.deployment("dep0").spec
            for operation in (
                lambda: plane.drain_deployment("dep0", timeout=0.2),
                lambda: plane.swap("dep0", noise=None, timeout=0.2),
                lambda: plane.unregister("dep0", timeout=0.2),
            ):
                started = time.monotonic()
                with pytest.raises(DeploymentDrainError):
                    operation()
                assert time.monotonic() - started < 2.0
            assert plane.deployment("dep0").spec is spec
            assert len(plane._flights) == 1
            release.set()
            assert plane.drain() == [handle]
            np.testing.assert_array_equal(plane.result(handle), expected[0])

    def test_growth_takes_back_queued_stop_markers(self, bundle, collections):
        """Growing while a shrink's stop markers still wait behind queued
        flights withdraws them instead of spawning new workers."""
        release = threading.Event()

        def injector(worker_id, task):
            release.wait(timeout=10.0)  # hold each worker on its flight
            return False

        images = bundle.test_set.images
        with _make_plane(
            bundle, collections, n_deployments=1, workers=3, window=1,
            fault_injector=injector,
        ) as plane:
            handles = [
                plane.submit(images[i : i + 1], deployment="dep0")
                for i in range(3)
            ]
            plane.pump(flush=True)  # every worker waits on one flight
            assert plane.scale_to(1) == 1  # two markers queue behind them
            assert plane.scale_to(3) == 3
            release.set()
            assert sorted(plane.drain()) == sorted(handles)
            assert plane.alive_workers == 3
            assert len(plane.deployment("dep0").channels) == 3

    def test_autoscaler_grows_under_backlog_and_decays_when_idle(
        self, bundle, collections
    ):
        clock = _StepClock()
        plane = ControlPlane(workers=1, max_workers=3, clock=clock)
        plane.register(
            "dep0",
            bundle.model,
            bundle.model.last_conv_cut(),
            noise=_noise_for(collections, 0),
            rng=np.random.default_rng(100),
            batch_window=2,
            batch_timeout=0.0,
        )
        with plane:
            scaler = plane.enable_autoscale(
                min_workers=1, max_workers=3,
                interval_seconds=0.05, scale_down_idle_steps=2,
            )
            assert plane.autoscaler is scaler
            handles = [
                plane.submit(bundle.test_set.images[i : i + 1],
                             deployment="dep0")
                for i in range(12)
            ]
            plane.pump()  # backlog of 6 windows: the pool grows
            assert plane.alive_workers == 2
            assert scaler.decisions
            assert scaler.decisions[0].previous == 1
            assert scaler.decisions[0].target == 2
            plane.drain()
            for handle in handles:
                assert plane.result(handle).shape == (1, 10)
            # Idle now: after scale_down_idle_steps quiet control steps
            # the pool decays back to min_workers.
            for _ in range(8):
                clock.advance(0.1)
                plane.pump()
            assert plane.alive_workers == 1
            assert any(d.target < d.previous for d in scaler.decisions)
            assert max(plane.pool_metrics.pool_size_samples) >= 2

    def test_close_releases_every_context_even_after_crashes(
        self, bundle, collections
    ):
        """Regression for the PR-5 leak: ``close()`` must leave no
        executor or channel in *any* worker ever spawned — including one
        killed by a crash."""
        injector = _one_shot_fault("dep0", 0)
        plane = _make_plane(
            bundle, collections, n_deployments=1, workers=2,
            fault_injector=injector,
        )
        workers = list(plane._workers.values())  # the crashed one too
        plane.submit(bundle.test_set.images[:1], deployment="dep0")
        plane.drain()
        assert len(injector.crashed) == 1
        plane.close()
        assert len(workers) == 2
        for worker in workers:
            assert worker.servers == {}
            assert worker.channels == {}
        assert plane.alive_workers == 0

    def test_pool_threads_stop_on_close_and_on_collection(
        self, bundle, collections
    ):
        """Pool threads exit when the plane closes, and when a plane
        nobody closed is garbage-collected (they hold it weakly)."""
        closed = _make_plane(bundle, collections, n_deployments=1, workers=2)
        abandoned = _make_plane(
            bundle, collections, n_deployments=1, workers=2
        )
        for plane in (closed, abandoned):
            plane.submit(bundle.test_set.images[:1], deployment="dep0")
            plane.drain()
        threads = list(closed._threads) + list(abandoned._threads)
        assert len(threads) == 4
        assert all(thread.is_alive() for thread in threads)
        closed.close()
        del closed, abandoned, plane
        gc.collect()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
