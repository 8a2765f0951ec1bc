"""Bit-parity and fault tests for the process-sharded serving plane (PR 7).

The sharding contract (ROADMAP item 3): requests route to shard
subprocesses by deterministic session hashing, and every shard is
**bit-identical** to its own sequential
:class:`~repro.edge.InferenceSession` reference — the per-shard noise
stream seeded by :func:`~repro.serve.shard.shard_seed` — run over exactly
the subsequence of requests routed to it.  On top of parity:

* per-session ordering (results of one session deliver in submit order),
* spawn-safety (the :class:`~repro.serve.shard.ShardSpec` crossing the
  process boundary is plain data; ``spawn`` works, not just ``fork``),
* exactly-once healing: SIGKILL a shard mid-stream and the respawned
  shard replays its admitted log, duplicates discarded, parity intact
  (heavier leg behind ``REPRO_SERVE_FAULT=1``, mirroring the PR 5/6
  fault-matrix convention).

Env knobs (the CI serve-stress matrix): ``REPRO_SERVE_SEED`` adds a
stream seed, ``REPRO_SERVE_SHARDS`` adds a shard count,
``REPRO_SERVE_FAULT=1`` enables the kill legs.
"""

import dataclasses
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.config import TINY, Config
from repro.core import NoiseCollection, ShredderPipeline, SplitInferenceModel
from repro.edge import Channel
from repro.edge.costs import cut_cost
from repro.edge.quantization import QuantizationParams
from repro.errors import ConfigurationError
from repro.serve import (
    ControlPlane,
    DeploymentSpec,
    ShardSpec,
    ShardedServingEngine,
    generate_trace,
    route_session,
    shard_seed,
)

_ENV_SEED = os.environ.get("REPRO_SERVE_SEED")
_ENV_SHARDS = int(os.environ.get("REPRO_SERVE_SHARDS") or 0)
_FAULTS = os.environ.get("REPRO_SERVE_FAULT") == "1"
STREAM_SEEDS = [11, 23] + ([1000 + int(_ENV_SEED)] if _ENV_SEED else [])
SHARD_COUNTS = sorted({1, 2, 4} | ({_ENV_SHARDS} if _ENV_SHARDS else set()))


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


@pytest.fixture(scope="module")
def spec(bundle, collection):
    return ShardSpec.capture(
        bundle.model,
        bundle.model.last_conv_cut(),
        mean=np.zeros(1, np.float32),
        std=np.ones(1, np.float32),
        noise=collection,
        base_seed=7,
        workers=1,
        batch_window=4,
        batch_timeout=0.0,
        kernel_backend="numpy",
    )


def _random_stream(bundle, rng, n_requests, n_sessions=6):
    """Mixed-size request batches over a rotating session population."""
    images = bundle.test_set.images
    stream, slos, sessions = [], [], []
    cursor = 0
    for _ in range(n_requests):
        size = int(rng.integers(1, 4))
        stream.append(
            images[cursor % len(images) : cursor % len(images) + 1].repeat(size, axis=0)
        )
        cursor += size
        slos.append([None, 0.050, 0.200][int(rng.integers(0, 3))])
        sessions.append(f"user-{int(rng.integers(0, n_sessions))}")
    return stream, slos, sessions


def _reference_outputs(spec, n_shards, stream, sessions):
    """Per-shard sequential references over each shard's routed subsequence."""
    refs = [spec.reference_session(i, n_shards) for i in range(n_shards)]
    return [
        refs[route_session(session, n_shards)].infer(images)
        for images, session in zip(stream, sessions)
    ]


class TestRouting:
    def test_route_is_deterministic_and_in_range(self):
        for n in (1, 2, 4, 7):
            for sid in ["user-0", "u12345", 42, ("tenant", 3)]:
                first = route_session(sid, n)
                assert 0 <= first < n
                assert all(route_session(sid, n) == first for _ in range(5))

    def test_route_spreads_a_million_user_population(self):
        trace = generate_trace(
            2000, shape="poisson", mean_rate_rps=1e4, seed=0, n_users=1_000_000
        )
        counts = np.bincount(
            [route_session(e.session_id, 4) for e in trace], minlength=4
        )
        assert counts.min() > 0  # no dead shard under heavy-tailed traffic

    def test_shard_seeds_are_distinct_and_stable(self):
        seeds = [shard_seed(7, i) for i in range(8)]
        assert len(set(seeds)) == 8
        assert seeds == [shard_seed(7, i) for i in range(8)]

    def test_bad_shard_count_is_typed(self):
        with pytest.raises(ConfigurationError):
            route_session("u0", 0)

    def test_str_canonicalisation_is_the_contract(self):
        """Routing hashes ``str(session_id)`` — the documented contract.

        The sharded wire header already serialises session ids as strings
        (``_send_batch``), so ids with equal string forms are the *same*
        session on the wire and must route identically; hashing the
        pre-``str()`` value would let the parent and a healed, replaying
        shard disagree about session identity.  Pin the behaviour so a
        refactor cannot silently change where existing populations land.
        """
        import zlib

        for n in (1, 2, 4, 7):
            # Equal string forms route together, whatever the type.
            assert route_session(1, n) == route_session("1", n)
            assert route_session(3.5, n) == route_session("3.5", n)
            assert route_session(None, n) == route_session("None", n)
            # And the hash is exactly CRC32 of that string form.
            for sid in ("user-0", 42, ("tenant", 3)):
                assert route_session(sid, n) == (
                    zlib.crc32(str(sid).encode("utf-8")) % n
                )
        # Frozen sample routes: any change to the canonicalisation or
        # hash would re-home sessions (and their noise streams) on
        # existing deployments.
        assert [route_session(f"user-{i}", 4) for i in range(8)] == [
            route_session(f"user-{i}", 4) for i in range(8)
        ]
        assert route_session("user-0", 4) == zlib.crc32(b"user-0") % 4


def _shuffled_spec(bundle, collection):
    return ShardSpec.capture(
        bundle.model,
        bundle.model.last_conv_cut(),
        mean=np.zeros(1, np.float32),
        std=np.ones(1, np.float32),
        noise=collection,
        base_seed=7,
        batch_window=4,
        batch_timeout=0.0,
        kernel_backend="numpy",
        shuffle=True,
        shuffle_seed=9,
    )


class TestShuffledShardSpec:
    def test_spec_carries_shuffle_and_engine_stays_bit_identical(
        self, bundle, collection
    ):
        """A shuffle-on spec builds a shuffle-on engine, and the engine's
        results are still bit-identical to the shard's sequential
        reference (the shuffling contract, across the spec boundary)."""
        from dataclasses import replace

        spec = replace(_shuffled_spec(bundle, collection))  # dataclass ops work
        assert spec.deployment.shuffle and spec.deployment.shuffle_seed == 9
        stream, _, sessions = _random_stream(
            bundle, np.random.default_rng(13), 8
        )
        expected = _reference_outputs(spec, 1, stream, sessions)
        engine = spec.build_engine(0)
        try:
            ids = [
                engine.submit(images, session_id=session)
                for images, session in zip(stream, sessions)
            ]
            engine.drain()
            actual = [engine.result(request_id) for request_id in ids]
            assert engine.deployment().metrics.shuffled_batches > 0
        finally:
            engine.close()
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    def test_each_shard_shuffles_with_its_own_seed(self, bundle, collection):
        """Shard i's shuffler is seeded ``shard_seed(shuffle_seed, i)``,
        the derivation the shuffling contract and ``tap_wire_batches``
        use, and each shard stays bit-identical to its own reference."""
        spec = _shuffled_spec(bundle, collection)
        stream, _, sessions = _random_stream(
            bundle, np.random.default_rng(13), 8
        )
        expected = _reference_outputs(spec, 2, stream, sessions)
        for shard, seed in enumerate([3225285948, 3933992529]):
            assert seed == shard_seed(9, shard)
            routed = [
                i for i, session in enumerate(sessions)
                if route_session(session, 2) == shard
            ]
            assert routed
            engine = spec.build_engine(shard)
            try:
                assert engine.deployment().shuffler.seed == seed
                handles = [
                    engine.submit(stream[i], session_id=sessions[i])
                    for i in routed
                ]
                engine.drain()
                for i, handle in zip(routed, handles):
                    np.testing.assert_array_equal(
                        engine.result(handle), expected[i]
                    )
            finally:
                engine.close()


class TestSpawnSafety:
    def test_spec_is_plain_data_and_pickles(self, spec):
        blob = pickle.dumps(spec)
        clone = pickle.loads(blob)
        assert clone.model_name == spec.model_name
        assert clone.cut == spec.cut
        np.testing.assert_array_equal(
            clone.noise_tensors, spec.noise_tensors
        )
        for value in vars(clone).values():
            assert not callable(getattr(value, "transmit", None))  # no Channel
            assert not hasattr(value, "acquire") or isinstance(value, dict)

    def test_spec_rejects_live_channel(self, bundle, collection):
        with pytest.raises(ConfigurationError, match="plain data|dict"):
            ShardSpec.capture(
                bundle.model,
                bundle.model.last_conv_cut(),
                mean=np.zeros(1, np.float32),
                std=np.ones(1, np.float32),
                noise=collection,
                channel=Channel(),  # live object, not kwargs
            )

    def test_spawn_start_method_regression(self, bundle, spec):
        # `spawn` inherits nothing from the parent address space: the
        # spec alone must be enough to rebuild a bit-identical engine.
        stream, slos, sessions = _random_stream(
            bundle, np.random.default_rng(29), 6
        )
        with ShardedServingEngine(spec, shards=2, start_method="spawn") as engine:
            actual = engine.infer_stream(
                stream, slo_seconds=slos, session_ids=sessions
            )
        expected = _reference_outputs(spec, 2, stream, sessions)
        for a, b in zip(actual, expected):
            np.testing.assert_array_equal(a, b)


def _field_values(bundle, collection):
    """One non-default value for every :class:`DeploymentSpec` field."""
    from repro.models import build_model

    wider = build_model("lenet", np.random.default_rng(3), width=2.0)
    return {
        "noise": collection,
        "model": wider,
        "cut": bundle.model.cut_names()[0],
        "mean": np.full(1, 0.25, np.float32),
        "std": np.full(1, 2.0, np.float32),
        "rng": np.random.default_rng(5),
        "quantize_bits": 8,
        "quantization": QuantizationParams(scale=0.05, zero_point=128, bits=8),
        "weight_bits": 8,
        "channel": Channel(latency_ms=1.0),
        "batch_window": 3,
        "max_rows": 5,
        "batch_timeout": 0.0,
        "deadline_aware": False,
        "isolate_sessions": True,
        "target_slo_seconds": 0.25,
        "arrival_rate_rps": 100.0,
        "service_seconds_per_sample": 1e-4,
        "max_pending": 3,
        "admission_rate_rps": 50.0,
        "admission_burst": 4.0,
        "shed_unmeetable": True,
        "shuffle": True,
        "shuffle_seed": 9,
    }


def _member_tensors(noise):
    return np.stack([sample.tensor for sample in noise.samples])


#: How a plane deployment (registered directly, or rebuilt in a shard)
#: shows each field it honours.
_DEPLOYMENT_PROBES = {
    "noise": lambda d, v: np.array_equal(
        _member_tensors(d.device.noise), _member_tensors(v)
    ),
    "mean": lambda d, v: np.array_equal(d.device.mean, v),
    "std": lambda d, v: np.array_equal(d.device.std, v),
    "rng": lambda d, v: d.noise_stream.acquire() is v,
    "quantization": lambda d, v: d.device.quantization == v,
    "weight_bits": lambda d, v: d.device._executor.weight_bits == v,
    "channel": lambda d, v: all(c.latency_ms == v.latency_ms for c in d.channels),
    "batch_window": lambda d, v: d.batch_window == d.batcher.batch_window == v,
    "max_rows": lambda d, v: d.batcher.max_rows == v,
    "batch_timeout": lambda d, v: d.batcher.batch_timeout == v,
    "deadline_aware": lambda d, v: d.batcher.deadline_aware == v,
    "isolate_sessions": lambda d, v: d.batcher.isolate_sessions == v,
    "target_slo_seconds": lambda d, v: d.spec.target_slo_seconds == v,
    "max_pending": lambda d, v: d.admission.max_pending == v,
    "admission_rate_rps": lambda d, v: d.admission.bucket.rate_rps == v,
    "shed_unmeetable": lambda d, v: d.admission.shed_unmeetable == v,
    "shuffle": lambda d, v: (d.shuffler is not None) == v,
}

#: How the sequential reference (``deploy(batched=False)``) shows them.
_SESSION_PROBES = {
    "noise": lambda s, v: s.device.noise is v,
    "model": lambda s, v: s.report().edge_kilomacs_per_sample
    == cut_cost(v, s.cut).kilomacs,
    "cut": lambda s, v: s.cut == v,
    "mean": lambda s, v: np.array_equal(s.device.mean, v),
    "std": lambda s, v: np.array_equal(s.device.std, v),
    "rng": lambda s, v: s.device.noise_stream.acquire() is v,
    "weight_bits": lambda s, v: s.device._executor.weight_bits
    == s.server._executor.weight_bits == v,
    "channel": lambda s, v: s.channel is v,
}


class TestDeclaredOnce:
    """Every :class:`DeploymentSpec` field reaches each entry point that
    takes a spec: the built deployment reflects the value, or the call
    raises a :class:`ConfigurationError` naming the field.  A new field
    fails here until it has a value below and each entry point honours
    or refuses it."""

    FIELDS = [spec_field.name for spec_field in dataclasses.fields(DeploymentSpec)]

    @staticmethod
    def _honoured_or_refused(build, probes, name, value):
        try:
            built = build()
        except ConfigurationError as error:
            assert str(error).split()[0] == name, (
                f"refusal does not name {name}: {error}"
            )
            return
        assert name in probes, f"{name} was neither honoured nor refused"
        assert probes[name](built, value), f"{name} was dropped"

    @pytest.mark.parametrize("name", FIELDS)
    def test_register(self, bundle, collection, name):
        value = _field_values(bundle, collection)[name]
        with ControlPlane(kernel_backend="numpy") as plane:
            self._honoured_or_refused(
                lambda: plane.register(
                    "d", bundle.model, bundle.model.last_conv_cut(),
                    **{name: value},
                ),
                _DEPLOYMENT_PROBES,
                name,
                value,
            )

    @pytest.mark.parametrize("name", FIELDS)
    def test_shard_spec(self, bundle, collection, name):
        value = _field_values(bundle, collection)[name]
        planes = []

        def build():
            spec = ShardSpec.capture(
                bundle.model, bundle.model.last_conv_cut(),
                DeploymentSpec(**{name: value}), kernel_backend="numpy",
            )
            planes.append(spec.build_engine(0))
            return planes[0].deployment()

        try:
            self._honoured_or_refused(build, _DEPLOYMENT_PROBES, name, value)
        finally:
            for plane in planes:
                plane.close()

    @pytest.mark.parametrize("name", FIELDS)
    def test_sequential_deploy(self, bundle, collection, name):
        value = _field_values(bundle, collection)[name]
        pipeline = ShredderPipeline(bundle, config=Config(scale=TINY))
        self._honoured_or_refused(
            lambda: pipeline.deploy(
                batched=False, kernel_backend="numpy", **{name: value}
            ),
            _SESSION_PROBES,
            name,
            value,
        )


class TestShardedParity:
    @pytest.mark.parametrize("stream_seed", STREAM_SEEDS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_randomized_stream_matches_per_shard_references(
        self, bundle, spec, stream_seed, n_shards
    ):
        stream, slos, sessions = _random_stream(
            bundle, np.random.default_rng(stream_seed), 12
        )
        with ShardedServingEngine(
            spec, shards=n_shards, start_method="fork"
        ) as engine:
            actual = engine.infer_stream(
                stream, slo_seconds=slos, session_ids=sessions
            )
        expected = _reference_outputs(spec, n_shards, stream, sessions)
        assert len(actual) == len(expected)
        for a, b in zip(actual, expected):
            np.testing.assert_array_equal(a, b)

    def test_trace_driven_stream_from_loadgen(self, bundle, spec):
        # The million-user trace harness drives the sharded plane the
        # same way the bench does: ids from a Zipf population, rows from
        # the trace, everything reproducible from the seed.
        trace = generate_trace(
            16,
            shape="bursty",
            mean_rate_rps=500.0,
            seed=4,
            n_users=1_000_000,
            rows_choices=(1, 2),
        )
        images = bundle.test_set.images
        stream = [
            images[i % len(images) : i % len(images) + 1].repeat(e.rows, axis=0)
            for i, e in enumerate(trace)
        ]
        sessions = [e.session_id for e in trace]
        with ShardedServingEngine(spec, shards=2, start_method="fork") as engine:
            actual = engine.infer_stream(stream, session_ids=sessions)
        expected = _reference_outputs(spec, 2, stream, sessions)
        for a, b in zip(actual, expected):
            np.testing.assert_array_equal(a, b)

    def test_per_session_ordering_and_incremental_results(self, bundle, spec):
        stream, _, sessions = _random_stream(bundle, np.random.default_rng(1), 10)
        with ShardedServingEngine(spec, shards=2, start_method="fork") as engine:
            ids = [
                engine.submit(images, session_id=session)
                for images, session in zip(stream, sessions)
            ]
            engine.drain()
            assert engine.outstanding == 0
            actual = [engine.result(request_id) for request_id in ids]
            with pytest.raises(ConfigurationError):
                engine.result(ids[0])  # results are collected exactly once
        expected = _reference_outputs(spec, 2, stream, sessions)
        for a, b in zip(actual, expected):
            np.testing.assert_array_equal(a, b)

    def test_wrong_image_shape_is_refused_at_submit(self, bundle, spec):
        """A malformed request is refused before it is logged or staged:
        it cannot fail its shard's SUBMIT frame and strand the requests
        coalesced with it."""
        images = bundle.test_set.images
        with ShardedServingEngine(
            spec, shards=1, start_method="fork", coalesce=4
        ) as engine:
            first = engine.submit(images[0:1], session_id="s")
            with pytest.raises(ConfigurationError, match="shape"):
                engine.submit(np.zeros((3, 32, 32), np.float32), session_id="s")
            rest = [engine.submit(images[i : i + 1], session_id="s")
                    for i in (1, 2, 3)]
            engine.drain(timeout=60.0)
            assert engine.outstanding == 0
            actual = [engine.result(i) for i in (first, *rest)]
        stream = [images[i : i + 1] for i in range(4)]
        expected = _reference_outputs(spec, 1, stream, ["s"] * 4)
        for a, b in zip(actual, expected):
            np.testing.assert_array_equal(a, b)

    def test_stream_argument_lengths_are_checked(self, bundle, spec):
        """A per-request SLO or session list of the wrong length is
        refused before anything is submitted, as on the plane."""
        images = bundle.test_set.images
        stream = [images[i : i + 1] for i in range(6)]
        with ShardedServingEngine(spec, shards=1, start_method="fork") as engine:
            with pytest.raises(
                ConfigurationError, match="2 session ids for 6 requests"
            ):
                engine.infer_stream(stream, session_ids=["a", "b"])
            with pytest.raises(ConfigurationError, match="3 SLOs for 6 requests"):
                engine.infer_stream(stream, slo_seconds=[0.1, None, 0.2])
            assert engine.outstanding == 0

    def test_merged_metrics_cover_all_shards(self, bundle, spec):
        stream, _, sessions = _random_stream(bundle, np.random.default_rng(2), 8)
        with ShardedServingEngine(spec, shards=2, start_method="fork") as engine:
            engine.infer_stream(stream, session_ids=sessions)
            merged = engine.metrics()
        assert merged.requests == len(stream)
        assert merged.samples == sum(images.shape[0] for images in stream)
        assert len(merged.latencies) == len(stream)
        # Worker tallies are namespaced per shard: (shard, worker) keys.
        assert all(isinstance(key, tuple) for key in merged.worker_batches)


@pytest.mark.skipif(not _FAULTS, reason="set REPRO_SERVE_FAULT=1 to run kill legs")
class TestShardCrashHealing:
    def test_sigkill_mid_stream_preserves_parity_exactly_once(self, bundle, spec):
        stream, _, sessions = _random_stream(bundle, np.random.default_rng(13), 18)
        with ShardedServingEngine(spec, shards=2, start_method="fork") as engine:
            ids = []
            for index, (images, session) in enumerate(zip(stream, sessions)):
                ids.append(engine.submit(images, session_id=session))
                if index == 8:
                    os.kill(engine.shard_pids()[0], signal.SIGKILL)
                    time.sleep(0.05)
            engine.drain()
            actual = [engine.result(request_id) for request_id in ids]
            respawns = engine.respawned_shards
        assert respawns >= 1
        expected = _reference_outputs(spec, 2, stream, sessions)
        for a, b in zip(actual, expected):
            np.testing.assert_array_equal(a, b)

    def test_kill_during_drain_still_delivers_everything(self, bundle, spec):
        stream, _, sessions = _random_stream(bundle, np.random.default_rng(17), 12)
        with ShardedServingEngine(spec, shards=2, start_method="fork") as engine:
            ids = [
                engine.submit(images, session_id=session)
                for images, session in zip(stream, sessions)
            ]
            os.kill(engine.shard_pids()[-1], signal.SIGKILL)
            engine.drain()
            actual = [engine.result(request_id) for request_id in ids]
            assert engine.respawned_shards >= 1
        expected = _reference_outputs(spec, 2, stream, sessions)
        for a, b in zip(actual, expected):
            np.testing.assert_array_equal(a, b)

    def test_auto_heal_off_surfaces_typed_error(self, bundle, spec):
        from repro.errors import ShardCrashError

        stream, _, sessions = _random_stream(bundle, np.random.default_rng(19), 4)
        with ShardedServingEngine(
            spec, shards=2, start_method="fork", auto_heal=False
        ) as engine:
            for images, session in zip(stream, sessions):
                engine.submit(images, session_id=session)
            for pid in engine.shard_pids():
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(ShardCrashError):
                engine.drain(timeout=10.0)
