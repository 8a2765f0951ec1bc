"""Batched serving tests: the parity contract and accounting.

The acceptance property of the serving runtime: on the same request stream
with identically seeded noise generators, a one-deployment control plane
serving greedy FIFO windows produces **bit-identical** logits to the
retained sequential reference path — regardless of batching window or
mixed request sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import NoiseCollection, ShredderPipeline, SplitInferenceModel
from repro.edge import (
    Channel,
    CloudServer,
    InferenceSession,
    calibrate,
    dequantize,
    quantize,
)
from repro.errors import ConfigurationError
from repro.serve import ControlPlane

@pytest.fixture
def planes():
    """The planes a test builds, closed after it."""
    built: list[ControlPlane] = []
    yield built
    for plane in built:
        plane.close()


@pytest.fixture(scope="module")
def collection(lenet_module_bundle):
    split = SplitInferenceModel(lenet_module_bundle.model)
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
def lenet_module_bundle():
    from repro.config import TINY, Config
    from repro.models import get_pretrained

    return get_pretrained("lenet", Config(scale=TINY))


def _batched(
    planes, bundle, collection=None, seed=11, window=4, channel=None,
    cut=None, **register,
):
    """A one-deployment plane serving greedy FIFO windows (fixed window,
    no batching wait)."""
    plane = ControlPlane(channel=channel)
    planes.append(plane)
    plane.register(
        "lenet", bundle.model, cut or bundle.model.last_conv_cut(),
        noise=collection, rng=np.random.default_rng(seed),
        batch_window=window, batch_timeout=0.0, deadline_aware=False,
        **register,
    )
    return plane


def _sessions(
    planes, bundle, collection, seed=11, window=4, quantization=None,
    shuffle=False, shuffle_seed=None, cut=None, weight_bits=None,
):
    cut = cut or bundle.model.last_conv_cut()
    mean = np.zeros(1, dtype=np.float32)
    std = np.ones(1, dtype=np.float32)
    sequential = InferenceSession(
        bundle.model, cut, mean, std, noise=collection,
        rng=np.random.default_rng(seed), weight_bits=weight_bits,
    )
    batched = _batched(
        planes, bundle, collection, seed=seed, window=window, cut=cut,
        quantization=quantization, shuffle=shuffle, shuffle_seed=shuffle_seed,
        weight_bits=weight_bits,
    )
    return sequential, batched


def _single_image_stream(bundle, n):
    images = bundle.test_set.images
    return [images[i % len(images)][None] for i in range(n)]


class TestBitwiseParity:
    def test_single_image_stream(
        self, lenet_module_bundle, collection, planes
    ):
        sequential, batched = _sessions(planes, lenet_module_bundle, collection)
        stream = _single_image_stream(lenet_module_bundle, 13)
        expected = [sequential.infer(images) for images in stream]
        actual = batched.infer_stream(stream)
        assert len(actual) == len(expected)
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    def test_mixed_request_sizes(
        self, lenet_module_bundle, collection, planes
    ):
        sequential, batched = _sessions(
            planes, lenet_module_bundle, collection, window=3
        )
        images = lenet_module_bundle.test_set.images
        sizes = [1, 3, 2, 1, 5, 1, 2]
        stream, start = [], 0
        for size in sizes:
            stream.append(images[start : start + size])
            start += size
        expected = [sequential.infer(batch) for batch in stream]
        actual = batched.infer_stream(stream)
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("window", [1, 2, 8, 64])
    def test_any_window_is_equivalent(
        self, lenet_module_bundle, collection, window, planes
    ):
        sequential, batched = _sessions(
            planes, lenet_module_bundle, collection, window=window
        )
        stream = _single_image_stream(lenet_module_bundle, 9)
        expected = np.concatenate([sequential.infer(x) for x in stream])
        actual = np.concatenate(batched.infer_stream(stream))
        np.testing.assert_array_equal(expected, actual)

    def test_classify_stream_labels_identical(
        self, lenet_module_bundle, collection, planes
    ):
        sequential, batched = _sessions(planes, lenet_module_bundle, collection)
        stream = _single_image_stream(lenet_module_bundle, 10)
        expected = np.concatenate([sequential.classify(x) for x in stream])
        actual = np.concatenate(batched.classify_stream(stream))
        np.testing.assert_array_equal(expected, actual)

    def test_no_noise_baseline_parity(self, lenet_module_bundle, planes):
        cut = lenet_module_bundle.model.last_conv_cut()
        mean, std = np.zeros(1, np.float32), np.ones(1, np.float32)
        sequential = InferenceSession(lenet_module_bundle.model, cut, mean, std)
        batched = _batched(planes, lenet_module_bundle, seed=0)
        stream = _single_image_stream(lenet_module_bundle, 6)
        expected = [sequential.infer(x) for x in stream]
        actual = batched.infer_stream(stream)
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)


class TestShuffledParity:
    """The shuffling contract: permute → compute → unpermute is bit-exact.

    The shuffler permutes each closed micro-batch's rows *after* noise and
    quantisation (both row-local), and the executor is row-invariant, so
    a shuffle-on session must stay bit-identical to the sequential
    reference on every stream — that identity is what lets the privacy
    stage ride along for free.
    """

    @pytest.mark.parametrize("window", [2, 4, 8])
    def test_shuffled_stream_is_bit_identical(
        self, lenet_module_bundle, collection, window, planes
    ):
        sequential, batched = _sessions(
            planes, lenet_module_bundle, collection, window=window, shuffle=True
        )
        stream = _single_image_stream(lenet_module_bundle, 13)
        expected = [sequential.infer(x) for x in stream]
        actual = batched.infer_stream(stream)
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)
        assert batched.deployment().metrics.shuffled_batches > 0

    def test_shuffled_mixed_request_sizes(
        self, lenet_module_bundle, collection, planes
    ):
        sequential, batched = _sessions(
            planes, lenet_module_bundle, collection, window=3, shuffle=True,
            shuffle_seed=17,
        )
        images = lenet_module_bundle.test_set.images
        sizes = [1, 3, 2, 1, 5, 1, 2]
        stream, start = [], 0
        for size in sizes:
            stream.append(images[start : start + size])
            start += size
        expected = [sequential.infer(batch) for batch in stream]
        actual = batched.infer_stream(stream)
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    def test_shuffled_quantized_matches_unshuffled_quantized(
        self, lenet_module_bundle, collection, planes
    ):
        """Shuffling after quantisation must not move a single wire bit's
        worth of result: quantised shuffle-on == quantised shuffle-off."""
        split = SplitInferenceModel(lenet_module_bundle.model)
        activations = split.activations(lenet_module_bundle.test_set.images[:32])
        params = calibrate(activations, bits=8)
        _, plain = _sessions(
            planes, lenet_module_bundle, collection, quantization=params
        )
        _, shuffled = _sessions(
            planes, lenet_module_bundle, collection, quantization=params,
            shuffle=True,
        )
        stream = _single_image_stream(lenet_module_bundle, 9)
        expected = plain.infer_stream(stream)
        actual = shuffled.infer_stream(stream)
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    def test_seeded_policy_is_deterministic(
        self, lenet_module_bundle, collection, planes
    ):
        from repro.serve import Shuffler

        _, first_plane = _sessions(
            planes, lenet_module_bundle, collection, shuffle=True, shuffle_seed=5
        )
        _, second_plane = _sessions(
            planes, lenet_module_bundle, collection, shuffle=True, shuffle_seed=5
        )
        first, second = first_plane.deployment(), second_plane.deployment()
        assert isinstance(first.shuffler, Shuffler)
        stream = _single_image_stream(lenet_module_bundle, 8)
        a = first_plane.infer_stream(stream)
        b = second_plane.infer_stream(stream)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        # Identically-seeded shufflers drew identical permutations.
        assert first.shuffler.batches == second.shuffler.batches
        assert first.metrics.anonymity_sets == second.metrics.anonymity_sets

    def test_single_request_batches_skip_the_permutation(
        self, lenet_module_bundle, collection, planes
    ):
        _, batched = _sessions(
            planes, lenet_module_bundle, collection, window=1, shuffle=True
        )
        batched.infer_stream(_single_image_stream(lenet_module_bundle, 4))
        batched = batched.deployment()
        # <2-row frames cannot mix; nothing is recorded as shuffled...
        assert batched.metrics.shuffled_batches == 0
        # ...but the policy counter still advanced once per batch, so a
        # later multi-row batch draws from a stable stream position.
        assert batched.shuffler.batches == 4


class TestQuantizedServing:
    @pytest.mark.parametrize("cut, weight_bits", [(None, None), ("conv0", 8)])
    def test_quantized_matches_per_request_quantization(
        self, lenet_module_bundle, collection, planes, cut, weight_bits
    ):
        """Stacked-once quantisation == per-request quantisation (it is an
        elementwise map, and the server's quantised-ingest path is batch
        invariant), so the quantised plane must equal a hand-built
        per-request quantise/ingest reference **bitwise** — and stay
        f32-close to a dequantise-then-run reference (the int8-ingest IR
        rewrite folds the affine map into the first GEMM's epilogue, which
        reassociates the float math).  At cut ``conv0`` with int8 weights
        the cloud half starts with a conv, so the plane runs the fully
        integer conv on the 8-bit uplink."""
        from repro.edge.protocol import BatchActivationMessage

        split = SplitInferenceModel(lenet_module_bundle.model, cut)
        if cut is not None:
            rng = np.random.default_rng(6)
            collection = NoiseCollection(split.activation_shape)
            for _ in range(4):
                collection.add(
                    rng.laplace(0, 0.05, size=split.activation_shape).astype(
                        np.float32
                    ),
                    accuracy=0.8,
                    in_vivo_privacy=0.1,
                )
        activations = split.activations(lenet_module_bundle.test_set.images[:32])
        params = calibrate(activations, bits=8)
        sequential, batched = _sessions(
            planes, lenet_module_bundle, collection, quantization=params,
            cut=cut, weight_bits=weight_bits,
        )
        stream = _single_image_stream(lenet_module_bundle, 7)
        deployment = batched.deployment()
        server = CloudServer(
            deployment.remote, batched.kernel_backend, weight_bits=weight_bits
        )
        # Reference: run the sequential device, quantise each request's
        # activation as its own single-request frame, and push the codes
        # through the quantised server path one request at a time.
        expected = []
        dequant_reference = []
        for images in stream:
            message = sequential.device.process(images)
            codes = quantize(message.tensor, params)
            if params.bits <= 8:
                codes = codes.astype(np.uint8)
            frame = BatchActivationMessage(
                request_ids=(message.request_id,),
                splits=(len(images),),
                tensor=codes,
                quantization=params,
            )
            expected.append(server.predict_batch(frame).logits)
            dequant_reference.append(
                sequential.server.handle(
                    type(message)(
                        request_id=message.request_id,
                        tensor=dequantize(codes, params),
                    )
                ).logits
            )
        actual = batched.infer_stream(stream)
        for a, b, c in zip(expected, actual, dequant_reference):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_allclose(b, c, atol=2e-4, rtol=2e-4)

    def test_quantized_uplink_smaller(
        self, lenet_module_bundle, collection, planes
    ):
        split = SplitInferenceModel(lenet_module_bundle.model)
        activations = split.activations(lenet_module_bundle.test_set.images[:32])
        params = calibrate(activations, bits=8)
        _, float_session = _sessions(planes, lenet_module_bundle, collection)
        _, quant_session = _sessions(
            planes, lenet_module_bundle, collection, quantization=params
        )
        stream = _single_image_stream(lenet_module_bundle, 8)
        float_session.infer_stream(stream)
        quant_session.infer_stream(stream)
        assert (
            quant_session.deployment().metrics.uplink_bytes
            < 0.5 * float_session.deployment().metrics.uplink_bytes
        )


class TestSessionMechanics:
    def test_metrics_accounting(self, lenet_module_bundle, collection, planes):
        _, batched = _sessions(planes, lenet_module_bundle, collection, window=4)
        stream = _single_image_stream(lenet_module_bundle, 10)
        batched.infer_stream(stream)
        metrics = batched.deployment().metrics
        assert metrics.requests == 10
        assert metrics.samples == 10
        assert metrics.micro_batches == 3
        assert metrics.occupancies == [4, 4, 2]
        assert metrics.uplink_bytes > 0 and metrics.downlink_bytes > 0
        assert metrics.wall_seconds > 0
        assert metrics.simulated_wire_seconds > 0
        assert len(metrics.latencies) == 10
        assert metrics.latency_percentile(99) >= metrics.latency_percentile(50) > 0
        assert metrics.requests_per_second > 0
        report = batched.report_for()
        assert report.requests == 10
        assert report.uplink_bytes == metrics.uplink_bytes
        as_dict = metrics.as_dict()
        assert as_dict["mean_occupancy"] == pytest.approx(10 / 3)
        assert "latency_p99_ms" in metrics.format() or metrics.format()

    def test_submit_step_result_lifecycle(
        self, lenet_module_bundle, collection, planes
    ):
        _, batched = _sessions(planes, lenet_module_bundle, collection, window=8)
        images = lenet_module_bundle.test_set.images
        first = batched.submit(images[0])
        second = batched.submit(images[1:3])
        assert batched.pending == 2
        completed = batched.drain()
        assert completed == [first, second]
        assert batched.pending == 0
        assert batched.result(first).shape == (1, 10)
        assert batched.result(second).shape == (2, 10)
        with pytest.raises(ConfigurationError):
            batched.result(first)  # already collected
        assert batched.drain() == []  # empty queue is a no-op

    def test_lossy_channel_still_delivers(
        self, lenet_module_bundle, collection, planes
    ):
        batched = _batched(
            planes, lenet_module_bundle, collection, seed=0,
            channel=Channel(
                drop_rate=0.3, max_retries=20, rng=np.random.default_rng(1)
            ),
        )
        logits = batched.infer_stream(_single_image_stream(lenet_module_bundle, 6))
        assert np.concatenate(logits).shape == (6, 10)


class TestPipelineDeploy:
    def test_deploy_parity_and_defaults(self, lenet_module_bundle, planes):
        from repro.config import TINY, Config

        pipeline = ShredderPipeline(lenet_module_bundle, config=Config(scale=TINY))
        collection = pipeline.collect(2, iterations=10)
        batched = pipeline.deploy(collection, batch_window=4)
        planes.append(batched)
        sequential = pipeline.deploy(collection, batched=False)
        assert isinstance(batched, ControlPlane)
        assert isinstance(sequential, InferenceSession)
        stream = _single_image_stream(lenet_module_bundle, 6)
        expected = [sequential.infer(x) for x in stream]
        actual = batched.infer_stream(stream)
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a, b)

    def test_deploy_quantized(self, lenet_module_bundle, planes):
        from repro.config import TINY, Config

        pipeline = ShredderPipeline(lenet_module_bundle, config=Config(scale=TINY))
        collection = pipeline.collect(2, iterations=10)
        session = pipeline.deploy(collection, quantize_bits=8)
        planes.append(session)
        assert session.deployment().device.quantization is not None
        labels = session.classify_stream(_single_image_stream(lenet_module_bundle, 5))
        assert np.concatenate(labels).shape == (5,)
        with pytest.raises(ConfigurationError):
            pipeline.deploy(collection, batched=False, quantize_bits=8)
