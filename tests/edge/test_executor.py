"""Batch-invariance and oracle tests for the serving forward executor.

The serving runtime's parity guarantee rests on one property: the
executor's result for a row is a pure function of that row, independent of
how many other rows share the batch.  These tests enforce it bitwise for
all four backbones and every layer type they use, and tie both halves of
every split, on both backends, to the model the noise is trained against:
the eval-mode ``repro.nn`` forward with trained (randomised) BatchNorm
statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.edge import BatchInvariantExecutor, _fastexec, ir
from repro.models import build_model
from repro.nn import Linear, Sequential, Tanh, Tensor, no_grad
from tests.helpers import randomise_batch_norms

#: The IR's f32 tolerance (native and numpy both straddle the f64 result).
ATOL, RTOL = 2e-4, 2e-4


def _random_batch(model, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, *model.input_shape)).astype(np.float32)


@pytest.mark.parametrize("name", ["lenet", "svhn", "cifar", "alexnet"])
class TestBatchInvariance:
    def test_singles_match_stacked(self, name):
        model = build_model(name, np.random.default_rng(0), width=0.5).eval()
        executor = BatchInvariantExecutor(model.net)
        batch = _random_batch(model, 6)
        stacked = executor(batch)
        singles = np.concatenate([executor(batch[i : i + 1]) for i in range(6)])
        np.testing.assert_array_equal(stacked, singles)

    def test_uneven_chunks_match_stacked(self, name):
        model = build_model(name, np.random.default_rng(0), width=0.5).eval()
        executor = BatchInvariantExecutor(model.net)
        batch = _random_batch(model, 7, seed=3)
        stacked = executor(batch)
        chunked = np.concatenate(
            [executor(batch[s]) for s in (slice(0, 3), slice(3, 4), slice(4, 7))]
        )
        np.testing.assert_array_equal(stacked, chunked)

    def test_close_to_training_path_forward(self, name):
        model = build_model(name, np.random.default_rng(0), width=0.5).eval()
        executor = BatchInvariantExecutor(model.net)
        batch = _random_batch(model, 4, seed=5)
        with no_grad():
            plain = model.net(Tensor(batch)).numpy()
        np.testing.assert_allclose(executor(batch), plain, atol=1e-5, rtol=1e-5)


@pytest.fixture(scope="module", params=["lenet", "svhn", "cifar", "alexnet"])
def trained_model(request):
    """A backbone whose BatchNorms carry non-trivial trained statistics."""
    rng = np.random.default_rng(17)
    model = build_model(request.param, rng, width=0.5).eval()
    randomise_batch_norms(model.net, rng)
    return model


_BACKENDS = ["numpy"] + (["native"] if _fastexec.available() else [])


class TestTrainedStatisticsOracle:
    """Every split half, on both backends and with the rewrite pipeline
    on and off, runs as IR segments only and matches the eval-mode
    ``repro.nn`` forward of the same half within the IR tolerance."""

    @pytest.mark.parametrize("backend", _BACKENDS)
    @pytest.mark.parametrize("rewrites", [ir.ALL_REWRITES, ()], ids=["rewrites", "canonical"])
    def test_halves_match_training_path_forward(self, trained_model, backend, rewrites):
        x = _random_batch(trained_model, 4, seed=7)
        for cut in trained_model.cut_names():
            local, remote = trained_model.split(cut)
            with no_grad():
                # The tape keeps float32 through BN and LRN, so the cloud
                # half is served the activation exactly as computed.
                activation = local(Tensor(x)).numpy()
                logits = remote(Tensor(activation)).numpy()
            assert activation.dtype == logits.dtype == np.float32
            for half, inputs, expected in (
                (local, x, activation),
                (remote, activation, logits),
            ):
                executor = BatchInvariantExecutor(half, backend, ir_rewrites=rewrites)
                assert {kind for kind, _ in executor._segments} <= {"ir"}, cut
                out = executor(inputs)
                np.testing.assert_allclose(out, expected, atol=ATOL, rtol=RTOL)
                singles = np.concatenate(
                    [executor(inputs[i : i + 1]) for i in range(len(inputs))]
                )
                np.testing.assert_array_equal(out, singles)


class TestInPlaceStatisticsUpdate:
    """The process-global lowering cache keys what a program copies at
    lowering by content (BatchNorm constants, and int8 weight codes'
    source weights): an executor built after an in-place update serves the
    new values, and the new program takes over the old one's slot."""

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_new_executor_sees_updated_statistics(self, backend):
        rng = np.random.default_rng(23)
        model = build_model("cifar", rng, width=0.5).eval()
        randomise_batch_norms(model.net, rng)
        local, _ = model.split(model.last_conv_cut())
        x = _random_batch(model, 3, seed=29)

        def train_forward():
            model.train()
            with no_grad():
                local(Tensor(2.0 * x + 1.0))
            model.eval()

        def load_statistics():
            state = model.state_dict()
            model.load_state_dict({
                name: array + 0.5 if name.endswith("running_mean") else array
                for name, array in state.items()
            })

        def served():
            out = BatchInvariantExecutor(local, backend)(x)
            with no_grad():
                expected = local(Tensor(x)).numpy()
            np.testing.assert_allclose(out, expected, atol=ATOL, rtol=RTOL)
            return out

        ir.lower_cache_clear()
        previous = served()
        size = ir.lower_cache_info()["size"]
        for update in (train_forward, load_statistics, train_forward):
            update()
            out = served()
            assert ir.lower_cache_info()["size"] == size
            # Each update moves the output, so a stale program would show.
            assert np.abs(out - previous).max() > 100 * ATOL
            previous = out

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_new_executor_sees_updated_int8_weights(self, backend):
        rng = np.random.default_rng(31)
        model = build_model("lenet", rng, width=0.5).eval()
        cut = model.last_conv_cut()
        _, remote = model.split(cut)
        x = rng.normal(size=(5, *model.activation_shape(cut)[1:])).astype(np.float32)
        linear = next(layer for layer in remote.layers() if isinstance(layer, Linear))

        def served():
            return BatchInvariantExecutor(remote, backend, weight_bits=8)(x)

        ir.lower_cache_clear()
        previous = served()
        size = ir.lower_cache_info()["size"]
        linear.weight.data *= 1.5
        out = served()
        assert ir.lower_cache_info()["size"] == size
        assert np.abs(out - previous).max() > 100 * ATOL
        # A fresh lowering of the updated module serves the same bits.
        ir.lower_cache_clear()
        np.testing.assert_array_equal(out, served())


class TestExecutorSafety:
    def test_results_survive_later_calls(self, lenet_bundle):
        """Outputs must not alias reused scratch buffers."""
        executor = BatchInvariantExecutor(lenet_bundle.model.net.slice(0, 4))
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 1, 28, 28)).astype(np.float32)
        b = rng.normal(size=(2, 1, 28, 28)).astype(np.float32)
        first = executor(a)
        snapshot = first.copy()
        executor(b)
        np.testing.assert_array_equal(first, snapshot)

    def test_unknown_layer_falls_back_to_module(self):
        rng = np.random.default_rng(0)
        net = Sequential(
            ("fc", Linear(5, 4, rng=rng)),
            ("tanh", Tanh()),  # no fast kernel registered
        ).eval()
        executor = BatchInvariantExecutor(net)
        x = rng.normal(size=(3, 5)).astype(np.float32)
        with no_grad():
            expected = net(Tensor(x)).numpy()
        np.testing.assert_allclose(executor(x), expected, atol=1e-6)
