"""Differential fuzz suite for the compiled serving kernels.

The native executor backend (:mod:`repro.edge._fastexec`) must agree with
the pure-numpy executor to float32 precision on *any* layer geometry, and
must be bitwise batch-invariant and deterministic on its own.  These
tests sweep randomized shapes/strides/paddings/batch geometries through
both backends and compare:

* conv / linear / maxpool networks, element-close across backends
  (float64-referenced tolerance);
* bitwise equality of stacked vs per-request execution under the native
  backend (the serving parity foundation);
* bitwise run-to-run determinism, including across freshly-built
  executors;
* the pure-numpy fallback is always available and selected when the
  native kernels are disabled;
* **per-rewrite axis** (``TestRewriteDifferential``): every IR rewrite
  toggled on/off — including quantised-code inputs and the noise-add
  epilogue, on a net carrying folded and standalone BatchNorm and LRN —
  must be f32-close across backends and across togglings, and bitwise
  batch-invariant / run-to-run deterministic within one backend at a
  fixed toggling;
* the native ``lrn`` record against the numpy op, including bases the
  vectorised power cannot serve (zero, subnormal, huge, NaN);
* **exact arithmetic** (``TestExactConvArithmetic``): on dyadic operands
  every accumulation order is exact, so every native conv path must equal
  a float64 conv bit for bit, under any batch split (fixed cases plus a
  hypothesis property over geometry, pools, epilogues and input dtypes);
* the **portable build** (``TestPortableBuild``): the source compiled
  without ``-march=native`` runs the fixed cases and a backbone half.

Shared-infrastructure checks for :mod:`repro.native` (artifact identity,
``REPRO_KERNEL_DIR``) ride along at the bottom.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.edge import _fastexec, ir
from repro.edge.executor import BatchInvariantExecutor
from repro.edge.quantization import QuantizationParams, calibrate, quantize
from repro.errors import ConfigurationError
from repro.models import build_model
from repro.nn import Linear, Sequential
from repro.nn.im2col import conv_output_size
from repro.nn.layers.activation import ReLU
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.norm import BatchNorm2d, LocalResponseNorm
from repro.nn.layers.pooling import MaxPool2d
from tests.helpers import randomise_batch_norms

requires_kernel = pytest.mark.skipif(
    not _fastexec.available(), reason="no C compiler for the native kernels"
)

#: Tolerance for native-vs-numpy agreement: both are float32 pipelines
#: with different (fixed) accumulation orders, so they straddle the
#: float64 result by a few ulps each.
ATOL, RTOL = 2e-4, 2e-4


def _fuzz_conv_geometry(rng):
    """One random conv (+optional pool) geometry that stays positive."""
    c_in = int(rng.integers(1, 5))
    kh, kw = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    sh, sw = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    ph, pw = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    h = int(rng.integers(max(1, kh - 2 * ph), 20) + kh)
    w = int(rng.integers(max(1, kw - 2 * pw), 40) + kw)
    c_out = int(rng.integers(1, 10))
    return c_in, h, w, c_out, (kh, kw), (sh, sw), (ph, pw)


def _executor_pair(net):
    return (
        BatchInvariantExecutor(net, kernel_backend="native"),
        BatchInvariantExecutor(net, kernel_backend="numpy"),
    )


@requires_kernel
class TestConvFuzz:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_conv_relu_matches_numpy(self, seed):
        rng = np.random.default_rng(seed)
        c_in, h, w, c_out, kernel, stride, padding = _fuzz_conv_geometry(rng)
        net = Sequential(
            ("conv", Conv2d(c_in, c_out, kernel, stride, padding, rng=rng)),
            ("relu", ReLU()),
        ).eval()
        n = int(rng.integers(1, 7))
        x = rng.normal(size=(n, c_in, h, w)).astype(np.float32)
        native_ex, numpy_ex = _executor_pair(net)
        np.testing.assert_allclose(
            native_ex(x), numpy_ex(x), atol=ATOL, rtol=RTOL
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_conv_batch_invariance_bitwise(self, seed):
        """Any split of a batch reproduces the stacked result exactly."""
        rng = np.random.default_rng(100 + seed)
        c_in, h, w, c_out, kernel, stride, padding = _fuzz_conv_geometry(rng)
        net = Sequential(
            ("conv", Conv2d(c_in, c_out, kernel, stride, padding, rng=rng)),
        ).eval()
        executor = BatchInvariantExecutor(net, kernel_backend="native")
        n = int(rng.integers(2, 9))
        x = rng.normal(size=(n, c_in, h, w)).astype(np.float32)
        stacked = executor(x)
        # Random chunking of the same rows.
        cuts = sorted(
            set(rng.integers(1, n, size=min(3, n - 1)).tolist()) | {0, n}
        )
        chunked = np.concatenate(
            [executor(x[a:b]) for a, b in zip(cuts, cuts[1:])]
        )
        np.testing.assert_array_equal(stacked, chunked)

    def test_both_strides_run_the_one_conv_record(self):
        """Stride 1 (ow = 28) and stride 2 (ow = 4) float convs both lower
        to the conv record with f32 weights — the flat-plane kernel, on one
        phase plane or on four — and agree with numpy."""
        rng = np.random.default_rng(0)
        wmode = _fastexec.RECORD_LAYOUT.index("wmode")
        for geometry in (
            dict(h=28, w=28, stride=1, padding=2),
            dict(h=11, w=11, stride=2, padding=0),
        ):
            net = Sequential(
                ("conv", Conv2d(2, 3, 5, geometry["stride"],
                                geometry["padding"], rng=rng)),
            ).eval()
            executor = BatchInvariantExecutor(net, kernel_backend="native")
            x = rng.normal(
                size=(2, 2, geometry["h"], geometry["w"])
            ).astype(np.float32)
            numpy_out = BatchInvariantExecutor(net, kernel_backend="numpy")(x)
            np.testing.assert_allclose(executor(x), numpy_out, atol=ATOL, rtol=RTOL)
            program = next(iter(executor._programs.values()))
            assert program._records[0, 0] == _fastexec.OP_CONV2D
            assert program._records[0, wmode] == 0

    def test_single_position_conv_uses_dot_kernel(self):
        """OH*OW == 1 convs reroute to the lane-blocked dot kernel."""
        rng = np.random.default_rng(3)
        net = Sequential(
            ("conv", Conv2d(8, 60, 5, 1, 0, rng=rng)),
            ("relu", ReLU()),
        ).eval()
        x = rng.normal(size=(5, 8, 5, 5)).astype(np.float32)
        native_ex, numpy_ex = _executor_pair(net)
        assert native_ex(x).shape == (5, 60, 1, 1)
        np.testing.assert_allclose(native_ex(x), numpy_ex(x), atol=ATOL, rtol=RTOL)


#: Fixed cases of the exact-arithmetic property: (c_in, c_out, kernel,
#: stride, padding, h, w, batch, relu, pool, bn, noise, weight_bits,
#: ingest).  Between them they reach every conv path of the native
#: backend (``TestExactConvArithmetic.test_fixed_cases_reach_every_path``).
EXACT_CASES = [
    # Stride 2: odd taps read the second phase plane of each axis.
    (3, 5, (3, 3), 2, 1, 11, 13, 3, True, False, False, False, None, "f32"),
    # Stride 3, a 7-wide kernel, int8 weights on 16-bit codes.
    (2, 9, (7, 7), 3, 3, 9, 20, 5, False, False, True, True, 8, "u16"),
    # A fused pool on 8-bit codes, with BatchNorm and the noise add.
    (4, 6, (3, 3), 1, 1, 9, 17, 4, True, True, True, True, None, "u8"),
    # A fused pool with int8 weights; odd conv rows and columns drop.
    (2, 7, (5, 3), 1, 2, 9, 13, 2, False, True, False, True, 8, "f32"),
    # A 1-wide and a 1-high plane.
    (1, 3, (1, 1), 1, 0, 5, 1, 2, False, False, False, False, None, "f32"),
    (5, 4, (2, 4), 1, 3, 1, 9, 16, True, False, True, False, None, "u8"),
    # Past 128 wide: the pool stays standalone.
    (2, 8, (3, 3), 1, 1, 4, 140, 3, True, True, False, True, None, "f32"),
    # One output position: the dot kernel.
    (3, 4, (3, 3), 1, 0, 3, 3, 2, True, False, False, False, 8, "f32"),
    # Fully integer (int8 weights on 8-bit codes): a partial channel quad
    # with padding and a fused pool after BatchNorm, with the noise add.
    (3, 5, (3, 3), 1, 1, 10, 10, 4, True, True, True, True, 8, "u8"),
    # One full quad at stride 2; a partial quad, padded, at stride 3; two
    # quads plus a partial one; past 128 wide, where the pool stays
    # standalone.
    (4, 6, (3, 3), 2, 0, 11, 13, 3, True, False, False, False, 8, "u8"),
    (5, 3, (4, 4), 3, 1, 13, 17, 2, False, False, True, True, 8, "u8"),
    (9, 5, (3, 3), 1, 2, 7, 9, 3, True, False, False, True, 8, "u8"),
    (2, 4, (3, 3), 1, 1, 3, 150, 2, True, True, False, False, 8, "u8"),
]


def _exact_case(case, seed):
    """The net, input, quantisation, noise and float64 reference output of
    one exact-arithmetic case.

    Every operand is a small dyadic number: weights are int8-range codes
    times 2**-6 with one ±127 per output channel, so ``weight_bits=8``
    recovers them exactly (scale 2**-6); inputs are small integers, or
    codes around a nonzero zero point at scale 0.5; bias, BatchNorm mean
    and beta (unit sd and gamma) and the noise are quarter or half
    integers.  Every partial sum then fits a float32 mantissa, so any
    accumulation order is exact and the output must equal the float64
    conv bit for bit."""
    (c_in, c_out, (kh, kw), stride, padding, h, w, batch, relu, pool, bn,
     noise, weight_bits, ingest) = case
    rng = np.random.default_rng(seed)
    conv = Conv2d(c_in, c_out, (kh, kw), stride, padding, rng=rng)
    codes = rng.integers(-8, 9, size=(c_out, c_in * kh * kw))
    codes[np.arange(c_out), rng.integers(0, codes.shape[1], size=c_out)] = (
        127 * rng.choice([-1, 1], size=c_out)
    )
    weight = codes.reshape(c_out, c_in, kh, kw) * 2.0**-6
    conv.weight.data[...] = weight
    conv.bias.data[...] = rng.integers(-8, 9, size=c_out) / 4
    layers = [("conv", conv)]
    values = rng.integers(-3, 4, size=(batch, c_in, h, w))
    if ingest == "f32":
        x, params, real = values.astype(np.float32), None, values * 1.0
    else:
        bits, zero_point = (8, 100) if ingest == "u8" else (16, 300)
        params = QuantizationParams(scale=0.5, zero_point=zero_point, bits=bits)
        x = (values + zero_point).astype(np.uint8 if bits == 8 else np.uint16)
        real = values * 0.5
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    xp = np.pad(real, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ref = np.zeros((batch, c_out, oh, ow))
    for ki in range(kh):
        for kj in range(kw):
            patch = xp[:, :, ki : ki + stride * (oh - 1) + 1 : stride,
                       kj : kj + stride * (ow - 1) + 1 : stride]
            ref += np.einsum("ncij,oc->noij", patch, weight[:, :, ki, kj])
    ref += conv.bias.data[None, :, None, None]
    if bn:
        norm = BatchNorm2d(c_out, eps=0.0)
        norm.running_mean[:] = rng.integers(-8, 9, size=c_out) / 4
        norm.beta.data[:] = rng.integers(-8, 9, size=c_out) / 4
        layers.append(("bn", norm))
        ref += (norm.beta.data - norm.running_mean)[None, :, None, None]
    if relu:
        layers.append(("relu", ReLU()))
        ref = np.maximum(ref, 0.0)
    if pool:
        layers.append(("pool", MaxPool2d(2)))
        ref = ref[:, :, : oh // 2 * 2, : ow // 2 * 2]
        ref = ref.reshape(batch, c_out, oh // 2, 2, ow // 2, 2).max(axis=(3, 5))
    extra = None
    if noise:
        extra = (rng.integers(-4, 5, size=ref.shape) / 2).astype(np.float32)
        ref = ref + extra
    return Sequential(*layers).eval(), x, params, extra, weight_bits, ref


@requires_kernel
class TestExactConvArithmetic:
    """Wherever arithmetic is exact, every conv path of the native backend
    must return the float64 conv exactly, and every batch split must
    reproduce it bit for bit (see :func:`_exact_case`)."""

    @staticmethod
    def check(case, seed, split):
        net, x, params, extra, weight_bits, ref = _exact_case(case, seed)
        executor = BatchInvariantExecutor(net, "native", weight_bits=weight_bits)

        def run(rows):
            return executor(
                x[rows], quantization=params,
                epilogue_add=None if extra is None else extra[rows],
            )

        out = run(slice(None))
        np.testing.assert_array_equal(out, ref)
        chunks = np.concatenate(
            [run(slice(i, i + split)) for i in range(0, len(x), split)]
        )
        np.testing.assert_array_equal(chunks.view(np.uint32), out.view(np.uint32))
        return net, x, params, extra, out

    @pytest.mark.parametrize("case", EXACT_CASES)
    def test_fixed_case(self, case):
        self.check(case, seed=0, split=max(1, case[7] // 3))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_case(self, data):
        c_in, c_out = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        kh, kw = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        stride, padding = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
        h = data.draw(st.integers(max(1, kh - 2 * padding), 12))
        w = data.draw(st.integers(max(1, kw - 2 * padding), 140))
        batch = data.draw(st.integers(1, 16))
        oh = (h + 2 * padding - kh) // stride + 1
        ow = (w + 2 * padding - kw) // stride + 1
        case = (
            c_in, c_out, (kh, kw), stride, padding, h, w, batch,
            data.draw(st.booleans()),
            oh >= 2 and ow >= 2 and data.draw(st.booleans()),
            data.draw(st.booleans()), data.draw(st.booleans()),
            data.draw(st.sampled_from([None, 8])),
            data.draw(st.sampled_from(["f32", "u8", "u16"])),
        )
        self.check(case, data.draw(st.integers(0, 2**16)),
                   data.draw(st.integers(1, batch)))

    def test_fixed_cases_reach_every_path(self, monkeypatch):
        """Guards the property against vacuity: under the default rewrites
        the fixed cases fuse a pool, take strides 2 and 3 with odd taps,
        exceed 128 lanes of width, run single-position and fully integer
        convs (with a fused pool, at stride > 1, over several channel
        quads), and ingest both code widths."""
        monkeypatch.delenv(ir.DISABLE_REWRITES_ENV_VAR, raising=False)
        monkeypatch.delenv(ir.SELECT_REWRITES_ENV_VAR, raising=False)
        seen = set()
        for case in EXACT_CASES:
            net, x, params, extra, weight_bits, _ = _exact_case(case, 0)
            rewrites = ir.ALL_REWRITES + ((ir.INT8_WEIGHTS,) if weight_bits else ())
            program = ir.lower(
                [(i, m) for i, m in enumerate(net.layers())], x.shape[1:],
                quantization=params, epilogue_add=extra is not None,
                rewrites=tuple(r for r in ir.PIPELINE_ORDER if r in rewrites),
            )
            conv = program.ops[0]
            seen.add(("stride", conv.stride[0]))
            seen.add(("pool", conv.pool))
            seen.add(("wide", conv.ow > 128))
            seen.add(("single", conv.oh * conv.ow == 1))
            integer = ir.integer_matmul_eligible(conv)
            seen.add(("integer", integer))
            seen.add(("integer pool", integer and conv.pool))
            seen.add(("integer stride", integer and conv.stride[0] > 1))
            seen.add(("integer quads", integer and conv.in_spec.shape[0] > 4))
            seen.add(("ingest", case[-1]))
        assert {("stride", 2), ("stride", 3), ("pool", True), ("wide", True),
                ("single", True), ("integer", True), ("integer pool", True),
                ("integer stride", True), ("integer quads", True),
                ("ingest", "u8"), ("ingest", "u16")} <= seen


def _host_has(*flags):
    return set(flags) <= set(native.host_isa_flags().split())


@pytest.mark.skipif(native.find_compiler() is None, reason="no C compiler")
class TestPortableBuild:
    """The kernel source must build without ``-march=native`` — the retry
    ``native.build_library`` falls back to — and run correctly there:
    otherwise every host without AVX-512 would silently drop to the numpy
    backend.  It also builds for AVX2, where the integer conv runs its
    generic step at 8 lanes (4 in the baseline build).  Each library
    replaces the process's for the test."""

    @pytest.mark.parametrize("flags", [
        pytest.param((), id="baseline"),
        pytest.param(("-mavx2", "-mfma"), id="avx2", marks=pytest.mark.skipif(
            not _host_has("avx2", "fma"), reason="host lacks AVX2/FMA")),
    ])
    def test_generic_build_runs_the_exact_cases_and_a_backbone(
        self, monkeypatch, tmp_path, flags
    ):
        monkeypatch.delenv(native.DISABLE_ENV_VAR, raising=False)
        monkeypatch.setenv(native.DIR_ENV_VAR, str(tmp_path))
        monkeypatch.setattr(
            native, "COMPILE_FLAGS",
            tuple(f for f in native.COMPILE_FLAGS if f != "-march=native")
            + flags,
        )
        module = native.KernelModule(
            "fastexec", _fastexec._SOURCE, _fastexec._configure
        )
        assert module.load() is not None
        monkeypatch.setattr(_fastexec, "_MODULE", module)
        assert _fastexec.variant() == "generic"
        for case in EXACT_CASES:
            net, x, params, extra, weight_bits, _ = _exact_case(case, 0)
            out = TestExactConvArithmetic.check(case, 0, split=1)[-1]
            numpy_out = BatchInvariantExecutor(
                net, "numpy", weight_bits=weight_bits
            )(x, quantization=params, epilogue_add=extra)
            np.testing.assert_allclose(out, numpy_out, atol=ATOL, rtol=RTOL)
        rng = np.random.default_rng(5)
        model = build_model("alexnet", rng, width=0.5).eval()
        local, _ = model.split(model.last_conv_cut())
        x = rng.normal(size=(3, *model.input_shape)).astype(np.float32)
        native_ex, numpy_ex = _executor_pair(local)
        np.testing.assert_allclose(native_ex(x), numpy_ex(x), atol=ATOL, rtol=RTOL)


@requires_kernel
class TestPoolLinearFuzz:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_maxpool_matches_numpy(self, seed):
        rng = np.random.default_rng(200 + seed)
        c = int(rng.integers(1, 6))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sh, sw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        ph, pw = int(rng.integers(0, (kh // 2) + 1)), int(rng.integers(0, (kw // 2) + 1))
        h = int(rng.integers(kh, 20))
        w = int(rng.integers(kw, 20))
        net = Sequential(
            ("pool", MaxPool2d((kh, kw), (sh, sw), (ph, pw))),
        ).eval()
        n = int(rng.integers(1, 6))
        x = rng.normal(size=(n, c, h, w)).astype(np.float32)
        native_ex, numpy_ex = _executor_pair(net)
        # Max of identical floats: bitwise equality across backends.
        np.testing.assert_array_equal(native_ex(x), numpy_ex(x))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_linear_stack_matches_numpy(self, seed):
        rng = np.random.default_rng(300 + seed)
        sizes = [int(rng.integers(1, 70)) for _ in range(3)]
        net = Sequential(
            ("fc0", Linear(sizes[0], sizes[1], rng=rng)),
            ("relu", ReLU()),
            ("fc1", Linear(sizes[1], sizes[2], rng=rng)),
        ).eval()
        n = int(rng.integers(1, 9))
        x = rng.normal(size=(n, sizes[0])).astype(np.float32)
        native_ex, numpy_ex = _executor_pair(net)
        np.testing.assert_allclose(native_ex(x), numpy_ex(x), atol=ATOL, rtol=RTOL)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_backbone_like_stack(self, seed):
        """conv-relu-pool-conv-relu-flatten-linear, random geometry."""
        rng = np.random.default_rng(400 + seed)
        c_in = int(rng.integers(1, 4))
        c_mid = int(rng.integers(2, 8))
        h = w = int(rng.integers(12, 30))
        net_layers = [
            ("conv0", Conv2d(c_in, c_mid, 3, 1, 1, rng=rng)),
            ("relu0", ReLU()),
            ("pool0", MaxPool2d(2)),
            ("conv1", Conv2d(c_mid, c_mid + 2, 3, 1, 0, rng=rng)),
            ("relu1", ReLU()),
            ("flat", Flatten()),
        ]
        oh = conv_output_size(h, 3, 1, 1) // 2
        oh = conv_output_size(oh, 3, 1, 0)
        features = (c_mid + 2) * oh * oh
        net_layers.append(("head", Linear(features, 10, rng=rng)))
        net = Sequential(*net_layers).eval()
        n = int(rng.integers(1, 6))
        x = rng.normal(size=(n, c_in, h, w)).astype(np.float32)
        native_ex, numpy_ex = _executor_pair(net)
        np.testing.assert_allclose(native_ex(x), numpy_ex(x), atol=ATOL, rtol=RTOL)
        singles = np.concatenate([native_ex(x[i : i + 1]) for i in range(n)])
        np.testing.assert_array_equal(native_ex(x), singles)


@requires_kernel
class TestDeterminism:
    def test_fresh_executors_agree_bitwise(self):
        rng = np.random.default_rng(7)
        net = Sequential(
            ("conv", Conv2d(2, 4, 3, 1, 1, rng=rng)),
            ("relu", ReLU()),
            ("pool", MaxPool2d(2)),
        ).eval()
        x = rng.normal(size=(4, 2, 12, 12)).astype(np.float32)
        first = BatchInvariantExecutor(net, kernel_backend="native")(x)
        second = BatchInvariantExecutor(net, kernel_backend="native")(x)
        np.testing.assert_array_equal(first, second)

    def test_results_survive_later_calls(self):
        rng = np.random.default_rng(8)
        net = Sequential(("conv", Conv2d(1, 3, 3, 1, 1, rng=rng))).eval()
        executor = BatchInvariantExecutor(net, kernel_backend="native")
        a = rng.normal(size=(2, 1, 10, 10)).astype(np.float32)
        b = rng.normal(size=(2, 1, 10, 10)).astype(np.float32)
        first = executor(a)
        snapshot = first.copy()
        executor(b)
        np.testing.assert_array_equal(first, snapshot)

    def test_float64_input_runs_module_forward(self):
        """Non-f32 float probes skip the IR and keep their dtype."""
        rng = np.random.default_rng(10)
        net = Sequential(("fc", Linear(6, 4, rng=rng))).eval()
        executor = BatchInvariantExecutor(net, kernel_backend="native")
        x64 = rng.normal(size=(3, 6))
        numpy_ex = BatchInvariantExecutor(net, kernel_backend="numpy")
        np.testing.assert_array_equal(executor(x64), numpy_ex(x64))
        assert executor(x64).dtype == np.float64


def _rewrite_net(rng, conv_bn=True):
    """A split-backbone-shaped stack on which every rewrite can fire: a
    conv→BN→ReLU→pool block (BN folds into the conv's epilogue; plain
    conv→ReLU→pool when ``conv_bn`` is false), an LRN, and a BN with no
    conv before it (a standalone affine).  The fuzz axes alternate
    ``conv_bn`` by seed parity, so the fused-pool epilogue runs with and
    without the affine under every rewrite."""
    c_in = int(rng.integers(1, 4))
    c_mid = int(rng.integers(3, 8))
    h = w = int(rng.integers(14, 26))
    oh = (conv_output_size(h, 3, 1, 1)) // 2
    oh = conv_output_size(oh, 3, 1, 0)
    features = (c_mid + 2) * oh * oh
    layers = [("conv0", Conv2d(c_in, c_mid, 3, 1, 1, rng=rng))]
    if conv_bn:
        layers.append(("bn0", BatchNorm2d(c_mid)))
    net = Sequential(
        *layers,
        ("relu0", ReLU()),
        ("pool0", MaxPool2d(2)),
        ("lrn0", LocalResponseNorm(size=3, alpha=0.1, beta=0.75, k=1.0)),
        ("conv1", Conv2d(c_mid, c_mid + 2, 3, 1, 0, rng=rng)),
        ("relu1", ReLU()),
        ("bn1", BatchNorm2d(c_mid + 2)),
        ("flat", Flatten()),
        ("head", Linear(features, 10, rng=rng)),
    ).eval()
    return randomise_batch_norms(net, rng), (c_in, h, w)


def _rewrite_backends():
    backends = ["numpy"]
    if _fastexec.available():
        backends.append("native")
    return backends


@pytest.mark.parametrize("backend", _rewrite_backends())
def test_warm_precompiles_programs(backend):
    """One warm at 8 rows binds each lowered program once: calls at 1 to 8
    rows add no binding (nor numpy scratch) and equal a fresh executor's
    output bitwise; a 16-row call still leaves one entry per key."""
    rng = np.random.default_rng(9)
    net = Sequential(
        ("conv", Conv2d(1, 3, 3, 1, 1, rng=rng)),
        ("relu", ReLU()),
        ("pool", MaxPool2d(2)),
        ("flatten", Flatten()),
        ("fc", Linear(75, 4, rng=rng)),
    ).eval()
    executor = BatchInvariantExecutor(net, kernel_backend=backend)
    assert not executor._programs
    out_shape = executor.warm((8, 1, 10, 10), epilogue_add=True)
    assert out_shape == (8, 4)
    bindings = dict(executor._programs)  # bound before the first batch
    assert bindings.keys() == executor._lowered.keys() and len(bindings) == 2
    scratch = len(executor._scratch)
    for rows in range(1, 9):
        x = rng.normal(size=(rows, 1, 10, 10)).astype(np.float32)
        noise = rng.normal(size=(rows, 4)).astype(np.float32)
        for extra in (None, noise):
            fresh = BatchInvariantExecutor(net, kernel_backend=backend)
            np.testing.assert_array_equal(
                executor(x, epilogue_add=extra), fresh(x, epilogue_add=extra)
            )
    assert executor._programs == bindings
    assert len(executor._scratch) == scratch
    executor(rng.normal(size=(16, 1, 10, 10)).astype(np.float32))
    assert executor._programs.keys() == bindings.keys()


class TestRewriteDifferential:
    """The per-rewrite fuzz axis: each rewrite toggled on/off.

    Each case toggles its rewrite twice on the same inputs: alone (the
    single-rewrite lowering against the rewrite-free one) and in context
    (every rewrite against every rewrite but this one).  The second pair
    reaches what only fires behind another rewrite: ``fuse_conv_pool``
    needs the ReLU already fused, so the fused-pool epilogue runs only
    there.  Quantised codes (for ``int8_ingest``) and the noise-add
    epilogue (for ``fold_epilogue_add``) are exercised for *every*
    rewrite so toggling one never perturbs the others' operands.
    """

    CASES = [(name, seed) for name in ir.ALL_REWRITES for seed in range(3)]

    def _run(self, executor, x, codes, params, noise):
        return (
            executor(x),
            executor(codes, quantization=params),
            executor(codes, quantization=params, epilogue_add=noise),
        )

    @pytest.mark.parametrize("rewrite,seed", CASES)
    def test_rewrite_toggling_is_f32_close_and_invariant(self, rewrite, seed):
        rng = np.random.default_rng(1000 + 31 * seed)
        net, (c_in, h, w) = _rewrite_net(rng, conv_bn=seed % 2 == 0)
        n = int(rng.integers(2, 7))
        x = rng.normal(size=(n, c_in, h, w)).astype(np.float32)
        params = calibrate(x, bits=8)
        codes = quantize(x, params).astype(np.uint8)
        out_shape = BatchInvariantExecutor(net, "numpy", ir_rewrites=())(
            x[:1]
        ).shape[1:]
        noise = rng.normal(size=(n, *out_shape)).astype(np.float32)
        others = tuple(r for r in ir.ALL_REWRITES if r != rewrite)
        for on_rewrites, off_rewrites in (
            ((rewrite,), ()),
            (ir.ALL_REWRITES, others),
        ):
            per_backend = {}
            for backend in _rewrite_backends():
                on = BatchInvariantExecutor(net, backend, ir_rewrites=on_rewrites)
                off = BatchInvariantExecutor(net, backend, ir_rewrites=off_rewrites)
                results_on = self._run(on, x, codes, params, noise)
                results_off = self._run(off, x, codes, params, noise)
                # Toggling a rewrite only moves results within f32 round-off.
                for a, b in zip(results_on, results_off):
                    np.testing.assert_allclose(a, b, atol=ATOL, rtol=RTOL)
                # Bitwise batch invariance at the fixed (on) toggling,
                # quantised + noise path included.
                fresh = BatchInvariantExecutor(
                    net, backend, ir_rewrites=on_rewrites
                )
                singles = np.concatenate(
                    [
                        fresh(
                            codes[i : i + 1],
                            quantization=params,
                            epilogue_add=noise[i : i + 1],
                        )
                        for i in range(n)
                    ]
                )
                np.testing.assert_array_equal(results_on[2], singles)
                # Bitwise run-to-run determinism across fresh executors.
                again = BatchInvariantExecutor(
                    net, backend, ir_rewrites=on_rewrites
                )
                for a, b in zip(
                    results_on, self._run(again, x, codes, params, noise)
                ):
                    np.testing.assert_array_equal(a, b)
                per_backend[backend] = results_on
            if len(per_backend) == 2:
                for a, b in zip(per_backend["native"], per_backend["numpy"]):
                    np.testing.assert_allclose(a, b, atol=ATOL, rtol=RTOL)

    def test_each_rewrite_actually_fires_on_the_fuzz_net(self):
        """Guards the axis against vacuity: the fuzz net must trigger
        every rewrite it claims to toggle, in both of its variants."""
        for conv_bn in (True, False):
            rng = np.random.default_rng(77)
            net, (c_in, h, w) = _rewrite_net(rng, conv_bn=conv_bn)
            rows = [(i, m) for i, m in enumerate(net.layers())]
            params = calibrate(
                rng.normal(size=(4, c_in, h, w)).astype(np.float32), bits=8
            )
            program = ir.lower(
                rows,
                (c_in, h, w),
                quantization=params,
                epilogue_add=True,
                rewrites=ir.ALL_REWRITES,
            )
            assert set(program.rewrites) == set(ir.ALL_REWRITES)
            kinds = [op.kind for op in program.ops]
            assert kinds == [
                "conv2d", "lrn", "conv2d", "affine", "flatten", "linear"
            ]
            conv0 = program.ops[0]
            assert (conv0.affine is not None) == conv_bn
            assert conv0.dequant is not None and conv0.relu and conv0.pool

    @requires_kernel
    def test_int8_ingest_skips_the_dequant_copy(self):
        rng = np.random.default_rng(78)
        net, (c_in, h, w) = _rewrite_net(rng)
        x = rng.normal(size=(4, c_in, h, w)).astype(np.float32)
        params = calibrate(x, bits=8)
        codes = quantize(x, params).astype(np.uint8)
        on = BatchInvariantExecutor(net, "native", ir_rewrites=ir.ALL_REWRITES)
        on(codes, quantization=params)
        assert on.ingest_dequants == 0
        off = BatchInvariantExecutor(net, "native", ir_rewrites=())
        off(codes, quantization=params)
        assert off.ingest_dequants == 1

    #: int8_weights axis: the one accuracy-affecting rewrite.  Gated by
    #: label agreement instead of f32-closeness (the quantised-weights
    #: carve-out in the standing IR contract); determinism/invariance
    #: requirements are unchanged.  ``composed`` also feeds quantised
    #: activation codes so the fully integer u8×i8 path is exercised.
    INT8W_CASES = [
        (seed, composed) for seed in range(3) for composed in (False, True)
    ]

    @pytest.mark.parametrize("seed,composed", INT8W_CASES)
    def test_int8_weights_label_agreement_and_invariance(
        self, seed, composed, monkeypatch
    ):
        # weight_bits=8 injects int8_weights only on top of a live
        # pipeline; pin the default one regardless of ambient env.
        monkeypatch.delenv(ir.DISABLE_REWRITES_ENV_VAR, raising=False)
        monkeypatch.delenv(ir.SELECT_REWRITES_ENV_VAR, raising=False)
        rng = np.random.default_rng(2000 + 31 * seed)
        net, (c_in, h, w) = _rewrite_net(rng, conv_bn=seed % 2 == 0)
        n = int(rng.integers(2, 7))
        x = rng.normal(size=(n, c_in, h, w)).astype(np.float32)
        params = calibrate(x, bits=8)
        codes = quantize(x, params).astype(np.uint8)

        def run(executor):
            if composed:
                return executor(codes, quantization=params)
            return executor(x)

        per_backend = {}
        for backend in _rewrite_backends():
            on = BatchInvariantExecutor(net, backend, weight_bits=8)
            off = BatchInvariantExecutor(net, backend)
            assert ir.INT8_WEIGHTS in on.rewrites
            assert ir.INT8_WEIGHTS not in off.rewrites
            out_on, out_off = run(on), run(off)
            # Label-agreement gate: weight quantisation may only flip a
            # prediction whose f32 top-2 margin was already a near-tie.
            flipped = out_on.argmax(axis=1) != out_off.argmax(axis=1)
            if flipped.any():
                top2 = np.sort(out_off[flipped], axis=1)[:, -2:]
                assert (top2[:, 1] - top2[:, 0] < 0.1).all()
            # Bitwise batch invariance at the fixed (on) toggling.
            fresh = BatchInvariantExecutor(net, backend, weight_bits=8)
            singles = np.concatenate(
                [
                    fresh(codes[i : i + 1], quantization=params)
                    if composed
                    else fresh(x[i : i + 1])
                    for i in range(n)
                ]
            )
            np.testing.assert_array_equal(out_on, singles)
            # Bitwise run-to-run determinism across fresh executors.
            again = BatchInvariantExecutor(net, backend, weight_bits=8)
            np.testing.assert_array_equal(out_on, run(again))
            per_backend[backend] = out_on
        if len(per_backend) == 2:
            np.testing.assert_allclose(
                per_backend["native"], per_backend["numpy"],
                atol=ATOL, rtol=RTOL,
            )

    def test_int8_weights_is_opt_in_only(self, monkeypatch):
        """Never in the default pipeline; ``weight_bits=8`` injects it;
        the kill-switch still pins the canonical f32 path."""
        monkeypatch.delenv(ir.DISABLE_REWRITES_ENV_VAR, raising=False)
        monkeypatch.delenv(ir.SELECT_REWRITES_ENV_VAR, raising=False)
        net = Sequential(
            ("fc", Linear(6, 4, rng=np.random.default_rng(0)))
        ).eval()
        assert ir.INT8_WEIGHTS not in ir.default_rewrites()
        assert ir.INT8_WEIGHTS not in BatchInvariantExecutor(net, "numpy").rewrites
        on = BatchInvariantExecutor(net, "numpy", weight_bits=8)
        assert ir.INT8_WEIGHTS in on.rewrites
        monkeypatch.setenv(ir.DISABLE_REWRITES_ENV_VAR, "1")
        pinned = BatchInvariantExecutor(net, "numpy", weight_bits=8)
        assert pinned.rewrites == ()

    @requires_kernel
    def test_int8_weights_native_never_widens_codes(self, monkeypatch):
        """The acceptance assertion: zero f32 dequantised weight copies on
        the native backend, on both the float and fully integer paths."""
        monkeypatch.delenv(ir.DISABLE_REWRITES_ENV_VAR, raising=False)
        monkeypatch.delenv(ir.SELECT_REWRITES_ENV_VAR, raising=False)
        rng = np.random.default_rng(79)
        net, (c_in, h, w) = _rewrite_net(rng)
        x = rng.normal(size=(3, c_in, h, w)).astype(np.float32)
        params = calibrate(x, bits=8)
        codes = quantize(x, params).astype(np.uint8)
        nat = BatchInvariantExecutor(net, "native", weight_bits=8)
        nat(x)
        nat(codes, quantization=params)
        assert nat.weight_dequants == 0
        # The numpy float path does widen (once per code plane) — the
        # counter is what distinguishes the backends.
        np_ex = BatchInvariantExecutor(net, "numpy", weight_bits=8)
        np_ex(x)
        assert np_ex.weight_dequants > 0

    def test_rewrites_env_snapshot_at_construction(self, monkeypatch):
        net = Sequential(
            ("fc", Linear(6, 4, rng=np.random.default_rng(0)))
        ).eval()
        monkeypatch.setenv(ir.DISABLE_REWRITES_ENV_VAR, "1")
        executor = BatchInvariantExecutor(net, "numpy")
        assert executor.rewrites == ()
        monkeypatch.delenv(ir.DISABLE_REWRITES_ENV_VAR)
        assert executor.rewrites == ()  # snapshot, not re-read
        assert BatchInvariantExecutor(net, "numpy").rewrites == ir.ALL_REWRITES

    def test_unknown_ctor_rewrite_rejected(self):
        net = Sequential(
            ("fc", Linear(6, 4, rng=np.random.default_rng(0)))
        ).eval()
        with pytest.raises(ConfigurationError):
            BatchInvariantExecutor(net, "numpy", ir_rewrites=("fuse_everything",))


def _lrn_case(case, rng):
    """``(x, LocalResponseNorm)`` for one LRN property case."""
    c = int(rng.integers(1, 12))
    h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    n = int(rng.integers(1, 4))
    size = int(rng.integers(1, 8))
    x = rng.normal(size=(n, c, h, w)).astype(np.float32)
    if case == "random":
        return x, LocalResponseNorm(
            size=size,
            alpha=float(rng.uniform(1e-4, 2.0)),
            beta=float(rng.uniform(0.1, 2.0)),
            k=float(rng.uniform(0.5, 3.0)),
        )
    if case == "zero":  # k=0 and an all-zero window: base exactly 0
        x[:, : max(1, c // 2)] = 0.0
        return x, LocalResponseNorm(size=size, alpha=1e-3, beta=0.75, k=0.0)
    if case == "subnormal":  # x² and the base fall below FLT_MIN
        return x * np.float32(1e-20), LocalResponseNorm(
            size=size, alpha=float(size), beta=0.75, k=0.0
        )
    if case == "huge":  # bases near FLT_MAX, squares overflowing to inf
        x = x * np.float32(1e17)
        x.reshape(-1)[:: 5] *= np.float32(1e4)
        return x, LocalResponseNorm(size=size, alpha=1e-4, beta=0.75, k=2.0)
    if case == "exponent_range":  # e·log2(base) below the polynomial's range
        return x * np.float32(3e16), LocalResponseNorm(
            size=1, alpha=1.0, beta=1.2, k=0.0
        )
    assert case == "nan"
    x.reshape(-1)[:: 7] = np.nan
    return x, LocalResponseNorm(size=size, alpha=1e-4, beta=0.75, k=2.0)


@requires_kernel
class TestLocalResponseNormRecord:
    """The native ``lrn`` record against the numpy op.

    Lanes with a base that is zero, subnormal or non-finite, or whose
    ``e·log2(base)`` leaves the vectorised polynomial's range, must take
    libm's ``powf`` and match numpy's power (non-finite results in the
    same places)."""

    CASES = [
        (case, seed)
        for case in ("random", "zero", "subnormal", "huge", "exponent_range", "nan")
        for seed in range(4)
    ]

    @pytest.mark.parametrize("case,seed", CASES)
    def test_native_matches_numpy(self, case, seed):
        rng = np.random.default_rng(3000 + seed)
        x, lrn = _lrn_case(case, rng)
        net = Sequential(("lrn", lrn)).eval()
        native_ex, numpy_ex = _executor_pair(net)
        with np.errstate(all="ignore"):
            expected = numpy_ex(x)
            got = native_ex(x)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
        np.testing.assert_allclose(got, expected, atol=ATOL, rtol=RTOL)
        singles = np.concatenate(
            [native_ex(x[i : i + 1]) for i in range(len(x))]
        )
        np.testing.assert_array_equal(got, singles)


class TestBackendSelection:
    def test_invalid_backend_rejected(self):
        net = Sequential(("fc", Linear(3, 2, rng=np.random.default_rng(0)))).eval()
        with pytest.raises(ConfigurationError):
            BatchInvariantExecutor(net, kernel_backend="cuda")

    def test_numpy_backend_forced(self):
        net = Sequential(("fc", Linear(3, 2, rng=np.random.default_rng(0)))).eval()
        executor = BatchInvariantExecutor(net, kernel_backend="numpy")
        assert executor.backend == "numpy"

    def test_disable_env_forces_numpy_auto(self, monkeypatch):
        monkeypatch.setenv(native.DISABLE_ENV_VAR, "1")
        net = Sequential(("fc", Linear(3, 2, rng=np.random.default_rng(0)))).eval()
        executor = BatchInvariantExecutor(net, kernel_backend="auto")
        assert executor.backend == "numpy"
        with pytest.raises(ConfigurationError):
            BatchInvariantExecutor(net, kernel_backend="native")

    @requires_kernel
    def test_auto_picks_native_when_available(self):
        net = Sequential(("fc", Linear(3, 2, rng=np.random.default_rng(0)))).eval()
        assert BatchInvariantExecutor(net).backend == "native"


class TestSharedBuildPipeline:
    def test_source_keys_artifacts(self):
        assert native.artifact_path("k", "int main;") != native.artifact_path(
            "k", "int main2;"
        )

    def test_host_isa_and_flags_key_artifacts(self, monkeypatch, tmp_path):
        """A shared kernel dir never hands an AVX-512/VNNI build to a
        host without those instructions, nor one compiled differently."""
        monkeypatch.setenv(native.DIR_ENV_VAR, str(tmp_path))
        source = "int f(void) { return 1; }\n"
        monkeypatch.setattr(native, "host_isa_flags", lambda: "fpu sse2 avx2")
        generic = native.artifact_path("k", source)
        monkeypatch.setattr(
            native, "host_isa_flags",
            lambda: "fpu sse2 avx2 avx512f avx512bw avx512_vnni avx512vbmi",
        )
        vnni = native.artifact_path("k", source)
        assert generic != vnni
        assert generic.parent == vnni.parent == tmp_path
        monkeypatch.setattr(native, "COMPILE_FLAGS", ("-O2", "-shared", "-fPIC"))
        assert native.artifact_path("k", source) != vnni

    def test_host_isa_flags_reads_cpuinfo(self):
        flags = native.host_isa_flags()
        assert flags == " ".join(flags.split())
        try:
            with open("/proc/cpuinfo") as handle:
                has_flags = any(line.startswith("flags") for line in handle)
        except OSError:
            has_flags = False
        assert bool(flags) == has_flags

    def test_fastexec_variant(self, monkeypatch):
        lib = _fastexec.load()
        if lib is None:
            assert _fastexec.variant() is None
        else:
            assert _fastexec.variant() == ("vnni" if lib.has_vnni() else "generic")
        monkeypatch.setenv(native.DISABLE_ENV_VAR, "1")
        assert _fastexec.variant() is None

    def test_kernel_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(native.DIR_ENV_VAR, str(tmp_path / "kcache"))
        assert native.kernel_dir() == tmp_path / "kcache"

    @requires_kernel
    def test_build_caches_artifact_on_disk(self, monkeypatch, tmp_path):
        monkeypatch.setenv(native.DIR_ENV_VAR, str(tmp_path / "kcache"))
        source = "int add_one(int x) { return x + 1; }\n"
        lib = native.build_library("testkernel", source)
        assert lib is not None
        artifact = native.artifact_path("testkernel", source)
        assert artifact.parent == tmp_path / "kcache"
        assert artifact.exists()
        assert lib.add_one(41) == 42
        # Second load comes from the cache (same digest, no recompile).
        assert native.build_library("testkernel", source) is not None

    def test_fastknn_shares_the_pipeline(self):
        from repro.privacy import _fastknn

        assert _fastknn._DISABLE_ENV_VAR == native.DISABLE_ENV_VAR
        assert _fastknn._DIR_ENV_VAR == native.DIR_ENV_VAR
