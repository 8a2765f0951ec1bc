"""Tests for the op-program IR: lowering, rewrites, buffer plans, costs.

The executor backends' behaviour under the IR is covered by the
differential suites in ``test_native_kernels.py`` / ``test_executor.py``;
this file pins the IR itself — the single lowering pass, the rewrite
pipeline's legality conditions, the buffer-lifetime plan, the environment
configuration, and the planner/cost-model integration (IR-derived MACs
must equal the historical closed-form values, and plans on the stock nets
must not move).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.edge import ir, layer_macs, plan_batch_window, profile_network
from repro.edge.quantization import QuantizationParams
from repro.errors import ConfigurationError
from repro.models import build_model
from repro.nn import Conv2d, Linear, MaxPool2d, ReLU, Sequential, Tanh
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.norm import BatchNorm2d, LocalResponseNorm
from tests.helpers import randomise_batch_norms


@pytest.fixture(scope="module")
def lenet():
    return build_model("lenet", np.random.default_rng(0), width=1.0).eval()


def _rows(net: Sequential) -> list[tuple]:
    return [(i, m) for i, m in enumerate(net.layers())]


def _lenet_like(rng) -> Sequential:
    net = Sequential(
        Conv2d(1, 6, 5, padding=2, rng=rng), ReLU(), MaxPool2d(2, 2),
        Conv2d(6, 16, 5, rng=rng), ReLU(), MaxPool2d(2, 2),
        Flatten(), Linear(16 * 5 * 5, 10, rng=rng),
    )
    return net.eval()


PARAMS8 = QuantizationParams(scale=0.05, zero_point=7, bits=8)
PARAMS16 = QuantizationParams(scale=0.001, zero_point=1000, bits=16)


class TestCanonicalLowering:
    def test_shapes_and_kinds(self):
        net = _lenet_like(np.random.default_rng(0))
        program = ir.lower(_rows(net), (1, 28, 28), rewrites=())
        assert [op.kind for op in program.ops] == [
            "conv2d", "relu", "maxpool2d",
            "conv2d", "relu", "maxpool2d",
            "flatten", "linear",
        ]
        assert program.in_spec == ir.TensorSpec((1, 28, 28))
        assert program.out_spec == ir.TensorSpec((10,))
        conv0 = program.ops[0]
        assert conv0.out_spec.shape == (6, 28, 28)
        assert conv0.weight.shape == (6, 25)
        assert program.ops[3].out_spec.shape == (16, 10, 10)
        assert program.rewrites == ()

    def test_eval_dropout_lowers_to_nothing(self):
        net = Sequential(
            Linear(8, 4, rng=np.random.default_rng(0)), Dropout(0.5)
        ).eval()
        program = ir.lower(_rows(net), (8,), rewrites=())
        assert [op.kind for op in program.ops] == ["linear"]

    def test_segmentation_splits_on_unsupported(self):
        net = Sequential(
            Conv2d(1, 4, 3, rng=np.random.default_rng(0)),
            Tanh(),
            ReLU(),
        ).eval()
        kinds = [kind for kind, _ in ir.segment_modules(_rows(net))]
        assert kinds == ["ir", "python", "ir"]

    def test_segmentation_splits_on_training_mode_batch_norm(self):
        bn = BatchNorm2d(4)
        net = Sequential(
            Conv2d(1, 4, 3, rng=np.random.default_rng(0)), bn, ReLU()
        ).eval()
        assert [kind for kind, _ in ir.segment_modules(_rows(net))] == ["ir"]
        bn.train()
        kinds = [kind for kind, _ in ir.segment_modules(_rows(net))]
        assert kinds == ["ir", "python", "ir"]


def _randomised_bn(channels: int, seed: int) -> BatchNorm2d:
    net = Sequential(BatchNorm2d(channels)).eval()
    return randomise_batch_norms(net, np.random.default_rng(seed))[0]


class TestNormalisationLowering:
    def test_batch_norm_after_conv_folds_into_its_epilogue(self):
        bn = _randomised_bn(4, 0)
        net = Sequential(
            Conv2d(1, 4, 3, padding=1, rng=np.random.default_rng(0)), bn,
            ReLU(), MaxPool2d(2, 2),
        ).eval()
        canonical = ir.lower(_rows(net), (1, 16, 16), rewrites=())
        assert [op.kind for op in canonical.ops] == ["conv2d", "relu", "maxpool2d"]
        conv = canonical.ops[0]
        assert conv.source == (0, 1)
        np.testing.assert_array_equal(
            conv.affine.sd, np.sqrt(bn.running_var + bn.eps)
        )
        # Frozen copies, not live references.
        assert not np.shares_memory(conv.affine.mean, bn.running_mean)
        assert not np.shares_memory(conv.affine.gamma, bn.gamma.data)
        # With BN folded, ReLU and the 2x2 pool fuse into the conv again.
        fused = ir.lower(
            _rows(net), (1, 16, 16), rewrites=(ir.FUSE_RELU, ir.FUSE_CONV_POOL)
        )
        assert [op.kind for op in fused.ops] == ["conv2d"]
        assert fused.ops[0].relu and fused.ops[0].pool
        np.testing.assert_array_equal(fused.ops[0].affine.beta, conv.affine.beta)

    def test_batch_norm_without_a_conv_is_a_standalone_affine(self):
        net = Sequential(
            Conv2d(1, 4, 3, rng=np.random.default_rng(0)), ReLU(),
            _randomised_bn(4, 1),
        ).eval()
        program = ir.lower(_rows(net), (1, 8, 8), rewrites=(ir.FUSE_RELU,))
        assert [op.kind for op in program.ops] == ["conv2d", "affine"]
        assert program.ops[0].affine is None
        assert program.ops[1].source == (2,)

    def test_lrn_lowers_to_its_own_op(self):
        lrn = LocalResponseNorm(size=3, alpha=1e-3, beta=0.5, k=1.5)
        program = ir.lower([(0, lrn)], (6, 5, 5), rewrites=())
        (op,) = program.ops
        assert op.kind == "lrn"
        assert op.lrn == ir.LRNParams(3, 1e-3, 0.5, 1.5)
        assert op.out_spec == op.in_spec
        # Squares of every channel plus three rows of the one in hand.
        assert ir.plan_buffers(program).scratch_elements == (6 + 3) * 25

    def test_normalisation_costs_no_macs(self):
        for module in (_randomised_bn(4, 2), LocalResponseNorm()):
            op = ir.lower_module(module, (4, 8, 8))
            assert op.kind in ("affine", "lrn") and op.macs == 0
            assert layer_macs(module, (1, 4, 8, 8), (1, 4, 8, 8)) == 0

    def test_noise_add_folds_into_a_trailing_normalisation(self):
        net = Sequential(
            Conv2d(1, 4, 3, rng=np.random.default_rng(0)), ReLU(),
            LocalResponseNorm(size=3),
        ).eval()
        program = ir.lower(
            _rows(net), (1, 8, 8), epilogue_add=True,
            rewrites=(ir.FOLD_EPILOGUE_ADD,),
        )
        assert program.extra == ir.EXTRA_FOLDED
        assert program.ops[-1].kind == "lrn" and program.ops[-1].add_rows

    @pytest.mark.parametrize("name", ["svhn", "cifar", "alexnet"])
    def test_eval_mode_halves_are_single_ir_segments(self, name):
        model = build_model(name, np.random.default_rng(0), width=0.5).eval()
        for cut in model.cut_names():
            for half in model.split(cut):
                kinds = [kind for kind, _ in ir.segment_modules(_rows(half))]
                assert kinds in (["ir"], []), (cut, kinds)

    def test_geometry_mismatch_raises(self):
        net = Sequential(Conv2d(3, 4, 3, rng=np.random.default_rng(0))).eval()
        with pytest.raises(ConfigurationError):
            ir.lower(_rows(net), (1, 8, 8), rewrites=())


class TestRewrites:
    def test_fuse_relu(self):
        net = _lenet_like(np.random.default_rng(0))
        program = ir.lower(_rows(net), (1, 28, 28), rewrites=(ir.FUSE_RELU,))
        assert ir.FUSE_RELU in program.rewrites
        kinds = [op.kind for op in program.ops]
        assert "relu" not in kinds
        assert all(op.relu for op in program.ops if op.kind == "conv2d")
        # The fused op keeps both source layer indices.
        assert program.ops[0].source == (0, 1)

    def test_fuse_conv_pool_requires_direct_eligibility(self):
        net = _lenet_like(np.random.default_rng(0))
        program = ir.lower(
            _rows(net), (1, 28, 28),
            rewrites=(ir.FUSE_RELU, ir.FUSE_CONV_POOL),
        )
        assert ir.FUSE_CONV_POOL in program.rewrites
        assert [op.kind for op in program.ops] == [
            "conv2d", "conv2d", "flatten", "linear"
        ]
        conv0 = program.ops[0]
        assert conv0.pool and conv0.relu
        assert conv0.out_spec.shape == (6, 14, 14)  # pooled
        assert conv0.oh == 28 and conv0.ow == 28    # conv-plane geometry

    def test_narrow_conv_keeps_standalone_pool(self):
        # ow < DIRECT_CONV_MIN_OW: the direct kernel (and hence the fused
        # pool) must not engage.
        net = Sequential(
            Conv2d(1, 4, 3, rng=np.random.default_rng(0)), MaxPool2d(2, 2)
        ).eval()
        program = ir.lower(
            _rows(net), (1, 8, 8), rewrites=(ir.FUSE_CONV_POOL,)
        )
        assert [op.kind for op in program.ops] == ["conv2d", "maxpool2d"]
        assert program.rewrites == ()

    def test_stride_2_pool_not_fused_unless_2x2(self):
        net = Sequential(
            Conv2d(1, 4, 3, padding=1, rng=np.random.default_rng(0)),
            MaxPool2d(3, 2),
        ).eval()
        program = ir.lower(
            _rows(net), (1, 16, 16), rewrites=(ir.FUSE_CONV_POOL,)
        )
        assert [op.kind for op in program.ops] == ["conv2d", "maxpool2d"]

    def test_int8_ingest_marks_first_conv(self):
        net = _lenet_like(np.random.default_rng(0))
        program = ir.lower(
            _rows(net), (1, 28, 28),
            quantization=PARAMS8, rewrites=(ir.INT8_INGEST,),
        )
        assert ir.INT8_INGEST in program.rewrites
        assert program.consumes_codes
        assert program.in_spec.dtype == "u8"
        assert program.ops[0].dequant == PARAMS8
        assert program.ops[0].in_spec.dtype == "u8"
        # Everything downstream stays float.
        assert all(op.in_spec.dtype == "f32" for op in program.ops[1:])
        assert program.out_spec.dtype == "f32"

    def test_int8_ingest_16bit_uses_u16(self):
        net = Sequential(Linear(12, 3, rng=np.random.default_rng(0))).eval()
        program = ir.lower(
            _rows(net), (12,), quantization=PARAMS16,
            rewrites=(ir.INT8_INGEST,),
        )
        assert program.in_spec.dtype == "u16"

    def test_int8_ingest_flows_through_leading_flatten(self):
        net = Sequential(
            Flatten(), Linear(12, 3, rng=np.random.default_rng(0))
        ).eval()
        program = ir.lower(
            _rows(net), (3, 2, 2), quantization=PARAMS8,
            rewrites=(ir.INT8_INGEST,),
        )
        assert program.consumes_codes
        assert program.ops[0].kind == "flatten"
        assert program.ops[0].in_spec.dtype == "u8"
        assert program.ops[0].out_spec.dtype == "u8"
        assert program.ops[1].dequant == PARAMS8

    def test_int8_ingest_skipped_when_first_op_not_gemm(self):
        net = Sequential(
            ReLU(), Conv2d(1, 4, 3, rng=np.random.default_rng(0))
        ).eval()
        program = ir.lower(
            _rows(net), (1, 8, 8), quantization=PARAMS8,
            rewrites=(ir.INT8_INGEST,),
        )
        assert not program.consumes_codes
        assert program.rewrites == ()
        assert program.ops[0].dequant is None

    def test_fold_epilogue_add(self):
        net = _lenet_like(np.random.default_rng(0))
        program = ir.lower(
            _rows(net), (1, 28, 28), epilogue_add=True,
            rewrites=(ir.FOLD_EPILOGUE_ADD,),
        )
        assert program.extra == ir.EXTRA_FOLDED
        assert program.ops[-1].add_rows  # the linear head absorbs it
        assert sum(op.add_rows for op in program.ops) == 1

    def test_fold_epilogue_add_through_trailing_flatten(self):
        net = Sequential(
            Conv2d(1, 4, 3, rng=np.random.default_rng(0)), Flatten()
        ).eval()
        program = ir.lower(
            _rows(net), (1, 8, 8), epilogue_add=True,
            rewrites=(ir.FOLD_EPILOGUE_ADD,),
        )
        assert program.extra == ir.EXTRA_FOLDED
        assert program.ops[0].add_rows
        assert program.ops[-1].kind == "flatten"

    def test_epilogue_add_without_rewrite_stays_separate(self):
        net = _lenet_like(np.random.default_rng(0))
        program = ir.lower(_rows(net), (1, 28, 28), epilogue_add=True, rewrites=())
        assert program.extra == ir.EXTRA_SEPARATE
        assert not any(op.add_rows for op in program.ops)

    def test_fused_cost_charged_at_conv_plane(self):
        # Fusing the pool must not change the op's MAC price (the planner
        # pins Figure 6 products on it).
        net = _lenet_like(np.random.default_rng(0))
        fused = ir.lower(
            _rows(net), (1, 28, 28),
            rewrites=(ir.FUSE_RELU, ir.FUSE_CONV_POOL),
        )
        plain = ir.lower(_rows(net), (1, 28, 28), rewrites=())
        assert fused.ops[0].macs == plain.ops[0].macs
        assert sum(op.macs for op in fused.ops) == sum(
            op.macs for op in plain.ops
        )


class TestBufferPlan:
    def test_ping_pong_slots(self):
        net = _lenet_like(np.random.default_rng(0))
        program = ir.lower(_rows(net), (1, 28, 28), rewrites=())
        plan = ir.plan_buffers(program)
        # Flatten is free: 7 compute ops -> alternating slots, last is the
        # program output.
        assert plan.slots == (0, 1, 0, 1, 0, 1, -1)
        intermediates = [
            op.out_spec.elements
            for op in program.ops[:-1]
            if op.kind != "flatten"
        ]
        assert plan.arena_elements == max(intermediates)

    @pytest.mark.parametrize(
        "c_in,size,stride,padding,pool,expected",
        [
            # 18x18 padded plane, 64 slack floats, 4 channels x the
            # 15*18 + 16 = 286 output lanes in whole 64-lane tiles.
            (1, 16, 1, 1, False, 18 * 18 + 64 + 4 * 320),
            # The same with a fused pool: the staging is the same size.
            (1, 16, 1, 1, True, 18 * 18 + 64 + 4 * 320),
            # Stride 2: four 8x8 phase planes; 6*8 + 7 = 55 lanes.
            (1, 16, 2, 0, False, 4 * 8 * 8 + 64 + 4 * 64),
            # alexnet conv0's geometry: 3 channels x 4 phases of 35x35, and
            # 31*35 + 32 = 1117 lanes; its im2col panel was 147 x 1024.
            (3, 64, 2, 3, False, 3 * 4 * 35 * 35 + 64 + 4 * 1152),
        ],
    )
    def test_float_conv_scratch_is_phase_planes_slack_and_stage(
        self, c_in, size, stride, padding, pool, expected
    ):
        kernel = 7 if size == 64 else 3
        layers = [Conv2d(c_in, 4, kernel, stride=stride, padding=padding,
                         rng=np.random.default_rng(0)), ReLU()]
        if pool:
            layers.append(MaxPool2d(2, 2))
        net = Sequential(*layers).eval()
        program = ir.lower(
            _rows(net), (c_in, size, size), rewrites=ir.ALL_REWRITES
        )
        op = program.ops[0]
        assert op.pool == pool
        plan = ir.plan_buffers(program)
        assert plan.scratch_elements == expected
        # The flat kernel's footprint: phase planes, then the zeroed
        # over-read slack (its widest tile reads 63 lanes past the end),
        # then 4 channel rows of staging covering every output lane.
        (kh, kw), (sh, sw), (ph, pw) = op.kernel, op.stride, op.padding
        hq, wq = -(-(size + 2 * ph) // sh), -(-(size + 2 * pw) // sw)
        lanes = (op.oh - 1) * wq + op.ow
        assert plan.scratch_elements >= c_in * sh * sw * hq * wq + 63 + 4 * lanes
        if size == 64:
            assert plan.scratch_elements < c_in * kh * kw * op.oh * op.ow / 7

    def test_integer_conv_scratch_is_quad_planes_slack_and_stage(self):
        net = Sequential(
            Conv2d(5, 4, 3, stride=2, rng=np.random.default_rng(0))
        ).eval()
        program = ir.lower(
            _rows(net), (5, 16, 16), quantization=PARAMS8,
            rewrites=(ir.INT8_WEIGHTS, ir.INT8_INGEST),
        )
        op = program.ops[0]
        assert ir.integer_matmul_eligible(op)
        plan = ir.plan_buffers(program)
        # The integer flat conv's footprint: 2 channel quads (one partial)
        # x 4 phase planes of 8x8 4-byte words, each the size of a float;
        # the 64-word slack; 4 channel rows of staging for 6*8 + 7 lanes.
        assert plan.scratch_elements == 2 * 4 * 8 * 8 + 64 + 4 * 64

    def test_single_position_conv_scratch_is_one_column(self):
        net = Sequential(
            Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0))
        ).eval()
        program = ir.lower(_rows(net), (3, 1, 1), rewrites=())
        assert ir.plan_buffers(program).scratch_elements == 3 * 3 * 3


class TestEnvironment:
    def test_kill_switch(self, monkeypatch):
        monkeypatch.setenv(ir.DISABLE_REWRITES_ENV_VAR, "1")
        assert ir.default_rewrites() == ()

    def test_allowlist(self, monkeypatch):
        monkeypatch.delenv(ir.DISABLE_REWRITES_ENV_VAR, raising=False)
        monkeypatch.setenv(
            ir.SELECT_REWRITES_ENV_VAR, "fold_epilogue_add, fuse_relu"
        )
        # Pipeline order is fixed regardless of listing order.
        assert ir.default_rewrites() == (ir.FUSE_RELU, ir.FOLD_EPILOGUE_ADD)

    def test_kill_switch_beats_allowlist(self, monkeypatch):
        monkeypatch.setenv(ir.DISABLE_REWRITES_ENV_VAR, "1")
        monkeypatch.setenv(ir.SELECT_REWRITES_ENV_VAR, "fuse_relu")
        assert ir.default_rewrites() == ()

    def test_unknown_rewrite_raises(self, monkeypatch):
        monkeypatch.delenv(ir.DISABLE_REWRITES_ENV_VAR, raising=False)
        monkeypatch.setenv(ir.SELECT_REWRITES_ENV_VAR, "fuse_everything")
        with pytest.raises(ConfigurationError):
            ir.default_rewrites()

    def test_default_is_all(self, monkeypatch):
        monkeypatch.delenv(ir.DISABLE_REWRITES_ENV_VAR, raising=False)
        monkeypatch.delenv(ir.SELECT_REWRITES_ENV_VAR, raising=False)
        assert ir.default_rewrites() == ir.ALL_REWRITES


class TestCostModelIntegration:
    """The planner satellite: per-op costs come from the lowered IR and
    must reproduce the historical closed-form values exactly."""

    @pytest.mark.parametrize("name", ["lenet", "svhn"])
    def test_ir_macs_equal_closed_form(self, name):
        model = build_model(name, np.random.default_rng(0), width=0.5).eval()
        for cost in profile_network(model):
            module = model.net[cost.name]
            if isinstance(module, Conv2d):
                expected = (
                    cost.output_elements
                    * module.in_channels
                    * module.kernel_size[0]
                    * module.kernel_size[1]
                )
            elif isinstance(module, Linear):
                expected = module.in_features * module.out_features
            else:
                expected = 0
            assert cost.macs == expected

    def test_layer_macs_reads_the_ir(self):
        conv = Conv2d(3, 8, 3, rng=np.random.default_rng(0))
        op = ir.lower_module(conv, (3, 8, 8))
        assert layer_macs(conv, (1, 3, 8, 8), (1, 8, 6, 6)) == op.macs

    def test_program_costs_cover_every_op(self):
        net = _lenet_like(np.random.default_rng(0))
        program = ir.lower(_rows(net), (1, 28, 28), rewrites=())
        costs = ir.program_costs(program)
        assert len(costs) == len(program.ops)
        assert sum(c.macs for c in costs) == sum(op.macs for op in program.ops)
        assert all(c.output_bytes == 4 * c.output_elements for c in costs)

    def test_unsupported_layer_prices_zero(self):
        assert layer_macs(BatchNorm2d(4), (1, 4, 8, 8), (1, 4, 8, 8)) == 0


class TestPlannerGolden:
    """Golden plans on the stock nets: moving these numbers means the
    IR-backed cost model changed planner behaviour."""

    @pytest.mark.parametrize(
        "name,cut,window",
        [
            ("lenet", "conv0", 6),
            ("lenet", "conv1", 6),
            ("lenet", "conv2", 6),
            ("svhn", "conv0", 3),
            ("svhn", "conv1", 5),
            ("svhn", "conv2", 4),
        ],
    )
    def test_plan_stability(self, name, cut, window):
        model = build_model(name, np.random.default_rng(0), width=0.5).eval()
        plan = plan_batch_window(
            model,
            cut,
            target_slo_seconds=0.05,
            arrival_rate_rps=200.0,
            service_seconds_per_sample=2e-4,
        )
        assert plan.feasible
        assert plan.window == window


class TestLowerCache:
    """Regression tests for the lowered-program / buffer-plan memoisation.

    Serving re-lowers the same module list on every session and hot-swap;
    the cache must return the identical program object on a repeat request
    (so code planes and buffer plans are shared, not rebuilt) and must key
    on everything that changes the lowering.
    """

    def test_repeat_lowering_returns_same_object(self, rng):
        net = _lenet_like(rng)
        ir.lower_cache_clear()
        first = ir.lower(_rows(net), (1, 28, 28))
        info = ir.lower_cache_info()
        assert info["misses"] == 1 and info["hits"] == 0
        second = ir.lower(_rows(net), (1, 28, 28))
        assert second is first
        info = ir.lower_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1

    def test_key_covers_rewrites_quantization_and_epilogue(self, rng, monkeypatch):
        # The distinct-entry assertions need the default pipeline on.
        monkeypatch.delenv(ir.DISABLE_REWRITES_ENV_VAR, raising=False)
        monkeypatch.delenv(ir.SELECT_REWRITES_ENV_VAR, raising=False)
        net = _lenet_like(rng)
        ir.lower_cache_clear()
        base = ir.lower(_rows(net), (1, 28, 28))
        no_rewrites = ir.lower(_rows(net), (1, 28, 28), rewrites=())
        quantised = ir.lower(_rows(net), (1, 28, 28), quantization=PARAMS8)
        epilogue = ir.lower(_rows(net), (1, 28, 28), epilogue_add=True)
        programs = {id(base), id(no_rewrites), id(quantised), id(epilogue)}
        assert len(programs) == 4
        assert ir.lower_cache_info()["size"] == 4
        # And each variant is itself cached.
        assert ir.lower(_rows(net), (1, 28, 28), quantization=PARAMS8) is quantised

    def test_distinct_modules_do_not_share_entries(self, rng):
        ir.lower_cache_clear()
        a = ir.lower(_rows(_lenet_like(rng)), (1, 28, 28))
        b = ir.lower(_rows(_lenet_like(rng)), (1, 28, 28))
        assert a is not b
        assert ir.lower_cache_info()["misses"] == 2

    def test_module_collection_evicts_entries(self, rng):
        import gc

        ir.lower_cache_clear()
        net = _lenet_like(rng)
        ir.lower(_rows(net), (1, 28, 28))
        assert ir.lower_cache_info()["size"] == 1
        del net
        gc.collect()
        assert ir.lower_cache_info()["size"] == 0

    def test_plan_buffers_memoised_per_program(self, rng, monkeypatch):
        # Rewritten vs rewrite-free must be distinct cache entries here.
        monkeypatch.delenv(ir.DISABLE_REWRITES_ENV_VAR, raising=False)
        monkeypatch.delenv(ir.SELECT_REWRITES_ENV_VAR, raising=False)
        net = _lenet_like(rng)
        ir.lower_cache_clear()
        program = ir.lower(_rows(net), (1, 28, 28))
        plan_a = ir.plan_buffers(program)
        plan_b = ir.plan_buffers(program)
        assert plan_b is plan_a
        # A fresh (uncached) equivalent program gets its own plan.
        other = ir.lower(_rows(net), (1, 28, 28), rewrites=())
        assert ir.plan_buffers(other) is not plan_a

    def test_clear_resets_counters_and_entries(self, rng):
        net = _lenet_like(rng)
        ir.lower(_rows(net), (1, 28, 28))
        ir.lower_cache_clear()
        info = ir.lower_cache_info()
        assert info == {"hits": 0, "misses": 0, "size": 0}
