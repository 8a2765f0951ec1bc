"""First-class op-program IR for the serving executor (schedule/lowering split).

Every forward the serving runtime performs — the edge half on the
dispatcher, the cloud half on each worker, the sequential reference path —
runs a frozen eval-mode :class:`~repro.nn.Sequential`.  Before this module
existed the network was lowered three separate times: the numpy executor
kept a per-module handler plan, :mod:`repro.edge._fastexec` owned an ad-hoc
flat op program for the compiled C kernels, and quantised uplinks were
dequantised by :mod:`repro.edge.quantization` before either saw them.
This module is the **single lowering pass** that replaces all three:

* :func:`segment_modules` splits a layer list into IR-lowerable runs and
  python-fallback runs (anything in training mode or unrecognised — every
  eval-mode half of the four backbones is one IR run);
* :func:`lower` turns one run into a :class:`Program` — a typed op list
  (:class:`IROp`: op kind, per-sample shapes, dtypes, weight references)
  plus input/output specs — and then applies the **rewrite pipeline**;
* :func:`plan_buffers` derives the schedule's buffer lifetimes: which
  ping-pong arena each op writes, how large the arenas and the native
  conv kernels' per-sample scratch panel must be.  Backends allocate what
  the plan says; they do not re-derive shapes.

Both executor backends are *interpreters of the same lowered program*:
the numpy interpreter (:class:`repro.edge.executor._NumpyProgram`) walks
``Program.ops`` with batch-invariant numpy kernels, and the native backend
(:class:`repro.edge._fastexec.CompiledProgram`) translates the same ops
into the flat int64 record array its C interpreter executes.  There is no
backend-private lowering path.

Normalisation
=============

Canonical lowering — not a rewrite, so it also holds with the pipeline
off — turns an eval-mode BatchNorm2d into a per-channel affine
``(y − mean) / sd · gamma + beta`` with ``sd = sqrt(running_var + eps)``
computed in f32, the training-path functional's op order
(:class:`ChannelAffine`).  A BatchNorm that directly follows a conv folds
into that conv's epilogue: the affine runs after the bias and after any
dequant or int8-weight scale, and before ReLU, the fused pool and the
folded noise add — so ``fuse_relu`` and ``fuse_conv_pool`` fire on
conv→BN→ReLU→pool blocks.  Any other BatchNorm becomes a standalone
``affine`` op, and LocalResponseNorm an ``lrn`` op.  The constants are
frozen copies taken at lowering, and the lowering cache keys them by
content, so a new lowering sees a BatchNorm updated in place (a
training-mode forward, statistics loaded into the same arrays).  A
program an executor already holds keeps the constants it was lowered
with.  Neither op costs MACs.
The numpy interpreter runs the functionals' own numpy op order; the
native backend is f32-close, because ``gcc`` contracts ``x̂·gamma + beta``
into an FMA and computes the LRN power with a vectorised polynomial.

Rewrites
========

A rewrite is a pure function ``Program -> Program`` that may change *how*
a result is computed but never *what* is computed beyond float32
round-off.  The pipeline (fixed order, each individually toggleable):

``fuse_relu``
    Folds a standalone ReLU into the directly preceding Conv2d/Linear
    epilogue (bitwise-neutral: the same f32 max runs at the output write).
``fuse_conv_pool``
    Collapses ``conv → [relu] → maxpool(2x2/2)`` into one fused op when
    the conv (float or fully integer) passes :func:`direct_conv_eligible`,
    so the native backend
    pools the conv plane from its kernel's scratch instead of writing it
    out and re-reading it (bitwise-neutral per backend: conv elements keep
    their exact accumulation schedule, pooling is a max of identical
    floats).
``int8_ingest``
    When the program's input is a quantised uplink (integer codes) and the
    first compute op is a Conv2d/Linear, the op consumes the codes
    directly: codes are widened to f32 in the kernel's scratch (phase
    planes and im2col columns carry code *values*, padding carries the
    zero point, which dequantises to exactly 0.0) and the affine
    dequantisation is
    folded into the epilogue as ``out = scale·acc + (bias − scale·zp·Σw)``.
    This removes the batch-sized f32 dequantised copy entirely.  Results
    are f32-close (not bitwise) to dequantise-then-run.
``fold_epilogue_add``
    Folds a trailing per-row tensor addition (the Shredder noise add) into
    the last op's output write, removing one full traversal of the
    activation per batch (bitwise-neutral: the same f32 add runs at the
    output write).
``int8_weights`` (opt-in, never in the default pipeline)
    Replaces every conv/linear weight reference with per-output-channel
    symmetric int8 codes (:func:`repro.edge.quantization.quantize_weights`)
    applied in the epilogue as ``out = scales[oc]·acc + bias``.  Composed
    with ``int8_ingest`` the first conv/GEMM becomes fully integer:
    u8-act × i8-weight → i32 accumulation with the combined scale
    ``scale_act·scales[oc]`` and the zero-point row-sum correction folded
    into the bias (f64 fold, stored f32).  This is the first
    *accuracy-affecting* rewrite — quantised weights change what is
    computed, not just how — so it never enters :func:`default_rewrites`
    and is requested explicitly via ``weight_bits=8`` on executor
    construction (or by naming it in ``REPRO_IR_REWRITES``).  Its
    differential gate is ≥99% label agreement vs the f32 reference, not
    f32 closeness; bitwise batch-invariance and run-to-run determinism per
    backend still hold unconditionally.  The codes are copies taken at
    lowering, so under this rewrite the lowering cache keys the weights
    they quantise by content, as it keys BatchNorm constants.

Determinism contract (inherited from PR 4, enforced by the per-rewrite
differential fuzz in ``tests/edge/test_native_kernels.py``): for any fixed
rewrite set, each backend remains bitwise batch-invariant and run-to-run
deterministic; across backends — and across rewrite on/off togglings —
results are f32-close (with the quantised-weights carve-out above: the
``int8_weights`` on↔off comparison is label-agreement-gated instead).
Rewrite decisions depend only on per-sample geometry and dtypes, never on
the batch size, so the sequential reference and every batched path make
identical decisions.

Lowered-program cache
=====================

:func:`lower` memoises its result per (module identities, per-sample
geometry, quantisation, epilogue-add, rewrite set, BatchNorm constants and,
under ``int8_weights``, the quantised weights) so
``warm()``, healing respawns, hot-swapped deployments and the noise
trainer's per-call executors stop re-lowering — and re-quantising — the
same segment; :func:`plan_buffers` memoises per program.  Entries are
evicted by weakref callback the moment a source module is collected, so a
hot-swap that *replaces* modules can never hit a stale entry, and a
program lowered from newer BatchNorm statistics or int8-quantised weights
replaces its predecessor's entry.  :func:`lower_cache_info` exposes
hit/miss counters.

Environment
===========

``REPRO_NO_IR_REWRITES=1`` disables the whole rewrite pipeline (canonical
lowering only — the fallback path CI pins); ``REPRO_IR_REWRITES=a,b``
restricts it to a named subset.  Both are snapshotted at executor
construction, like ``kernel_backend``.  ``REPRO_NO_C_KERNEL=1`` disables
the native backend as before; the IR (and its rewrites) applies to the
numpy interpreter too.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass, replace

import numpy as np

from repro.edge.quantization import (
    QuantizationParams,
    WeightQuantization,
    quantize_weights,
)
from repro.errors import ConfigurationError
from repro.nn import Linear
from repro.nn.im2col import conv_output_size
from repro.nn.layers.activation import ReLU
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.norm import BatchNorm2d, LocalResponseNorm
from repro.nn.layers.pooling import MaxPool2d

#: Rewrite names, in pipeline order.
FUSE_RELU = "fuse_relu"
FUSE_CONV_POOL = "fuse_conv_pool"
INT8_INGEST = "int8_ingest"
FOLD_EPILOGUE_ADD = "fold_epilogue_add"
INT8_WEIGHTS = "int8_weights"
#: The default pipeline: semantics-preserving rewrites only.
ALL_REWRITES = (FUSE_RELU, INT8_INGEST, FUSE_CONV_POOL, FOLD_EPILOGUE_ADD)
#: Accuracy-affecting rewrites a caller must explicitly request.
OPT_IN_REWRITES = (INT8_WEIGHTS,)
#: Every rewrite the pipeline can run, in application order.  Pool fusion
#: (:func:`direct_conv_eligible`) does not depend on the weight or input
#: regime, so where int8_weights and int8_ingest run changes no decision.
PIPELINE_ORDER = (FUSE_RELU, INT8_WEIGHTS, INT8_INGEST, FUSE_CONV_POOL, FOLD_EPILOGUE_ADD)
KNOWN_REWRITES = PIPELINE_ORDER

#: Kill-switch: any non-empty value disables every IR rewrite.
DISABLE_REWRITES_ENV_VAR = "REPRO_NO_IR_REWRITES"
#: Comma-separated allowlist restricting the pipeline to a subset.
SELECT_REWRITES_ENV_VAR = "REPRO_IR_REWRITES"

#: Stride-1 convs with output rows in this width range may fuse a
#: trailing 2x2/2 pool (:func:`direct_conv_eligible`).  The window is a
#: program property only: the native flat-plane conv runs every float
#: conv, fused pool or not, at any width.  Widening it would change which
#: programs fuse.
DIRECT_CONV_MIN_OW = 8
DIRECT_CONV_MAX_OW = 128

#: Integer-code dtypes a program input may carry (quantised uplinks).
CODE_DTYPES = {8: "u8", 16: "u16"}

#: Largest reduction depth K for which the fully integer u8×i8 path is
#: taken: per-product magnitude is ≤ 255·127 < 2**15, so any K below this
#: keeps the i32 accumulator exact.  Deeper ops fall back to the
#: float-widening path.  A per-geometry (never per-batch) decision.
INT8_ACC_MAX_K = 1 << 16


def default_rewrites() -> tuple[str, ...]:
    """The rewrite pipeline the environment configures.

    ``REPRO_NO_IR_REWRITES`` (any non-empty value) turns everything off;
    otherwise ``REPRO_IR_REWRITES`` may name a comma-separated subset —
    including the opt-in ``int8_weights``, which is otherwise never on by
    default.  Executors snapshot this once at construction.
    """
    if os.environ.get(DISABLE_REWRITES_ENV_VAR):
        return ()
    selected = os.environ.get(SELECT_REWRITES_ENV_VAR)
    if selected is None:
        return ALL_REWRITES
    names = tuple(name.strip() for name in selected.split(",") if name.strip())
    unknown = set(names) - set(KNOWN_REWRITES)
    if unknown:
        raise ConfigurationError(
            f"unknown IR rewrites in ${SELECT_REWRITES_ENV_VAR}: "
            f"{sorted(unknown)} (known: {list(KNOWN_REWRITES)})"
        )
    return tuple(name for name in PIPELINE_ORDER if name in names)


# ----------------------------------------------------------------------
# IR data model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TensorSpec:
    """Per-sample shape + dtype of a value flowing between ops.

    ``dtype`` is ``"f32"`` for float activations or ``"u8"``/``"u16"``
    for quantised integer codes (only ever a *program input*; every op
    output is f32).
    """

    shape: tuple[int, ...]
    dtype: str = "f32"

    @property
    def elements(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def numpy_dtype(self) -> np.dtype:
        return np.dtype({"f32": np.float32, "u8": np.uint8, "u16": np.uint16}[self.dtype])


@dataclass(frozen=True, eq=False)
class ChannelAffine:
    """Frozen eval-mode BatchNorm2d constants, one entry per channel.

    Applied as ``(y − mean) / sd · gamma + beta`` with
    ``sd = sqrt(running_var + eps)`` computed in f32 — the training-path
    functional's op order.  Copies taken at lowering; the lowering cache
    keys them by the module's content (see :func:`_lower_cache_key`).
    """

    mean: np.ndarray
    sd: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray

    @classmethod
    def from_module(cls, module: BatchNorm2d) -> "ChannelAffine":
        return cls(
            mean=np.array(module.running_mean, dtype=np.float32),
            sd=np.sqrt(module.running_var + module.eps).astype(np.float32),
            gamma=np.array(module.gamma.data, dtype=np.float32),
            beta=np.array(module.beta.data, dtype=np.float32),
        )


@dataclass(frozen=True)
class LRNParams:
    """Cross-channel local response normalisation, as the module holds it:
    ``x · (k + alpha/size · Σ_window x²) ** −beta``."""

    size: int
    alpha: float
    beta: float
    k: float


@dataclass(frozen=True)
class IROp:
    """One op of a lowered program.

    Geometry is per-sample; the batch dimension is an interpreter
    parameter.  Epilogue state (``relu``, ``pool``, ``dequant``,
    ``add_rows``) is what the rewrite pipeline edits; canonical lowering
    emits it all unset, except ``affine``, which canonical lowering sets on
    a conv that an eval-mode BatchNorm2d directly follows.

    Attributes:
        kind: ``"conv2d"`` | ``"linear"`` | ``"relu"`` | ``"maxpool2d"``
            | ``"affine"`` | ``"lrn"`` | ``"flatten"``.
        in_spec / out_spec: Value specs around this op (``out_spec`` is
            the *pooled* shape when ``pool`` is set).
        kernel / stride / padding: Conv or pool window geometry.
        oh / ow: Conv (pre-pool) or pool output height/width.
        weight / bias: Parameter references — ``weight`` is the GEMM-ready
            ``(out_features, K)`` float32 view; live arrays, not copies.
        relu: Fused ReLU in the output epilogue.
        pool: Fused eval-mode 2x2/2 max pool after the (relu'd) conv.
        dequant: When set, the op consumes integer codes of these affine
            params and folds dequantisation into its epilogue.
        wq: When set (``int8_weights``), the op's arithmetic weight is the
            int8 code plane ``wq.codes`` with per-output-channel
            ``wq.scales`` applied in the epilogue; ``weight`` stays the
            live f32 reference for cost pricing only — backends must not
            touch it.
        affine: Per-channel BatchNorm constants.  On a conv it is an
            epilogue step after the bias and any dequant / int8-weight
            scale, before ReLU, the fused pool and the folded add; on an
            ``"affine"`` op it is the whole op.
        lrn: The ``"lrn"`` op's parameters.
        add_rows: The op adds the program's extra per-row input tensor at
            its output write (the folded noise add).
        source: Layer indices (within the original Sequential) this op
            covers — cost attribution and debugging.
    """

    kind: str
    in_spec: TensorSpec
    out_spec: TensorSpec
    kernel: tuple[int, int] = (0, 0)
    stride: tuple[int, int] = (0, 0)
    padding: tuple[int, int] = (0, 0)
    oh: int = 0
    ow: int = 0
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    relu: bool = False
    pool: bool = False
    dequant: QuantizationParams | None = None
    wq: WeightQuantization | None = None
    affine: ChannelAffine | None = None
    lrn: LRNParams | None = None
    add_rows: bool = False
    source: tuple[int, ...] = ()

    # -- derived ------------------------------------------------------
    @property
    def macs(self) -> int:
        """Per-sample multiply-accumulates of this op (the §3.4 model)."""
        if self.kind == "conv2d":
            c_in = self.in_spec.shape[0]
            c_out = self.out_spec.shape[0]
            kh, kw = self.kernel
            # The cost model charges the conv at its own output plane even
            # when a fused pool discards the odd row/column tail — fusion
            # must not perturb the planner's Figure 6 products.
            return self.oh * self.ow * c_out * c_in * kh * kw
        if self.kind == "linear":
            return self.in_spec.elements * self.out_spec.elements
        return 0


#: How a program's extra per-row input (the noise add) is applied.
EXTRA_NONE = "none"          # no extra input
EXTRA_SEPARATE = "separate"  # interpreter adds it after the last op
EXTRA_FOLDED = "folded"      # last op absorbs it (fold_epilogue_add)


@dataclass(frozen=True)
class Program:
    """A lowered (and possibly rewritten) op program for one segment.

    Attributes:
        ops: The schedule, in execution order.
        in_spec: Per-sample input value ( ``u8``/``u16`` when the first op
            ingests quantised codes directly; otherwise callers must hand
            the interpreter a float32 input).
        out_spec: Per-sample output value (always f32).
        extra: :data:`EXTRA_NONE` / :data:`EXTRA_SEPARATE` /
            :data:`EXTRA_FOLDED` — the epilogue-add operand state.
        rewrites: The rewrite names that actually changed this program
            (diagnostics; equality of programs is structural).
    """

    ops: tuple[IROp, ...]
    in_spec: TensorSpec
    out_spec: TensorSpec
    extra: str = EXTRA_NONE
    rewrites: tuple[str, ...] = ()

    @property
    def consumes_codes(self) -> bool:
        """Whether the interpreter is handed raw quantised codes."""
        return self.in_spec.dtype != "f32"


@dataclass(frozen=True)
class BufferPlan:
    """Buffer lifetimes of a program under ping-pong arena execution.

    Every op reads its predecessor's output and writes the other arena
    (the last op writes the program output), so exactly two arenas of
    ``arena_elements`` floats per sample cover all intermediate values;
    ``scratch_elements`` sizes the shared per-sample scratch panel of the
    native conv and LRN kernels (see :func:`_conv_scratch`).

    Attributes:
        arena_elements: Per-sample float32 capacity each arena needs.
        scratch_elements: Per-sample float32 capacity of the shared panel.
        slots: Per-op destination: 0/1 for arena A/B, -1 for the program
            output buffer.
    """

    arena_elements: int
    scratch_elements: int
    slots: tuple[int, ...]


def direct_conv_eligible(op: IROp) -> bool:
    """Whether ``fuse_conv_pool`` may fuse a trailing pool into this conv.

    A stride-1 conv whose output width lies in
    ``[DIRECT_CONV_MIN_OW, DIRECT_CONV_MAX_OW]``, whatever its weight and
    input regime.  The window gates pool fusion only; it picks no kernel
    or tile (the native backend runs every conv with more than one output
    position, float or fully integer, on its flat-plane kernels, fused
    pool or not, at any width).
    """
    return (
        op.kind == "conv2d"
        and op.stride == (1, 1)
        and DIRECT_CONV_MIN_OW <= op.ow <= DIRECT_CONV_MAX_OW
    )


def reduction_depth(op: IROp) -> int:
    """K of the op's GEMM form: ``c_in·kh·kw`` for convs, features for linears."""
    if op.kind == "conv2d":
        return op.in_spec.shape[0] * op.kernel[0] * op.kernel[1]
    if op.kind == "linear":
        return op.in_spec.elements
    return 0


def integer_matmul_eligible(op: IROp) -> bool:
    """Whether the op runs the fully integer u8-act × i8-weight path.

    Requires quantised weights, a ≤8-bit code input (u8), and a reduction
    shallow enough that the i32 accumulator cannot overflow.  A fused pool
    does not matter: the integer conv pools in the same epilogue as the
    float one.  Depends only on per-sample geometry and dtypes, so both
    backends — and the sequential reference — take the same path for the
    same op.
    """
    return (
        op.wq is not None
        and op.dequant is not None
        and op.dequant.bits <= 8
        and 0 < reduction_depth(op) < INT8_ACC_MAX_K
    )


def epilogue_constants(
    op: IROp, *, ingest: bool = True
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """The affine constants an op's epilogue applies to its raw accumulator.

    Returns ``(scale, channel_scales, bias)`` such that the op's output is
    ``relu?(scale·acc + bias)`` when ``channel_scales`` is ``None``, or
    ``relu?(channel_scales[oc]·acc + bias[oc])`` otherwise.  All folds run
    in f64 and are stored f32 (the contract established by ``int8_ingest``):

    * plain op: ``(1.0, None, bias)``;
    * code ingest only: scalar dequant scale, bias corrected by
      ``−scale·zp·rowsum(W)``;
    * quantised weights only: per-channel ``wq.scales``, bias untouched
      (symmetric codes have zero point 0);
    * both composed: combined per-channel ``scale_act·wq.scales``, bias
      corrected by ``−comb·zp·rowsum(codes)``.

    ``ingest=False`` prices the epilogue as if the input were already
    dequantised f32 — the numpy fallback path that dequantises the code
    tensor before the op uses this.
    """
    dequant = op.dequant if ingest else None
    if op.wq is None and dequant is None:
        return 1.0, None, op.bias
    base = 0.0 if op.bias is None else op.bias.astype(np.float64)
    if op.wq is None:
        scale = float(dequant.scale)
        rowsum = op.weight.astype(np.float64).sum(axis=1)
        bias = np.ascontiguousarray(
            (base - scale * dequant.zero_point * rowsum).astype(np.float32)
        )
        return scale, None, bias
    w_scales = op.wq.scales.astype(np.float64)
    if dequant is None:
        return 1.0, np.ascontiguousarray(op.wq.scales), op.bias
    comb = float(dequant.scale) * w_scales
    rowsum = op.wq.codes.astype(np.float64).sum(axis=1)
    bias = np.ascontiguousarray(
        (base - comb * dequant.zero_point * rowsum).astype(np.float32)
    )
    return 1.0, np.ascontiguousarray(comb.astype(np.float32)), bias


def plan_buffers(program: Program) -> BufferPlan:
    """Derive arena/scratch sizes and per-op destinations for a program.

    Pure geometry — backends allocate what this says (the numpy
    interpreter sizes its reusable output buffers from the same specs).
    Memoised per program object (programs are frozen), so the plan is
    derived once however many executors interpret the same cached program.
    """
    entry = _PLAN_CACHE.get(id(program))
    if entry is not None and entry[0]() is program:
        return entry[1]
    plan = _plan_buffers_uncached(program)
    try:
        ref = weakref.ref(
            program, lambda _ref, key=id(program): _PLAN_CACHE.pop(key, None)
        )
    except TypeError:  # pragma: no cover - dataclasses are weakrefable
        return plan
    _PLAN_CACHE[id(program)] = (ref, plan)
    return plan


def _conv_scratch(op: IROp) -> int:
    """Per-sample scratch floats the native conv kernels need for ``op``."""
    c_in, h, w = op.in_spec.shape
    kh, kw = op.kernel
    sh, sw = op.stride
    ph, pw = op.padding
    groups = c_in
    if integer_matmul_eligible(op):
        # The fully integer conv's plane element is one 4-byte word per
        # channel quad, the size of a float.
        groups = -(-c_in // 4)
    elif op.oh * op.ow == 1:
        # One output position: the dot kernel's im2col column.
        return c_in * kh * kw
    # The flat-plane conv: the sh·sw phase planes of the padded input
    # (hq x wq each, per channel or quad); 64 zeroed words of slack, as
    # its widest tile (64 lanes) loads at most 63 lanes past the last
    # plane; and a staging area of 4 output channels x the flattened
    # output plane's lanes, (oh - 1)·wq + ow, rounded up to whole 64-lane
    # tiles.
    hq, wq = -(-(h + 2 * ph) // sh), -(-(w + 2 * pw) // sw)
    stage = 4 * -(-((op.oh - 1) * wq + op.ow) // 64) * 64
    return groups * sh * sw * hq * wq + 64 + stage


def _plan_buffers_uncached(program: Program) -> BufferPlan:
    arena = 0
    scratch = 1
    slots: list[int] = []
    which = 0
    compute_ops = [op for op in program.ops if op.kind != "flatten"]
    for index, op in enumerate(compute_ops):
        last = index == len(compute_ops) - 1
        slots.append(-1 if last else which)
        which ^= 1
        if not last:
            arena = max(arena, op.out_spec.elements)
        if op.kind == "lrn":
            # Per-sample squares of every channel, plus the base, exponent
            # and power rows of the channel being normalised.
            c, h, w = op.in_spec.shape
            scratch = max(scratch, (c + 3) * h * w)
        if op.kind == "conv2d":
            scratch = max(scratch, _conv_scratch(op))
    # Flatten-only programs still need a (degenerate) plan.
    if not compute_ops:
        slots = []
    return BufferPlan(
        arena_elements=max(arena, 1),
        scratch_elements=scratch,
        slots=tuple(slots),
    )


# ----------------------------------------------------------------------
# Segmentation: which layers the IR can absorb
# ----------------------------------------------------------------------
def supported(module) -> bool:
    """Whether the IR can absorb this layer.

    Eval-mode dropout is the identity and eval-mode BatchNorm2d a frozen
    per-channel affine; in training mode both depend on more than the row
    (random masks, batch statistics), so they stay on the python fallback
    and run the module's own forward.
    """
    if isinstance(module, (Conv2d, Linear, ReLU, MaxPool2d, Flatten, LocalResponseNorm)):
        return True
    return isinstance(module, (Dropout, BatchNorm2d)) and not module.training


def segment_modules(rows: list[tuple]) -> list[tuple[str, list[tuple]]]:
    """Split executor plan rows into ``("ir", rows)`` / ``("python", rows)``.

    ``rows`` are the executor's ``(index, module)`` tuples; the split is
    purely by :func:`supported`, preserving order.  Lowering of the
    ``"ir"`` runs happens later, per batch geometry.
    """
    segments: list[tuple[str, list[tuple]]] = []
    current_kind: str | None = None
    current: list[tuple] = []
    for row in rows:
        kind = "ir" if supported(row[1]) else "python"
        if kind != current_kind and current:
            segments.append((current_kind, current))
            current = []
        current_kind = kind
        current.append(row)
    if current:
        segments.append((current_kind, current))
    return segments


# ----------------------------------------------------------------------
# Lowering (one pass, shared by every backend)
# ----------------------------------------------------------------------
def _require_planes(module, shape: tuple[int, ...], channels: int | None = None) -> None:
    """Normalisation layers need a (C, H, W) value, with C = ``channels``."""
    if len(shape) != 3 or channels not in (None, shape[0]):
        raise ConfigurationError(
            f"{type(module).__name__} cannot normalise a segment carrying {shape}"
        )


def _lower_canonical(
    rows: list[tuple], input_shape: tuple[int, ...]
) -> list[IROp]:
    """Canonical (rewrite-free) lowering of one IR segment."""
    ops: list[IROp] = []
    shape = tuple(int(s) for s in input_shape)
    for row in rows:
        index, module = row[0], row[1]
        in_spec = TensorSpec(shape)
        if isinstance(module, Conv2d):
            c_in, h, w = shape
            if c_in != module.in_channels:
                raise ConfigurationError(
                    f"conv expects {module.in_channels} channels, segment "
                    f"carries {c_in}"
                )
            kh, kw = module.kernel_size
            sh, sw = module.stride
            ph, pw = module.padding
            oh = conv_output_size(h, kh, sh, ph)
            ow = conv_output_size(w, kw, sw, pw)
            c_out = module.out_channels
            weight = module.weight.data.reshape(c_out, c_in * kh * kw)
            if not weight.flags.c_contiguous:
                weight = np.ascontiguousarray(weight)
            shape = (c_out, oh, ow)
            ops.append(
                IROp(
                    kind="conv2d",
                    in_spec=in_spec,
                    out_spec=TensorSpec(shape),
                    kernel=(kh, kw),
                    stride=(sh, sw),
                    padding=(ph, pw),
                    oh=oh,
                    ow=ow,
                    weight=weight,
                    bias=None if module.bias is None else module.bias.data,
                    source=(index,),
                )
            )
        elif isinstance(module, Linear):
            in_f = int(np.prod(shape))
            if in_f != module.in_features:
                raise ConfigurationError(
                    f"linear expects {module.in_features} features, segment "
                    f"carries {in_f}"
                )
            shape = (module.out_features,)
            ops.append(
                IROp(
                    kind="linear",
                    in_spec=TensorSpec((in_f,)),
                    out_spec=TensorSpec(shape),
                    weight=module.weight.data,
                    bias=None if module.bias is None else module.bias.data,
                    source=(index,),
                )
            )
        elif isinstance(module, ReLU):
            ops.append(
                IROp(
                    kind="relu",
                    in_spec=in_spec,
                    out_spec=in_spec,
                    source=(index,),
                )
            )
        elif isinstance(module, MaxPool2d):
            c, h, w = shape
            kh, kw = module.kernel_size
            sh, sw = module.stride
            ph, pw = module.padding
            oh = conv_output_size(h, kh, sh, ph)
            ow = conv_output_size(w, kw, sw, pw)
            shape = (c, oh, ow)
            ops.append(
                IROp(
                    kind="maxpool2d",
                    in_spec=in_spec,
                    out_spec=TensorSpec(shape),
                    kernel=(kh, kw),
                    stride=(sh, sw),
                    padding=(ph, pw),
                    oh=oh,
                    ow=ow,
                    source=(index,),
                )
            )
        elif isinstance(module, Flatten):
            shape = (int(np.prod(shape)),)
            ops.append(
                IROp(
                    kind="flatten",
                    in_spec=in_spec,
                    out_spec=TensorSpec(shape),
                    source=(index,),
                )
            )
        elif isinstance(module, BatchNorm2d):
            _require_planes(module, shape, module.num_features)
            affine = ChannelAffine.from_module(module)
            if ops and ops[-1].kind == "conv2d" and ops[-1].affine is None:
                # Folded into the conv's epilogue, after its bias.
                ops[-1] = replace(
                    ops[-1], affine=affine, source=ops[-1].source + (index,)
                )
            else:
                ops.append(
                    IROp(kind="affine", in_spec=in_spec, out_spec=in_spec,
                         affine=affine, source=(index,))
                )
        elif isinstance(module, LocalResponseNorm):
            _require_planes(module, shape)
            lrn = LRNParams(module.size, module.alpha, module.beta, module.k)
            ops.append(
                IROp(kind="lrn", in_spec=in_spec, out_spec=in_spec, lrn=lrn,
                     source=(index,))
            )
        elif isinstance(module, Dropout) and not module.training:
            continue  # identity at inference time
        else:  # pragma: no cover - segment_modules filters these out
            raise ConfigurationError(f"IR cannot lower {type(module).__name__}")
    return ops


# ----------------------------------------------------------------------
# Rewrites (pure Program -> Program)
# ----------------------------------------------------------------------
def _rewrite_fuse_relu(ops: list[IROp]) -> tuple[list[IROp], bool]:
    out: list[IROp] = []
    changed = False
    for op in ops:
        if (
            op.kind == "relu"
            and out
            and out[-1].kind in ("conv2d", "linear")
            and not out[-1].relu
        ):
            out[-1] = replace(
                out[-1], relu=True, source=out[-1].source + op.source
            )
            changed = True
        else:
            out.append(op)
    return out, changed


def _rewrite_int8_weights(ops: list[IROp]) -> tuple[list[IROp], bool]:
    """Quantise every conv/linear weight to per-channel int8 codes.

    ``op.weight`` is kept as the live f32 reference (cost pricing); the
    arithmetic weight becomes ``op.wq.codes``.  Pool fusion treats the
    quantised conv like the float one, fully integer or not.
    """
    out: list[IROp] = []
    changed = False
    for op in ops:
        if op.kind in ("conv2d", "linear") and op.weight is not None and op.wq is None:
            out.append(replace(op, wq=quantize_weights(op.weight, bits=8)))
            changed = True
        else:
            out.append(op)
    return out, changed


def _rewrite_fuse_conv_pool(ops: list[IROp]) -> tuple[list[IROp], bool]:
    out: list[IROp] = []
    changed = False
    for op in ops:
        if (
            op.kind == "maxpool2d"
            and op.kernel == (2, 2)
            and op.stride == (2, 2)
            and op.padding == (0, 0)
            and out
            and out[-1].kind == "conv2d"
            and not out[-1].pool
            and direct_conv_eligible(out[-1])
            # A degenerate (empty) pool output stays unfused.
            and out[-1].oh >= 2
            and out[-1].ow >= 2
        ):
            conv = out[-1]
            out[-1] = replace(
                conv,
                pool=True,
                out_spec=op.out_spec,
                source=conv.source + op.source,
            )
            changed = True
        else:
            out.append(op)
    return out, changed


def _rewrite_int8_ingest(
    ops: list[IROp], quantization: QuantizationParams
) -> tuple[list[IROp], TensorSpec | None, bool]:
    """Mark the first compute op as a direct code consumer, if it can be.

    Applies when the program starts with (flattens then) a conv or linear;
    flattens are free on contiguous memory, so codes flow through them.
    Returns the (possibly) updated ops, the new program input spec (or
    ``None`` when the rewrite does not apply), and the changed flag.
    """
    code_dtype = CODE_DTYPES[8 if quantization.bits <= 8 else 16]
    first = None
    for position, op in enumerate(ops):
        if op.kind == "flatten":
            continue
        first = position
        break
    if first is None or ops[first].kind not in ("conv2d", "linear"):
        return ops, None, False
    target = ops[first]
    rewritten = list(ops)
    rewritten[first] = replace(
        target,
        dequant=quantization,
        in_spec=TensorSpec(target.in_spec.shape, code_dtype),
    )
    in_spec = TensorSpec(ops[0].in_spec.shape, dtype=code_dtype)
    # Flattens ahead of the ingest op also carry the code dtype.
    for position in range(first):
        rewritten[position] = replace(
            rewritten[position],
            in_spec=TensorSpec(rewritten[position].in_spec.shape, code_dtype),
            out_spec=TensorSpec(rewritten[position].out_spec.shape, code_dtype),
        )
    return rewritten, in_spec, True


def _rewrite_fold_epilogue_add(ops: list[IROp]) -> tuple[list[IROp], bool]:
    """Let the last op absorb the program's extra per-row input."""
    if not ops:
        return ops, False
    # Trailing flattens are free reshapes; the add folds into the last
    # compute op and the reshape happens on top of it.
    last = len(ops) - 1
    while last >= 0 and ops[last].kind == "flatten":
        last -= 1
    if last < 0:
        return ops, False
    rewritten = list(ops)
    rewritten[last] = replace(rewritten[last], add_rows=True)
    return rewritten, True


# ----------------------------------------------------------------------
# Lowered-program cache
# ----------------------------------------------------------------------
#: slot -> (frozen constants, program); see _lower_cache_key.
_LOWER_CACHE: dict[tuple, tuple[tuple, Program]] = {}
_MODULE_REFS: dict[int, weakref.ref] = {}
_MODULE_KEYS: dict[int, set[tuple]] = {}
_PLAN_CACHE: dict[int, tuple[weakref.ref, BufferPlan]] = {}
_CACHE_COUNTERS = {"hits": 0, "misses": 0}


def _evict_module(module_id: int) -> None:
    """Drop every cached program that lowered this (now collected) module."""
    for key in _MODULE_KEYS.pop(module_id, ()):
        _LOWER_CACHE.pop(key, None)
    _MODULE_REFS.pop(module_id, None)


def _lower_cache_key(
    rows: list[tuple],
    input_shape: tuple[int, ...],
    quantization: QuantizationParams | None,
    epilogue_add: bool,
    rewrites: tuple[str, ...],
) -> tuple[tuple, tuple] | None:
    """Cache slot and frozen constants of one lowering request, or ``None``
    if uncacheable.

    The slot is (module identities, geometry, quantisation, epilogue-add,
    rewrites).  Identity stands in for the f32 conv/linear weights, which
    programs reference live.  Everything a program copies at lowering is
    keyed by content instead and completes the key: each BatchNorm's
    ``running_mean``, ``running_var``, ``gamma``, ``beta`` and ``eps``, and,
    when ``int8_weights`` is among the rewrites, the conv/linear weights it
    quantises into int8 codes.  After a training-mode forward, statistics
    loaded in place or, under ``int8_weights``, a weight updated in place,
    the next lowering misses, and its program replaces the slot's old one.  A weakref callback per
    module evicts its slots on collection, which makes id reuse by a later
    module harmless.
    """
    try:
        for row in rows:
            module_id = id(row[1])
            if module_id not in _MODULE_REFS:
                _MODULE_REFS[module_id] = weakref.ref(
                    row[1], lambda _ref, module_id=module_id: _evict_module(module_id)
                )
    except TypeError:  # pragma: no cover - all repro layers are weakrefable
        return None
    slot = (
        tuple((int(row[0]), id(row[1])) for row in rows),
        tuple(int(s) for s in input_shape),
        quantization,
        bool(epilogue_add),
        tuple(rewrites),
    )
    constants = tuple(
        (
            module.running_mean.tobytes(),
            module.running_var.tobytes(),
            module.gamma.data.tobytes(),
            module.beta.data.tobytes(),
            module.eps,
        )
        for module in (row[1] for row in rows)
        if isinstance(module, BatchNorm2d)
    )
    if INT8_WEIGHTS in rewrites:
        constants += tuple(
            module.weight.data.tobytes()
            for module in (row[1] for row in rows)
            if isinstance(module, (Conv2d, Linear))
        )
    return slot, constants


def lower_cache_info() -> dict[str, int]:
    """Hit/miss counters and current size of the lowered-program cache."""
    return {
        "hits": _CACHE_COUNTERS["hits"],
        "misses": _CACHE_COUNTERS["misses"],
        "size": len(_LOWER_CACHE),
    }


def lower_cache_clear() -> None:
    """Drop every cached program/plan and reset the counters (tests)."""
    _LOWER_CACHE.clear()
    _MODULE_REFS.clear()
    _MODULE_KEYS.clear()
    _PLAN_CACHE.clear()
    _CACHE_COUNTERS["hits"] = 0
    _CACHE_COUNTERS["misses"] = 0


def lower(
    rows: list[tuple],
    input_shape: tuple[int, ...],
    *,
    quantization: QuantizationParams | None = None,
    epilogue_add: bool = False,
    rewrites: tuple[str, ...] | None = None,
) -> Program:
    """Lower one IR segment and run the rewrite pipeline over it.

    Args:
        rows: ``(index, module, ...)`` plan rows of one ``"ir"`` segment.
        input_shape: Per-sample input shape of the segment.
        quantization: When the segment input is a quantised uplink, its
            affine params.  With the ``int8_ingest`` rewrite enabled and a
            foldable first op the returned program consumes the raw codes
            (``program.consumes_codes``); otherwise the caller must
            dequantise before interpreting (the fallback path).
        epilogue_add: Whether the caller will supply an extra per-row f32
            tensor to add to the program output (the noise add).  With
            ``fold_epilogue_add`` enabled and an absorbing last op the add
            runs inside that op's epilogue; otherwise ``program.extra`` is
            :data:`EXTRA_SEPARATE` and the interpreter adds it after.
        rewrites: Rewrite allowlist (default: :func:`default_rewrites`,
            i.e. the environment).  Order is fixed regardless of the
            listing order.

    Every decision here depends only on per-sample geometry and dtypes —
    never the batch size — which is what keeps rewrite choices identical
    between the sequential reference and any batched path.

    Results are memoised per (module identities, geometry, quantisation,
    epilogue-add, rewrites, BatchNorm constants, and int8-quantised
    weights under ``int8_weights``); see :func:`_lower_cache_key` and
    :func:`lower_cache_info`.
    """
    if rewrites is None:
        rewrites = default_rewrites()
    key = _lower_cache_key(rows, input_shape, quantization, epilogue_add, rewrites)
    if key is not None:
        slot, constants = key
        entry = _LOWER_CACHE.get(slot)
        if entry is not None and entry[0] == constants:
            _CACHE_COUNTERS["hits"] += 1
            return entry[1]
        _CACHE_COUNTERS["misses"] += 1
    program = _lower_uncached(
        rows,
        input_shape,
        quantization=quantization,
        epilogue_add=epilogue_add,
        rewrites=rewrites,
    )
    if key is not None:
        # Newer copied constants supersede the slot's old program.
        _LOWER_CACHE[slot] = (constants, program)
        for _index, module_id in slot[0]:
            _MODULE_KEYS.setdefault(module_id, set()).add(slot)
    return program


def _lower_uncached(
    rows: list[tuple],
    input_shape: tuple[int, ...],
    *,
    quantization: QuantizationParams | None,
    epilogue_add: bool,
    rewrites: tuple[str, ...],
) -> Program:
    ops = _lower_canonical(rows, input_shape)
    applied: list[str] = []
    if FUSE_RELU in rewrites:
        ops, changed = _rewrite_fuse_relu(ops)
        if changed:
            applied.append(FUSE_RELU)
    if INT8_WEIGHTS in rewrites:
        ops, changed = _rewrite_int8_weights(ops)
        if changed:
            applied.append(INT8_WEIGHTS)
    in_spec = TensorSpec(tuple(int(s) for s in input_shape))
    if quantization is not None and INT8_INGEST in rewrites:
        ops, code_spec, changed = _rewrite_int8_ingest(ops, quantization)
        if changed:
            in_spec = code_spec
            applied.append(INT8_INGEST)
    if FUSE_CONV_POOL in rewrites:
        ops, changed = _rewrite_fuse_conv_pool(ops)
        if changed:
            applied.append(FUSE_CONV_POOL)
    extra = EXTRA_NONE
    if epilogue_add:
        extra = EXTRA_SEPARATE
        if FOLD_EPILOGUE_ADD in rewrites:
            ops, changed = _rewrite_fold_epilogue_add(ops)
            if changed:
                extra = EXTRA_FOLDED
                applied.append(FOLD_EPILOGUE_ADD)
    out_spec = ops[-1].out_spec if ops else in_spec
    if ops and out_spec.dtype != "f32":  # pragma: no cover - codes never
        raise ConfigurationError("program output must be f32")  # leave a program
    return Program(
        ops=tuple(ops),
        in_spec=in_spec,
        out_spec=out_spec,
        extra=extra,
        rewrites=tuple(applied),
    )


# ----------------------------------------------------------------------
# Per-op cost model (consumed by repro.edge.costs / the planner)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpCost:
    """Cost profile of one lowered op (per sample).

    Attributes:
        kind: Op kind.
        macs: Multiply-accumulates.
        output_elements: Elements of the op output.
        output_bytes: Bytes of the op output at its dtype width.
        weight_bytes: Bytes of the op's parameters at their *storage*
            dtype — 1 byte/element for int8-quantised weights (plus the
            f32 per-channel scales), 4 bytes/element otherwise.  This is
            the working-set figure the planner prices.
        source: Source layer indices.
    """

    kind: str
    macs: int
    output_elements: int
    output_bytes: int
    weight_bytes: int
    source: tuple[int, ...]


def op_weight_bytes(op: IROp) -> int:
    """Parameter bytes of one op at its arithmetic storage width."""
    total = 0
    if op.wq is not None:
        total += op.wq.code_bytes + op.wq.scales.size * 4
    elif op.weight is not None:
        total += int(op.weight.size) * 4
    if op.bias is not None:
        total += int(op.bias.size) * 4
    return total


def op_cost(op: IROp) -> OpCost:
    """The §3.4 cost entry for one IR op."""
    return OpCost(
        kind=op.kind,
        macs=op.macs,
        output_elements=op.out_spec.elements,
        output_bytes=op.out_spec.elements * op.out_spec.numpy_dtype.itemsize,
        weight_bytes=op_weight_bytes(op),
        source=op.source,
    )


def program_costs(program: Program) -> tuple[OpCost, ...]:
    """Per-op costs of a lowered program, in schedule order."""
    return tuple(op_cost(op) for op in program.ops)


def lower_module(
    module, input_shape: tuple[int, ...], *, weight_bits: int | None = None
) -> IROp | None:
    """Canonically lower a single layer, or ``None`` if the IR can't.

    The cost model uses this to price individual layers from the same
    lowering pass the executors run, instead of re-deriving MAC formulas
    per layer type.  Eval-mode dropout lowers to nothing and returns
    ``None`` too (it is free either way).  ``weight_bits=8`` prices the
    layer as the ``int8_weights`` rewrite would execute it (quantised
    storage width in :func:`op_cost`).
    """
    if not supported(module):
        return None
    ops = _lower_canonical([(0, module)], input_shape)
    if weight_bits == 8:
        ops, _changed = _rewrite_int8_weights(ops)
    return ops[0] if ops else None
