"""Batch-invariant forward executor for the serving runtime.

The batched serving plane (:class:`~repro.serve.ControlPlane`) stacks many
requests into one forward pass, and its contract with the retained
sequential path is *bit-for-bit* equality:
given the same per-request noise draws, a request must produce the same
logits whether it travelled alone or inside a micro-batch.  Plain BLAS does
not give that guarantee — a 2-D GEMM picks kernels and blocking by matrix
geometry, so ``(x @ W.T)[i]`` changes in the last ulp as the batch
dimension changes.

:class:`BatchInvariantExecutor` compiles a frozen
:class:`~repro.nn.Sequential` into an inference-only plan in which every
kernel's per-row arithmetic is independent of the batch geometry.  The
layer list is split once by :func:`repro.edge.ir.segment_modules` into IR
segments (Conv2d, Linear, ReLU, MaxPool2d, Flatten, LocalResponseNorm,
eval-mode BatchNorm2d and Dropout) and python-fallback runs (anything in
training mode or unrecognised), so every eval-mode half of the four
backbones is a single IR segment.  Each IR segment is lowered **once per
per-sample input geometry** by :func:`repro.edge.ir.lower` — the single
lowering + rewrite pipeline shared by every backend — and the resulting
:class:`~repro.edge.ir.Program` gets one binding to whichever backend the
executor was constructed with, which runs every batch size.  Neither
backend owns lowering or fusion logic of its own.

Native backend (``kernel_backend="native"`` / the ``"auto"`` default)
=====================================================================

When a system C compiler is available, each lowered program runs in **one
C call per segment** via :class:`repro.edge._fastexec.CompiledProgram`:
one flat-plane conv kernel for every float conv (vector lanes over
consecutive positions of the padded, per-stride phase planes), row-blocked
linear dot products, fused scale/bias/BatchNorm/ReLU/pool/noise-add
epilogues, standalone affine and LRN passes, and quantised-code ingest —
all over reusable ping-pong scratch arenas.

*Backend selection* happens **once, at executor construction**:
``"auto"`` picks the native backend when the kernel compiles (and the
input is float32 or quantised codes), else numpy; ``"native"`` requires it
(raising :class:`~repro.errors.ConfigurationError` otherwise); ``"numpy"``
forces the numpy interpreter.  Every executor a deployment creates — the
edge device's, each cloud worker's — must use the same backend, which the
device/server constructors guarantee by threading one ``kernel_backend``
value through (a :class:`~repro.serve.ControlPlane` passes its own).

*Determinism contract*: both backends produce results that are a pure
function of the input row — per-sample conv GEMMs, row-blocked linear
products, fixed accumulation schedules — so batched and sequential serving
agree bitwise *within* a backend at a fixed rewrite configuration.  The
two backends are **not** bitwise identical to each other (both are
float32-exact to ~1e-6 relative of the float64 result); mixing backends
across the edge/cloud halves of one deployment is therefore a parity bug,
not a correctness bug.  IR rewrites may change results only within f32
round-off (see :mod:`repro.edge.ir`); the configured rewrite set is
snapshotted at construction, like the backend.

*Environment*: ``REPRO_NO_C_KERNEL=1`` disables the native kernels
process-wide (``"auto"`` falls back to numpy, ``"native"`` raises);
``REPRO_KERNEL_DIR`` relocates the compiled-artifact cache (see
:mod:`repro.native`); ``REPRO_NO_IR_REWRITES=1`` /
``REPRO_IR_REWRITES=a,b`` configure the IR rewrite pipeline for both
backends (see :mod:`repro.edge.ir`).

Numpy backend (``kernel_backend="numpy"``)
==========================================

:class:`_NumpyProgram` interprets the same lowered programs with
batch-invariant numpy kernels:

* **conv2d** — im2col columns contracted by a *per-sample* stacked
  ``np.matmul`` (each sample runs the identical ``(C_out, K) @ (K, OH*OW)``
  GEMM regardless of batch size, which is also how the training-path
  forward works), epilogue ops applied in place on the result;
* **linear** — the one geometry-sensitive op in the stack, replaced by a
  row-blocked product: ``np.matmul(x[:, None, :], W.T)`` broadcasts one
  ``(1, K) @ (K, N)`` GEMM per row;
* **maxpool2d** — a window-max reduction over the strided im2col view
  (no argmax bookkeeping: serving never needs the pooling gradient);
* **affine** (eval-mode BatchNorm, standalone or in a conv epilogue) and
  **lrn** — the training-path functionals' own numpy op order;
* quantised-code inputs are dequantised at the consuming op via
  :func:`repro.edge.quantization.dequantize` (numpy GEMMs cannot fold the
  affine map profitably, so this backend keeps the f32 materialisation
  and counts it in :attr:`BatchInvariantExecutor.ingest_dequants`) —
  *except* when the op also carries int8 weights and the fully integer
  path applies, in which case the codes feed an exact integer ``matmul``
  directly (see below).

Int8 weights (``weight_bits=8``)
================================

Constructing an executor with ``weight_bits=8`` adds the opt-in
``int8_weights`` rewrite to the snapshot (unless ``REPRO_NO_IR_REWRITES``
kills the pipeline): conv/linear ops carry per-output-channel int8 weight
codes (:class:`repro.edge.quantization.WeightQuantization`) and apply the
scales in their epilogue.  The native backend widens the codes in-register
(f32 path) or accumulates u8-act × i8-weight in exact int32 (composed with
``int8_ingest``; convs run its flat-plane integer kernel, fused pool or
not) — it never materialises an f32 copy of a quantised weight.  The
numpy interpreter runs one conv and one linear routine for every weight
form: f32 weights, a cached f32-widened copy of each code plane (counted
in :attr:`BatchInvariantExecutor.weight_dequants`, which the serving bench
asserts stays 0 on the native backend), or, on the integer path, cached
i32 codes in an exact int32 ``np.matmul`` against the raw codes.  Both
backends remain bitwise batch-invariant and run-to-run deterministic with
the rewrite on; the on↔off comparison is label-agreement-gated (see
:mod:`repro.edge.ir`).

Python-fallback segments (training-mode or unrecognised modules) run each
module's own forward under ``no_grad``.  So do non-float32 float inputs
(e.g. float64 probes), which bypass the IR entirely and keep their dtype.

Both backends reuse scratch across calls: repeated malloc/mmap churn
dominated the step overhead before buffers were cached.  Each lowered
program has one binding, whose buffers hold the largest batch it has
been sized for; every kernel indexes rows by per-sample sizes, so a
smaller batch runs on their leading rows, and a larger one resizes them.
Call :meth:`BatchInvariantExecutor.warm` once with the largest planned
batch at deploy time to pre-size everything off the latency path (the
:class:`~repro.serve.ControlPlane` does this with its window).  The
final output is always freshly owned, safe to hold across calls.

Invariance across the four backbones and both backends is enforced by
``tests/edge/test_executor.py`` and the kernel-vs-numpy differential fuzz
suite in ``tests/edge/test_native_kernels.py`` (which also toggles every
IR rewrite on/off).  Used by
:class:`~repro.edge.device.EdgeDevice` (single-request ``process`` *and*
stacked ``forward_batch``) and :class:`~repro.edge.device.CloudServer`,
which is what makes the serving plane's parity guarantee hold by
construction, and by
:meth:`~repro.core.split.SplitInferenceModel.activations`, which builds
one per call with the edge device's defaults so the noise trainer, the
activation cache, layerwise evaluation and the attack evaluations all see
the activations the device sends.
"""

from __future__ import annotations

import os

import numpy as np

from repro.edge import _fastexec, ir
from repro.edge.quantization import QuantizationParams, dequantize
from repro.errors import ChannelError, ConfigurationError
from repro.nn import Sequential, Tensor, no_grad
from repro.nn.im2col import extract_windows

KERNEL_BACKENDS = ("auto", "native", "numpy")

#: Dtypes the IR interpreters accept directly (f32 + quantised codes).
_IR_DTYPES = (np.dtype(np.float32), np.dtype(np.uint8), np.dtype(np.uint16))


def _affine(x: np.ndarray, affine: ir.ChannelAffine) -> np.ndarray:
    """Eval-mode BatchNorm in place on an NCHW batch, in the functional's
    op order ``(x − mean) / sd · gamma + beta``; elementwise, hence
    batch-invariant."""
    x -= affine.mean[:, None, None]
    x /= affine.sd[:, None, None]
    x *= affine.gamma[:, None, None]
    x += affine.beta[:, None, None]
    return x


def _local_response_norm(x: np.ndarray, params: ir.LRNParams) -> np.ndarray:
    """Cross-channel LRN with the functional's accumulation order."""
    n, c, h, w = x.shape
    size = params.size
    half = size // 2
    padded = np.zeros((n, c + size - 1, h, w), dtype=x.dtype)
    padded[:, half : half + c] = x * x
    window = padded[:, 0:c].copy()
    for offset in range(1, size):
        window += padded[:, offset : offset + c]
    denom = (window * (params.alpha / size) + params.k) ** (-params.beta)
    return x * denom


class _NumpyProgram:
    """Numpy interpreter for one lowered :class:`~repro.edge.ir.Program`.

    Walks ``Program.ops`` with batch-invariant numpy kernels on a batch
    of any size, reusing the executor's scratch slots.  Fused epilogue
    steps run the *same* numpy ops the standalone lowering would (the
    in-place BatchNorm affine, an in-place ``np.maximum`` for ReLU, the
    identical window-max for a fused pool, the identical ``+=`` for a
    folded add), so toggling rewrites never changes this backend's bits.  A ``dequant`` op
    dequantises its input here — numpy cannot fold the affine map into a
    GEMM profitably — which keeps this backend bitwise identical to the
    historical dequantise-then-run path.
    """

    def __init__(
        self,
        executor: "BatchInvariantExecutor",
        segment_index: int,
        program: ir.Program,
    ) -> None:
        self._executor = executor
        self._segment = segment_index
        self.program = program
        self.needs_extra = any(op.add_rows for op in program.ops)

    def _buffer(self, position: int, role: str, shape, dtype) -> np.ndarray:
        return self._executor._buffer(
            ("ir", self._segment, position, role), shape, dtype
        )

    def __call__(self, x: np.ndarray, extra: np.ndarray | None = None) -> np.ndarray:
        if self.needs_extra and extra is None:
            raise ValueError("program folds an epilogue add; extra is required")
        n = len(x)
        for position, op in enumerate(self.program.ops):
            integer_op = op.wq is not None and ir.integer_matmul_eligible(op)
            if op.dequant is not None and not integer_op:
                # The ingest rewrite marked this op a code consumer; the
                # numpy backend realises it as dequantise-then-run (the
                # fully integer path below skips this entirely).
                x = dequantize(x, op.dequant)
                self._executor.ingest_dequants += 1
            if op.kind == "flatten":
                x = np.ascontiguousarray(x).reshape(n, -1)
                continue
            if op.kind == "conv2d":
                x = self._conv(position, op, x, *self._operands(op, integer_op))
            elif op.kind == "linear":
                x = self._linear(position, op, x, *self._operands(op, integer_op))
            elif op.kind == "relu":
                out = self._buffer(position, "out", x.shape, np.float32)
                x = np.maximum(x, 0.0, out=out)
            elif op.kind == "maxpool2d":
                x = self._pool(position, x, op.kernel, op.stride, op.padding)
            elif op.kind == "affine":
                out = self._buffer(position, "out", x.shape, np.float32)
                np.copyto(out, x)
                x = _affine(out, op.affine)
            elif op.kind == "lrn":
                x = _local_response_norm(x, op.lrn)
            else:  # pragma: no cover - lowering controls the op kinds
                raise ValueError(f"IR op {op.kind!r} has no numpy lowering")
            if op.add_rows:
                x = x + extra.reshape(x.shape)
        return x

    def _conv_tail(self, position, op, out) -> np.ndarray:
        """A conv's epilogue after its bias: BatchNorm affine, ReLU, pool."""
        if op.affine is not None:
            _affine(out, op.affine)
        if op.relu:
            np.maximum(out, 0.0, out=out)
        if op.pool:
            out = self._pool(position, out, (2, 2), (2, 2), (0, 0))
        return out

    def _operands(self, op, integer_op) -> tuple:
        """A conv/linear op's weight matrix, panel dtype, pad value,
        channel scales and bias: f32 weights; f32-widened int8 codes; or,
        on the fully integer path, i32 codes against the raw activation
        codes (padded with the zero point, which dequantises to exactly
        0.0), with the (f64-folded) combined scales and corrected bias."""
        if op.wq is None:
            return op.weight, np.float32, 0, None, op.bias
        executor = self._executor
        _scale, cscale, bias = executor._epilogue(op, integer_op)
        if integer_op:
            return (executor._wq_i32(op), np.int32, op.dequant.zero_point,
                    cscale, bias)
        return executor._wq_f32(op), np.float32, 0, cscale, bias

    def _conv(self, position, op, x, weight, dtype, pad, cscale, bias) -> np.ndarray:
        """Stacked per-sample GEMM over the im2col panel (identical
        geometry for every sample, so the result is independent of n),
        exact on the i32 panel, then channel scales, bias and the tail."""
        n, c_out, m = len(x), op.out_spec.shape[0], op.oh * op.ow
        ph, pw = op.padding
        if ph or pw:
            x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                       constant_values=pad)
        windows = extract_windows(x, op.kernel, op.stride, (0, 0))
        cols = self._buffer(position, "cols", windows.shape, dtype)
        np.copyto(cols, windows)
        out = self._buffer(position, "acc", (n, c_out, m), dtype)
        np.matmul(weight, cols.reshape(n, -1, m), out=out)
        if cscale is not None:
            acc, out = out, self._buffer(position, "out", (n, c_out, m), np.float32)
            np.copyto(out, acc)  # i32 → f32 on the integer path
            out *= cscale.reshape(1, c_out, 1)
        if bias is not None:
            out += bias.reshape(1, c_out, 1)
        return self._conv_tail(position, op, out.reshape(n, c_out, op.oh, op.ow))

    def _linear(self, position, op, x, weight, dtype, _pad, cscale, bias) -> np.ndarray:
        """Row GEMM (see :meth:`_conv`); the i32 path widens the codes."""
        n, out_f = len(x), op.out_spec.elements
        if dtype is np.int32:
            xi = self._buffer(position, "x", x.shape, dtype)
            np.copyto(xi, x)
            x = xi
        out = self._buffer(position, "acc", (n, 1, out_f), dtype)
        np.matmul(x[:, None, :], weight.T, out=out)
        out = out.reshape(n, out_f)
        if cscale is not None:
            acc, out = out, self._buffer(position, "out", (n, out_f), np.float32)
            np.copyto(out, acc)
            out *= cscale
        if bias is not None:
            out += bias
        if op.relu:
            np.maximum(out, 0.0, out=out)
        return out

    def _pool(self, position, x, kernel, stride, padding) -> np.ndarray:
        windows = extract_windows(x, kernel, stride, padding)
        n, c, kh, kw, oh, ow = windows.shape
        cols = self._buffer(position, "pcols", windows.shape, np.float32)
        np.copyto(cols, windows)
        out = self._buffer(position, "pout", (n, c, oh, ow), np.float32)
        # Per-element window max on a contiguous copy (reducing the strided
        # view directly is an order of magnitude slower); serving never
        # needs the argmax the training path keeps for its gradient.
        return cols.reshape(n, c, kh * kw, oh, ow).max(axis=2, out=out)


class BatchInvariantExecutor:
    """Runs a frozen :class:`~repro.nn.Sequential` with batch-stable math.

    Args:
        net: The (local or remote) half of a split backbone; callers
            freeze it and put it in eval mode.
        kernel_backend: ``"auto"`` (native C kernels when available, the
            default), ``"native"`` (require them), or ``"numpy"`` (force
            the numpy interpreter).  See the module docstring for the
            selection and determinism contract.
        ir_rewrites: IR rewrite allowlist for this executor (default: the
            environment, via :func:`repro.edge.ir.default_rewrites`).
            Snapshotted once here, like the backend.
        weight_bits: ``8`` opts in to int8 weight quantisation (adds the
            ``int8_weights`` rewrite to the snapshot; overridden by the
            ``REPRO_NO_IR_REWRITES`` kill-switch, which pins the canonical
            f32 path).  ``None`` (default) keeps full-precision weights.

    Attributes:
        ingest_dequants: Number of batch-sized f32 dequantised copies this
            executor has materialised from quantised inputs.  Stays zero
            on the native backend when the ``int8_ingest`` rewrite covers
            every quantised call — the allocation assertion the serving
            bench makes.
        weight_dequants: Number of f32-widened weight-code copies this
            executor has materialised (numpy float path only, one per code
            plane, cached).  Stays zero on the native backend — the int8w
            bench's zero-f32-weight-copy assertion.
    """

    def __init__(
        self,
        net: Sequential,
        kernel_backend: str = "auto",
        ir_rewrites: tuple[str, ...] | None = None,
        weight_bits: int | None = None,
    ) -> None:
        if kernel_backend not in KERNEL_BACKENDS:
            raise ConfigurationError(
                f"kernel_backend must be one of {KERNEL_BACKENDS}, "
                f"got {kernel_backend!r}"
            )
        if kernel_backend == "native" and not _fastexec.available():
            raise ConfigurationError(
                "native kernel backend requested but the compiled kernels "
                "are unavailable (no C compiler, or REPRO_NO_C_KERNEL=1)"
            )
        if weight_bits not in (None, 8):
            raise ConfigurationError(
                f"weight_bits must be None or 8, got {weight_bits!r}"
            )
        self.net = net
        self.backend = (
            "native"
            if kernel_backend != "numpy" and _fastexec.available()
            else "numpy"
        )
        if ir_rewrites is None:
            names = set(ir.default_rewrites())
        else:
            unknown = set(ir_rewrites) - set(ir.KNOWN_REWRITES)
            if unknown:
                raise ConfigurationError(
                    f"unknown IR rewrites: {sorted(unknown)} "
                    f"(known: {list(ir.KNOWN_REWRITES)})"
                )
            names = set(ir_rewrites)
        if weight_bits == 8 and not os.environ.get(ir.DISABLE_REWRITES_ENV_VAR):
            names.add(ir.INT8_WEIGHTS)
        self.rewrites = tuple(
            name for name in ir.PIPELINE_ORDER if name in names
        )
        self.weight_bits = weight_bits
        self.ingest_dequants = 0
        self.weight_dequants = 0
        # id(op.wq) -> widened/int copies of the code plane (numpy backend).
        self._wq_f32_cache: dict[int, np.ndarray] = {}
        self._wq_i32_cache: dict[int, np.ndarray] = {}
        # (id(op), ingest) -> epilogue constants (shared per lowered op).
        self._epilogue_cache: dict[tuple[int, bool], tuple] = {}
        self._scratch: dict[tuple, np.ndarray] = {}
        self._segments = ir.segment_modules(list(enumerate(net.layers())))
        # The epilogue add belongs to the final segment when it is an IR
        # run; otherwise it is added after the last segment.
        self._fold_index = (
            len(self._segments) - 1
            if self._segments and self._segments[-1][0] == "ir"
            else None
        )
        # (segment, in_shape, quantization, epilogue_add) -> ir.Program,
        # and -> its one interpreter binding (any batch size)
        self._lowered: dict[tuple, ir.Program] = {}
        self._programs: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def _program(
        self,
        segment_index: int,
        rows: list,
        n: int,
        shape: tuple[int, ...],
        quantization: QuantizationParams | None,
        epilogue_add: bool,
    ):
        """The (lowered, interpreted) program for one segment geometry.

        Lowering and the interpreter binding are cached per sample
        geometry, keyed also on the quantisation params and the
        epilogue-add request because the rewrite pipeline's output
        depends on them.  A native binding runs any batch of up to the
        ``n`` it was built for; a larger batch replaces it.
        """
        key = (segment_index, shape, quantization, epilogue_add)
        program = self._lowered.get(key)
        if program is None:
            program = ir.lower(
                rows,
                shape,
                quantization=quantization,
                epilogue_add=epilogue_add,
                rewrites=self.rewrites,
            )
            self._lowered[key] = program
        interpreter = self._programs.get(key)
        if self.backend == "native" and interpreter is not None and (
            interpreter.capacity < n
        ):
            interpreter = None  # rebound at the larger batch below
        if interpreter is None and any(
            op.kind != "flatten" for op in program.ops
        ):
            if self.backend == "native":
                interpreter = _fastexec.CompiledProgram(program, n)
            else:
                interpreter = _NumpyProgram(self, segment_index, program)
            self._programs[key] = interpreter
        return program, interpreter

    def _run_modules(self, rows: list, x: np.ndarray) -> np.ndarray:
        """The python fallback: each module's own forward, no tape."""
        with no_grad():
            for _index, module in rows:
                x = module(Tensor(np.ascontiguousarray(x))).numpy()
        return x

    def _buffer(self, key: tuple, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A reusable scratch array for one (layer, role, sample shape)
        slot: the leading rows of the largest batch's buffer."""
        slot = (*key, shape[1:], np.dtype(dtype))
        buffer = self._scratch.get(slot)
        if buffer is None or len(buffer) < shape[0]:
            buffer = np.empty(shape, dtype=dtype)
            self._scratch[slot] = buffer
        return buffer[: shape[0]]

    def _owns(self, array: np.ndarray) -> bool:
        base = array.base if array.base is not None else array
        return any(base is buffer for buffer in self._scratch.values())

    # ------------------------------------------------------------------
    # Quantised-weight helpers (numpy interpreter)
    # ------------------------------------------------------------------
    def _wq_f32(self, op: ir.IROp) -> np.ndarray:
        """The f32-widened code plane for the numpy float path (cached,
        counted in :attr:`weight_dequants`)."""
        cached = self._wq_f32_cache.get(id(op.wq))
        if cached is None:
            cached = op.wq.codes.astype(np.float32)
            self._wq_f32_cache[id(op.wq)] = cached
            self.weight_dequants += 1
        return cached

    def _wq_i32(self, op: ir.IROp) -> np.ndarray:
        """The int32 code plane for the exact integer-matmul path (cached;
        integer widening, so not a weight dequantisation)."""
        cached = self._wq_i32_cache.get(id(op.wq))
        if cached is None:
            cached = op.wq.codes.astype(np.int32)
            self._wq_i32_cache[id(op.wq)] = cached
        return cached

    def _epilogue(self, op: ir.IROp, ingest: bool) -> tuple:
        """Cached ``ir.epilogue_constants`` for one lowered op."""
        key = (id(op), ingest)
        cached = self._epilogue_cache.get(key)
        if cached is None:
            cached = ir.epilogue_constants(op, ingest=ingest)
            self._epilogue_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Quantised-code ingest helpers
    # ------------------------------------------------------------------
    def _check_codes(
        self, x: np.ndarray, params: QuantizationParams
    ) -> np.ndarray:
        """Validate code range like :func:`dequantize`, narrow the dtype.

        When every value the carrier dtype can hold is a valid code (u8
        for 8-bit params, u16 for 16-bit), validation is free by
        construction and skipped — the serving path after
        ``forward_batch`` narrowing.
        """
        target = np.uint8 if params.bits <= 8 else np.uint16
        if np.iinfo(x.dtype).max >= params.levels and x.size:
            if int(x.max()) >= params.levels:
                raise ChannelError(
                    f"codes outside [0, {params.levels}) for "
                    f"{params.bits}-bit params"
                )
        if x.dtype != target:
            x = x.astype(target)
        return np.ascontiguousarray(x)

    def _dequantize_input(
        self, x: np.ndarray, params: QuantizationParams
    ) -> np.ndarray:
        """The fallback ingest: materialise the f32 batch (and count it)."""
        self.ingest_dequants += 1
        return dequantize(x, params)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def warm(
        self,
        batch_shape: tuple[int, ...],
        *,
        quantization: QuantizationParams | None = None,
        epilogue_add: bool = False,
    ) -> tuple[int, ...]:
        """Pre-size every buffer for a batch shape; returns the out shape.

        Throwaway forwards allocate the lowered programs (and the native
        library, or numpy scratch) for ``batch_shape`` off the latency
        path, so the first real micro-batch pays no compilation or
        allocation jitter.  One warm at the largest batch covers every
        smaller batch of the same sample geometry.  ``quantization``
        warms the quantised-ingest geometry (the input is synthesised at
        the code dtype); ``epilogue_add`` additionally warms the
        noise-add epilogue.  The :class:`~repro.serve.ControlPlane` calls
        this once at deploy time with the deployment's window.
        """
        if quantization is not None:
            dtype = np.uint8 if quantization.bits <= 8 else np.uint16
            x = np.full(batch_shape, quantization.zero_point, dtype=dtype)
        else:
            x = np.zeros(batch_shape, dtype=np.float32)
        out = self(x, quantization=quantization)
        if epilogue_add:
            out = self(
                x,
                quantization=quantization,
                epilogue_add=np.zeros(out.shape, dtype=np.float32),
            )
        return out.shape

    def __call__(
        self,
        batch: np.ndarray,
        *,
        quantization: QuantizationParams | None = None,
        epilogue_add: np.ndarray | None = None,
    ) -> np.ndarray:
        """Forward a ``(N, ...)`` numpy batch to a numpy output.

        Args:
            batch: Float32 activations — or, with ``quantization`` set,
                the raw integer codes of a quantised uplink.  With the
                ``int8_ingest`` rewrite active the codes feed the first
                GEMM/conv directly; otherwise they are dequantised first
                (counted in :attr:`ingest_dequants`).
            quantization: Affine params of the quantised ``batch``.
            epilogue_add: Optional per-row float32 tensor, shaped like the
                output, added to the result (the Shredder noise add).
                With the ``fold_epilogue_add`` rewrite active the add runs
                inside the last op's output write.

        The result is freshly owned (never a view of internal scratch), so
        callers may hold it across subsequent executor calls.
        """
        x = np.ascontiguousarray(batch)
        extra = epilogue_add
        if extra is not None:
            extra = np.ascontiguousarray(np.asarray(extra, dtype=np.float32))
        if quantization is not None and x.dtype == np.float32:
            quantization = None  # already dequantised upstream
        pending = quantization
        for segment_index, (kind, rows) in enumerate(self._segments):
            if kind == "python" or x.dtype not in _IR_DTYPES or (
                x.dtype != np.float32 and pending is None
            ):
                # Training-mode or unknown modules — and non-f32 float
                # inputs such as float64 probes, which keep their dtype —
                # run the modules' own forwards.
                if pending is not None:
                    x = self._dequantize_input(x, pending)
                    pending = None
                x = self._run_modules(rows, x)
                continue
            want_extra = extra is not None and segment_index == self._fold_index
            program, interpreter = self._program(
                segment_index, rows, len(x), x.shape[1:], pending, want_extra
            )
            if program.consumes_codes:
                x = self._check_codes(x, pending)
                pending = None
            elif pending is not None and interpreter is not None:
                # Rewrite off (or first op not foldable): dequantise now.
                # The same lowered program accepts the f32 batch.
                x = self._dequantize_input(x, pending)
                pending = None
            if interpreter is None:
                # Flatten-only segment: a free reshape (codes included).
                x = np.ascontiguousarray(x).reshape(len(x), -1)
                continue
            if not x.flags.c_contiguous:
                x = np.ascontiguousarray(x)
            if program.extra == ir.EXTRA_FOLDED:
                x = interpreter(x, extra)
                extra = None
            else:
                x = interpreter(x)
        if pending is not None:  # pragma: no cover - degenerate empty net
            x = self._dequantize_input(x, pending)
        if extra is not None:
            x = x + extra.reshape(x.shape)
        return self._finish(x)

    def _finish(self, x: np.ndarray) -> np.ndarray:
        if self._owns(x):
            x = x.copy()
        return x
