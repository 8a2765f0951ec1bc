"""Native IR interpreter for the serving executor (optional fast path).

The serving hot path runs a frozen eval-mode :class:`~repro.nn.Sequential`
over micro-batches of a few stacked requests.  At that scale the numpy
executor is dominated by per-op dispatch, the im2col materialisation, and
separate bias/ReLU/pool/noise passes — not by arithmetic.  This module
compiles (at first use, through :mod:`repro.native`) a small C library
that executes a **lowered op program** (:class:`repro.edge.ir.Program`)
in one call: the shared lowering pass in :mod:`repro.edge.ir` produces
the typed schedule, :class:`CompiledProgram` translates it into a flat
int64 record array for one ``input_shape`` and any batch up to its
capacity, and the C interpreter runs it over ping-pong scratch arenas.  This backend owns no
lowering or fusion logic of its own — every rewrite decision is made on
the IR, which the numpy interpreter executes identically.

Kernels (float32 out; input may be f32 or quantised u8/u16 codes):

* ``conv2d`` — one flat-plane frame for every conv with more than one
  output position, and every fully integer conv.  Per sample it copies
  the padded input into ``sh·sw`` phase (polyphase) planes — one padded
  plane at stride 1 — and takes its vector lanes from consecutive
  positions ``p = oy·wq + ox`` of the flattened plane, so every tap
  ``(c, ki, kj)`` is one contiguous load from phase plane
  ``(ki mod sh, kj mod sw)`` at offset ``(ki/sh, kj/sw)`` whatever the
  plane width; the ``wq − ow`` wrap-around lanes of each row are computed
  and dropped.  Tiles of 4 output channels x up to 64 lanes land as
  floats in a staging area of the scratch panel, where the op epilogue
  runs: affine scale (folded dequantisation), bias, the optional folded
  eval-mode BatchNorm ``(y − mean) / sd · gamma + beta``, optional ReLU,
  an optional fused eval-mode 2x2/2 max pool over row pairs, and the
  optional per-row extra add.  Two accumulations share the frame: the
  float one (f32 or int8 weights, on f32 input or on u8/u16 codes widened
  in the planes), and the fully integer one, whose plane element is a
  4-byte word of one channel quad's raw u8 codes and whose every tap of a
  quad is one widening u8 x i8 → i32 multiply-add (``vpdpbusd`` where the
  build has AVX-512 VNNI, a GCC vector-extension step elsewhere).  One
  shared helper (``epi_apply``) applies the epilogue in every conv and
  linear kernel variant.  im2col remains for single-position float convs
  (``OH*OW == 1``), which feed one im2col column to the dot kernel.
* ``linear`` — row-blocked dot products (4 output features x 16 fixed
  lanes per row) with the same fused epilogue.
* ``maxpool2d`` / ``relu`` — standalone passes for ops the rewrite
  pipeline could not fuse, each absorbing the extra add when flagged.
* ``affine`` — a BatchNorm with no conv before it, per channel plane.
* ``lrn`` — cross-channel local response normalisation per sample: the
  squares' channel-window sum in numpy's order, then the power
  ``base ** -beta`` as a vectorised ``exp2(e·log2 b)`` polynomial (libm's
  ``powf`` does not vectorise); lanes whose base
  is zero, subnormal or non-finite, or whose exponent leaves the
  polynomial's range, fall back to ``powf``.

Quantised ingest: when a record's input dtype is u8/u16, phase planes and
im2col columns are widened to float *code values* (padding carries the
zero point, which dequantises to exactly 0.0) and the affine
dequantisation rides the epilogue as ``out = scale·acc + bias`` — the
bias having been pre-corrected by ``−scale·zp·Σw`` on the Python side.
No f32 dequantised copy of the activation ever exists.

Quantised weights (the opt-in ``int8_weights`` rewrite): a record whose
op carries int8 weight codes sets its weight-mode field and the conv/dot
kernels read the codes directly — ``flat_conv_w8``/``linear_*_w8`` widen
int8 codes to float in-register against the float (or float-widened
code) operand (the linear variants convert each 256-term weight chunk
once per 16-sample block, bit-identical to the per-sample form), while
the fully integer variants (taken when composed with quantised ingest
and the reduction depth keeps an i32 accumulator exact — see
:func:`repro.edge.ir.integer_matmul_eligible`) multiply raw u8
activation codes against i8 weight codes with exact int32 accumulation:
``flat_conv_u8i8`` on the flat plane, whose weights :class:`CompiledProgram`
repacks once per record into quad-interleaved codes, and ``linear_u8_i8``
on the dot path.  Exact integer accumulation makes every schedule — VNNI
or generic step, any tile — give the same integers, converted with
``(float)acc``.  Either way the per-output-channel dequantisation scale
(and, composed, the combined activation·weight scale plus zero-point
row-sum correction) rides the same epilogue as a per-channel scale
vector.  No f32 dequantised copy of any weight ever exists in this
backend.  Whole-input convs (no padding, kernel == input plane) lower to
the batched linear record, skipping the per-sample im2col.

Determinism contract (what the serving parity guarantee needs): every
output element is produced by a *fixed* accumulation schedule — every
float conv output accumulates from ``0.0f`` with one multiply-add per tap
in ascending ``(c, ki, kj)`` order, whatever its tile or lane, the dot
kernel uses a fixed 16-lane split of ``k`` reduced in a fixed order, and
integer kernels accumulate exactly — and conv/pool kernels loop samples
independently.  The epilogue is a fixed op sequence
(scale, bias, BatchNorm affine, ReLU, pool max, extra add) whose disabled
stages are exact identities (``1.0f*x == x``) or skipped, so results are
bit-identical no matter how requests are grouped into micro-batches (the
batch-invariance property), and identical across runs.  The native
backend is *not* bit-identical to the numpy backend (both are f32-exact
to ~1e-6 relative of the float64 result; the library builds in GNU C
mode, which contracts ``x̂·gamma + beta`` and ``sc·acc + bias`` into
FMAs); a deployment picks one backend at executor construction and every
path through it then agrees bitwise.

``REPRO_NO_C_KERNEL=1`` disables the library (callers keep the numpy
interpreter); ``REPRO_KERNEL_DIR`` relocates the compiled artifact cache.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro import native
from repro.edge import ir

#: Op codes understood by ``run_program`` (must match the C enum).
OP_CONV2D = 0
OP_LINEAR = 1
OP_RELU = 2
OP_MAXPOOL2D = 3
OP_AFFINE = 4
OP_LRN = 5

#: Program record fields, in the C interpreter's order (see run_program):
#: op code, geometry, weight-table indices (-1: none) and epilogue flags.
RECORD_LAYOUT = (
    "op", "relu", "c_in", "h", "w", "c_out", "kh", "kw", "sh", "sw", "ph",
    "pw", "oh", "ow", "weight", "bias", "in_dtype", "add_extra", "pool",
    "pool_oh", "pool_ow", "pad_value", "wmode", "cscale", "affine",
)
RECORD_FIELDS = len(RECORD_LAYOUT)
_TABLE_FIELDS = ("weight", "bias", "cscale", "affine")

#: Record input-dtype codes (index 16): matches the C interpreter switch.
_DTYPE_CODES = {"f32": 0, "u8": 1, "u16": 2}

_SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* im2col: one sample (c_in, h, w) -> (c_in*kh*kw, oh*ow), for the    */
/* dot kernel's single-position float convs.  Generated per input     */
/* dtype; integer codes widen to float, and the padding value is the   */
/* quantiser zero point (0.0f for f32 inputs).                         */
/* ------------------------------------------------------------------ */
#define DEF_IM2COL(NAME, TYPE)                                             \
static void NAME(const TYPE *restrict x,                                   \
                 int64_t c_in, int64_t h, int64_t w,                       \
                 int64_t kh, int64_t kw, int64_t sh, int64_t sw,           \
                 int64_t ph, int64_t pw, int64_t oh, int64_t ow,           \
                 float padv, float *restrict cols) {                       \
    /* Rows are short (tens of floats); inline copy loops beat the call   \
       overhead of memcpy/memset at this size. */                          \
    int64_t m = oh * ow;                                                   \
    for (int64_t c = 0; c < c_in; c++) {                                   \
        const TYPE *plane = x + c * h * w;                                 \
        for (int64_t ki = 0; ki < kh; ki++)                                \
            for (int64_t kj = 0; kj < kw; kj++) {                          \
                float *row = cols + ((c * kh + ki) * kw + kj) * m;         \
                for (int64_t oy = 0; oy < oh; oy++) {                      \
                    int64_t iy = oy * sh - ph + ki;                        \
                    float *restrict dst = row + oy * ow;                   \
                    if (iy < 0 || iy >= h) {                               \
                        for (int64_t j = 0; j < ow; j++) dst[j] = padv;    \
                        continue;                                          \
                    }                                                      \
                    const TYPE *src = plane + iy * w;                      \
                    if (sw == 1) {                                         \
                        int64_t ox0 = pw - kj;                             \
                        if (ox0 < 0) ox0 = 0;                              \
                        int64_t ox1 = w + pw - kj;                         \
                        if (ox1 > ow) ox1 = ow;                            \
                        const TYPE *restrict s = src - pw + kj;            \
                        for (int64_t j = 0; j < ox0; j++) dst[j] = padv;   \
                        for (int64_t j = ox0; j < ox1; j++)                \
                            dst[j] = (float)s[j];                          \
                        for (int64_t j = ox1; j < ow; j++) dst[j] = padv;  \
                    } else {                                               \
                        for (int64_t ox = 0; ox < ow; ox++) {              \
                            int64_t ix = ox * sw - pw + kj;                \
                            dst[ox] = (ix >= 0 && ix < w)                  \
                                          ? (float)src[ix] : padv;         \
                        }                                                  \
                    }                                                      \
                }                                                          \
            }                                                              \
    }                                                                      \
}

DEF_IM2COL(im2col_f32, float)
DEF_IM2COL(im2col_u8, uint8_t)
DEF_IM2COL(im2col_u16, uint16_t)

/* Phase planes feeding the flat-plane convs: the padded input of one  */
/* sample split by stride into sh*sw polyphase planes of hq x wq, laid  */
/* out [g][fy][fx][hq][wq] for plane element group g, so padded pixel  */
/* (y, x) sits at row y/sh, column x/sw of phase plane (y mod sh,      */
/* x mod sw).  Stride 1 is the single padded plane.  The planes are    */
/* first filled with the padding value (the zero point for codes, 0.0f */
/* for f32), so every entry outside the input, the padded border and   */
/* the phases' ragged ends alike, holds it; then the input's rows are  */
/* copied in.  Generated per input dtype and plane element (ELEM packs */
/* the element at offset I of the group's first channel S, its other   */
/* channels d[t] further on): one float per channel (integer codes     */
/* widen here), or one 4-byte word per channel quad of raw u8 codes,   */
/* byte t from channel 4g + t, for the fully integer conv.  A last     */
/* partial quad repeats its last channel in the missing bytes, whose   */
/* weight codes are zero.                                              */
#define PLANE_F32(S, d, I) ((float)(S)[I])
#define PLANE_QUAD(S, d, I)                                                \
    ((uint32_t)(S)[I] | (uint32_t)(S)[d[1] + (I)] << 8 |                   \
     (uint32_t)(S)[d[2] + (I)] << 16 | (uint32_t)(S)[d[3] + (I)] << 24)
#define DEF_PHASE_PLANES(NAME, TYPE, OTYPE, CPL, ELEM)                     \
static void NAME(const TYPE *restrict x, int64_t c_in, int64_t h,          \
                 int64_t w, int64_t sh, int64_t sw, int64_t ph,            \
                 int64_t pw, int64_t hq, int64_t wq, OTYPE padv,           \
                 OTYPE *restrict xq) {                                     \
    int64_t groups = (c_in + CPL - 1) / CPL;                               \
    for (int64_t j = 0; j < groups * sh * sw * hq * wq; j++) xq[j] = padv; \
    for (int64_t g = 0; g < groups; g++) {                                 \
        int64_t d[CPL];                                                    \
        for (int64_t t = 0; t < CPL; t++)                                  \
            d[t] = (g * CPL + t < c_in ? t : c_in - 1 - g * CPL) * h * w;  \
        (void)d; /* the float element reads its own channel only */        \
        const TYPE *xg = x + g * CPL * h * w;                              \
        if (sh == 1 && sw == 1 && pw == 0) {                               \
            /* The input's rows, end to end, below ph padded rows. */      \
            OTYPE *restrict dst = xq + (g * hq + ph) * wq;                 \
            for (int64_t j = 0; j < h * w; j++) dst[j] = ELEM(xg, d, j);   \
            continue;                                                      \
        }                                                                  \
        for (int64_t fy = 0; fy < sh; fy++)                                \
            for (int64_t fx = 0; fx < sw; fx++) {                          \
                OTYPE *restrict plane =                                    \
                    xq + ((g * sh + fy) * sw + fx) * hq * wq;              \
                /* Phase columns q with input column q*sw + fx - pw in    \
                   [0, w) are [q0, q1). */                                 \
                int64_t lo = pw - fx, hi = w + pw - fx;                    \
                int64_t q0 = lo > 0 ? (lo + sw - 1) / sw : 0;              \
                int64_t q1 = hi > 0 ? (hi + sw - 1) / sw : 0;              \
                if (q1 > wq) q1 = wq;                                      \
                for (int64_t qy = 0; qy < hq; qy++) {                      \
                    int64_t y = qy * sh + fy - ph;                         \
                    if (y < 0 || y >= h) continue;                         \
                    OTYPE *restrict dst = plane + qy * wq;                 \
                    const TYPE *restrict src = xg + y * w;                 \
                    if (sw == 1)                                           \
                        for (int64_t j = q0; j < q1; j++)                  \
                            dst[j] = ELEM(src, d, j - lo);                 \
                    else                                                   \
                        for (int64_t j = q0; j < q1; j++)                  \
                            dst[j] = ELEM(src, d, j * sw - lo);            \
                }                                                          \
            }                                                              \
    }                                                                      \
}

DEF_PHASE_PLANES(phase_planes_f32, float, float, 1, PLANE_F32)
DEF_PHASE_PLANES(phase_planes_u8, uint8_t, float, 1, PLANE_F32)
DEF_PHASE_PLANES(phase_planes_u16, uint16_t, float, 1, PLANE_F32)
DEF_PHASE_PLANES(phase_quads_u8, uint8_t, uint32_t, 4, PLANE_QUAD)

/* ------------------------------------------------------------------ */
/* The epilogue every conv/linear kernel variant shares, per output    */
/* channel: scale (folded dequant — per-channel cscale on the int8-    */
/* weight paths), bias, then the folded eval-mode BatchNorm affine     */
/* (y - mean) / sd * gamma + beta when the record carries one (aff     */
/* holds {mean, sd, gamma, beta} per channel), then ReLU.  The fused   */
/* pool max and the extra add follow at the call site.  Disabled       */
/* stages are skipped, never applied as identities.  Vector epilogue   */
/* loops run inside EPI_SPLIT, which instantiates them once per value  */
/* of the affine flag as a constant: a runtime flag inside the loop    */
/* gets if-converted, paying the division on every record.             */
/* ------------------------------------------------------------------ */
typedef struct {
    float sc, bv, mean, sd, gamma, beta;
    int affine, relu;
} epi_t;

static inline float bn_affine(float v, float mean, float sd, float gamma,
                              float beta) {
    return (v - mean) / sd * gamma + beta;
}

static inline epi_t epi_channel(float scale, const float *restrict cscale,
                                const float *restrict bias,
                                const float *restrict aff, int64_t ch,
                                int relu) {
    epi_t e = {cscale ? cscale[ch] : scale, bias ? bias[ch] : 0.0f,
               0.0f, 1.0f, 1.0f, 0.0f, aff != 0, relu};
    if (aff) {
        e.mean = aff[4 * ch];
        e.sd = aff[4 * ch + 1];
        e.gamma = aff[4 * ch + 2];
        e.beta = aff[4 * ch + 3];
    }
    return e;
}

static inline float epi_apply(epi_t e, float acc, int affine) {
    float v = e.sc * acc + e.bv;
    if (affine) v = bn_affine(v, e.mean, e.sd, e.gamma, e.beta);
    if (e.relu && v < 0.0f) v = 0.0f;
    return v;
}

/* The 2x2 pool max, in the standalone pool's compare order. */
static inline float max4(float v00, float v01, float v10, float v11) {
    float m0 = v00 > v01 ? v00 : v01;
    float m1 = v10 > v11 ? v10 : v11;
    return m0 > m1 ? m0 : m1;
}

#define EPI_SPLIT(E, ...)                                                   \
    do {                                                                    \
        if ((E).affine) { enum { AFF = 1 }; __VA_ARGS__ }                   \
        else { enum { AFF = 0 }; __VA_ARGS__ }                              \
    } while (0)

/* ------------------------------------------------------------------ */
/* Row dot products: out(n, out_f) = x(n, in_f) @ wmat(out_f, in_f)^T */
/* 4 output features share each row load; 16 fixed accumulation lanes */
/* per dot product (lane of term k is k mod 16 — independent of n).   */
/* Generated per input dtype for quantised-code ingest.               */
/* ------------------------------------------------------------------ */
#define DEF_LINEAR(NAME, TYPE, WTYPE)                                      \
static void NAME(const TYPE *restrict x, const WTYPE *restrict wmat,       \
                 const float *restrict bias, const float *restrict cscale, \
                 const float *restrict aff, int64_t n, int64_t in_f,      \
                 int64_t out_f, int relu,                                  \
                 float scale, const float *restrict extra,                 \
                 float *restrict out) {                                    \
    for (int64_t i = 0; i < n; i++) {                                      \
        const TYPE *restrict row = x + i * in_f;                           \
        for (int64_t oc = 0; oc < out_f; oc += 4) {                        \
            int64_t nr = out_f - oc;                                       \
            if (nr > 4) nr = 4;                                            \
            const WTYPE *w0 = wmat + oc * in_f;                            \
            const WTYPE *w1 = wmat + (oc + (nr > 1)) * in_f;               \
            const WTYPE *w2 = wmat + (oc + 2 * (nr > 2)) * in_f;           \
            const WTYPE *w3 = wmat + (oc + 3 * (nr > 3)) * in_f;           \
            float l0[16] __attribute__((aligned(64))) = {0};               \
            float l1[16] __attribute__((aligned(64))) = {0};               \
            float l2[16] __attribute__((aligned(64))) = {0};               \
            float l3[16] __attribute__((aligned(64))) = {0};               \
            int64_t k = 0;                                                 \
            for (; k + 16 <= in_f; k += 16)                                \
                for (int64_t l = 0; l < 16; l++) {                         \
                    float v = (float)row[k + l];                           \
                    l0[l] += (float)w0[k + l] * v;                         \
                    l1[l] += (float)w1[k + l] * v;                         \
                    l2[l] += (float)w2[k + l] * v;                         \
                    l3[l] += (float)w3[k + l] * v;                         \
                }                                                          \
            if (k < in_f) {                                                \
                /* Zero-padded tail: the same 16-wide op sequence, so a    \
                   term's lane depends only on its k index. */             \
                float rb[16] __attribute__((aligned(64))) = {0};           \
                float wb0[16] = {0}, wb1[16] = {0};                        \
                float wb2[16] = {0}, wb3[16] = {0};                        \
                int64_t rem = in_f - k;                                    \
                for (int64_t l = 0; l < rem; l++) {                        \
                    rb[l] = (float)row[k + l];                             \
                    wb0[l] = (float)w0[k + l];                             \
                    wb1[l] = (float)w1[k + l];                             \
                    wb2[l] = (float)w2[k + l];                             \
                    wb3[l] = (float)w3[k + l];                             \
                }                                                          \
                for (int64_t l = 0; l < 16; l++) {                         \
                    float v = rb[l];                                       \
                    l0[l] += wb0[l] * v;                                   \
                    l1[l] += wb1[l] * v;                                   \
                    l2[l] += wb2[l] * v;                                   \
                    l3[l] += wb3[l] * v;                                   \
                }                                                          \
            }                                                              \
            float *lanes[4] = {l0, l1, l2, l3};                            \
            for (int64_t r = 0; r < nr; r++) {                             \
                const float *a = lanes[r];                                 \
                float s = 0.0f;                                            \
                for (int64_t l = 0; l < 16; l++) s += a[l];                \
                epi_t e = epi_channel(scale, cscale, bias, aff, oc + r,    \
                                      relu);                               \
                s = epi_apply(e, s, e.affine);                             \
                if (extra) s += extra[i * out_f + oc + r];                 \
                out[i * out_f + oc + r] = s;                               \
            }                                                              \
        }                                                                  \
    }                                                                      \
}

DEF_LINEAR(linear_f32, float, float)
DEF_LINEAR(linear_u8, uint8_t, float)
DEF_LINEAR(linear_u16, uint16_t, float)

/* int8-weight row dots, restructured so the code widening is shared:
   16-sample blocks x 4 output features x 256-term k chunks.  Each
   chunk's four weight rows are converted once into stack buffers and
   reused by every sample in the block (DEF_LINEAR would reconvert them
   per sample — the dominant cost of the widened path).  Per-sample
   accumulators keep DEF_LINEAR's exact 16-lane (k mod 16) discipline
   (chunks are 256 = 16*16 terms, so lane indices line up across chunk
   boundaries) and the zero-padded tail reproduces its 16-wide op
   sequence, so outputs are bit-identical to the per-sample form and
   batch invariance is unchanged.  Generated per input dtype for
   quantised-code ingest. */
#define DEF_LINEAR_W8(NAME, TYPE)                                           \
static void NAME(const TYPE *restrict x, const int8_t *restrict wmat,      \
                 const float *restrict bias, const float *restrict cscale, \
                 const float *restrict aff, int64_t n, int64_t in_f,      \
                 int64_t out_f, int relu,                                  \
                 float scale, const float *restrict extra,                 \
                 float *restrict out) {                                    \
    for (int64_t ib = 0; ib < n; ib += 16) {                               \
        int64_t ni = n - ib < 16 ? n - ib : 16;                            \
        for (int64_t oc = 0; oc < out_f; oc += 4) {                        \
            int64_t nr = out_f - oc;                                       \
            if (nr > 4) nr = 4;                                            \
            const int8_t *w0 = wmat + oc * in_f;                           \
            const int8_t *w1 = wmat + (oc + (nr > 1)) * in_f;              \
            const int8_t *w2 = wmat + (oc + 2 * (nr > 2)) * in_f;          \
            const int8_t *w3 = wmat + (oc + 3 * (nr > 3)) * in_f;          \
            float lanes[16][4][16] __attribute__((aligned(64)));           \
            memset(lanes, 0, sizeof(float) * (size_t)ni * 64);             \
            for (int64_t kb = 0; kb < in_f; kb += 256) {                   \
                int64_t kc = in_f - kb < 256 ? in_f - kb : 256;            \
                int64_t kfull = kc & ~(int64_t)15;                         \
                float wb0[256] __attribute__((aligned(64)));               \
                float wb1[256] __attribute__((aligned(64)));               \
                float wb2[256] __attribute__((aligned(64)));               \
                float wb3[256] __attribute__((aligned(64)));               \
                for (int64_t t = 0; t < kc; t++) {                         \
                    wb0[t] = (float)w0[kb + t];                            \
                    wb1[t] = (float)w1[kb + t];                            \
                    wb2[t] = (float)w2[kb + t];                            \
                    wb3[t] = (float)w3[kb + t];                            \
                }                                                          \
                for (int64_t t = kc; t < ((kc + 15) & ~(int64_t)15); t++) {\
                    wb0[t] = 0.0f; wb1[t] = 0.0f;                          \
                    wb2[t] = 0.0f; wb3[t] = 0.0f;                          \
                }                                                          \
                for (int64_t ii = 0; ii < ni; ii++) {                      \
                    const TYPE *restrict row = x + (ib + ii) * in_f + kb;  \
                    float (*restrict ln)[16] = lanes[ii];                  \
                    int64_t t = 0;                                         \
                    for (; t < kfull; t += 16)                             \
                        for (int64_t l = 0; l < 16; l++) {                 \
                            float v = (float)row[t + l];                   \
                            ln[0][l] += wb0[t + l] * v;                    \
                            ln[1][l] += wb1[t + l] * v;                    \
                            ln[2][l] += wb2[t + l] * v;                    \
                            ln[3][l] += wb3[t + l] * v;                    \
                        }                                                  \
                    if (t < kc) {                                          \
                        /* Zero-padded tail: the same 16-wide op          \
                           sequence, so a term's lane depends only on     \
                           its k index. */                                 \
                        float rb[16] __attribute__((aligned(64))) = {0};   \
                        for (int64_t l = 0; l < kc - t; l++)               \
                            rb[l] = (float)row[t + l];                     \
                        for (int64_t l = 0; l < 16; l++) {                 \
                            float v = rb[l];                               \
                            ln[0][l] += wb0[t + l] * v;                    \
                            ln[1][l] += wb1[t + l] * v;                    \
                            ln[2][l] += wb2[t + l] * v;                    \
                            ln[3][l] += wb3[t + l] * v;                    \
                        }                                                  \
                    }                                                      \
                }                                                          \
            }                                                              \
            for (int64_t ii = 0; ii < ni; ii++)                            \
                for (int64_t r = 0; r < nr; r++) {                         \
                    const float *a = lanes[ii][r];                         \
                    float s = 0.0f;                                        \
                    for (int64_t l = 0; l < 16; l++) s += a[l];            \
                    epi_t e = epi_channel(scale, cscale, bias, aff,        \
                                          oc + r, relu);                   \
                    s = epi_apply(e, s, e.affine);                         \
                    if (extra) s += extra[(ib + ii) * out_f + oc + r];     \
                    out[(ib + ii) * out_f + oc + r] = s;                   \
                }                                                          \
        }                                                                  \
    }                                                                      \
}

DEF_LINEAR_W8(linear_f32_w8, float)
DEF_LINEAR_W8(linear_u8_w8, uint8_t)
DEF_LINEAR_W8(linear_u16_w8, uint16_t)

/* Fully integer row dot products: u8 activation codes x i8 weight codes
   with exact int32 accumulation (a simple ascending-k loop — integer
   adds are associative, so no lane discipline is needed for batch
   invariance), per-channel scale + corrected bias in the f32 epilogue. */
static void linear_u8_i8(const uint8_t *restrict x,
                         const int8_t *restrict wmat,
                         const float *restrict bias,
                         const float *restrict cscale,
                         const float *restrict aff, int64_t n,
                         int64_t in_f, int64_t out_f, int relu, float scale,
                         const float *restrict extra, float *restrict out) {
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *restrict row = x + i * in_f;
        for (int64_t oc = 0; oc < out_f; oc++) {
            const int8_t *restrict wr = wmat + oc * in_f;
            int32_t acc = 0;
            for (int64_t k = 0; k < in_f; k++)
                acc += (int32_t)wr[k] * (int32_t)row[k];
            epi_t e = epi_channel(scale, cscale, bias, aff, oc, relu);
            float s = epi_apply(e, (float)acc, e.affine);
            if (extra) s += extra[i * out_f + oc];
            out[i * out_f + oc] = s;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Flat-plane conv: every conv with more than one output position, and */
/* every fully integer conv.  The vector lanes are consecutive         */
/* positions p = oy*wq + ox of the flattened phase plane, so each tap  */
/* (c, ki, kj) is one contiguous load at offset (ki/sh)*wq + kj/sw of  */
/* phase plane (ki mod sh, kj mod sw), whatever the plane width or     */
/* stride.  The wq - ow wrap-around lanes of each row and the lanes    */
/* past the last output are computed (from real pixels or the zeroed   */
/* slack after the planes) and never stored; lanes are independent    */
/* accumulators, so they cannot disturb the valid ones.  Tiles are 4   */
/* output channels x FLAT_TMAX vectors of lanes (64 lanes under        */
/* AVX-512; a plane's last tile narrows when fewer vectors cover what  */
/* is left) and land, as floats, in a staging area of 4 channel planes */
/* in scratch.  The shared epilogue then runs along each output row;   */
/* ahead of a fused eval-mode 2x2/2 max pool it runs over each tile as */
/* it lands, and the pool takes max4 over row pairs of epilogue values */
/* in the standalone pool's compare order.  The extra add comes last.  */
/* Two accumulations share this frame:                                 */
/*   float: a plane element is one channel (f32, or u8/u16 codes       */
/*     widened in the phase planes); each output accumulates from      */
/*     0.0f with one multiply-add per tap in ascending (c, ki, kj)     */
/*     order; weights are f32, or int8 codes widened once per          */
/*     broadcast with the per-channel dequant scales in the epilogue.  */
/*   integer: a plane element is one 4-byte word holding a channel     */
/*     quad's raw u8 codes, and a weight word the quad's 4 int8 codes  */
/*     at one tap (zero codes for the missing channels of a last       */
/*     partial quad); each tap of a quad is one widening u8 x i8 ->    */
/*     i32 multiply-add of 4 byte pairs (vpdpbusd where AVX-512 VNNI   */
/*     compiled).  i32 accumulation is exact, so every schedule gives  */
/*     the same integers, and each converts with (float)acc.           */
/* ------------------------------------------------------------------ */
/* One vector register: FLAT_VW lanes of floats or i32.  A tile holds up
   to FLAT_TMAX vectors per channel, 4 * FLAT_TMAX accumulators in all: 16
   of the 32 AVX-512 registers, 8 of the 16 AVX/SSE ones. */
#if defined(__AVX512F__)
#define FLAT_VW 16
#define FLAT_TMAX 4
#elif defined(__AVX__)
#define FLAT_VW 8
#define FLAT_TMAX 2
#else
#define FLAT_VW 4
#define FLAT_TMAX 2
#endif
typedef float vfl __attribute__((vector_size(4 * FLAT_VW)));
typedef float vflu __attribute__((vector_size(4 * FLAT_VW), aligned(4),
                                  may_alias));
typedef int32_t vi32 __attribute__((vector_size(4 * FLAT_VW)));
typedef int32_t vi32u __attribute__((vector_size(4 * FLAT_VW), aligned(4),
                                     may_alias));
typedef int16_t vi16 __attribute__((vector_size(4 * FLAT_VW)));

/* Zeroed words after the phase planes: a tile (at most 64 lanes) loads
   at most 63 lanes past the last plane.  repro.edge.ir.plan_buffers
   reserves them and the staging area (its _conv_scratch mirrors this
   layout). */
#define FLAT_SLACK 64
/* Lanes per channel of the staging area, a whole number of tiles. */
#define FLAT_SPAN(L) (((L) + 63) & ~(int64_t)63)

/* One tap of a float tile: T vectors of lanes from XS times the 4
   channels' weights at k, multiply-added into their accumulators. */
#define FLAT_TAP(XS, T)                                                     \
    do {                                                                    \
        float a0 = (float)w0[k], a1 = (float)w1[k];                         \
        float a2 = (float)w2[k], a3 = (float)w3[k];                         \
        for (int t = 0; t < (T); t++) {                                     \
            vfl v = *(const vflu *)((XS) + FLAT_VW * t);                    \
            acc[0][t] += a0 * v;                                            \
            acc[1][t] += a1 * v;                                            \
            acc[2][t] += a2 * v;                                            \
            acc[3][t] += a3 * v;                                            \
        }                                                                   \
    } while (0)

/* One tap of a quad of an integer tile: per lane, the 4 u8 codes of x
   times the 4 int8 codes of weight word w, summed into acc exactly.
   QUAD_START is the accumulators' start, exact in i32, for a channel's
   K weight words. */
#if defined(__AVX512VNNI__)
#include <immintrin.h>
#define HAVE_VNNI 1
static inline vi32 quad_dot(vi32 acc, vi32 x, int32_t w) {
    return (vi32)_mm512_dpbusd_epi32((__m512i)acc, (__m512i)x,
                                     _mm512_set1_epi32(w));
}
static inline int32_t quad_start(const int32_t *w, int64_t K) {
    (void)w, (void)K;
    return 0;
}
#else
#define HAVE_VNNI 0
/* x ^ 0x80808080 turns each code c into the i8 value c - 128.  Bytes 0
   and 2, then bytes 1 and 3, sign-extend into i16 lanes, and since
   weight codes stay within ±127 each product stays within ±16256: a
   pair of them sums in i16 exactly, and each word's two pair sums sign-
   extend into its i32 lane.  The accumulators start at 128 * the sum of
   the channel's codes, which restores sum(c * w). */
static inline vi32 quad_dot(vi32 acc, vi32 x, int32_t w) {
    vi16 wv = (vi16)((vi32){0} + w);
    vi16 xv = (vi16)(x ^ (int32_t)0x80808080);
    vi16 q = ((xv << 8) >> 8) * ((wv << 8) >> 8) + (xv >> 8) * (wv >> 8);
    vi32 qw = (vi32)q;
    return acc + (qw >> 16) + ((qw << 16) >> 16);
}
static inline int32_t quad_start(const int32_t *w, int64_t K) {
    const int8_t *codes = (const int8_t *)w;
    int32_t sum = 0;
    for (int64_t j = 0; j < 4 * K; j++) sum += codes[j];
    return 128 * sum;
}
#endif
#define FLAT_START(W, K) ((vfl){0})
#define QUAD_START(W, K) ((vi32){0} + quad_start(W, K))

#define QUAD_TAP(XS, T)                                                     \
    do {                                                                    \
        int32_t a0 = w0[k], a1 = w1[k], a2 = w2[k], a3 = w3[k];             \
        for (int t = 0; t < (T); t++) {                                     \
            vi32 v = *(const vi32u *)((XS) + FLAT_VW * t);                  \
            acc[0][t] = quad_dot(acc[0][t], v, a0);                         \
            acc[1][t] = quad_dot(acc[1][t], v, a1);                         \
            acc[2][t] = quad_dot(acc[2][t], v, a2);                         \
            acc[3][t] = quad_dot(acc[3][t], v, a3);                         \
        }                                                                   \
    } while (0)

/* A tile: 4 channels x T vectors of lanes from xq (its first lane), over
   the taps in ascending (c, ki, kj) order (c counting plane elements:
   channels, or quads); the accumulators go to dst as floats, one row of
   pitch floats per channel.  Stride 1 walks the padded plane directly;
   other strides step through the phases with counters (on stride-1
   convs of 32-wide planes the counters measured up to 16% slower). */
#define DEF_FLAT_TILE(NAME, XTYPE, WTYPE, ACC, TAP, T)                      \
static inline void NAME(const XTYPE *restrict xq, const WTYPE *w0,          \
                        const WTYPE *w1, const WTYPE *w2, const WTYPE *w3,  \
                        int64_t c_in, int64_t kh, int64_t kw, int64_t sh,   \
                        int64_t sw, int64_t plane, int64_t wq,              \
                        const ACC *start, float *restrict dst,              \
                        int64_t pitch) {                                    \
    ACC acc[4][T];                                                          \
    for (int r = 0; r < 4; r++)                                             \
        for (int t = 0; t < T; t++) acc[r][t] = start[r];                   \
    int64_t k = 0;                                                          \
    if (sh == 1 && sw == 1) {                                               \
        for (int64_t c = 0; c < c_in; c++)                                  \
            for (int64_t ki = 0; ki < kh; ki++) {                           \
                const XTYPE *xr = xq + c * plane + ki * wq;                 \
                for (int64_t kj = 0; kj < kw; kj++, k++)                    \
                    TAP(xr + kj, T);                                        \
            }                                                               \
    } else {                                                                \
        for (int64_t c = 0; c < c_in; c++) {                                \
            const XTYPE *xc = xq + c * sh * sw * plane;                     \
            for (int64_t ki = 0, qi = 0, fi = 0; ki < kh; ki++) {           \
                const XTYPE *xr = xc + fi * sw * plane + qi * wq;           \
                for (int64_t kj = 0, qj = 0, fj = 0; kj < kw; kj++, k++) {  \
                    TAP(xr + fj * plane + qj, T);                           \
                    if (++fj == sw) { fj = 0; qj++; }                       \
                }                                                           \
                if (++fi == sh) { fi = 0; qi++; }                           \
            }                                                               \
        }                                                                   \
    }                                                                       \
    for (int r = 0; r < 4; r++)                                             \
        for (int t = 0; t < T; t++)                                         \
            *(vflu *)(dst + r * pitch + FLAT_VW * t) =                      \
                __builtin_convertvector(acc[r][t], vfl);                    \
}

/* c_in counts plane elements per position group: channels for the
   float kernels, quads for the integer one. */
#define DEF_FLAT_CONV(NAME, XTYPE, WTYPE, ACC, TAP, START)                  \
DEF_FLAT_TILE(NAME##_t4, XTYPE, WTYPE, ACC, TAP, 4)                         \
DEF_FLAT_TILE(NAME##_t2, XTYPE, WTYPE, ACC, TAP, 2)                         \
DEF_FLAT_TILE(NAME##_t1, XTYPE, WTYPE, ACC, TAP, 1)                         \
static void NAME(const XTYPE *restrict xq, const WTYPE *restrict wmat,      \
                 const float *restrict bias, const float *restrict cscale,  \
                 const float *restrict aff, int64_t c_in, int64_t kh,       \
                 int64_t kw, int64_t sh, int64_t sw, int64_t hq,            \
                 int64_t wq, int64_t oh, int64_t ow, int64_t c_out,         \
                 int relu, float scale, int pool, int64_t poh,              \
                 int64_t pow_, const float *restrict extra,                 \
                 float *restrict stage, float *restrict out) {              \
    int64_t K = c_in * kh * kw, plane = hq * wq;                            \
    int64_t rows = pool ? 2 * poh : oh; /* a pool drops an odd tail row */  \
    int64_t lanes = (rows - 1) * wq + ow, span = FLAT_SPAN(lanes);          \
    for (int64_t oc = 0; oc < c_out; oc += 4) {                             \
        int64_t nr = c_out - oc;                                            \
        if (nr > 4) nr = 4;                                                 \
        const WTYPE *w0 = wmat + oc * K;                                    \
        const WTYPE *w1 = wmat + (oc + (nr > 1)) * K;                       \
        const WTYPE *w2 = wmat + (oc + 2 * (nr > 2)) * K;                   \
        const WTYPE *w3 = wmat + (oc + 3 * (nr > 3)) * K;                   \
        ACC start[4] = {START(w0, K), START(w1, K), START(w2, K),           \
                        START(w3, K)};                                      \
        epi_t e[4];                                                         \
        for (int64_t r = 0; r < nr; r++)                                    \
            e[r] = epi_channel(scale, cscale, bias, aff, oc + r, relu);     \
        for (int64_t p0 = 0; p0 < lanes; p0 += FLAT_TMAX * FLAT_VW) {       \
            int64_t nl;                                                     \
            if (FLAT_TMAX == 4 && lanes - p0 > 2 * FLAT_VW) {               \
                NAME##_t4(xq + p0, w0, w1, w2, w3, c_in, kh, kw, sh, sw,    \
                          plane, wq, start, stage + p0, span);              \
                nl = 4 * FLAT_VW;                                           \
            } else if (lanes - p0 > FLAT_VW) {                              \
                NAME##_t2(xq + p0, w0, w1, w2, w3, c_in, kh, kw, sh, sw,    \
                          plane, wq, start, stage + p0, span);              \
                nl = 2 * FLAT_VW;                                           \
            } else {                                                        \
                NAME##_t1(xq + p0, w0, w1, w2, w3, c_in, kh, kw, sh, sw,    \
                          plane, wq, start, stage + p0, span);              \
                nl = FLAT_VW;                                               \
            }                                                               \
            /* Ahead of a pool, the epilogue runs over the tile's whole    \
               vectors as it lands, and the row-pair pass only takes       \
               max4.  (Run row by row in place, it left the fused pool     \
               slower than conv + standalone pool on 10- and 28-wide       \
               planes.) */                                                 \
            for (int64_t r = 0; pool && r < nr; r++) {                      \
                float *restrict a = stage + r * span + p0;                  \
                EPI_SPLIT(e[r], for (int64_t j = 0; j < nl; j++)            \
                                    a[j] = epi_apply(e[r], a[j], AFF););    \
            }                                                               \
        }                                                                   \
        /* Output row oy is lanes [oy*wq, oy*wq + ow) of the stage. */      \
        for (int64_t r = 0; r < nr; r++) {                                  \
            const float *s = stage + r * span;                              \
            if (pool) {                                                     \
                int64_t o = (oc + r) * poh * pow_;                          \
                for (int64_t py = 0; py < poh; py++) {                      \
                    const float *restrict s0 = s + 2 * py * wq;             \
                    const float *restrict s1 = s0 + wq;                     \
                    float *restrict d = out + o + py * pow_;                \
                    const float *restrict ex =                              \
                        extra ? extra + o + py * pow_ : 0;                  \
                    for (int64_t j = 0; j < pow_; j++) {                    \
                        float v = max4(s0[2 * j], s0[2 * j + 1], s1[2 * j], \
                                       s1[2 * j + 1]);                      \
                        if (ex) v += ex[j];                                 \
                        d[j] = v;                                           \
                    }                                                       \
                }                                                           \
            } else {                                                        \
                for (int64_t oy = 0; oy < oh; oy++) {                       \
                    int64_t o = ((oc + r) * oh + oy) * ow;                  \
                    const float *restrict a = s + oy * wq;                  \
                    float *restrict d = out + o;                            \
                    const float *restrict ex = extra ? extra + o : 0;       \
                    EPI_SPLIT(e[r], for (int64_t j = 0; j < ow; j++) {      \
                        float v = epi_apply(e[r], a[j], AFF);               \
                        if (ex) v += ex[j];                                 \
                        d[j] = v;                                           \
                    });                                                     \
                }                                                           \
            }                                                               \
        }                                                                   \
    }                                                                       \
}

DEF_FLAT_CONV(flat_conv_f32, float, float, vfl, FLAT_TAP, FLAT_START)
DEF_FLAT_CONV(flat_conv_w8, float, int8_t, vfl, FLAT_TAP, FLAT_START)
DEF_FLAT_CONV(flat_conv_u8i8, uint32_t, int32_t, vi32, QUAD_TAP, QUAD_START)

/* Which integer step compiled: 1 for vpdpbusd (AVX-512 VNNI), 0 for the
   generic vector-extension step.  A build-time property of this library
   artifact. */
int64_t has_vnni(void) { return HAVE_VNNI; }

/* ------------------------------------------------------------------ */
/* Max pooling with zero padding contributing to the max (matching    */
/* the numpy executor's padded-window reduction).                     */
/* ------------------------------------------------------------------ */
static void maxpool_planes(const float *restrict x, int64_t planes,
                           int64_t h, int64_t w, int64_t kh, int64_t kw,
                           int64_t sh, int64_t sw, int64_t ph, int64_t pw,
                           int64_t oh, int64_t ow, float *restrict out) {
    if (ph == 0 && pw == 0 && kh == 2 && kw == 2 && sh == 2 && sw == 2 &&
        2 * oh <= h && 2 * ow <= w) {
        /* The overwhelmingly common serving shape: branch-free 2x2/2. */
        for (int64_t p = 0; p < planes; p++) {
            const float *plane = x + p * h * w;
            float *restrict dst = out + p * oh * ow;
            for (int64_t oy = 0; oy < oh; oy++) {
                const float *restrict r0 = plane + 2 * oy * w;
                const float *restrict r1 = r0 + w;
                float *restrict d = dst + oy * ow;
                for (int64_t ox = 0; ox < ow; ox++) {
                    float a = r0[2 * ox], b = r0[2 * ox + 1];
                    float c = r1[2 * ox], e = r1[2 * ox + 1];
                    float m0 = a > b ? a : b;
                    float m1 = c > e ? c : e;
                    d[ox] = m0 > m1 ? m0 : m1;
                }
            }
        }
        return;
    }
    for (int64_t p = 0; p < planes; p++) {
        const float *plane = x + p * h * w;
        float *dst = out + p * oh * ow;
        for (int64_t oy = 0; oy < oh; oy++) {
            int64_t iy0 = oy * sh - ph;
            for (int64_t ox = 0; ox < ow; ox++) {
                int64_t ix0 = ox * sw - pw;
                float best = -INFINITY;
                if (iy0 >= 0 && ix0 >= 0 && iy0 + kh <= h && ix0 + kw <= w) {
                    /* Fully in bounds: no per-tap branches. */
                    for (int64_t ki = 0; ki < kh; ki++) {
                        const float *restrict src = plane + (iy0 + ki) * w + ix0;
                        for (int64_t kj = 0; kj < kw; kj++) {
                            float v = src[kj];
                            if (v > best) best = v;
                        }
                    }
                } else {
                    for (int64_t ki = 0; ki < kh; ki++) {
                        int64_t iy = iy0 + ki;
                        const float *src = plane + iy * w;
                        for (int64_t kj = 0; kj < kw; kj++) {
                            int64_t ix = ix0 + kj;
                            float v = (iy >= 0 && iy < h && ix >= 0 && ix < w)
                                          ? src[ix]
                                          : 0.0f;
                            if (v > best) best = v;
                        }
                    }
                }
                dst[oy * ow + ox] = best;
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* b ** e for the LRN denominator as exp2(e * log2(b)): log2 from the */
/* float's exponent field plus an atanh series on the mantissa folded */
/* into [sqrt(1/2), sqrt(2)), exp2 as a degree-6 polynomial on the    */
/* fraction scaled by 2^n built in the exponent field.  Branch-free,  */
/* so gcc vectorises it (libm powf does not).  Only valid for a       */
/* positive normal b with y = e * log2(b) in [-126, 127]; *y_out lets */
/* the caller route every other lane to powf.                         */
/* ------------------------------------------------------------------ */
static inline float pow_fast(float b, float e, float *restrict y_out) {
    union { float f; int32_t i; } u = {b};
    float ex = (float)(((u.i >> 23) & 0xff) - 127);
    u.i = (u.i & 0x007fffff) | 0x3f800000;
    float m = u.f;
    int hi = m > 1.41421356f;
    m = hi ? 0.5f * m : m;
    ex = hi ? ex + 1.0f : ex;
    float t = (m - 1.0f) / (m + 1.0f), t2 = t * t;
    float lg = ex + t * (2.88539008f + t2 * (0.961796694f +
                    t2 * (0.577078016f + t2 * (0.412198583f +
                    t2 * 0.320598898f))));
    float y = e * lg;
    *y_out = y;
    y = y < -126.0f ? -126.0f : (y > 127.0f ? 127.0f : y);
    float nf = (y + 12582912.0f) - 12582912.0f;  /* round to nearest */
    float f = y - nf;
    float p = 1.0f + f * (0.693147181f + f * (0.240226507f +
                  f * (0.0555041087f + f * (0.00961812911f +
                  f * (0.00133335581f + f * 0.000154035304f)))));
    union { int32_t i; float f; } s = {((int32_t)nf + 127) << 23};
    return p * s.f;
}

/* Lanes pow_fast cannot serve (bitwise &, so the test vectorises). */
static inline int pow_slow_lane(float b, float y) {
    return !((b >= FLT_MIN) & (b <= FLT_MAX) & (y >= -126.0f) &
             (y <= 127.0f));
}

/* Local response normalisation of one sample (c channels of `plane`  */
/* floats): out = x * (k + a * window) ** e with prm = {a, k, e} =     */
/* {alpha/size, k, -beta} and window the sum of squares over the size  */
/* channels centred on each channel, accumulated in ascending channel  */
/* order like the numpy op (its zero-padded terms add exactly 0 to a   */
/* non-negative sum, so they are skipped).  scratch holds (c + 3)      */
/* planes: the squares, then the base, exponent and power rows.        */
static void lrn_sample(const float *restrict x, int64_t c, int64_t plane,
                       int64_t size, const float *restrict prm,
                       float *restrict scratch, const float *restrict ex,
                       float *restrict out) {
    float a = prm[0], k = prm[1], e = prm[2];
    float *restrict sq = scratch;
    float *restrict base = sq + c * plane;
    float *restrict yv = base + plane;
    float *restrict pw = yv + plane;
    for (int64_t j = 0; j < c * plane; j++) sq[j] = x[j] * x[j];
    for (int64_t ch = 0; ch < c; ch++) {
        int64_t lo = ch - size / 2, hi = lo + size;
        if (lo < 0) lo = 0;
        if (hi > c) hi = c;
        memcpy(base, sq + lo * plane, (size_t)plane * sizeof(float));
        for (int64_t t = lo + 1; t < hi; t++) {
            const float *restrict row = sq + t * plane;
            for (int64_t j = 0; j < plane; j++) base[j] += row[j];
        }
        int slow = 0;
        for (int64_t j = 0; j < plane; j++) {
            float b = base[j] * a + k, y;
            base[j] = b;
            pw[j] = pow_fast(b, e, &y);
            yv[j] = y;
            slow |= pow_slow_lane(b, y);
        }
        for (int64_t j = 0; slow && j < plane; j++)
            if (pow_slow_lane(base[j], yv[j])) pw[j] = powf(base[j], e);
        const float *restrict xs = x + ch * plane;
        float *restrict dst = out + ch * plane;
        const float *restrict exs = ex ? ex + ch * plane : 0;
        for (int64_t j = 0; j < plane; j++) {
            float v = xs[j] * pw[j];
            if (exs) v += exs[j];
            dst[j] = v;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Program interpreter: one record per IR op, RECORD_FIELDS int64     */
/* each, plus one float (the epilogue scale) per record in fscale.    */
/* Fields: [op, relu, c_in, h, w, c_out, kh, kw, sh, sw, ph, pw, oh,  */
/*          ow, weight_index, bias_index, in_dtype, add_extra, pool,  */
/*          pool_oh, pool_ow, pad_value, wmode, cscale_index,         */
/*          affine_index]                                             */
/* in_dtype (0=f32, 1=u8, 2=u16) is nonzero only on the first record  */
/* (quantised-code ingest); extra is the full-batch per-row tensor an */
/* add_extra op folds into its output write (the noise add).  wmode   */
/* (0=f32 weights, 1=i8 weight codes widened to float in-register,    */
/* 2=i8 weight codes on the fully integer u8-act path, quad-          */
/* interleaved on a conv record) selects the kernel variant;          */
/* cscale_index points into the weight table at                       */
/* the per-output-channel f32 scale vector (-1: scalar fscale), and   */
/* affine_index at the (c_out, 4) {mean, sd, gamma, beta} table of a  */
/* folded BatchNorm (-1: none).  The standalone affine record (op 4)  */
/* reads the same table; the lrn record (op 5) takes its window size  */
/* in kh and {alpha/size, k, -beta} at weight_index.                  */
/* ------------------------------------------------------------------ */
#define REC 25

void run_program(const int64_t *restrict prog, const float *restrict fscale,
                 int64_t n_ops, int64_t n,
                 const void *restrict input, float *restrict output,
                 float *restrict arena_a, float *restrict arena_b,
                 float *restrict cols, const float **restrict weights,
                 const float *restrict extra) {
    const void *src = input;
    float *arenas[2] = {arena_a, arena_b};
    int which = 0;
    for (int64_t op = 0; op < n_ops; op++) {
        const int64_t *r = prog + op * REC;
        int64_t kind = r[0];
        int relu = (int)r[1];
        int64_t c_in = r[2], h = r[3], w = r[4], c_out = r[5];
        int64_t kh = r[6], kw = r[7], sh = r[8], sw = r[9];
        int64_t ph = r[10], pw = r[11], oh = r[12], ow = r[13];
        const float *wmat = r[14] >= 0 ? weights[r[14]] : 0;
        const float *bias = r[15] >= 0 ? weights[r[15]] : 0;
        int dtype = (int)r[16];
        const float *ex = r[17] ? extra : 0;
        int pool = (int)r[18];
        int64_t poh = r[19], pow_ = r[20];
        float padv = (float)r[21];
        int wmode = (int)r[22];
        const float *cscale = r[23] >= 0 ? weights[r[23]] : 0;
        const float *aff = r[24] >= 0 ? weights[r[24]] : 0;
        float scale = fscale[op];
        float *dst = (op == n_ops - 1) ? output : arenas[which];
        which ^= 1;
        if (kind == 0) { /* conv2d */
            int64_t m = oh * ow, K = c_in * kh * kw, in_es = c_in * h * w;
            int64_t out_es = pool ? c_out * poh * pow_ : c_out * m;
            if (m == 1 && wmode != 2) {
                /* One output position: an im2col column into the dot
                   kernel (its k mod 16 lanes, not the flat conv's
                   ascending taps). */
                for (int64_t s = 0; s < n; s++) {
                    const float *exs = ex ? ex + s * out_es : 0;
                    if (dtype == 1)
                        im2col_u8((const uint8_t *)src + s * in_es, c_in, h,
                                  w, kh, kw, sh, sw, ph, pw, oh, ow, padv,
                                  cols);
                    else if (dtype == 2)
                        im2col_u16((const uint16_t *)src + s * in_es, c_in,
                                   h, w, kh, kw, sh, sw, ph, pw, oh, ow,
                                   padv, cols);
                    else
                        im2col_f32((const float *)src + s * in_es, c_in, h,
                                   w, kh, kw, sh, sw, ph, pw, oh, ow, 0.0f,
                                   cols);
                    if (wmode == 1)
                        linear_f32_w8(cols, (const int8_t *)wmat, bias,
                                      cscale, aff, 1, K, c_out, relu, scale,
                                      exs, dst + s * out_es);
                    else
                        linear_f32(cols, wmat, bias, cscale, aff, 1, K, c_out,
                                   relu, scale, exs, dst + s * out_es);
                }
            } else { /* flat-plane conv over the phase planes */
                int64_t hq = (h + 2 * ph + sh - 1) / sh;
                int64_t wq = (w + 2 * pw + sw - 1) / sw;
                /* Fully integer (wmode 2): one u8 word per channel quad,
                   with quad-interleaved int8 weight codes. */
                int64_t groups = wmode == 2 ? (c_in + 3) / 4 : c_in;
                int64_t planes = groups * sh * sw * hq * wq;
                float *stage = cols + planes + FLAT_SLACK;
                memset(cols + planes, 0, FLAT_SLACK * sizeof(float));
                for (int64_t s = 0; s < n; s++) {
                    const float *exs = ex ? ex + s * out_es : 0;
                    if (wmode == 2) {
                        phase_quads_u8((const uint8_t *)src + s * in_es,
                                       c_in, h, w, sh, sw, ph, pw, hq, wq,
                                       0x01010101u * (uint32_t)r[21],
                                       (uint32_t *)cols);
                        flat_conv_u8i8((const uint32_t *)cols,
                                       (const int32_t *)wmat, bias, cscale,
                                       aff, groups, kh, kw, sh, sw, hq, wq,
                                       oh, ow, c_out, relu, scale, pool, poh,
                                       pow_, exs, stage, dst + s * out_es);
                        continue;
                    }
                    if (dtype == 1)
                        phase_planes_u8((const uint8_t *)src + s * in_es,
                                        c_in, h, w, sh, sw, ph, pw, hq, wq,
                                        padv, cols);
                    else if (dtype == 2)
                        phase_planes_u16((const uint16_t *)src + s * in_es,
                                         c_in, h, w, sh, sw, ph, pw, hq, wq,
                                         padv, cols);
                    else
                        phase_planes_f32((const float *)src + s * in_es,
                                         c_in, h, w, sh, sw, ph, pw, hq, wq,
                                         0.0f, cols);
                    if (wmode == 1)
                        flat_conv_w8(cols, (const int8_t *)wmat, bias, cscale,
                                     aff, c_in, kh, kw, sh, sw, hq, wq, oh,
                                     ow, c_out, relu, scale, pool, poh, pow_,
                                     exs, stage, dst + s * out_es);
                    else
                        flat_conv_f32(cols, wmat, bias, cscale, aff, c_in, kh,
                                      kw, sh, sw, hq, wq, oh, ow, c_out, relu,
                                      scale, pool, poh, pow_, exs, stage,
                                      dst + s * out_es);
                }
            }
        } else if (kind == 1) { /* linear: c_in = in_f, c_out = out_f */
            if (wmode == 2)
                linear_u8_i8((const uint8_t *)src, (const int8_t *)wmat,
                             bias, cscale, aff, n, c_in, c_out, relu, scale,
                             ex, dst);
            else if (wmode == 1) {
                const int8_t *w8 = (const int8_t *)wmat;
                if (dtype == 1)
                    linear_u8_w8((const uint8_t *)src, w8, bias, cscale, aff,
                                 n, c_in, c_out, relu, scale, ex, dst);
                else if (dtype == 2)
                    linear_u16_w8((const uint16_t *)src, w8, bias, cscale,
                                  aff, n, c_in, c_out, relu, scale, ex, dst);
                else
                    linear_f32_w8((const float *)src, w8, bias, cscale, aff,
                                  n, c_in, c_out, relu, scale, ex, dst);
            } else if (dtype == 1)
                linear_u8((const uint8_t *)src, wmat, bias, cscale, aff, n,
                          c_in, c_out, relu, scale, ex, dst);
            else if (dtype == 2)
                linear_u16((const uint16_t *)src, wmat, bias, cscale, aff, n,
                           c_in, c_out, relu, scale, ex, dst);
            else
                linear_f32((const float *)src, wmat, bias, cscale, aff, n,
                           c_in, c_out, relu, scale, ex, dst);
        } else if (kind == 2) { /* standalone relu over c_in elems/sample */
            const float *restrict sf = (const float *)src;
            int64_t total = n * c_in;
            if (ex)
                for (int64_t j = 0; j < total; j++) {
                    float v = sf[j];
                    dst[j] = (v > 0.0f ? v : 0.0f) + ex[j];
                }
            else
                for (int64_t j = 0; j < total; j++) {
                    float v = sf[j];
                    dst[j] = v > 0.0f ? v : 0.0f;
                }
        } else if (kind == 3) { /* maxpool2d over n*c_in planes */
            maxpool_planes((const float *)src, n * c_in, h, w, kh, kw, sh,
                           sw, ph, pw, oh, ow, dst);
            if (ex) {
                int64_t total = n * c_in * oh * ow;
                for (int64_t j = 0; j < total; j++) dst[j] += ex[j];
            }
        } else if (kind == 4) { /* standalone affine over n*c_in planes */
            const float *restrict sf = (const float *)src;
            int64_t plane = h * w;
            for (int64_t p = 0; p < n * c_in; p++) {
                const float *ac = aff + 4 * (p % c_in);
                float mean = ac[0], sd = ac[1], gamma = ac[2], beta = ac[3];
                const float *restrict xs = sf + p * plane;
                const float *restrict exs = ex ? ex + p * plane : 0;
                float *restrict d = dst + p * plane;
                for (int64_t j = 0; j < plane; j++) {
                    float v = bn_affine(xs[j], mean, sd, gamma, beta);
                    if (exs) v += exs[j];
                    d[j] = v;
                }
            }
        } else { /* lrn, one sample at a time (kh = window size) */
            int64_t es = c_in * h * w;
            for (int64_t s = 0; s < n; s++)
                lrn_sample((const float *)src + s * es, c_in, h * w, kh,
                           wmat, cols, ex ? ex + s * es : 0, dst + s * es);
        }
        src = dst;
    }
}
"""


def _configure(lib: ctypes.CDLL) -> None:
    lib.run_program.argtypes = [
        ctypes.c_void_p,  # prog records
        ctypes.c_void_p,  # fscale (one float per record)
        ctypes.c_int64,   # n_ops
        ctypes.c_int64,   # n (batch rows)
        ctypes.c_void_p,  # input (f32 or quantised codes)
        ctypes.c_void_p,  # output
        ctypes.c_void_p,  # arena_a
        ctypes.c_void_p,  # arena_b
        ctypes.c_void_p,  # cols scratch
        ctypes.c_void_p,  # weights pointer table
        ctypes.c_void_p,  # extra per-row tensor (folded add), may be NULL
    ]
    lib.run_program.restype = None
    lib.has_vnni.argtypes = []
    lib.has_vnni.restype = ctypes.c_int64


_MODULE = native.KernelModule("fastexec", _SOURCE, _configure)


def available() -> bool:
    """Whether the compiled executor kernels can be used in this process."""
    return _MODULE.available()


def load() -> ctypes.CDLL | None:
    """The configured library (``None`` when unavailable or disabled)."""
    return _MODULE.load()


def variant() -> str | None:
    """The integer conv step the loaded library compiled: ``"vnni"``
    (``vpdpbusd``, where the build has AVX-512 VNNI) or ``"generic"`` (the
    GCC vector-extension step); ``None`` when the library is
    unavailable."""
    lib = load()
    if lib is None:
        return None
    return "vnni" if lib.has_vnni() else "generic"


def _record(**fields: int) -> tuple[int, ...]:
    """One program record; unnamed fields are 0, or -1 for table indices."""
    values = {name: -1 if name in _TABLE_FIELDS else 0 for name in RECORD_LAYOUT}
    values.update(fields)
    if len(values) != RECORD_FIELDS:  # pragma: no cover - a misspelt field
        raise ValueError(f"unknown record fields: {set(values) - set(RECORD_LAYOUT)}")
    return tuple(values[name] for name in RECORD_LAYOUT)


def _quad_codes(op: ir.IROp) -> np.ndarray:
    """A fully integer conv's int8 weight codes, quad-interleaved: per
    output channel, one 4-byte word per (channel quad, ki, kj) in the
    kernel's tap order, holding the quad's 4 codes at that tap (zero codes
    for the missing channels of a last partial quad)."""
    c_out = op.out_spec.shape[0]
    c_in = op.in_spec.shape[0]
    taps = op.kernel[0] * op.kernel[1]
    quads = -(-c_in // 4)
    packed = np.zeros((c_out, 4 * quads, taps), dtype=np.int8)
    packed[:, :c_in] = op.wq.codes.reshape(c_out, c_in, taps)
    packed = packed.reshape(c_out, quads, 4, taps).transpose(0, 1, 3, 2)
    return np.ascontiguousarray(packed).reshape(c_out, -1)


def _window(op: ir.IROp) -> dict[str, int]:
    """The conv/pool window fields of a record."""
    (kh, kw), (sh, sw), (ph, pw) = op.kernel, op.stride, op.padding
    return dict(kh=kh, kw=kw, sh=sh, sw=sw, ph=ph, pw=pw, oh=op.oh, ow=op.ow)


class CompiledProgram:
    """One lowered :class:`~repro.edge.ir.Program` bound to the native
    interpreter for one input geometry and any batch of up to
    ``capacity`` rows.

    Translates the IR ops into the flat int64 record array the C side
    executes, resolves the buffer plan (:func:`repro.edge.ir.plan_buffers`)
    into ping-pong arenas of ``capacity`` rows and the per-sample scratch
    panel, builds the weight pointer table, and caches the argument list
    so a call is one dict hit plus one ctypes call.  ``run_program``
    addresses every row by its per-sample offset, so a smaller batch runs
    on the arenas' leading rows with the same bits.  ``flatten`` ops
    vanish here — the record stream is compute-only and the output buffer
    is allocated at the program's (possibly flattened) output spec.

    Weight/bias pointers reference the IR's live float32 arrays (views of
    the module parameters), so in-place weight updates stay visible;
    rebinding a parameter to a new array does not.  Dequant-folding and
    quantised-weight ops are the exception: their epilogue constants are
    frozen copies and their weight pointer is the int8 code plane held by
    the IR op.  Serving nets are frozen, which is the contract this
    backend is built for.  Quantised weights never get a float32 copy
    here — the code plane is the only weight operand the kernels read.
    """

    def __init__(self, program: ir.Program, capacity: int) -> None:
        lib = load()
        if lib is None:  # pragma: no cover - callers check available()
            raise RuntimeError("fastexec kernel unavailable")
        self._run = lib.run_program
        self.capacity = capacity
        self.program = program
        self.out_shape = program.out_spec.shape
        self.in_dtype = program.in_spec.numpy_dtype
        self.needs_extra = any(op.add_rows for op in program.ops)
        # Strong references keep the weight arrays alive behind the raw
        # pointers in the table.
        self._weight_arrays: list[np.ndarray] = []
        records: list[tuple] = []
        scales: list[float] = []

        def _index(array: np.ndarray | None) -> int:
            if array is None:
                return -1
            if array.dtype not in (np.float32, np.int8) or (
                not array.flags.c_contiguous
            ):
                raise TypeError(
                    "native kernels need contiguous float32/int8 weights"
                )
            self._weight_arrays.append(array)
            return len(self._weight_arrays) - 1

        for op in program.ops:
            if op.kind == "flatten":
                continue
            scale, cscale, bias = ir.epilogue_constants(op)
            if op.wq is not None:
                weight = op.wq.codes
                wmode = 2 if ir.integer_matmul_eligible(op) else 1
            else:
                weight, wmode = op.weight, 0
            if op.kind == "conv2d":
                c_in, h, w = op.in_spec.shape
                if op.padding == (0, 0) and op.kernel == (h, w) and not op.pool:
                    # A whole-input conv (oh == ow == 1, no padding) reads
                    # exactly the flattened sample in weight order, so it
                    # lowers to the linear record — one batched kernel
                    # call instead of an im2col + dot per sample.
                    fields = dict(op=OP_LINEAR, c_in=op.in_spec.elements,
                                  c_out=op.out_spec.elements)
                else:
                    fields = dict(
                        op=OP_CONV2D, c_in=c_in, h=h, w=w,
                        c_out=op.out_spec.shape[0], **_window(op),
                        pool=int(op.pool),
                    )
                    if op.pool:
                        fields["pool_oh"], fields["pool_ow"] = op.out_spec.shape[1:]
                    if wmode == 2:
                        weight = _quad_codes(op)
            elif op.kind == "linear":
                fields = dict(op=OP_LINEAR, c_in=op.in_spec.elements,
                              c_out=op.out_spec.elements)
            elif op.kind == "relu":
                fields = dict(op=OP_RELU, c_in=op.in_spec.elements)
            elif op.kind == "maxpool2d":
                c, h, w = op.in_spec.shape
                fields = dict(op=OP_MAXPOOL2D, c_in=c, h=h, w=w, **_window(op))
            elif op.kind == "affine":
                c, h, w = op.in_spec.shape
                fields = dict(op=OP_AFFINE, c_in=c, h=h, w=w)
            elif op.kind == "lrn":
                c, h, w = op.in_spec.shape
                lrn = op.lrn
                fields = dict(op=OP_LRN, c_in=c, h=h, w=w, kh=lrn.size)
                # The numpy op's f32 operands: alpha/size and k are cast
                # at their use, -beta is the power's exponent.
                weight = np.array(
                    [lrn.alpha / lrn.size, lrn.k, -lrn.beta], dtype=np.float32
                )
            else:  # pragma: no cover - lowering controls the op kinds
                raise ValueError(f"IR op {op.kind!r} has no native lowering")
            affine = None
            if op.affine is not None:
                a = op.affine
                affine = np.ascontiguousarray(
                    np.stack([a.mean, a.sd, a.gamma, a.beta], axis=1)
                )
            records.append(_record(
                **fields,
                relu=int(op.relu),
                weight=_index(weight),
                bias=_index(bias),
                in_dtype=_DTYPE_CODES[op.in_spec.dtype],
                add_extra=int(op.add_rows),
                pad_value=0 if op.dequant is None else int(op.dequant.zero_point),
                wmode=wmode,
                cscale=_index(cscale),
                affine=_index(affine),
            ))
            scales.append(scale)

        if not records:
            raise ValueError("cannot compile a program with no compute ops")
        plan = ir.plan_buffers(program)
        self._records = np.asarray(records, dtype=np.int64)
        self._scales = np.asarray(scales, dtype=np.float32)
        table = (ctypes.c_void_p * max(1, len(self._weight_arrays)))()
        for index, array in enumerate(self._weight_arrays):
            table[index] = array.ctypes.data
        self._weight_table = table
        self._arena_a = np.empty(capacity * plan.arena_elements, dtype=np.float32)
        self._arena_b = np.empty(capacity * plan.arena_elements, dtype=np.float32)
        # Zero-filled so vector over-reads into the scratch slack never
        # see uninitialised (potentially denormal) memory.
        self._cols = np.zeros(plan.scratch_elements, dtype=np.float32)
        self._args = [
            self._records.ctypes.data,
            self._scales.ctypes.data,
            len(self._records),
            0,  # batch rows, set per call
            0,  # input pointer, set per call
            0,  # output pointer, set per call
            self._arena_a.ctypes.data,
            self._arena_b.ctypes.data,
            self._cols.ctypes.data,
            ctypes.addressof(self._weight_table),
            0,  # extra pointer, set per call
        ]

    def __call__(self, x: np.ndarray, extra: np.ndarray | None = None) -> np.ndarray:
        """Run the program on ``x`` (at most ``capacity`` rows); returns a
        fresh ``(len(x), ...)`` float32 output array.

        ``extra`` is the full-batch per-row tensor a folded epilogue add
        consumes (required iff the program was lowered with one).
        """
        if self.needs_extra and extra is None:
            raise ValueError("program folds an epilogue add; extra is required")
        n = len(x)
        if n > self.capacity:
            raise ValueError(f"{n} rows exceed the binding's {self.capacity}")
        out = np.empty((n, *self.out_shape), dtype=np.float32)
        args = self._args
        args[3] = n
        args[4] = x.ctypes.data
        args[5] = out.ctypes.data
        args[10] = 0 if extra is None else extra.ctypes.data
        self._run(*args)
        return out
