#!/usr/bin/env python3
"""Serving-runtime load generator: sequential vs batched vs multi-worker.

Drives a stream of single-image requests through (a) the retained
sequential reference path (:class:`repro.edge.InferenceSession`, one wire
round trip per request) and (b) a one-deployment serving control plane
(:class:`repro.serve.ControlPlane` with greedy FIFO windows:
``batch_timeout=0``, ``deadline_aware=False``) at one or more batching
windows, plus a quantised-wire variant.  Verifies the parity contract
(bit-identical logits between sequential and unquantised batched serving
on the same stream) and records requests/sec into the ``serving`` section
of ``BENCH_hotpaths.json``.

Three further sections cover the executor kernels and the deadline-aware
multi-worker plane:

* ``kernel_backend`` — identical serving work at the acceptance window on
  the compiled native executor vs the pure-numpy executor (the headline
  lever on ``requests_per_second``; native must be >= 2x in a full run);
* ``executor_ir`` — the executor's op-program rewrite pipeline (fused
  relu/pool, int8 ingest with the dequant folded into the first conv's
  epilogue, noise-add epilogue folding) on vs off, on the quantised
  window-32 device+server compute path at the "conv0" cut where every
  rewrite fires.  Rewrites-on must be >= 1.15x rewrites-off in a full
  run (>= 1x under ``--smoke``), the legs must agree to f32 closeness,
  the uplink must stay one uint8 byte per element, and on the native
  backend no batch-sized f32 dequantised copy may be materialised;
* ``executor_int8w`` — the opt-in ``int8_weights`` rewrite
  (``weight_bits=8``): per-output-channel int8 weight codes fed straight
  into the GEMM/conv kernels vs f32 weights, both legs on the same
  quantised window-32 compute path (so the first conv of the quantised
  leg is fully integer: u8 activations x i8 weights).  Quantised must be
  >= 1.2x f32 in a full run (>= 1x under ``--smoke``), argmax label
  agreement vs the f32 leg must be >= 0.99 (the rewrite is
  accuracy-affecting, so the gate is label agreement rather than f32
  closeness), and on the native backend zero f32 dequantised *weight*
  copies may be materialised (the code planes are the weights);
* ``serving_slo`` — a jittered mixed-SLO arrival trace replayed through
  the deadline-aware and fixed-window batching policies in virtual time
  (service model calibrated from the measured batched step), comparing
  SLO attainment at equal work;
* ``serving_multiworker`` — real wall-clock throughput of a
  one-deployment :class:`repro.serve.ControlPlane` at 1 vs 4 cloud
  workers over a
  ``realtime`` channel (simulated wire time actually slept), with
  bit-parity against the sequential reference;
* ``serving_multimodel`` — the multi-deployment control plane: aggregate
  req/s of 3 deployments sharing one worker pool
  (:class:`repro.serve.ControlPlane`) vs the same 3 deployments as
  isolated single-worker planes driven concurrently, with per-deployment
  bit-parity and the cross-user mixing index;
* ``serving_chaos`` — the elastic control plane under chaos + overload: a
  protected SLO tenant and an admission-capped bulk tenant share an
  auto-healing pool; mid-run the bulk tenant spikes to ~10x its baseline
  rate while a fault injector kills a worker holding one of its batches.
  The gates: the protected tenant's admitted-request SLO attainment stays
  pinned, the bulk overload is rejected *typed* (429-style, counted) —
  never queued unbounded, silently dropped, or hung — every admitted
  request is delivered exactly once, the killed worker heals back, and
  bit parity holds after the heal and across a post-run hot-swap;
* ``privacy_mixing`` — the shuffling–privacy bridge (PR 8): the same
  mixed-session stream served with the shuffler off and on (bit parity
  against the sequential reference required in both legs, shuffling is
  not allowed to cost more than a bounded throughput fraction), plus the
  empirical leakage evaluator (:func:`repro.privacy.evaluate_shuffle_leakage`)
  replaying the wire composition over the tapped cut activations: the
  positional re-identification attacker must do no better shuffled than
  unshuffled, with a small mixing-trade-off sweep (window x shards x
  isolation x shuffle) recorded for the paper plot;
* ``serving_sharded`` — the process-sharded plane
  (:class:`repro.serve.ShardedServingEngine`): a trace from the open-loop
  load generator (bursty arrivals, a million distinct users, Zipf-heavy
  per-user counts) served by 1/2/4 subprocess shards over real sockets,
  against the 4-thread single-process plane on identical work.  Wire
  waits are real (``realtime`` channel), so the threaded plane tops out
  at its worker count while shards multiply both dispatchers and worker
  pools across processes.  Gates: sharded-4 >= 2x threaded-4 in a full
  run (>= 1x under ``--smoke``) and bit-parity of every shard against
  its own per-shard sequential reference.

Run:
    PYTHONPATH=src python benchmarks/bench_serving.py [--smoke] [--output PATH]

Exit status is non-zero when a gate fails: batched >= 3x sequential at the
acceptance window (full run; simply faster under ``--smoke``), deadline-
aware attainment >= fixed-window attainment, multi-worker >= 1.5x
single-worker throughput at window 8, shared-pool multi-model aggregate
>= 0.9x the isolated-planes aggregate, chaos-leg protected attainment
below its floor (0.95 full, 0.75 smoke) or any other chaos contract
breach, (when a C compiler is present) kernel-on serving throughput
below kernel-off at window 8 (>= 2x required in a full run, with
unanimous label agreement), IR rewrites-on below 1.15x rewrites-off on
the quantised window-32 compute path (or any of that leg's wire /
allocation / closeness assertions), int8 weights below 1.2x f32 on that
same path (or label agreement under 0.99, or any native f32 weight copy
materialised), the sharded plane below 2x the 4-thread
plane at 4 shards (full; >= 1x under ``--smoke``) or out of bit-parity
with its per-shard references, or the privacy-mixing leg breaking parity,
leaking more positionally with the shuffler on than off, or paying more
than the allowed shuffling overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.config import Config, get_scale
from repro.core import NoiseCollection, SplitInferenceModel
from repro.edge import Channel, InferenceSession
from repro.serve import (
    ControlPlane,
    ServingMetrics,
    ShardedServingEngine,
    ShardSpec,
    generate_trace,
    random_trace,
    route_session,
    simulate_schedule,
    trace_stats,
)


ACCEPTANCE_WINDOW = 8
# Batched-vs-sequential amortisation at the acceptance window.  PR 2 set
# this at 3x against the numpy executor; the native kernels (PR 4) tripled
# the *sequential* path's throughput too, so the relative batching win
# compressed (Amdahl) while absolute throughput more than doubled.  This
# is now a sanity floor (batching must still clearly amortise); the perf
# bar is carried by the kernel_backend gate below, which compares both
# backends back-to-back on identical work and is robust to host noise.
ACCEPTANCE_SPEEDUP = 1.5
MULTIWORKER_SPEEDUP = 1.5
MULTIWORKER_WORKERS = 4
#: Deployments on the shared control plane, and the gate: a shared pool
#: of N workers must deliver >= this fraction of N isolated one-worker
#: planes' aggregate throughput (sharing may cost a little dispatcher
#: serialisation; it must not collapse).
MULTIMODEL_DEPLOYMENTS = 3
MULTIMODEL_RATIO = 0.9
#: Serving throughput the native kernel backend must deliver over the
#: numpy executor at the acceptance window (full run; smoke only requires
#: "faster").
KERNEL_BACKEND_SPEEDUP = 2.0
#: Chaos leg: the protected tenant's latency SLO, and the floor on its
#: admitted-request SLO attainment while the bulk tenant spikes ~10x and
#: a worker dies mid-batch (smoke relaxes the floor — tiny CI hosts).
CHAOS_PROTECTED_SLO = 0.050
CHAOS_ATTAINMENT_FLOOR = 0.95
CHAOS_ATTAINMENT_FLOOR_SMOKE = 0.75
#: Process sharding: 4 shards must deliver >= this multiple of the
#: 4-thread single-process plane on identical trace-driven work (full
#: run; smoke only requires parity-with-no-regression, >= 1x).  The
#: threaded plane overlaps at most ``workers`` wire waits and serialises
#: every dispatcher turn under one GIL; shards multiply both.
SHARDED_SPEEDUP = 2.0
SHARDED_SHARD_COUNTS = (1, 2, 4)
SHARDED_WORKERS = 4
#: Wire latency of the sharded/threaded comparison.  High enough that the
#: workload is wire-bound (the regime sharding targets: many concurrent
#: users, each paying a real round trip) rather than bound by the tiny
#: lenet compute.
SHARDED_CHANNEL_LATENCY_MS = 10.0
#: Privacy-mixing leg: distinct sessions interleaved round-robin on the
#: shuffled stream, and the floor on shuffle-on throughput as a fraction
#: of shuffle-off throughput.  The shuffler is one O(batch) permutation
#: per micro-batch, so anything below this floor is a real regression,
#: not host noise.
PRIVACY_MIXING_SESSIONS = 8
PRIVACY_MIXING_OVERHEAD_FLOOR = 0.5
#: Executor IR rewrites: throughput the default rewrite pipeline (fused
#: relu/pool, int8 ingest with the dequant folded into the GEMM
#: epilogue, noise-add epilogue folding) must deliver over the *same*
#: executors with rewrites disabled, on the quantised window-32
#: device+server compute path at the cut where every rewrite fires
#: (full run; smoke only requires no regression).
EXECUTOR_IR_SPEEDUP = 1.15
EXECUTOR_IR_WINDOW = 32
EXECUTOR_IR_CUT = "conv0"
#: Int8 weights (the opt-in ``int8_weights`` rewrite): throughput the
#: quantised-weight executors (``weight_bits=8``) must deliver over the
#: f32-weight executors on the *same* quantised window-32 compute path
#: (full run; smoke only requires no regression), and the floor on
#: argmax label agreement against the f32 reference leg.  The rewrite is
#: accuracy-affecting by design, so its gate is label agreement — not
#: f32 closeness — per the standing IR contract's quantised-weights
#: carve-out (see ROADMAP.md).
EXECUTOR_INT8W_SPEEDUP = 1.2
EXECUTOR_INT8W_AGREEMENT = 0.99


def build_collection(split: SplitInferenceModel, members: int) -> NoiseCollection:
    """A synthetic noise collection (serving perf is training-agnostic)."""
    rng = np.random.default_rng(0)
    collection = NoiseCollection(split.activation_shape)
    for _ in range(members):
        collection.add(
            rng.laplace(0.0, 0.05, size=split.activation_shape).astype(np.float32),
            accuracy=0.0,
            in_vivo_privacy=0.0,
        )
    return collection


def serve_sequential(make_session, stream) -> tuple[float, list[np.ndarray]]:
    """Wall seconds and per-request logits for the sequential path."""
    session = make_session()
    start = time.perf_counter()
    logits = [session.infer(images) for images in stream]
    return time.perf_counter() - start, logits


def single_plane(model, cut, *, workers=1, channel=None,
                 kernel_backend="auto", **register) -> ControlPlane:
    """A control plane hosting one deployment of ``model`` at ``cut``."""
    plane = ControlPlane(
        workers=workers, channel=channel, kernel_backend=kernel_backend
    )
    plane.register("lenet", model, cut, **register)
    return plane


def serve_batched(
    make_plane, stream
) -> tuple[float, list[np.ndarray], ServingMetrics]:
    """Wall seconds, per-request logits, and the deployment's metrics."""
    with make_plane() as plane:
        start = time.perf_counter()
        logits = plane.infer_stream(stream)
        return time.perf_counter() - start, logits, plane.deployment().metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_hotpaths.json",
        help="JSON report to merge the 'serving' section into",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for CI; gate is 'batched beats sequential'",
    )
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument(
        "--windows", type=int, nargs="*", default=None,
        help="batch windows to measure (default: 8 16 32; smoke: 8)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    from repro.models import get_pretrained

    config = Config(scale=get_scale("tiny" if args.smoke else None))
    requests = args.requests or (64 if args.smoke else 512)
    windows = args.windows or ([ACCEPTANCE_WINDOW] if args.smoke else [8, 16, 32])
    repeats = max(1, args.repeats)

    bundle = get_pretrained("lenet", config)
    split = SplitInferenceModel(bundle.model)
    cut = split.cut
    collection = build_collection(split, members=8)
    images = bundle.test_set.images
    stream = [images[i % len(images)][None] for i in range(requests)]
    mean = np.zeros(1, dtype=np.float32)
    std = np.ones(1, dtype=np.float32)

    def sequential_session() -> InferenceSession:
        return InferenceSession(
            bundle.model, cut, mean, std, noise=collection,
            channel=Channel(), rng=np.random.default_rng(7),
        )

    def batched_session(
        window: int, quantization=None, kernel_backend="auto"
    ) -> ControlPlane:
        # No batching wait and no deadlines: greedy FIFO windows.
        return single_plane(
            bundle.model, cut, channel=Channel(),
            kernel_backend=kernel_backend, mean=mean, std=std,
            noise=collection, rng=np.random.default_rng(7),
            batch_window=window, batch_timeout=0.0, deadline_aware=False,
            quantization=quantization,
        )

    # Warm both paths (imports, executor plans, allocator) off the clock.
    serve_sequential(sequential_session, stream[:8])
    serve_batched(lambda: batched_session(windows[0]), stream[:8])

    print(f"workload: {requests} single-image lenet requests @ {config.scale.name}")
    # The workload is deterministic (fresh identically-seeded sessions per
    # run), so logits are captured from the timed repeats themselves.
    seq_s = float("inf")
    for _ in range(repeats):
        elapsed, seq_logits = serve_sequential(sequential_session, stream)
        seq_s = min(seq_s, elapsed)
    seq_rps = requests / seq_s
    print(f"sequential: {seq_s*1e3:8.1f} ms  {seq_rps:8.0f} req/s")

    serving: dict = {
        "model": "lenet",
        "scale": config.scale.name,
        "requests": requests,
        "noise_members": len(collection),
        "sequential": {"seconds": seq_s, "requests_per_second": seq_rps},
        "windows": {},
    }
    gate_ok = True
    calibration_batches = None
    for window in windows:
        bat_s = float("inf")
        for _ in range(repeats):
            elapsed, bat_logits, bat_metrics = serve_batched(
                lambda: batched_session(window), stream
            )
            bat_s = min(bat_s, elapsed)
        if window == windows[0]:
            calibration_batches = bat_metrics.micro_batches
        identical = all(
            np.array_equal(a, b) for a, b in zip(seq_logits, bat_logits)
        )
        speedup = seq_s / bat_s
        metrics = bat_metrics.as_dict()
        serving["windows"][str(window)] = {
            "seconds": bat_s,
            "requests_per_second": requests / bat_s,
            "speedup": speedup,
            "bitwise_parity": identical,
            "mean_occupancy": metrics["mean_occupancy"],
            "latency_p50_ms": metrics["latency_p50_ms"],
            "latency_p99_ms": metrics["latency_p99_ms"],
            "uplink_bytes": metrics["uplink_bytes"],
        }
        print(
            f"batched w{window:<3d} {bat_s*1e3:8.1f} ms  {requests/bat_s:8.0f} req/s "
            f"({speedup:.2f}x, parity={'OK' if identical else 'FAIL'})"
        )
        if not identical:
            gate_ok = False

    # Quantised wire at the acceptance window (not part of the parity gate:
    # quantisation is deliberately lossy).
    from repro.edge import calibrate

    calib = split.activations(images[: min(64, len(images))])
    calib = calib + collection.sample_batch(np.random.default_rng(1), len(calib))
    params = calibrate(calib, bits=8)
    quant_window = windows[0]
    quant_s = float("inf")
    for _ in range(repeats):
        elapsed, quant_logits, quant_metrics = serve_batched(
            lambda: batched_session(quant_window, params), stream
        )
        quant_s = min(quant_s, elapsed)
    label_agreement = float(
        np.mean(
            np.concatenate([l.argmax(axis=1) for l in quant_logits])
            == np.concatenate([l.argmax(axis=1) for l in seq_logits])
        )
    )
    serving["quantized"] = {
        "bits": 8,
        "window": quant_window,
        "seconds": quant_s,
        "requests_per_second": requests / quant_s,
        "label_agreement_vs_sequential": label_agreement,
        "uplink_bytes": quant_metrics.uplink_bytes,
        "uplink_ratio_vs_float32": (
            quant_metrics.uplink_bytes
            / serving["windows"][str(quant_window)]["uplink_bytes"]
        ),
    }
    print(
        f"quantized w{quant_window} (8-bit): {requests/quant_s:8.0f} req/s, "
        f"uplink x{serving['quantized']['uplink_ratio_vs_float32']:.2f}, "
        f"label agreement {label_agreement:.1%}"
    )

    # ------------------------------------------------------------------
    # Kernel backends: the compiled native executor vs the numpy executor
    # on identical serving work at the acceptance window.  Parity holds
    # *within* each backend (enforced above and by the test suite); across
    # backends the contract is f32 closeness, checked here as label
    # agreement.
    # ------------------------------------------------------------------
    from repro.edge import _fastexec

    kb_window = windows[0]
    kernel_section: dict = {"available": _fastexec.available(), "window": kb_window}
    kb_ok = True
    if _fastexec.available():
        # The backends alternate inside every repeat (order flipped each
        # time) so host drift lands on both equally — a block of numpy
        # repeats followed by a block of native repeats lets a slow
        # patch of wall-clock skew the ratio either way.
        kb_best = {"numpy": float("inf"), "native": float("inf")}
        kb_logits = {}
        for r in range(repeats):
            order = ("numpy", "native") if r % 2 == 0 else ("native", "numpy")
            for backend in order:
                elapsed, logits, _ = serve_batched(
                    lambda: batched_session(kb_window, kernel_backend=backend),
                    stream,
                )
                if elapsed < kb_best[backend]:
                    kb_best[backend] = elapsed
                    kb_logits[backend] = logits
        kb_results = {
            backend: {
                "seconds": best,
                "requests_per_second": requests / best,
            }
            for backend, best in kb_best.items()
        }
        kb_speedup = (
            kb_results["numpy"]["seconds"] / kb_results["native"]["seconds"]
        )
        kb_agreement = float(
            np.mean(
                np.concatenate([l.argmax(axis=1) for l in kb_logits["native"]])
                == np.concatenate([l.argmax(axis=1) for l in kb_logits["numpy"]])
            )
        )
        kb_target = 1.0 if args.smoke else KERNEL_BACKEND_SPEEDUP
        kb_ok = kb_speedup >= kb_target and kb_agreement == 1.0
        kernel_section.update(
            backends=kb_results,
            speedup=kb_speedup,
            label_agreement=kb_agreement,
            gate_speedup_target=kb_target,
        )
        print(
            f"kernel backend: native "
            f"{kb_results['native']['requests_per_second']:8.0f} req/s vs numpy "
            f"{kb_results['numpy']['requests_per_second']:8.0f} req/s "
            f"({kb_speedup:.2f}x, target {kb_target:.1f}x, label agreement "
            f"{kb_agreement:.1%}, {'PASS' if kb_ok else 'FAIL'})"
        )
    else:
        print("kernel backend: native kernels unavailable (numpy-only run)")
    serving["kernel_backend"] = kernel_section

    # ------------------------------------------------------------------
    # Executor IR rewrites: the same lowered op-program with the rewrite
    # pipeline on vs off, on the quantised window-32 device+server
    # compute path at the "conv0" cut — the cut where every rewrite
    # fires (fused relu+pool on both halves, int8 ingest with the
    # dequant folded into the first conv's epilogue on the uplink,
    # noise-add folded into the local half's epilogue).  The wire and
    # scheduling layers are measured by the sections above; this leg
    # isolates exactly what the rewrites touch, and asserts the uplink
    # stays one byte per element with no f32 dequantised copy ever
    # materialised on the native backend.
    # ------------------------------------------------------------------
    from repro.edge import CloudServer, EdgeDevice, encode_activation_batch
    from repro.edge.ir import DISABLE_REWRITES_ENV_VAR

    ir_window = EXECUTOR_IR_WINDOW
    ir_local, ir_remote = bundle.model.split(EXECUTOR_IR_CUT)
    ir_shape = bundle.model.activation_shape(EXECUTOR_IR_CUT)
    ir_rng = np.random.default_rng(0)
    ir_collection = NoiseCollection(ir_shape)
    for _ in range(len(collection)):
        ir_collection.add(
            ir_rng.laplace(0.0, 0.05, size=ir_shape).astype(np.float32),
            accuracy=0.0,
            in_vivo_privacy=0.0,
        )
    ir_probe = EdgeDevice(ir_local, mean, std, ir_collection,
                          np.random.default_rng(1))
    ir_params = calibrate(
        ir_probe.forward_batch(
            [images[i][None] for i in range(min(64, len(images)))]
        ).tensor,
        bits=8,
    )
    ir_inputs = [
        [images[(b * ir_window + i) % len(images)][None] for i in range(ir_window)]
        for b in range(max(2, requests // ir_window))
    ]

    def ir_pair():
        """One warmed (device, server) pair per rewrite setting.

        Fresh identically-seeded devices (executors snapshot the rewrite
        selection at construction, and the noise stream must replay
        identically for the parity check); warm-up is off the clock,
        matching the serving sections above.
        """
        pair = {}
        for enabled in (True, False):
            had = os.environ.pop(DISABLE_REWRITES_ENV_VAR, None)
            try:
                if not enabled:
                    os.environ[DISABLE_REWRITES_ENV_VAR] = "1"
                device = EdgeDevice(ir_local, mean, std, ir_collection,
                                    np.random.default_rng(7), ir_params)
                server = CloudServer(ir_remote)
            finally:
                os.environ.pop(DISABLE_REWRITES_ENV_VAR, None)
                if had is not None:
                    os.environ[DISABLE_REWRITES_ENV_VAR] = had
            device.warm((ir_window, *images[0].shape))
            server.warm((ir_window, *ir_shape[1:]), quantization=ir_params)
            pair[enabled] = (device, server)
        return pair

    def ir_timed(device, server):
        start = time.perf_counter()
        logits = []
        frame = None
        for batch in ir_inputs:
            frame = device.forward_batch(batch)
            logits.append(server.predict_batch(frame).logits)
        return time.perf_counter() - start, logits, frame

    # The two legs alternate inside every repeat (on/off back to back,
    # order flipped each time) so host drift lands on both equally —
    # best-of-repeats per leg, like every other section.
    ir_best = {True: float("inf"), False: float("inf")}
    ir_logits: dict = {True: None, False: None}
    ir_frame = None
    ir_on_server = ir_off_server = None
    for r in range(max(repeats, 5)):
        legs = ir_pair()
        for enabled in ((True, False) if r % 2 == 0 else (False, True)):
            device, server = legs[enabled]
            elapsed, logits, frame = ir_timed(device, server)
            if elapsed < ir_best[enabled]:
                ir_best[enabled], ir_logits[enabled] = elapsed, logits
            if enabled:
                ir_frame, ir_on_server = frame, server
            else:
                ir_off_server = server
    ir_on_s, ir_on_logits = ir_best[True], ir_logits[True]
    ir_off_s, ir_off_logits = ir_best[False], ir_logits[False]
    ir_speedup = ir_off_s / ir_on_s
    ir_requests = len(ir_inputs) * ir_window
    ir_close = all(
        np.allclose(a, b, atol=2e-4, rtol=2e-4)
        for a, b in zip(ir_on_logits, ir_off_logits)
    )
    ir_agreement = float(
        np.mean(
            np.concatenate([l.argmax(axis=1) for l in ir_on_logits])
            == np.concatenate([l.argmax(axis=1) for l in ir_off_logits])
        )
    )
    # Wire assertion: the quantised uplink frame carries raw uint8 codes,
    # one byte per activation element.
    ir_payload_ok = bool(
        ir_frame.tensor.dtype == np.uint8
        and ir_frame.tensor.nbytes == ir_frame.tensor.size
    )
    # Allocation assertion: with int8 ingest active the native backend
    # feeds the codes straight into the first conv — zero batch-sized f32
    # dequantised copies across the whole run (the numpy backend realises
    # ingest as dequantize-at-the-op by design, so it is exempt).  The
    # rewrites-off leg must dequantise, or the comparison is vacuous.
    ir_alloc_ok = (
        ir_on_server.ingest_dequants == 0 if _fastexec.available() else True
    )
    ir_target = 1.0 if args.smoke else EXECUTOR_IR_SPEEDUP
    ir_ok = (
        ir_speedup >= ir_target
        and ir_close
        and ir_payload_ok
        and ir_alloc_ok
        and ir_off_server.ingest_dequants > 0
    )
    serving["executor_ir"] = {
        "cut": EXECUTOR_IR_CUT,
        "window": ir_window,
        "bits": 8,
        "requests": ir_requests,
        "rewrites_on": {
            "seconds": ir_on_s,
            "requests_per_second": ir_requests / ir_on_s,
            "ingest_dequants": ir_on_server.ingest_dequants,
        },
        "rewrites_off": {
            "seconds": ir_off_s,
            "requests_per_second": ir_requests / ir_off_s,
            "ingest_dequants": ir_off_server.ingest_dequants,
        },
        "speedup": ir_speedup,
        "gate_speedup_target": ir_target,
        "logits_close": ir_close,
        "label_agreement": ir_agreement,
        "uplink_frame_bytes": len(encode_activation_batch(ir_frame)),
        "uplink_bytes_per_element": ir_frame.tensor.nbytes / ir_frame.tensor.size,
        "uplink_ratio_vs_float32": ir_frame.tensor.nbytes
        / (ir_frame.tensor.size * 4),
        "native_kernels": _fastexec.available(),
    }
    print(
        f"executor IR: rewrites-on "
        f"{ir_requests/ir_on_s:8.0f} req/s vs rewrites-off "
        f"{ir_requests/ir_off_s:8.0f} req/s "
        f"({ir_speedup:.2f}x, target {ir_target:.2f}x, "
        f"parity={'OK' if ir_close else 'FAIL'}, "
        f"uplink {serving['executor_ir']['uplink_bytes_per_element']:.0f} B/elem, "
        f"dequant copies {ir_on_server.ingest_dequants}, "
        f"{'PASS' if ir_ok else 'FAIL'})"
    )

    # ------------------------------------------------------------------
    # Int8 weights: the opt-in ``int8_weights`` rewrite (weight_bits=8)
    # vs f32 weights, both legs on the very same quantised window-32
    # compute path the section above measures — identical uplink,
    # identical noise stream, identical rewrite pipeline otherwise.  The
    # quantised leg's first conv runs fully integer (u8 activation codes
    # x i8 weight codes, i32 accumulate) and every other conv/GEMM runs
    # off the int8 code planes, with dequant + zero-point correction
    # folded into the f64 epilogue.  This is the repo's first
    # accuracy-affecting rewrite, so the parity gate is argmax label
    # agreement vs the f32 leg — not f32 closeness — and the allocation
    # gate is that the native backend materialises zero f32 dequantised
    # weight copies (the code planes *are* the weights it runs on).
    # ------------------------------------------------------------------
    def i8_pair():
        """One warmed (device, server) pair per weight regime — fresh
        identically-seeded devices, warm-up off the clock, exactly like
        ``ir_pair`` above."""
        pair = {}
        for quantised in (True, False):
            bits = 8 if quantised else None
            device = EdgeDevice(ir_local, mean, std, ir_collection,
                                np.random.default_rng(7), ir_params,
                                weight_bits=bits)
            server = CloudServer(ir_remote, weight_bits=bits)
            device.warm((ir_window, *images[0].shape))
            server.warm((ir_window, *ir_shape[1:]), quantization=ir_params)
            pair[quantised] = (device, server)
        return pair

    # Legs interleaved inside every repeat with the order flipped, like
    # the IR section: host drift lands on both regimes equally.
    i8_best = {True: float("inf"), False: float("inf")}
    i8_logits: dict = {True: None, False: None}
    i8_on_device = i8_on_server = None
    for r in range(max(repeats, 5)):
        legs = i8_pair()
        for quantised in ((True, False) if r % 2 == 0 else (False, True)):
            device, server = legs[quantised]
            elapsed, logits, _ = ir_timed(device, server)
            if elapsed < i8_best[quantised]:
                i8_best[quantised], i8_logits[quantised] = elapsed, logits
            if quantised:
                i8_on_device, i8_on_server = device, server
    i8_on_s, i8_off_s = i8_best[True], i8_best[False]
    i8_speedup = i8_off_s / i8_on_s
    i8_agreement = float(
        np.mean(
            np.concatenate([l.argmax(axis=1) for l in i8_logits[True]])
            == np.concatenate([l.argmax(axis=1) for l in i8_logits[False]])
        )
    )
    # Allocation assertion: the native backend must run straight off the
    # int8 code planes — zero f32-widened weight copies on either half.
    # (The numpy fallback widens per op by design and is exempt, same as
    # the ingest assertion above.)
    i8_weight_dequants = (
        i8_on_server.weight_dequants + i8_on_device._executor.weight_dequants
    )
    i8_alloc_ok = i8_weight_dequants == 0 if _fastexec.available() else True
    i8_target = 1.0 if args.smoke else EXECUTOR_INT8W_SPEEDUP
    i8_ok = (
        i8_speedup >= i8_target
        and i8_agreement >= EXECUTOR_INT8W_AGREEMENT
        and i8_alloc_ok
    )
    serving["executor_int8w"] = {
        "cut": EXECUTOR_IR_CUT,
        "window": ir_window,
        "activation_bits": 8,
        "weight_bits": 8,
        "requests": ir_requests,
        "int8_weights": {
            "seconds": i8_on_s,
            "requests_per_second": ir_requests / i8_on_s,
            "weight_dequants": i8_weight_dequants,
        },
        "f32_weights": {
            "seconds": i8_off_s,
            "requests_per_second": ir_requests / i8_off_s,
        },
        "speedup": i8_speedup,
        "gate_speedup_target": i8_target,
        "label_agreement": i8_agreement,
        "gate_label_agreement_floor": EXECUTOR_INT8W_AGREEMENT,
        "native_kernels": _fastexec.available(),
    }
    print(
        f"int8 weights: quantised "
        f"{ir_requests/i8_on_s:8.0f} req/s vs f32 "
        f"{ir_requests/i8_off_s:8.0f} req/s "
        f"({i8_speedup:.2f}x, target {i8_target:.2f}x, label agreement "
        f"{i8_agreement:.1%} >= {EXECUTOR_INT8W_AGREEMENT:.0%}, "
        f"weight copies {i8_weight_dequants}, "
        f"{'PASS' if i8_ok else 'FAIL'})"
    )

    # ------------------------------------------------------------------
    # Deadline-aware scheduling: SLO attainment vs the fixed-window policy
    # on the same jittered arrival trace, in deterministic virtual time.
    # The per-batch service time is calibrated from the measured batched
    # run at the acceptance window.
    # ------------------------------------------------------------------
    window_metrics = serving["windows"][str(windows[0])]
    batch_seconds = window_metrics["seconds"] / max(1, calibration_batches)
    slo_requests = 128 if args.smoke else 512
    mean_gap = batch_seconds / 2  # ~4 arrivals per batch service time
    slo_tiers = {
        "tight": 3.0 * batch_seconds,
        "loose": 10.0 * batch_seconds,
    }
    trace = random_trace(
        np.random.default_rng(0),
        slo_requests,
        mean_gap=mean_gap,
        slo_choices=(None, slo_tiers["tight"], slo_tiers["loose"]),
        n_sessions=8,
    )
    policies = {}
    for name, aware in (("deadline_aware", True), ("fixed_window", False)):
        result = simulate_schedule(
            trace,
            batch_window=ACCEPTANCE_WINDOW,
            deadline_aware=aware,
            batch_timeout=8 * mean_gap,
            service_model=lambda window: batch_seconds,
            service_estimate=batch_seconds,
        )
        policies[name] = {
            "slo_attainment": result.metrics.slo_attainment,
            "slo_total": result.metrics.slo_total,
            "throughput_rps": result.throughput,
            "makespan_seconds": result.makespan,
            "mean_occupancy": result.metrics.mean_occupancy,
            "latency_p50_ms": 1e3 * result.metrics.latency_percentile(50),
            "latency_p99_ms": 1e3 * result.metrics.latency_percentile(99),
            "queue_age_p90_ms": 1e3 * result.metrics.queue_age_percentile(90),
        }
    slo_ok = (
        policies["deadline_aware"]["slo_attainment"]
        >= policies["fixed_window"]["slo_attainment"]
        and policies["deadline_aware"]["throughput_rps"]
        >= 0.9 * policies["fixed_window"]["throughput_rps"]
    )
    serving["serving_slo"] = {
        "requests": slo_requests,
        "window": ACCEPTANCE_WINDOW,
        "mean_arrival_gap_ms": 1e3 * mean_gap,
        "batch_service_ms": 1e3 * batch_seconds,
        "slo_tiers_ms": {k: 1e3 * v for k, v in slo_tiers.items()},
        "policies": policies,
        "gate_attainment_ge_fixed": slo_ok,
    }
    print(
        f"SLO (virtual):  deadline-aware "
        f"{policies['deadline_aware']['slo_attainment']:.1%} vs fixed-window "
        f"{policies['fixed_window']['slo_attainment']:.1%} attainment at "
        f"{policies['deadline_aware']['throughput_rps']:.0f} vs "
        f"{policies['fixed_window']['throughput_rps']:.0f} req/s "
        f"({'PASS' if slo_ok else 'FAIL'})"
    )

    # ------------------------------------------------------------------
    # Multi-worker plane: real wall-clock throughput at 1 vs 4 cloud
    # workers over a realtime channel (wire waits actually slept, so
    # concurrent micro-batches overlap them), plus bit-parity.
    # ------------------------------------------------------------------
    mw_requests = 64 if args.smoke else 128
    mw_stream = stream[:mw_requests]
    mw_results: dict[str, dict] = {}
    mw_logits: dict[int, list] = {}
    for workers in (1, MULTIWORKER_WORKERS):
        best = float("inf")
        occupancy: dict = {}
        for _ in range(repeats):
            plane = single_plane(
                bundle.model, cut, workers=workers,
                channel=Channel(latency_ms=3.0, realtime=True),
                mean=mean, std=std, noise=collection,
                rng=np.random.default_rng(7),
                batch_window=ACCEPTANCE_WINDOW, batch_timeout=0.0,
            )
            begin = time.perf_counter()
            logits = plane.infer_stream(mw_stream)
            elapsed = time.perf_counter() - begin
            if elapsed < best:
                # Keep the artefacts of the run actually being reported.
                best = elapsed
                occupancy = plane.deployment().metrics.worker_occupancy()
                mw_logits[workers] = logits
            plane.close()
        mw_results[str(workers)] = {
            "seconds": best,
            "requests_per_second": mw_requests / best,
            "worker_occupancy": {str(k): v for k, v in occupancy.items()},
        }
    mw_parity = all(
        np.array_equal(a, b)
        for a, b in zip(mw_logits[1], mw_logits[MULTIWORKER_WORKERS])
    ) and all(
        np.array_equal(a, b)
        for a, b in zip(seq_logits[:mw_requests], mw_logits[MULTIWORKER_WORKERS])
    )
    mw_speedup = (
        mw_results["1"]["seconds"] / mw_results[str(MULTIWORKER_WORKERS)]["seconds"]
    )
    mw_ok = mw_parity and mw_speedup >= MULTIWORKER_SPEEDUP
    serving["serving_multiworker"] = {
        "requests": mw_requests,
        "window": ACCEPTANCE_WINDOW,
        "channel_latency_ms": 3.0,
        "workers": mw_results,
        "speedup": mw_speedup,
        "bitwise_parity": mw_parity,
        "gate_speedup_target": MULTIWORKER_SPEEDUP,
    }
    print(
        f"multi-worker:   {MULTIWORKER_WORKERS} workers "
        f"{mw_results[str(MULTIWORKER_WORKERS)]['requests_per_second']:8.0f} req/s "
        f"vs 1 worker {mw_results['1']['requests_per_second']:8.0f} req/s "
        f"({mw_speedup:.2f}x, parity={'OK' if mw_parity else 'FAIL'}, "
        f"{'PASS' if mw_ok else 'FAIL'})"
    )

    # ------------------------------------------------------------------
    # Multi-model control plane: 3 deployments sharing one worker pool vs
    # the same 3 deployments as isolated single-worker planes driven
    # concurrently.  Equal resources (3 cloud worker threads total), equal
    # work, realtime channel so wire waits genuinely overlap.
    # ------------------------------------------------------------------
    import threading

    mm_per_deployment = 48 if args.smoke else 96
    mm_names = [f"dep{i}" for i in range(MULTIMODEL_DEPLOYMENTS)]
    mm_collections = {
        name: build_collection(split, members=4)
        for name in mm_names
    }
    mm_stream = stream[:mm_per_deployment]
    mm_total = mm_per_deployment * MULTIMODEL_DEPLOYMENTS

    def mm_channel() -> Channel:
        return Channel(latency_ms=3.0, realtime=True)

    def mm_rng(name: str) -> np.random.Generator:
        return np.random.default_rng(900 + mm_names.index(name))

    # Per-deployment sequential references for the parity check.
    mm_expected = {}
    for name in mm_names:
        reference = InferenceSession(
            bundle.model, cut, mean, std, noise=mm_collections[name],
            channel=Channel(), rng=mm_rng(name),
        )
        mm_expected[name] = [reference.infer(images) for images in mm_stream]

    shared_best = float("inf")
    shared_metrics: dict = {}
    shared_parity = True
    for _ in range(repeats):
        plane = ControlPlane(workers=MULTIMODEL_DEPLOYMENTS, channel=mm_channel())
        for name in mm_names:
            plane.register(
                name, bundle.model, cut, noise=mm_collections[name],
                rng=mm_rng(name), batch_window=ACCEPTANCE_WINDOW,
                batch_timeout=0.0,
            )
        handles: dict[str, list] = {name: [] for name in mm_names}
        begin = time.perf_counter()
        for index in range(mm_per_deployment):
            for name in mm_names:
                handles[name].append(
                    plane.submit(
                        mm_stream[index], deployment=name,
                        session_id=f"{name}-user-{index % 4}",
                    )
                )
        plane.drain()
        elapsed = time.perf_counter() - begin
        logits = {
            name: [plane.result(handle) for handle in handles[name]]
            for name in mm_names
        }
        if elapsed < shared_best:
            shared_best = elapsed
            shared_metrics = {
                name: metrics.as_dict()
                for name, metrics in plane.metrics_by_deployment().items()
            }
            shared_parity = all(
                np.array_equal(a, b)
                for name in mm_names
                for a, b in zip(mm_expected[name], logits[name])
            )
        plane.close()

    isolated_best = float("inf")
    for _ in range(repeats):
        isolated = {
            name: single_plane(
                bundle.model, cut, channel=mm_channel(), mean=mean, std=std,
                noise=mm_collections[name], rng=mm_rng(name),
                batch_window=ACCEPTANCE_WINDOW, batch_timeout=0.0,
            )
            for name in mm_names
        }
        threads = [
            threading.Thread(
                target=isolated[name].infer_stream,
                args=(mm_stream,),
                kwargs={"session_ids": [
                    f"{name}-user-{i % 4}" for i in range(mm_per_deployment)
                ]},
            )
            for name in mm_names
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        isolated_best = min(isolated_best, time.perf_counter() - begin)
        for plane in isolated.values():
            plane.close()

    mm_shared_rps = mm_total / shared_best
    mm_isolated_rps = mm_total / isolated_best
    mm_ratio = mm_shared_rps / mm_isolated_rps
    mm_ok = shared_parity and mm_ratio >= MULTIMODEL_RATIO
    serving["serving_multimodel"] = {
        "deployments": MULTIMODEL_DEPLOYMENTS,
        "requests_per_deployment": mm_per_deployment,
        "window": ACCEPTANCE_WINDOW,
        "channel_latency_ms": 3.0,
        "shared_pool": {
            "workers": MULTIMODEL_DEPLOYMENTS,
            "seconds": shared_best,
            "aggregate_requests_per_second": mm_shared_rps,
            "per_deployment": {
                name: {
                    "requests_per_second": metrics["requests_per_second"],
                    "mean_occupancy": metrics["mean_occupancy"],
                    "mixing_index": metrics["mixing_index"],
                }
                for name, metrics in shared_metrics.items()
            },
        },
        "isolated_engines": {
            "workers_each": 1,
            "seconds": isolated_best,
            "aggregate_requests_per_second": mm_isolated_rps,
        },
        "shared_over_isolated": mm_ratio,
        "bitwise_parity": shared_parity,
        "gate_ratio_target": MULTIMODEL_RATIO,
    }
    print(
        f"multi-model:    shared pool {mm_shared_rps:8.0f} req/s vs "
        f"{MULTIMODEL_DEPLOYMENTS} isolated planes {mm_isolated_rps:8.0f} "
        f"req/s ({mm_ratio:.2f}x, target >= {MULTIMODEL_RATIO:.1f}x, "
        f"parity={'OK' if shared_parity else 'FAIL'}, "
        f"{'PASS' if mm_ok else 'FAIL'})"
    )

    # ------------------------------------------------------------------
    # Chaos + overload: a protected SLO tenant and an admission-capped
    # bulk tenant share an auto-healing elastic pool.  Phase 1 is calm;
    # phase 2 spikes the bulk tenant ~10x while a fault injector kills a
    # worker holding one of its micro-batches.  The contract: typed
    # rejections for the overload, pinned attainment for the protected
    # tenant's admitted requests, exactly-once delivery for everything
    # admitted, a healed pool, and bit parity after the heal and across a
    # post-run hot-swap.
    # ------------------------------------------------------------------
    from repro.errors import OverloadError

    chaos_workers = 2 if args.smoke else 3
    chaos_floor = (
        CHAOS_ATTAINMENT_FLOOR_SMOKE if args.smoke else CHAOS_ATTAINMENT_FLOOR
    )
    # Paced open-loop arrivals (real sleeps against the realtime channel):
    # the protected tenant offers 200 req/s throughout; the bulk tenant
    # offers 100 req/s in the calm phase, then spikes 10x to 1000 req/s.
    chaos_protected_interval = 0.005
    chaos_bulk_calm_interval = 0.010
    chaos_bulk_spike_interval = 0.001
    phase1_protected = 16 if args.smoke else 32
    phase1_bulk = 8 if args.smoke else 16
    spike_protected = 16 if args.smoke else 32
    spike_bulk = (
        spike_protected
        * int(chaos_protected_interval / chaos_bulk_spike_interval)
    )

    chaos_collections = {
        "protected": build_collection(split, members=4),
        "bulk": build_collection(split, members=4),
    }

    killed: list[int] = []

    def chaos_injector(worker_id, task):
        # One shot: die holding the first bulk micro-batch of the spike.
        if (
            not killed
            and task.deployment == "bulk"
            and any(rid >= phase1_bulk for rid in task.request_ids)
        ):
            killed.append(worker_id)
            return True
        return False

    plane = ControlPlane(
        workers=chaos_workers,
        max_workers=4,
        auto_heal=True,
        channel=Channel(latency_ms=2.0, realtime=True),
        fault_injector=chaos_injector,
    )
    # The protected tenant is latency-critical: fixed window with zero
    # timeout flushes every pump turn instead of letting the adaptive
    # batcher ride requests to the edge of their deadline slack.
    plane.register(
        "protected", bundle.model, cut,
        noise=chaos_collections["protected"],
        rng=np.random.default_rng(700),
        batch_window=4, batch_timeout=0.0, deadline_aware=False,
    )
    plane.register(
        "bulk", bundle.model, cut,
        noise=chaos_collections["bulk"],
        rng=np.random.default_rng(701),
        batch_window=8, batch_timeout=0.0,
        max_pending=32,
        admission_rate_rps=200.0,
        admission_burst=16.0,
    )
    plane.enable_autoscale(min_workers=chaos_workers, max_workers=4)

    admitted: list = []
    delivered: list = []
    protected_plan: list = []
    chaos_rejections = {"protected": 0, "bulk": 0}

    def offer(name, image, slo=None):
        try:
            handle = plane.submit(
                image, deployment=name, slo_seconds=slo, session_id=name
            )
        except OverloadError:  # AdmissionError is a subclass: typed 429
            chaos_rejections[name] += 1
            return None
        admitted.append(handle)
        if name == "protected":
            protected_plan.append((handle, image))
        return handle

    # One merged, time-stamped arrival schedule across both phases.
    phase1_end = phase1_protected * chaos_protected_interval
    schedule = [
        (i * chaos_protected_interval, "protected", stream[i % len(stream)])
        for i in range(phase1_protected + spike_protected)
    ]
    schedule += [
        (i * chaos_bulk_calm_interval, "bulk", stream[(i + 7) % len(stream)])
        for i in range(phase1_bulk)
    ]
    schedule += [
        (
            phase1_end + i * chaos_bulk_spike_interval,
            "bulk",
            stream[(i + 13) % len(stream)],
        )
        for i in range(spike_bulk)
    ]
    schedule.sort(key=lambda event: event[0])

    chaos_begin = time.perf_counter()
    for at, name, image in schedule:
        wait = at - (time.perf_counter() - chaos_begin)
        if wait > 0:
            time.sleep(wait)
        offer(name, image,
              slo=CHAOS_PROTECTED_SLO if name == "protected" else None)
        delivered += plane.pump()
    delivered += plane.drain()
    chaos_elapsed = time.perf_counter() - chaos_begin

    zero_lost = sorted(delivered) == sorted(admitted)
    healed = bool(killed) and plane.pool_metrics.respawned_workers >= 1
    chaos_metrics = plane.metrics_by_deployment()
    attainment = chaos_metrics["protected"].slo_attainment
    bulk_rejected = (
        chaos_metrics["bulk"].rejected_requests
        + chaos_metrics["bulk"].shed_requests
    )

    # Post-heal parity: the protected tenant's full admitted stream must
    # be bit-identical to its sequential reference — the crash, the heal,
    # and the autoscaler's resizes must all be invisible in the logits.
    chaos_reference = InferenceSession(
        bundle.model, cut, mean, std,
        noise=chaos_collections["protected"],
        channel=Channel(), rng=np.random.default_rng(700),
    )
    heal_parity = all(
        np.array_equal(plane.result(handle), chaos_reference.infer(image))
        for handle, image in protected_plan
    )
    for handle in admitted:
        if handle.deployment == "bulk":
            plane.result(handle)  # raises if anything was silently lost

    # Post-swap parity: hot-swap the protected tenant's noise stream and
    # verify the new regime against a fresh reference.
    plane.swap("protected", rng=np.random.default_rng(4242))
    swap_handles = [
        plane.submit(stream[i % len(stream)], deployment="protected",
                     session_id="post-swap")
        for i in range(8)
    ]
    plane.drain()
    swap_reference = InferenceSession(
        bundle.model, cut, mean, std,
        noise=chaos_collections["protected"],
        channel=Channel(), rng=np.random.default_rng(4242),
    )
    swap_parity = all(
        np.array_equal(
            plane.result(handle),
            swap_reference.infer(stream[i % len(stream)]),
        )
        for i, handle in enumerate(swap_handles)
    )
    pool_samples = plane.pool_metrics.pool_size_samples
    autoscale_decisions = len(plane.autoscaler.decisions)
    respawned = plane.pool_metrics.respawned_workers
    plane.close()

    chaos_ok = (
        attainment is not None
        and attainment >= chaos_floor
        and bulk_rejected > 0
        and zero_lost
        and healed
        and heal_parity
        and swap_parity
    )
    serving["serving_chaos"] = {
        "workers": chaos_workers,
        "max_workers": 4,
        "protected_slo_seconds": CHAOS_PROTECTED_SLO,
        "phase1": {"protected": phase1_protected, "bulk": phase1_bulk},
        "spike": {"protected": spike_protected, "bulk": spike_bulk},
        "seconds": chaos_elapsed,
        "admitted": len(admitted),
        "delivered": len(delivered),
        "zero_lost": zero_lost,
        "rejected_typed": {
            "bulk": bulk_rejected,
            "protected": (
                chaos_metrics["protected"].rejected_requests
                + chaos_metrics["protected"].shed_requests
            ),
        },
        "protected_attainment": attainment,
        "protected_p90_latency_ms": (
            1e3 * chaos_metrics["protected"].latency_percentile(90)
        ),
        "worker_killed": bool(killed),
        "respawned_workers": respawned,
        "pool_size": {
            "min": min(pool_samples) if pool_samples else None,
            "max": max(pool_samples) if pool_samples else None,
        },
        "autoscale_decisions": autoscale_decisions,
        "post_heal_parity": heal_parity,
        "post_swap_parity": swap_parity,
        "gate_attainment_floor": chaos_floor,
    }
    print(
        f"chaos:          protected attainment "
        f"{(attainment or 0.0) * 100:5.1f}% (floor {chaos_floor * 100:.0f}%), "
        f"{bulk_rejected} typed rejections, "
        f"{'healed' if healed else 'NOT healed'}, "
        f"pool {min(pool_samples) if pool_samples else '?'}.."
        f"{max(pool_samples) if pool_samples else '?'} workers, "
        f"parity heal={'OK' if heal_parity else 'FAIL'} "
        f"swap={'OK' if swap_parity else 'FAIL'}, "
        f"lost={'0' if zero_lost else 'SOME'} "
        f"({'PASS' if chaos_ok else 'FAIL'})"
    )

    # ------------------------------------------------------------------
    # Process sharding: 1/2/4 subprocess shards over real sockets vs the
    # 4-thread single-process plane on identical trace-driven work.  The
    # trace comes from the open-loop load generator: bursty arrivals, a
    # million distinct users, Zipf-heavy per-user request counts — the
    # millions-of-users regime the sharded plane exists for.  Parity: the
    # reported sharded run must be bit-identical, request for request, to
    # per-shard sequential references over the routed subsequences.
    # ------------------------------------------------------------------
    sh_requests = 128 if args.smoke else 512
    sh_trace = generate_trace(
        sh_requests,
        shape="bursty",
        mean_rate_rps=1e4,
        seed=42,
        n_users=1_000_000,
        zipf_exponent=1.1,
    )
    sh_sessions = [event.session_id for event in sh_trace]
    sh_stream = [stream[i % len(stream)] for i in range(sh_requests)]
    sh_channel = {
        "latency_ms": SHARDED_CHANNEL_LATENCY_MS,
        "realtime": True,
    }

    threaded_best = float("inf")
    for _ in range(repeats):
        plane = single_plane(
            bundle.model, cut, workers=SHARDED_WORKERS,
            channel=Channel(**sh_channel), mean=mean, std=std,
            noise=collection, rng=np.random.default_rng(7),
            batch_window=ACCEPTANCE_WINDOW, batch_timeout=0.0,
        )
        begin = time.perf_counter()
        plane.infer_stream(sh_stream, session_ids=sh_sessions)
        threaded_best = min(threaded_best, time.perf_counter() - begin)
        plane.close()

    sh_spec = ShardSpec.capture(
        bundle.model, cut, mean=mean, std=std, noise=collection,
        base_seed=7, workers=SHARDED_WORKERS,
        batch_window=ACCEPTANCE_WINDOW, batch_timeout=0.0,
        channel=dict(sh_channel),
    )
    sh_results: dict[str, dict] = {}
    sh_logits: list | None = None
    for n_shards in SHARDED_SHARD_COUNTS:
        best = float("inf")
        for _ in range(repeats):
            with ShardedServingEngine(sh_spec, shards=n_shards) as engine:
                begin = time.perf_counter()
                logits = engine.infer_stream(sh_stream, session_ids=sh_sessions)
                elapsed = time.perf_counter() - begin
            if elapsed < best:
                best = elapsed
                if n_shards == max(SHARDED_SHARD_COUNTS):
                    sh_logits = logits
        sh_results[str(n_shards)] = {
            "seconds": best,
            "requests_per_second": sh_requests / best,
            "speedup_vs_threaded": threaded_best / best,
        }

    # Per-shard parity: each routed subsequence against that shard's own
    # sequential reference (fresh shards are deterministic, so the best
    # timed run's logits are the reported run's logits).
    sh_max = max(SHARDED_SHARD_COUNTS)
    sh_references = [
        sh_spec.reference_session(index, sh_max) for index in range(sh_max)
    ]
    sh_parity = all(
        np.array_equal(
            produced,
            sh_references[route_session(session, sh_max)].infer(images),
        )
        for produced, images, session in zip(sh_logits, sh_stream, sh_sessions)
    )
    sh_speedup = sh_results[str(sh_max)]["speedup_vs_threaded"]
    sh_target = 1.0 if args.smoke else SHARDED_SPEEDUP
    sh_ok = sh_parity and sh_speedup >= sh_target
    sh_stats = trace_stats(sh_trace)
    serving["serving_sharded"] = {
        "requests": sh_requests,
        "window": ACCEPTANCE_WINDOW,
        "workers_per_shard": SHARDED_WORKERS,
        "channel_latency_ms": SHARDED_CHANNEL_LATENCY_MS,
        "trace": {
            "shape": "bursty",
            "seed": 42,
            "n_users": 1_000_000,
            "zipf_exponent": 1.1,
            "distinct_sessions": sh_stats["distinct_sessions"],
            "max_requests_per_user": sh_stats["max_requests_per_user"],
        },
        "threaded_baseline": {
            "workers": SHARDED_WORKERS,
            "seconds": threaded_best,
            "requests_per_second": sh_requests / threaded_best,
        },
        "shards": sh_results,
        "speedup": sh_speedup,
        "shard_parity": sh_parity,
        "gate_speedup_target": sh_target,
    }
    print(
        f"sharded:        {sh_max} shards "
        f"{sh_results[str(sh_max)]['requests_per_second']:8.0f} req/s vs "
        f"threaded-{SHARDED_WORKERS} {sh_requests/threaded_best:8.0f} req/s "
        f"({sh_speedup:.2f}x, target {sh_target:.1f}x, scaling "
        + "/".join(
            f"{sh_results[str(n)]['speedup_vs_threaded']:.2f}x"
            for n in SHARDED_SHARD_COUNTS
        )
        + f", parity={'OK' if sh_parity else 'FAIL'}, "
        f"{'PASS' if sh_ok else 'FAIL'})"
    )

    # ------------------------------------------------------------------
    # Privacy–mixing trade-off: serve one mixed-session stream with the
    # shuffler off and on (parity against the sequential reference must
    # hold in both legs — shuffling moves rows, never bits), then replay
    # the same wire composition over the tapped cut activations through
    # the empirical leakage evaluator.  The positional attacker reads the
    # micro-batch request table exactly as a curious cloud worker would;
    # shuffling must push it down to (or below) its unshuffled score.
    # ------------------------------------------------------------------
    from repro.privacy import evaluate_shuffle_leakage, sweep_mixing_tradeoff

    pm_requests = 64 if args.smoke else 192
    pm_stream = stream[:pm_requests]
    pm_sessions = [
        f"user-{i % PRIVACY_MIXING_SESSIONS}" for i in range(pm_requests)
    ]
    pm_results: dict[str, dict] = {}
    pm_logits: dict[bool, list] = {}
    pm_metrics: dict[bool, dict] = {}
    for shuffled in (False, True):
        best = float("inf")
        for _ in range(repeats):
            plane = single_plane(
                bundle.model, cut, workers=2, channel=Channel(),
                mean=mean, std=std, noise=collection,
                rng=np.random.default_rng(7),
                batch_window=ACCEPTANCE_WINDOW, batch_timeout=0.0,
                shuffle=shuffled, shuffle_seed=7 if shuffled else None,
            )
            begin = time.perf_counter()
            logits = plane.infer_stream(pm_stream, session_ids=pm_sessions)
            elapsed = time.perf_counter() - begin
            if elapsed < best:
                best = elapsed
                pm_logits[shuffled] = logits
                metrics = plane.deployment().metrics
                pm_metrics[shuffled] = {
                    "mixing_index": metrics.mixing_index,
                    "shuffled_batches": metrics.shuffled_batches,
                    "anonymity_sets": list(metrics.anonymity_sets),
                    "epsilon_amplified": metrics.shuffle_amplification(1.0),
                }
            plane.close()
        pm_results["shuffled" if shuffled else "plain"] = {
            "seconds": best,
            "requests_per_second": pm_requests / best,
        }
    pm_parity = all(
        np.array_equal(a, b)
        for a, b in zip(pm_logits[True], pm_logits[False])
    ) and all(
        np.array_equal(a, b)
        for a, b in zip(seq_logits[:pm_requests], pm_logits[True])
    )
    pm_ratio = (
        pm_results["shuffled"]["requests_per_second"]
        / pm_results["plain"]["requests_per_second"]
    )

    pm_acts = split.activations(np.concatenate(pm_stream))
    pm_acts = pm_acts.reshape(pm_requests, -1).astype(np.float64)
    pm_leak = {
        label: evaluate_shuffle_leakage(
            pm_acts, pm_sessions, batch_window=ACCEPTANCE_WINDOW,
            shuffle=shuffled, shuffle_seed=7, epsilon0=1.0,
        ).as_dict()
        for label, shuffled in (("plain", False), ("shuffled", True))
    }
    pm_surface = sweep_mixing_tradeoff(
        pm_acts, pm_sessions,
        batch_windows=(2, ACCEPTANCE_WINDOW),
        shard_counts=(1, 2), worker_counts=(1,),
        isolation_policies=(False, True), shuffle_modes=(False, True),
        shuffle_seed=7, epsilon0=1.0,
    )
    pm_leak_ok = (
        pm_leak["shuffled"]["positional_accuracy"]
        <= pm_leak["plain"]["positional_accuracy"]
        and pm_leak["shuffled"]["session_mi_bits"]
        <= pm_leak["plain"]["session_mi_bits"]
        and pm_metrics[True]["shuffled_batches"] > 0
    )
    pm_ok = pm_parity and pm_leak_ok and pm_ratio >= PRIVACY_MIXING_OVERHEAD_FLOOR
    serving["privacy_mixing"] = {
        "requests": pm_requests,
        "window": ACCEPTANCE_WINDOW,
        "sessions": PRIVACY_MIXING_SESSIONS,
        "workers": 2,
        "legs": pm_results,
        "shuffle_overhead_ratio": pm_ratio,
        "bitwise_parity": pm_parity,
        "engine_metrics": {
            "plain": pm_metrics[False],
            "shuffled": pm_metrics[True],
        },
        "leakage": pm_leak,
        "tradeoff_surface": pm_surface,
        "gate_overhead_floor": PRIVACY_MIXING_OVERHEAD_FLOOR,
        "gate_leakage_not_worse": pm_leak_ok,
    }
    print(
        f"privacy-mixing: positional attacker "
        f"{pm_leak['plain']['positional_accuracy']:.2f} -> "
        f"{pm_leak['shuffled']['positional_accuracy']:.2f} "
        f"(chance {pm_leak['shuffled']['positional_chance']:.2f}), session MI "
        f"{pm_leak['plain']['session_mi_bits']:.2f} -> "
        f"{pm_leak['shuffled']['session_mi_bits']:.2f} bits, eps 1.0 -> "
        f"{pm_metrics[True]['epsilon_amplified']:.3f} at anonymity "
        f"{min(pm_metrics[True]['anonymity_sets'])}, shuffle cost "
        f"{pm_ratio:.2f}x throughput, parity={'OK' if pm_parity else 'FAIL'} "
        f"({'PASS' if pm_ok else 'FAIL'})"
    )

    # Merge into the hot-path report without clobbering other sections.
    report: dict = {}
    if args.output.exists():
        try:
            report = json.loads(args.output.read_text())
        except json.JSONDecodeError:
            report = {}
    report.setdefault("meta", {})
    report["meta"].update(
        {
            "serving_smoke": args.smoke,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        }
    )
    report["serving"] = serving
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    acceptance = serving["windows"].get(str(ACCEPTANCE_WINDOW))
    if acceptance is None:
        acceptance = serving["windows"][str(windows[0])]
    if args.smoke:
        ok = (gate_ok and acceptance["speedup"] > 1.0 and slo_ok and mw_ok
              and mm_ok and chaos_ok and kb_ok and ir_ok and i8_ok
              and sh_ok and pm_ok)
        print(
            f"smoke gate: batched beats sequential "
            f"({'PASS' if acceptance['speedup'] > 1.0 else 'FAIL'}, "
            f"{acceptance['speedup']:.2f}x), SLO attainment >= fixed "
            f"({'PASS' if slo_ok else 'FAIL'}), multi-worker >= "
            f"{MULTIWORKER_SPEEDUP:.1f}x ({'PASS' if mw_ok else 'FAIL'}), "
            f"multi-model shared >= {MULTIMODEL_RATIO:.1f}x isolated "
            f"({'PASS' if mm_ok else 'FAIL'}), chaos contract "
            f"({'PASS' if chaos_ok else 'FAIL'}), "
            f"kernel-on >= kernel-off ({'PASS' if kb_ok else 'FAIL'}), "
            f"IR rewrites-on >= rewrites-off ({'PASS' if ir_ok else 'FAIL'}), "
            f"int8 weights >= f32 ({'PASS' if i8_ok else 'FAIL'}), "
            f"sharded >= 1x threaded ({'PASS' if sh_ok else 'FAIL'}), "
            f"privacy-mixing contract ({'PASS' if pm_ok else 'FAIL'})"
        )
    else:
        ok = (
            gate_ok
            and acceptance["speedup"] >= ACCEPTANCE_SPEEDUP
            and slo_ok
            and mw_ok
            and mm_ok
            and chaos_ok
            and kb_ok
            and ir_ok
            and i8_ok
            and sh_ok
            and pm_ok
        )
        print(
            f"target: >= {ACCEPTANCE_SPEEDUP:.1f}x at window {ACCEPTANCE_WINDOW} "
            f"({'PASS' if acceptance['speedup'] >= ACCEPTANCE_SPEEDUP else 'FAIL'}, "
            f"{acceptance['speedup']:.2f}x), bitwise parity "
            f"({'PASS' if gate_ok else 'FAIL'}), SLO attainment >= fixed "
            f"({'PASS' if slo_ok else 'FAIL'}), multi-worker >= "
            f"{MULTIWORKER_SPEEDUP:.1f}x ({'PASS' if mw_ok else 'FAIL'}), "
            f"multi-model shared >= {MULTIMODEL_RATIO:.1f}x isolated "
            f"({'PASS' if mm_ok else 'FAIL'}), chaos contract "
            f"({'PASS' if chaos_ok else 'FAIL'}), "
            f"native kernels >= {KERNEL_BACKEND_SPEEDUP:.1f}x "
            f"({'PASS' if kb_ok else 'FAIL'}), "
            f"IR rewrites >= {EXECUTOR_IR_SPEEDUP:.2f}x "
            f"({'PASS' if ir_ok else 'FAIL'}), "
            f"int8 weights >= {EXECUTOR_INT8W_SPEEDUP:.1f}x "
            f"({'PASS' if i8_ok else 'FAIL'}), "
            f"sharded-{max(SHARDED_SHARD_COUNTS)} >= {SHARDED_SPEEDUP:.1f}x "
            f"threaded-{SHARDED_WORKERS} ({'PASS' if sh_ok else 'FAIL'}), "
            f"privacy-mixing contract ({'PASS' if pm_ok else 'FAIL'})"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
