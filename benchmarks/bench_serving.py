#!/usr/bin/env python3
"""Serving benchmark on lenet: the sequential oracle against the batched
control plane, the executor's kernels and rewrites, and the
multi-worker, multi-model, elastic, sharded and shuffling planes.

Each section times its legs with :func:`harness.measure` on the clock
its gate needs and records its part of the ``serving`` section of
``BENCH_hotpaths.json``.  :data:`GATES` declares every gate once: the
ratio it reads, its full-run and ``--smoke`` thresholds and its
correctness conditions.  The printed summary, the report's ``gates``
section and the exit status (non-zero when a gate fails) come from it.

Run:
    PYTHONPATH=src python benchmarks/bench_serving.py [--smoke] [--output PATH]
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import threading
import time
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parents[1]
for _path in (REPO_ROOT / "src", REPO_ROOT):  # run without PYTHONPATH
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks import harness  # noqa: E402
from benchmarks.harness import CPU, WALL, Gate, measure, ratio  # noqa: E402

if __name__ == "__main__":
    harness.pin_one_blas_thread()

import numpy as np  # noqa: E402

from repro.config import Config, get_scale  # noqa: E402
from repro.core import NoiseCollection, SplitInferenceModel  # noqa: E402
from repro.edge import Channel, InferenceSession  # noqa: E402
from repro.serve import (  # noqa: E402
    ControlPlane,
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
# bar is carried by the kernel_backend gate, which compares both backends
# on identical work.
ACCEPTANCE_SPEEDUP = 1.5
#: Under ``--smoke`` batching need only be strictly faster than sequential.
FASTER = math.nextafter(1.0, math.inf)
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


def same_bits(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    """Request-for-request bitwise equality of two logit streams."""
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def label_agreement(a: list[np.ndarray], b: list[np.ndarray]) -> float:
    """Share of requests whose argmax labels agree."""
    return float(np.mean(np.concatenate([x.argmax(axis=1) for x in a])
                         == np.concatenate([y.argmax(axis=1) for y in b])))


def _native() -> bool:
    from repro.edge import _fastexec

    return _fastexec.available()


#: Every gate of this bench, each reading one part of the ``serving``
#: section: a gate passes when every check holds and its value reaches
#: the threshold of the run's size.
GATES = (
    Gate("bitwise parity", "windows", None, None, None, lambda s: {
        f"window {w}": leg["bitwise_parity"] for w, leg in s.items()}),
    Gate("acceptance", "windows", lambda s: s[str(ACCEPTANCE_WINDOW)]["speedup"],
         ACCEPTANCE_SPEEDUP, FASTER),
    Gate("kernel_backend", "kernel_backend", lambda s: s.get("speedup"),
         KERNEL_BACKEND_SPEEDUP, 1.0,
         lambda s: {"labels agree": s.get("label_agreement", 1.0) == 1.0}),
    Gate("executor_ir", "executor_ir", lambda s: s["speedup"],
         EXECUTOR_IR_SPEEDUP, 1.0, lambda s: {
             "f32 close": s["logits_close"],
             "uint8 payload": s["uint8_payload"],
             "no dequantised copy": (s["rewrites_on"]["ingest_dequants"] == 0
                                     or not s["native_kernels"]),
             "off leg dequantises": s["rewrites_off"]["ingest_dequants"] > 0}),
    Gate("executor_int8w", "executor_int8w", lambda s: s["speedup"],
         EXECUTOR_INT8W_SPEEDUP, 1.0, lambda s: {
             "labels agree": s["label_agreement"] >= EXECUTOR_INT8W_AGREEMENT,
             "no weight copy": (s["int8_weights"]["weight_dequants"] == 0
                                or not s["native_kernels"])}),
    Gate("serving_slo", "serving_slo", None, None, None, lambda s: {
        "attainment >= fixed": (s["policies"]["deadline_aware"]["slo_attainment"]
                                >= s["policies"]["fixed_window"]["slo_attainment"]),
        "throughput >= 0.9x fixed": (
            s["policies"]["deadline_aware"]["throughput_rps"]
            >= 0.9 * s["policies"]["fixed_window"]["throughput_rps"])}),
    Gate("serving_multiworker", "serving_multiworker", lambda s: s["speedup"],
         MULTIWORKER_SPEEDUP, MULTIWORKER_SPEEDUP,
         lambda s: {"parity": s["bitwise_parity"]}),
    Gate("serving_multimodel", "serving_multimodel",
         lambda s: s["shared_over_isolated"], MULTIMODEL_RATIO, MULTIMODEL_RATIO,
         lambda s: {"parity": s["bitwise_parity"]}),
    Gate("serving_chaos", "serving_chaos", lambda s: s["protected_attainment"],
         CHAOS_ATTAINMENT_FLOOR, CHAOS_ATTAINMENT_FLOOR_SMOKE, lambda s: {
             "attainment measured": s["protected_attainment"] is not None,
             "typed rejections": s["rejected_typed"]["bulk"] > 0,
             "zero lost": s["zero_lost"],
             "healed": s["healed"],
             "heal parity": s["post_heal_parity"],
             "swap parity": s["post_swap_parity"]}),
    Gate("serving_sharded", "serving_sharded", lambda s: s["speedup"],
         SHARDED_SPEEDUP, 1.0, lambda s: {"shard parity": s["shard_parity"]}),
    Gate("privacy_mixing", "privacy_mixing", lambda s: s["shuffle_overhead_ratio"],
         PRIVACY_MIXING_OVERHEAD_FLOOR, PRIVACY_MIXING_OVERHEAD_FLOOR, lambda s: {
             "parity": s["bitwise_parity"],
             "leakage not worse": all(
                 s["leakage"]["shuffled"][key] <= s["leakage"]["plain"][key]
                 for key in ("positional_accuracy", "session_mi_bits")),
             "shuffled batches": (
                 s["engine_metrics"]["shuffled"]["shuffled_batches"] > 0)}),
)


def synthetic_noise(shape: tuple[int, ...], members: int) -> NoiseCollection:
    """A synthetic noise collection (serving perf is training-agnostic)."""
    rng = np.random.default_rng(0)
    collection = NoiseCollection(shape)
    for _ in range(members):
        collection.add(rng.laplace(0.0, 0.05, size=shape).astype(np.float32),
                       accuracy=0.0, in_vivo_privacy=0.0)
    return collection


class Workload:
    """The served lenet, its noise collection and the request stream
    every section draws from."""

    def __init__(self, smoke: bool):
        from repro.models import get_pretrained

        scale = get_scale("tiny" if smoke else None)
        self.smoke, self.scale = smoke, scale.name
        bundle = get_pretrained("lenet", Config(scale=scale))
        self.model = bundle.model
        self.split = SplitInferenceModel(bundle.model)
        self.cut = self.split.cut
        self.collection = synthetic_noise(self.split.activation_shape, 8)
        self.images = bundle.test_set.images
        self.stream = [self.images[i % len(self.images)][None]
                       for i in range(64 if smoke else 512)]
        self.mean = np.zeros(1, dtype=np.float32)
        self.std = np.ones(1, dtype=np.float32)
        #: The oracle's logits on the stream, set by :func:`acceptance`.
        self.sequential: list[np.ndarray] = []

    def plane(self, *, workers: int = 1, channel=None, kernel_backend="auto",
              **spec) -> ControlPlane:
        """A plane hosting one greedy-window deployment of the backbone."""
        plane = ControlPlane(workers=workers, channel=channel,
                             kernel_backend=kernel_backend)
        plane.register("lenet", self.model, self.cut, **{
            "mean": self.mean, "std": self.std, "noise": self.collection,
            "rng": np.random.default_rng(7), "batch_window": ACCEPTANCE_WINDOW,
            "batch_timeout": 0.0, **spec})
        return plane

    def session(self, noise: NoiseCollection, seed: int) -> InferenceSession:
        """The sequential oracle: one wire round trip per request."""
        return InferenceSession(self.model, self.cut, self.mean, self.std,
                                noise=noise, channel=Channel(),
                                rng=np.random.default_rng(seed))

    def reference(self, images, noise: NoiseCollection,
                  seed: int) -> list[np.ndarray]:
        """The oracle's logits for ``images``, from a fresh session."""
        session = self.session(noise, seed)
        return [session.infer(x) for x in images]


def acceptance(bench: Workload) -> tuple[dict, float]:
    """The sequential oracle against greedy FIFO windows (no batching
    wait, no deadlines) and the 8-bit wire, then the native executor
    against the numpy one at the acceptance window.  Returns the section
    and the batched leg's median seconds per micro-batch."""
    from repro.edge import calibrate

    calib = bench.split.activations(bench.images[:64])
    calib = calib + bench.collection.sample_batch(
        np.random.default_rng(1), len(calib))
    params = calibrate(calib, bits=8)
    windows = [ACCEPTANCE_WINDOW] if bench.smoke else [8, 16, 32]

    def sequential(stack):
        session = bench.session(bench.collection, 7)
        return lambda: [session.infer(x) for x in bench.stream]

    def batched(window, quantization=None, kernel_backend="auto"):
        def build(stack):
            plane = stack.enter_context(bench.plane(
                channel=Channel(), kernel_backend=kernel_backend,
                batch_window=window, deadline_aware=False,
                quantization=quantization))
            return lambda: (plane.infer_stream(bench.stream),
                            plane.deployment().metrics)
        return build

    t = measure({"sequential": sequential, **{f"w{w}": batched(w) for w in windows},
                 "quantized": batched(ACCEPTANCE_WINDOW, params)},
                clock=CPU, smoke=bench.smoke)
    n = len(bench.stream)
    bench.sequential = t["sequential"].first
    section: dict = {"model": "lenet", "scale": bench.scale, "requests": n,
                     "noise_members": len(bench.collection),
                     "sequential": t["sequential"].summary(n), "windows": {}}
    for window in windows:
        logits, metrics = t[f"w{window}"].first
        m = metrics.as_dict()
        section["windows"][str(window)] = {
            **t[f"w{window}"].summary(n),
            "speedup": ratio(t, "sequential", f"w{window}"),
            "bitwise_parity": same_bits(bench.sequential, logits),
            **{key: m[key] for key in ("mean_occupancy", "latency_p50_ms",
                                       "latency_p99_ms", "uplink_bytes")}}
    quant_logits, quant_metrics = t["quantized"].first
    section["quantized"] = {
        "bits": 8, "window": ACCEPTANCE_WINDOW, **t["quantized"].summary(n),
        "label_agreement_vs_sequential": label_agreement(
            quant_logits, bench.sequential),
        "uplink_bytes": quant_metrics.uplink_bytes,
        "uplink_ratio_vs_float32": quant_metrics.uplink_bytes
        / section["windows"][str(ACCEPTANCE_WINDOW)]["uplink_bytes"]}
    # Parity holds within each backend; across backends the contract is
    # f32 closeness, checked here as label agreement.
    kernel: dict = {"available": _native(), "window": ACCEPTANCE_WINDOW}
    if _native():
        k = measure({backend: batched(ACCEPTANCE_WINDOW, kernel_backend=backend)
                     for backend in ("numpy", "native")},
                    clock=CPU, smoke=bench.smoke)
        kernel.update(
            backends={backend: leg.summary(n) for backend, leg in k.items()},
            speedup=ratio(k, "numpy", "native"),
            label_agreement=label_agreement(k["native"].first[0],
                                            k["numpy"].first[0]))
    section["kernel_backend"] = kernel
    accepted = t[f"w{ACCEPTANCE_WINDOW}"]
    return section, accepted.median_s / max(1, accepted.first[1].micro_batches)


def executor(bench: Workload) -> dict:
    """The executor alone on the quantised window-32 device+server
    compute path at the "conv0" cut, where every IR rewrite fires (fused
    relu+pool on both halves, int8 ingest with the dequant folded into
    the first conv's epilogue, noise-add folded into the local half's
    epilogue): rewrites on against off, and int8 weight codes (the
    accuracy-affecting ``int8_weights`` rewrite, gated on label
    agreement) against f32 weights, all on one uplink and noise stream."""
    from repro.edge import CloudServer, EdgeDevice, calibrate, encode_activation_batch
    from repro.edge.ir import DISABLE_REWRITES_ENV_VAR

    window, images = EXECUTOR_IR_WINDOW, bench.images
    local, remote = bench.model.split(EXECUTOR_IR_CUT)
    shape = bench.model.activation_shape(EXECUTOR_IR_CUT)
    noise = synthetic_noise(shape, len(bench.collection))
    probe = EdgeDevice(local, bench.mean, bench.std, noise, np.random.default_rng(1))
    params = calibrate(probe.forward_batch([x[None] for x in images[:64]]).tensor,
                       bits=8)
    inputs = [[images[(j * window + i) % len(images)][None] for i in range(window)]
              for j in range(max(2, len(bench.stream) // window))]

    def compute(rewrites: bool, weight_bits: int | None = None):
        def build(stack):
            # Executors snapshot the rewrite selection at construction.
            with mock.patch.dict(os.environ):
                os.environ.pop(DISABLE_REWRITES_ENV_VAR, None)
                if not rewrites:
                    os.environ[DISABLE_REWRITES_ENV_VAR] = "1"
                device = EdgeDevice(local, bench.mean, bench.std, noise,
                                    np.random.default_rng(7), params,
                                    weight_bits=weight_bits)
                server = CloudServer(remote, weight_bits=weight_bits)
            device.warm((window, *images[0].shape))
            server.warm((window, *shape[1:]), quantization=params)

            def call():
                logits = []
                for batch in inputs:
                    frame = device.forward_batch(batch)
                    logits.append(server.predict_batch(frame).logits)
                return logits, frame, device, server
            return call
        return build

    t = measure({"rewrites_on": compute(True), "rewrites_off": compute(False)},
                clock=CPU, smoke=bench.smoke)
    w = measure({"int8_weights": compute(True, 8), "f32_weights": compute(True)},
                clock=CPU, smoke=bench.smoke)
    n = len(inputs) * window
    on_logits, frame, _, on_server = t["rewrites_on"].first
    off_logits, _, _, off_server = t["rewrites_off"].first
    w8_logits, _, w8_device, w8_server = w["int8_weights"].first
    codes = frame.tensor
    ir = {
        "cut": EXECUTOR_IR_CUT, "window": window, "bits": 8, "requests": n,
        "rewrites_on": {**t["rewrites_on"].summary(n),
                        "ingest_dequants": on_server.ingest_dequants},
        "rewrites_off": {**t["rewrites_off"].summary(n),
                         "ingest_dequants": off_server.ingest_dequants},
        "speedup": ratio(t, "rewrites_off", "rewrites_on"),
        "logits_close": all(np.allclose(a, c, atol=2e-4, rtol=2e-4)
                            for a, c in zip(on_logits, off_logits)),
        "label_agreement": label_agreement(on_logits, off_logits),
        # The quantised uplink carries raw uint8 codes, one byte each.
        "uint8_payload": bool(codes.dtype == np.uint8
                              and codes.nbytes == codes.size),
        "uplink_frame_bytes": len(encode_activation_batch(frame)),
        "uplink_bytes_per_element": codes.nbytes / codes.size,
        "uplink_ratio_vs_float32": codes.nbytes / (codes.size * 4),
        "native_kernels": _native(),
    }
    int8w = {
        "cut": EXECUTOR_IR_CUT, "window": window, "activation_bits": 8,
        "weight_bits": 8, "requests": n,
        "int8_weights": {**w["int8_weights"].summary(n), "weight_dequants": (
            w8_server.weight_dequants + w8_device._executor.weight_dequants)},
        "f32_weights": w["f32_weights"].summary(n),
        "speedup": ratio(w, "f32_weights", "int8_weights"),
        "label_agreement": label_agreement(w8_logits, w["f32_weights"].first[0]),
        "native_kernels": _native(),
    }
    return {"executor_ir": ir, "executor_int8w": int8w}


def slo(bench: Workload, batch_seconds: float) -> dict:
    """Deadline-aware against fixed-window batching on one jittered
    mixed-SLO trace in virtual time, at the calibrated batch cost."""
    requests = 128 if bench.smoke else 512
    mean_gap = batch_seconds / 2  # ~4 arrivals per batch service time
    tiers = {"tight": 3.0 * batch_seconds, "loose": 10.0 * batch_seconds}
    trace = random_trace(np.random.default_rng(0), requests, mean_gap=mean_gap,
                         slo_choices=(None, tiers["tight"], tiers["loose"]),
                         n_sessions=8)
    policies = {}
    for name, aware in (("deadline_aware", True), ("fixed_window", False)):
        result = simulate_schedule(
            trace, batch_window=ACCEPTANCE_WINDOW, deadline_aware=aware,
            batch_timeout=8 * mean_gap, service_model=lambda window: batch_seconds,
            service_estimate=batch_seconds)
        m = result.metrics
        policies[name] = {
            "slo_attainment": m.slo_attainment, "slo_total": m.slo_total,
            "throughput_rps": result.throughput,
            "makespan_seconds": result.makespan,
            "mean_occupancy": m.mean_occupancy,
            "latency_p50_ms": 1e3 * m.latency_percentile(50),
            "latency_p99_ms": 1e3 * m.latency_percentile(99),
            "queue_age_p90_ms": 1e3 * m.queue_age_percentile(90),
        }
    return {"requests": requests, "window": ACCEPTANCE_WINDOW,
            "mean_arrival_gap_ms": 1e3 * mean_gap,
            "batch_service_ms": 1e3 * batch_seconds,
            "slo_tiers_ms": {k: 1e3 * v for k, v in tiers.items()},
            "policies": policies}


def multiworker(bench: Workload) -> dict:
    """1 against 4 cloud workers over a realtime channel: wire waits are
    slept, so concurrent micro-batches overlap them."""
    n = 64 if bench.smoke else 128
    stream, many = bench.stream[:n], str(MULTIWORKER_WORKERS)

    def workers(count):
        def build(stack):
            plane = stack.enter_context(bench.plane(
                workers=count, channel=Channel(latency_ms=3.0, realtime=True)))
            return lambda: (plane.infer_stream(stream),
                            plane.deployment().metrics.worker_occupancy())
        return build

    t = measure({"1": workers(1), many: workers(MULTIWORKER_WORKERS)},
                clock=WALL, smoke=bench.smoke)
    return {
        "requests": n, "window": ACCEPTANCE_WINDOW, "channel_latency_ms": 3.0,
        "workers": {count: {**leg.summary(n), "worker_occupancy": {
            str(k): v for k, v in leg.first[1].items()}}
            for count, leg in t.items()},
        "speedup": ratio(t, "1", many),
        "bitwise_parity": (same_bits(t["1"].first[0], t[many].first[0])
                           and same_bits(bench.sequential[:n], t[many].first[0])),
    }


def multimodel(bench: Workload) -> dict:
    """3 deployments sharing one worker pool against the same 3 as
    isolated one-worker planes driven concurrently: equal workers, equal
    work, wire waits slept."""
    per = 48 if bench.smoke else 96
    names = [f"dep{i}" for i in range(MULTIMODEL_DEPLOYMENTS)]
    noise = {name: synthetic_noise(bench.split.activation_shape, 4)
             for name in names}
    stream = bench.stream[:per]
    seeds = {name: 900 + i for i, name in enumerate(names)}

    def channel() -> Channel:
        return Channel(latency_ms=3.0, realtime=True)

    def shared(stack):
        plane = stack.enter_context(
            ControlPlane(workers=MULTIMODEL_DEPLOYMENTS, channel=channel()))
        for name in names:
            plane.register(name, bench.model, bench.cut, noise=noise[name],
                           rng=np.random.default_rng(seeds[name]),
                           batch_window=ACCEPTANCE_WINDOW, batch_timeout=0.0)

        def call():
            handles = {name: [] for name in names}
            for index in range(per):
                for name in names:
                    handles[name].append(plane.submit(
                        stream[index], deployment=name,
                        session_id=f"{name}-user-{index % 4}"))
            plane.drain()
            return ({name: [plane.result(h) for h in hs]
                     for name, hs in handles.items()},
                    plane.metrics_by_deployment())
        return call

    def isolated(stack):
        planes = {name: stack.enter_context(bench.plane(
            channel=channel(), noise=noise[name],
            rng=np.random.default_rng(seeds[name]))) for name in names}

        def call():
            threads = [threading.Thread(
                target=planes[name].infer_stream, args=(stream,),
                kwargs={"session_ids": [f"{name}-user-{i % 4}" for i in range(per)]})
                for name in names]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return call

    t = measure({"shared": shared, "isolated": isolated}, clock=WALL,
                smoke=bench.smoke)
    total = per * MULTIMODEL_DEPLOYMENTS
    logits, metrics = t["shared"].first
    return {
        "deployments": MULTIMODEL_DEPLOYMENTS, "requests_per_deployment": per,
        "window": ACCEPTANCE_WINDOW, "channel_latency_ms": 3.0,
        "shared_pool": {
            "workers": MULTIMODEL_DEPLOYMENTS, **t["shared"].summary(total),
            "per_deployment": {name: {key: m.as_dict()[key] for key in (
                "requests_per_second", "mean_occupancy", "mixing_index")}
                for name, m in metrics.items()}},
        "isolated_engines": {"workers_each": 1, **t["isolated"].summary(total)},
        "shared_over_isolated": ratio(t, "isolated", "shared"),
        "bitwise_parity": all(
            same_bits(bench.reference(stream, noise[name], seeds[name]), logits[name])
            for name in names),
    }


def chaos(bench: Workload) -> dict:
    """A protected SLO tenant and an admission-capped bulk tenant share an
    auto-healing elastic pool.  Phase 1 is calm; phase 2 spikes the bulk
    tenant ~10x while a fault injector kills a worker holding one of its
    micro-batches.  Arrivals are a paced open loop on real sleeps."""
    from repro.errors import OverloadError

    stream = bench.stream
    workers = 2 if bench.smoke else 3
    # The protected tenant offers 200 req/s throughout; the bulk tenant
    # offers 100 req/s in the calm phase, then spikes 10x to 1000 req/s.
    protected_gap, bulk_calm_gap, bulk_spike_gap = 0.005, 0.010, 0.001
    phase1_protected, phase1_bulk = (16, 8) if bench.smoke else (32, 16)
    spike_protected = 16 if bench.smoke else 32
    spike_bulk = spike_protected * int(protected_gap / bulk_spike_gap)
    noise = {name: synthetic_noise(bench.split.activation_shape, 4)
             for name in ("protected", "bulk")}
    killed: list[int] = []

    def injector(worker_id, task):
        # One shot: die holding the first bulk micro-batch of the spike.
        if (not killed and task.deployment == "bulk"
                and any(rid >= phase1_bulk for rid in task.request_ids)):
            killed.append(worker_id)
            return True
        return False

    plane = ControlPlane(workers=workers, max_workers=4, auto_heal=True,
                         channel=Channel(latency_ms=2.0, realtime=True),
                         fault_injector=injector)
    # The protected tenant is latency-critical: fixed window with zero
    # timeout flushes every pump turn instead of letting the adaptive
    # batcher ride requests to the edge of their deadline slack.
    plane.register("protected", bench.model, bench.cut, noise=noise["protected"],
                   rng=np.random.default_rng(700), batch_window=4,
                   batch_timeout=0.0, deadline_aware=False)
    plane.register("bulk", bench.model, bench.cut, noise=noise["bulk"],
                   rng=np.random.default_rng(701), batch_window=8,
                   batch_timeout=0.0, max_pending=32, admission_rate_rps=200.0,
                   admission_burst=16.0)
    plane.enable_autoscale(min_workers=workers, max_workers=4)

    phase1_end = phase1_protected * protected_gap
    schedule = sorted(
        [(i * protected_gap, "protected", stream[i % len(stream)])
         for i in range(phase1_protected + spike_protected)]
        + [(i * bulk_calm_gap, "bulk", stream[(i + 7) % len(stream)])
           for i in range(phase1_bulk)]
        + [(phase1_end + i * bulk_spike_gap, "bulk", stream[(i + 13) % len(stream)])
           for i in range(spike_bulk)],
        key=lambda event: event[0])
    admitted, delivered, protected_plan = [], [], []
    begin = time.perf_counter()
    for at, name, image in schedule:
        wait = at - (time.perf_counter() - begin)
        if wait > 0:
            time.sleep(wait)
        try:
            handle = plane.submit(
                image, deployment=name, session_id=name,
                slo_seconds=CHAOS_PROTECTED_SLO if name == "protected" else None)
        except OverloadError:  # AdmissionError is a subclass: typed 429
            pass
        else:
            admitted.append(handle)
            if name == "protected":
                protected_plan.append((handle, image))
        delivered += plane.pump()
    delivered += plane.drain()
    elapsed = time.perf_counter() - begin

    zero_lost = sorted(delivered) == sorted(admitted)
    healed = bool(killed) and plane.pool_metrics.respawned_workers >= 1
    metrics = plane.metrics_by_deployment()
    # Post-heal parity: the crash, the heal and the autoscaler's resizes
    # must all be invisible in the protected tenant's logits.
    heal_parity = same_bits(
        [plane.result(handle) for handle, _ in protected_plan],
        bench.reference([image for _, image in protected_plan],
                        noise["protected"], 700))
    for handle in admitted:
        if handle.deployment == "bulk":
            plane.result(handle)  # raises if anything was silently lost
    # Post-swap parity: the hot-swapped noise stream against a fresh
    # reference.
    plane.swap("protected", rng=np.random.default_rng(4242))
    swap_images = [stream[i % len(stream)] for i in range(8)]
    swap_handles = [plane.submit(x, deployment="protected", session_id="post-swap")
                    for x in swap_images]
    plane.drain()
    swap_parity = same_bits([plane.result(handle) for handle in swap_handles],
                            bench.reference(swap_images, noise["protected"], 4242))
    pool = plane.pool_metrics.pool_size_samples
    decisions = len(plane.autoscaler.decisions)
    respawned = plane.pool_metrics.respawned_workers
    plane.close()
    protected, bulk = metrics["protected"], metrics["bulk"]
    return {
        "workers": workers, "max_workers": 4,
        "protected_slo_seconds": CHAOS_PROTECTED_SLO,
        "phase1": {"protected": phase1_protected, "bulk": phase1_bulk},
        "spike": {"protected": spike_protected, "bulk": spike_bulk},
        "seconds": elapsed, "admitted": len(admitted), "delivered": len(delivered),
        "zero_lost": zero_lost,
        "rejected_typed": {
            "bulk": bulk.rejected_requests + bulk.shed_requests,
            "protected": protected.rejected_requests + protected.shed_requests},
        "protected_attainment": protected.slo_attainment,
        "protected_p90_latency_ms": 1e3 * protected.latency_percentile(90),
        "worker_killed": bool(killed), "healed": healed,
        "respawned_workers": respawned,
        "pool_size": {"min": min(pool, default=None), "max": max(pool, default=None)},
        "autoscale_decisions": decisions,
        "post_heal_parity": heal_parity, "post_swap_parity": swap_parity,
    }


def sharded(bench: Workload) -> dict:
    """1/2/4 subprocess shards over real sockets against the 4-thread
    single-process plane, on an open-loop trace: bursty arrivals, a
    million distinct users, Zipf-heavy per-user counts.  Each shard must
    be bit-identical to its own sequential reference over the requests
    routed to it."""
    n = 128 if bench.smoke else 512
    trace = generate_trace(n, shape="bursty", mean_rate_rps=1e4, seed=42,
                           n_users=1_000_000, zipf_exponent=1.1)
    sessions = [event.session_id for event in trace]
    stream = [bench.stream[i % len(bench.stream)] for i in range(n)]
    channel = {"latency_ms": SHARDED_CHANNEL_LATENCY_MS, "realtime": True}
    spec = ShardSpec.capture(
        bench.model, bench.cut, mean=bench.mean, std=bench.std,
        noise=bench.collection, base_seed=7, workers=SHARDED_WORKERS,
        batch_window=ACCEPTANCE_WINDOW, batch_timeout=0.0, channel=dict(channel))

    def threaded(stack):
        plane = stack.enter_context(bench.plane(workers=SHARDED_WORKERS,
                                                channel=Channel(**channel)))
        return lambda: plane.infer_stream(stream, session_ids=sessions)

    def shards(count):
        def build(stack):
            engine = stack.enter_context(ShardedServingEngine(spec, shards=count))
            return lambda: engine.infer_stream(stream, session_ids=sessions)
        return build

    t = measure({"threaded": threaded,
                 **{str(c): shards(c) for c in SHARDED_SHARD_COUNTS}},
                clock=WALL, smoke=bench.smoke)
    top = max(SHARDED_SHARD_COUNTS)
    references = [spec.reference_session(index, top) for index in range(top)]
    stats = trace_stats(trace)
    return {
        "requests": n, "window": ACCEPTANCE_WINDOW,
        "workers_per_shard": SHARDED_WORKERS,
        "channel_latency_ms": SHARDED_CHANNEL_LATENCY_MS,
        "trace": {"shape": "bursty", "seed": 42, "n_users": 1_000_000,
                  "zipf_exponent": 1.1,
                  "distinct_sessions": stats["distinct_sessions"],
                  "max_requests_per_user": stats["max_requests_per_user"]},
        "threaded_baseline": {"workers": SHARDED_WORKERS,
                              **t["threaded"].summary(n)},
        "shards": {str(c): {**t[str(c)].summary(n),
                            "speedup_vs_threaded": ratio(t, "threaded", str(c))}
                   for c in SHARDED_SHARD_COUNTS},
        "speedup": ratio(t, "threaded", str(top)),
        "shard_parity": all(
            np.array_equal(out, references[route_session(session, top)].infer(x))
            for out, x, session in zip(t[str(top)].first, stream, sessions)),
    }


def privacy_mixing(bench: Workload) -> dict:
    """One mixed-session stream served with the shuffler off and on
    (shuffling moves rows, never bits), then the same wire composition
    replayed over the tapped cut activations through the empirical
    leakage evaluator: the positional attacker reads the micro-batch
    request table as a curious cloud worker would."""
    from repro.privacy import evaluate_shuffle_leakage, sweep_mixing_tradeoff

    n = 64 if bench.smoke else 192
    stream = bench.stream[:n]
    sessions = [f"user-{i % PRIVACY_MIXING_SESSIONS}" for i in range(n)]

    def leg(shuffled):
        def build(stack):
            plane = stack.enter_context(bench.plane(
                workers=2, channel=Channel(), shuffle=shuffled,
                shuffle_seed=7 if shuffled else None))
            return lambda: (plane.infer_stream(stream, session_ids=sessions),
                            plane.deployment().metrics)
        return build

    t = measure({"plain": leg(False), "shuffled": leg(True)}, clock=CPU,
                smoke=bench.smoke)
    engine = {}
    for label, leg in t.items():
        m = leg.first[1]
        engine[label] = {"mixing_index": m.mixing_index,
                         "shuffled_batches": m.shuffled_batches,
                         "anonymity_sets": list(m.anonymity_sets),
                         "epsilon_amplified": m.shuffle_amplification(1.0)}
    acts = bench.split.activations(np.concatenate(stream))
    acts = acts.reshape(n, -1).astype(np.float64)
    return {
        "requests": n, "window": ACCEPTANCE_WINDOW,
        "sessions": PRIVACY_MIXING_SESSIONS, "workers": 2,
        "legs": {label: leg.summary(n) for label, leg in t.items()},
        "shuffle_overhead_ratio": ratio(t, "plain", "shuffled"),
        "bitwise_parity": (
            same_bits(t["shuffled"].first[0], t["plain"].first[0])
            and same_bits(bench.sequential[:n], t["shuffled"].first[0])),
        "engine_metrics": engine,
        "leakage": {label: evaluate_shuffle_leakage(
            acts, sessions, batch_window=ACCEPTANCE_WINDOW, shuffle=shuffled,
            shuffle_seed=7, epsilon0=1.0).as_dict()
            for label, shuffled in (("plain", False), ("shuffled", True))},
        "tradeoff_surface": sweep_mixing_tradeoff(
            acts, sessions, batch_windows=(2, ACCEPTANCE_WINDOW),
            shard_counts=(1, 2),
            isolation_policies=(False, True), shuffle_modes=(False, True),
            shuffle_seed=7, epsilon0=1.0),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_hotpaths.json",
                        help="JSON report to merge the 'serving' section into")
    parser.add_argument("--smoke", action="store_true",
                        help="small workload for CI, gated at the smoke thresholds")
    args = parser.parse_args()

    bench = Workload(args.smoke)
    print(f"workload: {len(bench.stream)} single-image lenet requests "
          f"@ {bench.scale}")
    serving, batch_seconds = acceptance(bench)
    serving.update(executor(bench))
    serving["serving_slo"] = slo(bench, batch_seconds)
    for name, section in (
        ("serving_multiworker", multiworker), ("serving_multimodel", multimodel),
        ("serving_chaos", chaos), ("serving_sharded", sharded),
        ("privacy_mixing", privacy_mixing),
    ):
        serving[name] = section(bench)
    verdicts = harness.decide(GATES, serving, args.smoke)
    harness.write_report(args.output, "serving", {"serving": serving}, verdicts,
                         smoke=args.smoke, scale=bench.scale)
    return 0 if all(verdict["pass"] for verdict in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
