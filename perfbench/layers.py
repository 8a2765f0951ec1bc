"""Where the benchmark wraps the system, and the per-layer metrics it
derives from the spans.

Every per-layer metric is reported by every workload; a layer that did
no work in a workload reads 0.  The README maps each metric to the
end-to-end metric it should move.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from perfbench.trace import Spans, WrapPoint, self_times

BACKBONES = ("lenet", "svhn", "cifar", "alexnet")

#: End-to-end metrics and their units; every workload reports each.
#: All are costs in this process's own CPU time and memory, which other
#: tenants of a shared host do not inflate the way they do wall time.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_op": "ms",
}

#: Wall-clock figures every workload prints; reported, never gated.
WALL = ("latency_p50_ms", "latency_p90_ms", "throughput_per_s")

#: Per-layer metrics and their units, in report order.
PER_LAYER: dict[str, str] = {
    "wall.latency_p50_ms": "ms",
    "wall.latency_p90_ms": "ms",
    "wall.throughput_per_s": "1/s",
    "serve.controlplane.submit_us": "us",
    "serve.controlplane.pump_self_us_per_req": "us",
    "serve.controlplane.dispatcher_busy_share": "share",
    "serve.controlplane.worker_busy_share": "share",
    "serve.controlplane.worker_wait_p50_ms": "ms",
    "serve.controlplane.collect_wait_p50_ms": "ms",
    "serve.scheduler.queue_wait_p50_ms": "ms",
    "serve.scheduler.queue_wait_p90_ms": "ms",
    "serve.scheduler.batch_occupancy": "count",
    "serve.scheduler.next_batch_us": "us",
    "serve.slo_miss_share": "share",
    "edge.device.forward_batch_us_per_req": "us",
    **{f"edge.executor.edge_us_per_row.{b}": "us" for b in BACKBONES},
    **{f"edge.executor.cloud_us_per_row.{b}": "us" for b in BACKBONES},
    "edge.executor.calls_per_batch": "count",
    "edge.quantization.quantize_us_per_req": "us",
    "core.sampler.sample_us_per_req": "us",
    "edge.protocol.codec_us_per_req": "us",
    "edge.protocol.uplink_bytes_per_req": "B",
    "edge.protocol.downlink_bytes_per_req": "B",
    "setup.import_s": "s",
    "host.yardstick_s": "s",
    "setup.register_s": "s",
    "job.learn_s": "s",
    "job.audit_s": "s",
    "core.trainer.materialise_s": "s",
    "nn.local_forward_us_per_row": "us",
    "core.trainer.step_ms": "ms",
    "nn.remote_forward_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.adam_step_ms": "ms",
    "core.trainer.probe_s": "s",
    "privacy.pca_s": "s",
    "privacy.ksg_s": "s",
    "privacy.estimates": "count",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.threads_max": "count",
}

# ----------------------------------------------------------------------
# Wrap points
# ----------------------------------------------------------------------
def serving_points(labels: dict[int, str]) -> list[WrapPoint]:
    """The serving stack, from the control plane down to the executor.

    ``labels`` maps ``id()`` of each deployment's edge device, remote
    network and worker channels to the deployment's backbone name; the
    workload fills it in after registration.
    """
    import repro.edge.device as device_module
    import repro.serve.controlplane as controlplane_module
    from repro.core.sampler import NoiseCollection
    from repro.edge import BatchInvariantExecutor, Channel, CloudServer, EdgeDevice
    from repro.serve import AdaptiveBatcher, ControlPlane

    def handles(args, kwargs, result):
        return tuple((h.deployment, h.request_id) for h in result)

    def batch(label_of):
        def describe(args, kwargs, result):
            return (label_of(args[0]), tuple(result.request_ids), len(result.splits))

        return describe

    def codec(ids_from_result):
        def describe(args, kwargs, result):
            message = result if ids_from_result else args[0]
            size = len(args[0]) if ids_from_result else len(result)
            return (tuple(message.request_ids), size)

        return describe

    return [
        WrapPoint("serve.controlplane.register", ControlPlane, "register",
                  lambda a, k, r: a[1]),
        WrapPoint("serve.controlplane.submit", ControlPlane, "submit",
                  lambda a, k, r: (r.deployment, r.request_id)),
        WrapPoint("serve.controlplane.pump", ControlPlane, "pump", handles),
        WrapPoint("serve.controlplane.drain", ControlPlane, "drain", handles),
        WrapPoint("serve.scheduler.next_batch", AdaptiveBatcher, "next_batch",
                  lambda a, k, r: len(r)),
        WrapPoint("edge.device.forward_batch", EdgeDevice, "forward_batch",
                  batch(lambda device: labels.get(id(device)))),
        WrapPoint("edge.device.predict_batch", CloudServer, "predict_batch",
                  batch(lambda server: labels.get(id(server.remote)))),
        WrapPoint("edge.executor.call", BatchInvariantExecutor, "__call__",
                  lambda a, k, r: len(a[1])),
        WrapPoint("edge.quantization.quantize", device_module, "quantize",
                  lambda a, k, r: len(a[0])),
        WrapPoint("core.sampler.sample", NoiseCollection, "sample_splits",
                  lambda a, k, r: len(r)),
        WrapPoint("core.sampler.sample", NoiseCollection, "sample_batch",
                  lambda a, k, r: len(r)),
        WrapPoint("edge.protocol.encode_activation_batch", controlplane_module,
                  "encode_activation_batch", codec(False)),
        WrapPoint("edge.protocol.decode_activation_batch", controlplane_module,
                  "decode_activation_batch", codec(True)),
        WrapPoint("edge.protocol.encode_prediction_batch", controlplane_module,
                  "encode_prediction_batch", codec(False)),
        WrapPoint("edge.protocol.decode_prediction_batch", controlplane_module,
                  "decode_prediction_batch", codec(True)),
        WrapPoint("edge.channel.transmit", Channel, "transmit",
                  lambda a, k, r: labels.get(id(a[0]))),
    ]


def learning_points() -> list[WrapPoint]:
    """The noise-learning job: trainer, autograd, optimiser, estimators."""
    import repro.privacy as privacy
    import repro.privacy.bootstrap as bootstrap_module
    import repro.privacy.metrics as metrics_module
    from repro.core import NoiseTrainer, SplitInferenceModel
    from repro.nn import Adam, Sequential, Tensor
    from repro.privacy import PCAReducer

    return [
        WrapPoint("core.trainer.init", NoiseTrainer, "__init__",
                  lambda a, k, r: len(a[2]) + len(a[3])),
        WrapPoint("core.trainer.train_many", NoiseTrainer, "train_many",
                  lambda a, k, r: a[2] if len(a) > 2 else k["iterations"]),
        WrapPoint("core.split.accuracy_multi", SplitInferenceModel,
                  "accuracy_from_activations_multi"),
        WrapPoint("nn.sequential.call", Sequential, "__call__"),
        WrapPoint("nn.tensor.backward", Tensor, "backward"),
        WrapPoint("nn.adam.step", Adam, "step"),
        WrapPoint("privacy.estimate_leakage", privacy, "estimate_leakage"),
        WrapPoint("privacy.estimate_leakage", bootstrap_module, "estimate_leakage"),
        WrapPoint("privacy.subsampled_mi_interval", privacy,
                  "subsampled_mi_interval"),
        WrapPoint("privacy.pca_fit_transform", PCAReducer, "fit_transform"),
        WrapPoint("privacy.ksg", metrics_module, "ksg_mutual_information"),
    ]


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _median(values: Iterable[float]) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def _percentile(values: Iterable[float], q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator / denominator) if denominator else 0.0


def serving_layers(spans: Spans, begin: float, end: float) -> dict[str, float]:
    """Per-layer serving metrics from the spans of ``[begin, end]``."""
    wall = end - begin
    own = self_times(spans)
    duration = spans.duration()
    in_window = (spans.start >= begin) & (spans.start <= end)
    rows = {
        name: np.flatnonzero((spans.name == index) & in_window)
        for index, name in enumerate(spans.names)
    }

    def named(name: str) -> np.ndarray:
        return rows.get(name, np.zeros(0, dtype=np.int64))

    name_of = np.array(spans.names, dtype=object)[spans.name] if len(spans) else []
    out: dict[str, float] = {}

    submitted = {tuple(spans.attrs[r]): spans.start[r] for r in named("serve.controlplane.submit")}
    delivered: dict[tuple, float] = {}
    front = np.concatenate([named("serve.controlplane.pump"), named("serve.controlplane.drain")])
    for r in front:
        for handle in spans.attrs[r]:
            delivered[tuple(handle)] = spans.end[r]
    dispatcher = np.concatenate([named("serve.controlplane.submit"), front])
    dispatcher = dispatcher[(spans.thread[dispatcher] == 0) & (spans.parent[dispatcher] == -1)]
    worker = np.flatnonzero((spans.thread != 0) & (spans.parent == -1) & in_window)

    out["serve.controlplane.submit_us"] = 1e6 * _ratio(
        duration[named("serve.controlplane.submit")].sum(), len(named("serve.controlplane.submit"))
    )
    out["serve.controlplane.pump_self_us_per_req"] = 1e6 * _ratio(
        own[named("serve.controlplane.pump")].sum(), len(delivered)
    )
    out["serve.controlplane.dispatcher_busy_share"] = _ratio(duration[dispatcher].sum(), wall)
    out["serve.controlplane.worker_busy_share"] = _ratio(duration[worker].sum(), wall)

    forward = named("edge.device.forward_batch")
    predict = named("edge.device.predict_batch")
    dispatched = {}
    for r in forward:
        label, ids, _ = spans.attrs[r]
        for request in ids:
            dispatched[(label, request)] = spans.start[r]
    requests = sum(len(spans.attrs[r][1]) for r in forward)
    waits = [dispatched[k] - submitted[k] for k in dispatched if k in submitted]
    out["serve.scheduler.queue_wait_p50_ms"] = 1e3 * _percentile(waits, 50)
    out["serve.scheduler.queue_wait_p90_ms"] = 1e3 * _percentile(waits, 90)
    out["serve.scheduler.batch_occupancy"] = _ratio(requests, len(forward))
    out["serve.scheduler.next_batch_us"] = 1e6 * _ratio(
        duration[named("serve.scheduler.next_batch")].sum(), len(named("serve.scheduler.next_batch"))
    )
    out["edge.device.forward_batch_us_per_req"] = 1e6 * _ratio(duration[forward].sum(), requests)

    # Executor calls, attributed to the edge or cloud half by their parent.
    side = {int(r): ("edge", spans.attrs[r][0]) for r in forward}
    side.update({int(r): ("cloud", spans.attrs[r][0]) for r in predict})
    busy: dict[tuple, float] = {}
    executed_rows: dict[tuple, int] = {}
    calls = 0
    for r in named("edge.executor.call"):
        key = side.get(int(spans.parent[r]))
        if key is None:
            continue
        calls += 1
        busy[key] = busy.get(key, 0.0) + duration[r]
        executed_rows[key] = executed_rows.get(key, 0) + spans.attrs[r]
    for half in ("edge", "cloud"):
        for backbone in BACKBONES:
            key = (half, backbone)
            out[f"edge.executor.{half}_us_per_row.{backbone}"] = 1e6 * _ratio(
                busy.get(key, 0.0), executed_rows.get(key, 0)
            )
    out["edge.executor.calls_per_batch"] = _ratio(calls, len(forward))

    for metric, name in (
        ("edge.quantization.quantize_us_per_req", "edge.quantization.quantize"),
        ("core.sampler.sample_us_per_req", "core.sampler.sample"),
    ):
        inside = [r for r in named(name) if int(spans.parent[r]) in side]
        parents = {int(spans.parent[r]) for r in inside}
        served = sum(len(spans.attrs[p][1]) for p in parents)
        out[metric] = 1e6 * _ratio(duration[inside].sum(), served)

    codec = np.concatenate([
        named(f"edge.protocol.{n}")
        for n in ("encode_activation_batch", "decode_activation_batch",
                  "encode_prediction_batch", "decode_prediction_batch")
    ])
    out["edge.protocol.codec_us_per_req"] = 1e6 * _ratio(duration[codec].sum(), requests)
    out["edge.protocol.uplink_bytes_per_req"] = _ratio(
        sum(spans.attrs[r][1] for r in named("edge.protocol.encode_activation_batch")), requests
    )
    out["edge.protocol.downlink_bytes_per_req"] = _ratio(
        sum(spans.attrs[r][1] for r in named("edge.protocol.encode_prediction_batch")), requests
    )

    # Cross-thread links, keyed by (deployment, request ids).  On each
    # thread, the deployment is the one its last forward_batch or
    # Channel.transmit served, and an uplink transmit is the one the
    # decode_activation_batch right after it consumed.
    encoded: dict[tuple, float] = {}
    sent: dict[tuple, float] = {}
    returned: dict[tuple, float] = {}
    label_by_thread: dict[int, str] = {}
    transmit_by_thread: dict[int, float] = {}
    order = np.flatnonzero(in_window)
    for r in order:
        name = name_of[r]
        thread = int(spans.thread[r])
        if name == "edge.device.forward_batch":
            label_by_thread[thread] = spans.attrs[r][0]
        elif name == "edge.protocol.encode_activation_batch" and thread in label_by_thread:
            encoded[(label_by_thread[thread], tuple(spans.attrs[r][0]))] = spans.end[r]
        elif name == "edge.channel.transmit":
            label_by_thread[thread] = spans.attrs[r]
            transmit_by_thread[thread] = spans.start[r]
        elif name == "edge.protocol.decode_activation_batch" and thread in transmit_by_thread:
            key = (label_by_thread[thread], tuple(spans.attrs[r][0]))
            sent.setdefault(key, transmit_by_thread.pop(thread))
        elif name == "edge.protocol.decode_prediction_batch" and thread in label_by_thread:
            for request in spans.attrs[r][0]:
                returned[(label_by_thread[thread], request)] = spans.end[r]
    out["serve.controlplane.worker_wait_p50_ms"] = 1e3 * _median(
        sent[k] - encoded[k] for k in sent if k in encoded
    )
    out["serve.controlplane.collect_wait_p50_ms"] = 1e3 * _median(
        delivered[k] - returned[k] for k in delivered if k in returned
    )
    # Registration happens during set-up, before the measured window.
    out["setup.register_s"] = float(duration[spans.rows("serve.controlplane.register")].sum())
    return out


def learning_layers(spans: Spans, jobs: int) -> dict[str, float]:
    """Per-layer learning metrics, per job (``jobs`` timed jobs)."""
    duration = spans.duration()

    def total(name: str) -> float:
        return float(duration[spans.rows(name)].sum())

    init = spans.rows("core.trainer.init")
    train = spans.rows("core.trainer.train_many")
    steps = sum(spans.attrs[r] for r in train)
    inside = set(int(r) for r in train)

    def per_step(name: str) -> float:
        rows = [r for r in spans.rows(name) if int(spans.parent[r]) in inside]
        return 1e3 * _ratio(duration[rows].sum(), steps)

    return {
        "core.trainer.materialise_s": _ratio(total("core.trainer.init"), jobs),
        "nn.local_forward_us_per_row": 1e6 * _ratio(
            duration[init].sum(), sum(spans.attrs[r] for r in init)
        ),
        "core.trainer.step_ms": 1e3 * _ratio(duration[train].sum(), steps),
        "nn.remote_forward_ms": per_step("nn.sequential.call"),
        "nn.backward_ms": per_step("nn.tensor.backward"),
        "nn.adam_step_ms": per_step("nn.adam.step"),
        "core.trainer.probe_s": _ratio(total("core.split.accuracy_multi"), jobs),
        "privacy.pca_s": _ratio(total("privacy.pca_fit_transform"), jobs),
        "privacy.ksg_s": _ratio(total("privacy.ksg"), jobs),
        "privacy.estimates": _ratio(len(spans.rows("privacy.estimate_leakage")), jobs),
    }
