#!/usr/bin/env python3
"""Fully integer serving: int8 activations *and* int8 weights.

``quantized_deployment.py`` quantises the wire — the noisy activation a
device uploads.  This example quantises the other big tensor in the
deployment too: the model weights, via the opt-in ``int8_weights`` IR
rewrite (``weight_bits=8``).  Composed with the quantised uplink, the
remote half's first conv consumes raw u8 activation codes against i8
weight codes with exact i32 accumulation — no float32 copy of either
operand ever exists on the native backend.

The example deploys the same trained noise collection twice (f32 weights
vs int8 weights, both with an 8-bit wire), pushes an identical request
stream through both, and reports:

* throughput of each deployment (int8 weights are usually *faster*: the
  serving hot path is memory-bound, and the weight working set shrinks
  4x),
* label agreement between the two weight regimes and accuracy against
  the clean labels (the contract gates int8 weights on agreement, not
  bitwise equality — weight rounding is a real accuracy knob),
* bytes saved on the wire (activation quantiser) and in the weight
  working set (per-output-channel symmetric int8 codes + f32 scales).

Run:
    python examples/quantized_serving.py [tiny|small|paper]

Equivalent CLI:
    python -m repro serve --network lenet --quantize-bits 8 --weight-bits 8
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.config import Config, get_scale
from repro.edge import Channel, quantize_weights
from repro.eval import build_pipeline, get_benchmark
from repro.models import get_pretrained


def weight_footprint(state_dict: dict[str, np.ndarray]) -> tuple[int, int]:
    """(float32 bytes, int8 bytes) of every weight matrix in the model.

    The int8 figure prices what the executor actually keeps: the code
    plane (1 byte/element) plus one f32 scale per output channel.
    Biases stay f32 in both regimes and are omitted from both sides.
    """
    f32 = 0
    i8 = 0
    for name, tensor in state_dict.items():
        if not name.endswith("weight") or tensor.ndim < 2:
            continue
        f32 += tensor.size * 4
        wq = quantize_weights(tensor.reshape(tensor.shape[0], -1), bits=8)
        i8 += wq.code_bytes + wq.scales.size * 4
    return f32, i8


def main() -> None:
    scale = get_scale(sys.argv[1] if len(sys.argv) > 1 else "tiny")
    config = Config(scale=scale)
    bundle = get_pretrained("lenet", config)
    benchmark = get_benchmark("lenet")

    print("training the noise collection (one-time, vendor-side) ...")
    pipeline = build_pipeline(bundle, benchmark, config)
    collection = pipeline.collect(benchmark.n_members)

    channel = Channel(bandwidth_mbps=20.0, latency_ms=15.0)
    requests = min(len(bundle.test_set.images), 96)
    stream = [bundle.test_set.images[i][None] for i in range(requests)]
    labels = bundle.test_set.labels[:requests]

    def serve(weight_bits: int | None):
        with pipeline.deploy(
            collection,
            batch_window=8,
            channel=channel,
            quantize_bits=8,
            weight_bits=weight_bits,
        ) as plane:
            start = time.perf_counter()
            logits = plane.infer_stream(stream)
            seconds = time.perf_counter() - start
        predictions = np.concatenate([l.argmax(axis=1) for l in logits])
        return plane.deployment().metrics, predictions, requests / seconds

    _, f32_pred, f32_rps = serve(None)
    w8_metrics, w8_pred, w8_rps = serve(8)

    agreement = float(np.mean(w8_pred == f32_pred))
    f32_acc = float(np.mean(f32_pred == labels))
    w8_acc = float(np.mean(w8_pred == labels))
    wire = w8_metrics.uplink_bytes
    float_wire = requests * int(np.prod(pipeline.split.activation_shape)) * 4
    wbytes_f32, wbytes_i8 = weight_footprint(bundle.model.state_dict())

    print()
    print(f"served {requests} requests, 8-bit wire, batch window 8:")
    print(f"{'weights':<14} {'req/s':>8} {'accuracy':>9}")
    print(f"{'float32':<14} {f32_rps:>8.0f} {f32_acc:>9.1%}")
    print(f"{'int8':<14} {w8_rps:>8.0f} {w8_acc:>9.1%}")
    print()
    print(
        f"label agreement int8 vs f32 weights: {agreement:.1%} "
        "(deployment gate: >= 99%)"
    )
    print(
        f"uplink            {wire / 1e3:8.1f} kB vs {float_wire / 1e3:.1f} kB "
        f"float32 ({wire / float_wire:.0%})"
    )
    print(
        f"weight working set{wbytes_i8 / 1e3:8.1f} kB vs {wbytes_f32 / 1e3:.1f} kB "
        f"float32 ({wbytes_i8 / wbytes_f32:.0%})"
    )
    print()
    print(
        "Both deployments run the batch-invariant executor, so each is "
        "bitwise deterministic within its weight regime; int8 weights\n"
        "change the arithmetic (per-channel rounding), which is why the "
        "contract is label agreement rather than bit equality."
    )


if __name__ == "__main__":
    main()
