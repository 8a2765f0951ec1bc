#!/usr/bin/env python3
"""Batched serving runtime — multi-user split inference, end to end.

The Figure 2 deployment serves one user at a time; a real multi-user
deployment queues concurrent requests and serves them in micro-batches.
This example trains a noise collection, deploys it on a one-deployment
serving control plane via ``pipeline.deploy()``, pushes a stream of
single-image requests through it, and compares against the retained
sequential reference path:

* the batched plane is several times faster (one stacked forward and one
  wire frame per micro-batch),
* yet **bit-identical** in its predictions — both paths run the
  batch-invariant executor and draw the same per-request noise samples,
* and an 8-bit quantised wire shrinks the uplink ~4x at (nearly) no
  accuracy cost.

Run:
    python examples/batched_serving.py [tiny|small|paper]

Equivalent CLI:
    python -m repro serve --network lenet --batch-window 8 --compare-sequential
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.config import Config, get_scale
from repro.edge import Channel
from repro.eval import build_pipeline, get_benchmark
from repro.models import get_pretrained


def main() -> None:
    scale = get_scale(sys.argv[1] if len(sys.argv) > 1 else "tiny")
    config = Config(scale=scale)
    bundle = get_pretrained("lenet", config)
    benchmark = get_benchmark("lenet")

    print("training the noise collection (one-time, vendor-side) ...")
    pipeline = build_pipeline(bundle, benchmark, config)
    collection = pipeline.collect(benchmark.n_members)

    # A realistic-ish uplink: 20 Mbit/s, 15 ms one-way latency.
    channel = Channel(bandwidth_mbps=20.0, latency_ms=15.0)
    requests = min(len(bundle.test_set.images), 96)
    stream = [bundle.test_set.images[i][None] for i in range(requests)]
    labels = bundle.test_set.labels[:requests]

    # --- sequential reference path --------------------------------------
    sequential = pipeline.deploy(collection, batched=False)
    start = time.perf_counter()
    seq_logits = [sequential.infer(images) for images in stream]
    seq_seconds = time.perf_counter() - start

    # --- batched serving runtime ----------------------------------------
    with pipeline.deploy(collection, batch_window=8, channel=channel) as batched:
        bat_logits = batched.infer_stream(stream)

    identical = all(np.array_equal(a, b) for a, b in zip(seq_logits, bat_logits))
    predictions = np.concatenate([l.argmax(axis=1) for l in bat_logits])
    accuracy = float(np.mean(predictions == labels))
    metrics = batched.deployment().metrics

    print()
    print(f"served {requests} single-image requests (batch window 8):")
    print(metrics.format())
    print(f"accuracy          {accuracy:.1%} (clean backbone {bundle.test_accuracy:.1%})")
    print(
        f"sequential        {requests / seq_seconds:.0f} req/s -> batched is "
        f"{metrics.requests_per_second / (requests / seq_seconds):.2f}x faster"
    )
    print(f"bit-identical to the sequential path: {identical}")

    # --- quantised wire --------------------------------------------------
    with pipeline.deploy(
        collection, batch_window=8, channel=Channel(20.0, 15.0), quantize_bits=8
    ) as quantized:
        q_logits = quantized.infer_stream(stream)
    q_metrics = quantized.deployment().metrics
    q_predictions = np.concatenate([l.argmax(axis=1) for l in q_logits])
    print()
    print(
        f"8-bit wire: uplink {q_metrics.uplink_bytes / 1e3:.1f} kB vs "
        f"{metrics.uplink_bytes / 1e3:.1f} kB float32 "
        f"({q_metrics.uplink_bytes / metrics.uplink_bytes:.0%}), "
        f"label agreement {float(np.mean(q_predictions == predictions)):.1%}"
    )


if __name__ == "__main__":
    main()
