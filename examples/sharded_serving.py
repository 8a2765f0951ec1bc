#!/usr/bin/env python3
"""Process-sharded serving — four shards, a million-user trace, bit parity.

The threaded control plane runs every dispatcher turn (edge half, noise
draws, framing) in one interpreter; process sharding multiplies whole
control planes across subprocesses, with the parent routing each request
to ``hash(session) % N`` over real sockets.  This example:

* trains a noise collection and captures a spawn-safe :class:`ShardSpec`
  (plain arrays — no live channels or executors cross the fork),
* generates a bursty open-loop trace from a million-user population with
  Zipf-heavy per-user request counts,
* replays it through four shards and collects one merged metrics view,
* and verifies each shard is **bit-identical** to its own sequential
  reference session over exactly the requests routed to it.

Run:
    python examples/sharded_serving.py [tiny|small|paper]

Equivalent CLI:
    python -m repro serve --network lenet --shards 4 --trace bursty
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.config import Config, get_scale
from repro.eval import build_pipeline, get_benchmark
from repro.models import get_pretrained
from repro.serve import (
    DeploymentSpec,
    ShardSpec,
    ShardedServingEngine,
    generate_trace,
    route_session,
    trace_stats,
)

SHARDS = 4


def main() -> None:
    scale = get_scale(sys.argv[1] if len(sys.argv) > 1 else "tiny")
    config = Config(scale=scale)
    bundle = get_pretrained("lenet", config)
    benchmark = get_benchmark("lenet")

    print("training the noise collection (one-time, vendor-side) ...")
    pipeline = build_pipeline(bundle, benchmark, config)
    collection = pipeline.collect(benchmark.n_members)

    # Everything a shard subprocess needs, as plain data: model weights,
    # cut, noise member tensors, seeds.  Works under fork and spawn.  The
    # bundle's datasets are already normalised: identity normalisation,
    # the deployment spec's default.
    spec = ShardSpec.capture(
        bundle.model,
        pipeline.split.cut,
        DeploymentSpec(noise=collection, batch_window=8),
        base_seed=config.seed,
    )

    # A bursty trace drawn from a million-user population: most users
    # appear once, a heavy Zipf head appears many times.
    requests = min(len(bundle.test_set.images), 96)
    trace = generate_trace(
        requests,
        shape="bursty",
        mean_rate_rps=5e3,
        seed=config.seed,
        n_users=1_000_000,
        zipf_exponent=1.1,
    )
    stats = trace_stats(trace)
    stream = [bundle.test_set.images[i][None] for i in range(requests)]
    sessions = [event.session_id for event in trace]
    print(
        f"trace: {requests} requests from {stats['distinct_sessions']} "
        f"distinct users (hottest user: {stats['max_requests_per_user']} "
        f"requests)"
    )

    with ShardedServingEngine(spec, shards=SHARDS) as engine:
        start = time.perf_counter()
        logits = engine.infer_stream(stream, session_ids=sessions)
        elapsed = time.perf_counter() - start
        merged = engine.metrics()

    print()
    print(f"served {requests} requests across {SHARDS} shards:")
    print(merged.format())
    accuracy = float(
        np.mean(
            np.concatenate([l.argmax(axis=1) for l in logits])
            == bundle.test_set.labels[:requests]
        )
    )
    print(
        f"accuracy          {accuracy:.1%} "
        f"(clean backbone {bundle.test_accuracy:.1%})"
    )
    print(f"wall              {elapsed*1e3:.1f} ms ({requests/elapsed:.0f} req/s)")

    # --- per-shard parity ------------------------------------------------
    # Each shard owns its own noise stream, so its outputs must be
    # bit-identical to a sequential reference session (same shard seed)
    # run over exactly the subsequence of requests routed to it.
    references = [spec.reference_session(i, SHARDS) for i in range(SHARDS)]
    identical = all(
        np.array_equal(
            produced,
            references[route_session(session, SHARDS)].infer(images),
        )
        for produced, images, session in zip(logits, stream, sessions)
    )
    print(f"bit-identical to the per-shard sequential references: {identical}")


if __name__ == "__main__":
    main()
