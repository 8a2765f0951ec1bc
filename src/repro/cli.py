"""Command-line interface: ``python -m repro <command>``.

Wraps the eval harness so every paper artefact can be regenerated without
writing code:

.. code-block:: bash

    python -m repro table1 --scale small
    python -m repro figure3 --network lenet
    python -m repro figure4 --network alexnet
    python -m repro figure5 --network svhn
    python -m repro figure6 --network svhn
    python -m repro attacks --network lenet
    python -m repro summary --network alexnet
    python -m repro costs  --network svhn
    python -m repro collect --network lenet --out noise.npz
    python -m repro serve --network lenet --batch-window 8
    python -m repro serve --network lenet --workers 4 --slo-ms 50
    python -m repro serve --deployment a=lenet --deployment b=svhn --workers 4
    python -m repro serve --network lenet --workers 2 --max-pending 32 \\
        --admission-rate 500
    python -m repro serve --deployment a=lenet --deployment b=svhn \\
        --workers 2 --autoscale 1:4 --max-pending 64
    python -m repro serve --network lenet --shards 4 --trace bursty
    python -m repro bounds --signal-power 4.0
    python -m repro report --out results/REPORT.md
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Sequence

from repro.config import Config, get_scale
from repro.errors import ConfigurationError, OverloadError, ReproError


def _make_config(args: argparse.Namespace) -> Config:
    config = Config(scale=get_scale(args.scale))
    if args.seed is not None:
        config = Config(seed=args.seed, scale=config.scale)
    return config


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.eval import run_table1

    networks = args.networks or None
    result = run_table1(_make_config(args), benchmarks=networks, verbose=True)
    print()
    print(result.format())
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from repro.eval import run_tradeoff

    curve = run_tradeoff(args.network, _make_config(args), verbose=True)
    print()
    print(curve.format())
    return 0


def _cmd_figure4(args: argparse.Namespace) -> int:
    from repro.eval import run_training_curves

    curves = run_training_curves(args.network, _make_config(args), verbose=True)
    print()
    print(curves.format())
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    from repro.eval import run_layerwise

    result = run_layerwise(
        args.network, _make_config(args), trained=args.trained, verbose=True
    )
    print()
    print(result.format())
    return 0


def _cmd_figure6(args: argparse.Namespace) -> int:
    from repro.eval import run_cutpoints

    analysis = run_cutpoints(
        args.network, _make_config(args), trained=args.trained, verbose=True
    )
    print()
    print(analysis.format())
    return 0


def _cmd_attacks(args: argparse.Namespace) -> int:
    from repro.eval import run_attack_suite

    result = run_attack_suite(args.network, _make_config(args), verbose=True)
    print()
    print(result.format())
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.models import build_model, default_width
    from repro.utils import model_summary

    config = _make_config(args)
    model = build_model(
        args.network, np.random.default_rng(config.seed), default_width(config.scale)
    )
    print(model_summary(model))
    return 0


def _cmd_costs(args: argparse.Namespace) -> int:
    from repro.eval import cost_table

    print(f"cost model for {args.network} (cumulative kMAC, communicated MB):")
    for cost in cost_table(args.network, _make_config(args)):
        print(
            f"  {cost.cut}: {cost.kilomacs:12.1f} kMAC  {cost.megabytes:10.5f} MB"
            f"  product {cost.product:.5f}"
        )
    if args.device:
        import numpy as np

        from repro.edge import PROFILES, energy_table
        from repro.models import build_model, default_width

        config = _make_config(args)
        model = build_model(
            args.network, np.random.default_rng(config.seed), default_width(config.scale)
        )
        profile = PROFILES[args.device]
        print(f"\nper-inference edge cost on {profile.name}:")
        for e in energy_table(model, profile):
            print(
                f"  {e.cut}: {e.total_energy_mj:10.4f} mJ "
                f"(compute {e.compute_energy_mj:.4f} + radio {e.radio_energy_mj:.4f}), "
                f"latency {e.total_latency_ms:8.2f} ms"
            )
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    from repro.core import FittedNoiseDistribution
    from repro.eval import build_pipeline, get_benchmark, load_benchmark

    config = _make_config(args)
    bundle, benchmark = load_benchmark(args.network, config, verbose=True)
    pipeline = build_pipeline(bundle, benchmark, config)
    members = args.members or benchmark.n_members
    print(f"training {members} noise tensors for {args.network} ...")
    collection = pipeline.collect(members)
    path = collection.save(args.out)
    print(
        f"saved {len(collection)} members to {path} "
        f"(mean accuracy {collection.mean_accuracy():.1%}, "
        f"mean in-vivo privacy {collection.mean_in_vivo_privacy():.3f})"
    )
    if args.fit:
        fitted = FittedNoiseDistribution.fit(collection, family=args.fit)
        fit_path = fitted.save(str(path).replace(".npz", f".{args.fit}.npz"))
        summary = fitted.summary()
        print(
            f"fitted {summary.family} distribution saved to {fit_path} "
            f"(mean scale {summary.mean_scale:.3f})"
        )
    return 0


def _parse_autoscale(
    raw: str | None, workers: int
) -> tuple[int, int] | None:
    """Parse ``--autoscale MIN:MAX`` into validated pool bounds."""
    if raw is None:
        return None
    low, sep, high = raw.partition(":")
    try:
        bounds = (int(low), int(high)) if sep else (-1, -1)
    except ValueError:
        bounds = (-1, -1)
    if not sep or bounds[0] < 1 or bounds[1] < bounds[0]:
        raise ConfigurationError(
            f"--autoscale wants MIN:MAX with 1 <= MIN <= MAX, got {raw!r}"
        )
    if bounds[1] < workers:
        raise ConfigurationError(
            f"--autoscale MAX ({bounds[1]}) must be >= --workers ({workers})"
        )
    return bounds


def _serve_spec(args: argparse.Namespace):
    """The one deployment spec every ``repro serve`` path serves: the
    flags given, over the spec's defaults."""
    from repro.serve import DeploymentSpec

    flags = {
        "batch_window": args.batch_window,
        "batch_timeout": (
            None if args.batch_timeout_ms is None else args.batch_timeout_ms / 1e3
        ),
        "isolate_sessions": args.batch_policy == "isolate",
        "quantize_bits": args.quantize_bits,
        "weight_bits": args.weight_bits,
        "max_pending": args.max_pending,
        "admission_rate_rps": args.admission_rate,
        "shuffle": args.shuffle,
        "shuffle_seed": args.shuffle_seed,
    }
    return DeploymentSpec(
        **{name: value for name, value in flags.items() if value is not None}
    )


def _serve_channel(args: argparse.Namespace) -> dict:
    """``Channel`` kwargs of the serving link."""
    return {
        "bandwidth_mbps": args.bandwidth_mbps,
        "latency_ms": args.latency_ms,
        "realtime": args.realtime_channel,
    }


def _serve_collection(args, config, network, cut=None, label=""):
    """``(bundle, pipeline, collection)``: the backbone (pretrained if
    needed) and the noise collection a serve path deploys."""
    from repro.eval import build_pipeline, load_benchmark

    bundle, benchmark = load_benchmark(network, config, verbose=True)
    pipeline = build_pipeline(bundle, benchmark, config, cut=cut)
    members = args.members or benchmark.n_members
    print(f"{label}training {members} noise tensors for {network} ...")
    return bundle, pipeline, pipeline.collect(members)


def _cmd_serve_multi(args: argparse.Namespace, spec) -> int:
    """Multi-deployment control-plane serving (``--deployment name=net:cut``)."""
    from dataclasses import replace

    import numpy as np

    from repro.edge import Channel
    from repro.serve import ControlPlane

    config = _make_config(args)
    parsed: list[tuple[str, str, str | None]] = []
    for raw in args.deployment:
        name, sep, rest = raw.partition("=")
        if not sep or not name or not rest:
            raise ConfigurationError(
                f"--deployment wants NAME=NETWORK[:CUT], got {raw!r}"
            )
        network, _, cut = rest.partition(":")
        parsed.append((name, network, cut or None))
    autoscale = _parse_autoscale(args.autoscale, args.workers)
    plane = ControlPlane(
        workers=args.workers,
        channel=Channel(**_serve_channel(args)),
        kernel_backend=args.kernel_backend,
        max_workers=autoscale[1] if autoscale else None,
        auto_heal=bool(autoscale),
    )
    if autoscale:
        plane.enable_autoscale(
            min_workers=autoscale[0], max_workers=autoscale[1]
        )
    traffic: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, network, cut in parsed:
        bundle, pipeline, collection = _serve_collection(
            args, config, network, cut, f"[{name}] "
        )
        pipeline.register_on(plane, name, replace(spec, noise=collection), name)
        traffic[name] = (bundle.test_set.images, bundle.test_set.labels)
    requests = {
        name: min(args.requests, len(images))
        for name, (images, _) in traffic.items()
    }
    print(
        f"serving {sum(requests.values())} single-image requests across "
        f"{len(parsed)} deployments on {args.workers} shared workers "
        f"(window {spec.batch_window}, {args.batch_policy} batches) ..."
    )
    slo = args.slo_ms / 1e3 if args.slo_ms is not None else None
    handles: dict[str, list] = {name: [] for name in traffic}
    admitted: dict[str, list[int]] = {name: [] for name in traffic}
    rejected: dict[str, int] = {name: 0 for name in traffic}
    start = time.perf_counter()
    # Round-robin interleave the tenants' request streams, 4 sessions each.
    for index in range(max(requests.values())):
        for name, (images, _) in traffic.items():
            if index >= requests[name]:
                continue
            try:
                handle = plane.submit(
                    images[index : index + 1],
                    deployment=name,
                    slo_seconds=slo,
                    session_id=f"{name}-user-{index % 4}",
                )
            except OverloadError:
                # Typed 429-style rejection: count it, keep serving.
                rejected[name] += 1
            else:
                handles[name].append(handle)
                admitted[name].append(index)
        # One dispatcher turn per round: overlaps edge/cloud work with
        # submission and steps the autoscaler under live traffic.
        plane.pump()
    # Drain through pump turns rather than plane.drain(): the backlog
    # left by a closed-loop submit burst is exactly where the autoscaler
    # earns its keep, and pump() is what steps it.
    while plane.pending or plane.in_flight:
        if not plane.pump(flush=True):
            time.sleep(0.0005)
    elapsed = time.perf_counter() - start
    plane.close()
    for name, (_, labels) in traffic.items():
        print(f"\n=== deployment {name} ===")
        print(plane.metrics_by_deployment()[name].format())
        if handles[name]:
            predictions = np.concatenate(
                [plane.result(handle).argmax(axis=1) for handle in handles[name]]
            )
            accuracy = float(
                np.mean(predictions == labels[admitted[name]])
            )
            print(f"accuracy          {accuracy:.1%}")
        if rejected[name]:
            print(
                f"admission         {rejected[name]} of {requests[name]} "
                "requests rejected (typed OverloadError)"
            )
    total = sum(len(ids) for ids in handles.values())
    print(
        f"\naggregate         {total} admitted requests in "
        f"{elapsed*1e3:.1f} ms ({total/max(elapsed, 1e-9):.0f} req/s "
        "across the shared pool)"
    )
    pool = plane.pool_metrics
    if pool.respawned_workers or pool.pool_size_samples:
        sizes = pool.pool_size_samples or [plane.target_workers]
        print(
            f"pool              {min(sizes)}..{max(sizes)} workers "
            f"({pool.respawned_workers} respawned"
            + (
                f", {len(plane.autoscaler.decisions)} autoscale decisions"
                if plane.autoscaler is not None
                else ""
            )
            + ")"
        )
    return 0


def _cmd_serve_sharded(args: argparse.Namespace, spec) -> int:
    """Process-sharded serving driven by the open-loop trace generator."""
    from dataclasses import replace

    import numpy as np

    from repro.serve import (
        ShardSpec,
        ShardedServingEngine,
        generate_trace,
        replay_trace,
        trace_stats,
    )

    ShardSpec.refuse_unserved(spec)  # before any training
    config = _make_config(args)
    bundle, pipeline, collection = _serve_collection(
        args, config, args.network or "lenet"
    )
    shard_spec = ShardSpec.capture(
        bundle.model,
        pipeline.split.cut,
        replace(spec, noise=collection),
        base_seed=config.seed,
        workers=args.workers,
        kernel_backend=args.kernel_backend,
        channel=_serve_channel(args),
    )
    images = bundle.test_set.images
    labels = bundle.test_set.labels
    requests = min(args.requests, len(images))
    shape = args.trace or "poisson"
    trace = generate_trace(
        requests,
        shape=shape,
        mean_rate_rps=2000.0 if args.trace_rate is None else args.trace_rate,
        seed=config.seed,
        n_users=1_000_000,
        zipf_exponent=1.1,
    )
    stats = trace_stats(trace)
    stream = [images[i : i + 1] for i in range(requests)]
    print(
        f"serving {requests} single-image requests from a {shape!r} "
        f"trace ({stats['distinct_sessions']} distinct users, "
        f"{stats['mean_rate_rps']:.0f} req/s offered) across "
        f"{args.shards} shards x {args.workers} workers "
        f"(window {spec.batch_window}) ..."
    )
    slo = args.slo_ms / 1e3 if args.slo_ms is not None else None
    ids: list[int] = []
    with ShardedServingEngine(shard_spec, shards=args.shards) as engine:
        iterator = iter(stream)

        def submit(event) -> None:
            ids.append(
                engine.submit(
                    next(iterator),
                    slo_seconds=slo,
                    session_id=event.session_id,
                )
            )

        start = time.perf_counter()
        replay_trace(trace, submit, on_tick=engine.poll)
        engine.drain()
        elapsed = time.perf_counter() - start
        predictions = [engine.result(request_id).argmax(axis=1) for request_id in ids]
        merged = engine.metrics()
        respawned = engine.respawned_shards
    print()
    print(merged.format())
    accuracy = float(np.mean(np.concatenate(predictions) == labels[:requests]))
    print(
        f"accuracy          {accuracy:.1%} "
        f"(clean backbone {bundle.test_accuracy:.1%})"
    )
    print(
        f"sharded           {requests} requests in {elapsed*1e3:.1f} ms "
        f"({requests/max(elapsed, 1e-9):.0f} req/s across {args.shards} "
        f"shards, {respawned} respawned)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from dataclasses import replace

    import numpy as np

    from repro.edge import Channel
    from repro.serve import ControlPlane

    if args.deployment and args.shards is not None:
        raise ConfigurationError(
            "--shards runs the single-deployment sharded plane; it "
            "cannot be combined with --deployment"
        )
    if args.autoscale is not None and not args.deployment:
        raise ConfigurationError(
            "--autoscale resizes the shared multi-deployment pool; use it "
            "with --deployment NAME=NET[:CUT]"
        )
    if args.compare_sequential and (args.deployment or args.shards is not None):
        raise ConfigurationError(
            "--compare-sequential times the single-deployment plane; it "
            "cannot be combined with --deployment or --shards"
        )
    if args.deployment and args.network is not None:
        raise ConfigurationError(
            "--network picks the single-deployment backbone; each "
            "--deployment NAME=NET[:CUT] names its own"
        )
    if args.shards is None and (args.trace or args.trace_rate is not None):
        raise ConfigurationError(
            "--trace and --trace-rate shape the open-loop trace of the "
            "sharded path; use them with --shards N"
        )
    spec = _serve_spec(args)
    if args.deployment:
        return _cmd_serve_multi(args, spec)
    if args.shards is not None:
        return _cmd_serve_sharded(args, spec)

    bundle, pipeline, collection = _serve_collection(
        args, _make_config(args), args.network or "lenet"
    )
    plane = ControlPlane(
        workers=args.workers,
        channel=Channel(**_serve_channel(args)),
        kernel_backend=args.kernel_backend,
    )
    deployment = pipeline.register_on(
        plane, "default", replace(spec, noise=collection)
    )
    images = bundle.test_set.images
    labels = bundle.test_set.labels
    requests = min(args.requests, len(images))
    backend = deployment.device._executor.backend
    print(
        f"serving {requests} single-image requests through the control "
        f"plane ({args.workers} workers, window {deployment.batch_window}, "
        f"{backend} kernels"
        + (f", SLO {args.slo_ms:g} ms" if args.slo_ms is not None else "")
        + (f", {args.quantize_bits}-bit wire" if args.quantize_bits else "")
        + (f", int{args.weight_bits} weights" if args.weight_bits else "")
        + ") ..."
    )
    # Submissions can be rejected typed at the admission gate; keep
    # serving admitted requests and report both populations.
    slo = args.slo_ms / 1e3 if args.slo_ms is not None else None
    start = time.perf_counter()
    handles = []
    admitted: list[int] = []
    for i in range(requests):
        try:
            handles.append(plane.submit(images[i : i + 1], slo_seconds=slo))
        except OverloadError:
            continue
        admitted.append(i)
    plane.drain()
    predictions = [plane.result(handle).argmax(axis=1) for handle in handles]
    batched_elapsed = time.perf_counter() - start
    rejected = requests - len(admitted)
    plane.close()
    print()
    print(deployment.metrics.format())
    if predictions:
        accuracy = float(
            np.mean(np.concatenate(predictions) == labels[admitted])
        )
        print(
            f"accuracy          {accuracy:.1%} "
            f"(clean backbone {bundle.test_accuracy:.1%})"
        )
    if rejected:
        print(
            f"admission         {rejected} of {requests} requests rejected "
            "(typed OverloadError)"
        )
    if args.compare_sequential:
        sequential = pipeline.deploy(
            collection, batched=False, kernel_backend=args.kernel_backend,
            weight_bits=spec.weight_bits,
        )
        start = time.perf_counter()
        for i in range(requests):
            sequential.infer(images[i : i + 1])
        elapsed = time.perf_counter() - start
        # Same timing boundary on both sides: full wall clock around the
        # whole request stream (submission to collected predictions).
        print(
            f"sequential        {requests / elapsed:.0f} req/s "
            f"({elapsed * 1e3:.1f} ms wall) -> batched speedup "
            f"{elapsed / batched_elapsed:.2f}x"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval import render_report, write_report

    if args.out:
        path = write_report(args.results_dir, args.out)
        print(f"wrote report to {path}")
    else:
        print(render_report(args.results_dir))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.privacy import laplace_channel_bracket

    print(
        f"analytic leakage bracket per dimension "
        f"(signal power {args.signal_power:g}, Laplace noise):"
    )
    print(f"{'scale b':>10} {'SNR':>10} {'1/SNR':>10} {'MI lower':>10} {'MI upper':>10}")
    for scale in args.scales:
        bracket = laplace_channel_bracket(args.signal_power, scale)
        print(
            f"{scale:>10.3f} {bracket.snr:>10.3f} {1.0 / bracket.snr:>10.3f} "
            f"{bracket.lower_bits:>10.3f} {bracket.upper_bits:>10.3f}"
        )
    return 0


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "table1": _cmd_table1,
    "figure3": _cmd_figure3,
    "figure4": _cmd_figure4,
    "figure5": _cmd_figure5,
    "figure6": _cmd_figure6,
    "attacks": _cmd_attacks,
    "summary": _cmd_summary,
    "costs": _cmd_costs,
    "collect": _cmd_collect,
    "bounds": _cmd_bounds,
    "report": _cmd_report,
    "serve": _cmd_serve,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the Shredder paper's tables and figures.",
    )
    parser.add_argument(
        "--scale",
        default=None,
        choices=["tiny", "small", "paper"],
        help="experiment scale (default: REPRO_SCALE or small)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="regenerate Table 1")
    table1.add_argument(
        "--networks", nargs="*", default=None,
        help="benchmark subset (default: all four)",
    )

    for name in ("figure3", "figure4"):
        cmd = sub.add_parser(name, help=f"regenerate {name}")
        cmd.add_argument("--network", default="lenet")

    for name in ("figure5", "figure6"):
        cmd = sub.add_parser(name, help=f"regenerate {name}")
        cmd.add_argument("--network", default="svhn")
        cmd.add_argument(
            "--trained", action="store_true",
            help="train noise per point (slower; default injects matched noise)",
        )

    attacks = sub.add_parser("attacks", help="run the attack suite (extension)")
    attacks.add_argument("--network", default="lenet")

    summary = sub.add_parser("summary", help="print a model's layer table")
    summary.add_argument("--network", default="lenet")

    costs = sub.add_parser("costs", help="print the section 3.4 cost model")
    costs.add_argument("--network", default="svhn")
    costs.add_argument(
        "--device",
        choices=["microcontroller", "mobile_cpu", "embedded_gpu"],
        default=None,
        help="also print the per-device energy/latency table",
    )

    collect = sub.add_parser(
        "collect", help="train and save a deployable noise collection (section 2.5)"
    )
    collect.add_argument("--network", default="lenet")
    collect.add_argument("--out", default="noise_collection.npz")
    collect.add_argument(
        "--members", type=int, default=None,
        help="collection size (default: the benchmark's configured size)",
    )
    collect.add_argument(
        "--fit", choices=["laplace", "gaussian"], default=None,
        help="also fit and save a parametric distribution over the members",
    )

    serve = sub.add_parser(
        "serve",
        help="run the batched split-inference serving runtime on test traffic",
    )
    serve.add_argument(
        "--network", default=None,
        help="backbone of the single-plane and --shards paths (default "
        "lenet; each --deployment names its own)",
    )
    serve.add_argument(
        "--batch-window", type=int, default=None,
        help="requests stacked per micro-batch (default: the deployment "
        "spec's)",
    )
    serve.add_argument(
        "--requests", type=int, default=64,
        help="single-image requests to serve from the test set",
    )
    serve.add_argument(
        "--members", type=int, default=None,
        help="noise collection size (default: the benchmark's configured size)",
    )
    serve.add_argument(
        "--quantize-bits", type=int, default=None,
        help="quantise each stacked uplink payload to this many bits",
    )
    serve.add_argument(
        "--weight-bits", type=int, choices=[8], default=None,
        help="serve on int8-quantised weights (the opt-in int8_weights IR "
        "rewrite; label-agreement-gated, never on by default); composes "
        "with --quantize-bits for a fully integer first conv/GEMM",
    )
    serve.add_argument("--bandwidth-mbps", type=float, default=100.0)
    serve.add_argument("--latency-ms", type=float, default=10.0)
    serve.add_argument(
        "--workers", type=int, default=1,
        help="cloud worker threads draining micro-batches concurrently",
    )
    serve.add_argument(
        "--slo-ms", type=float, default=None,
        help="per-request latency SLO in ms; enables deadline-aware "
        "window closing and SLO-attainment reporting",
    )
    serve.add_argument(
        "--batch-timeout-ms", type=float, default=None,
        help="longest the head request waits for its window to fill "
        "(default: the deployment spec's)",
    )
    serve.add_argument(
        "--realtime-channel", action="store_true",
        help="sleep the simulated wire time so concurrent workers "
        "genuinely overlap transfers",
    )
    serve.add_argument(
        "--compare-sequential", action="store_true",
        help="also time the sequential reference path on the same stream",
    )
    serve.add_argument(
        "--kernel-backend", choices=["auto", "native", "numpy"], default="auto",
        help="forward-executor kernels: compiled C when available (auto, "
        "the default), required (native), or pure numpy (numpy); "
        "REPRO_NO_C_KERNEL=1 disables compiled kernels globally",
    )
    serve.add_argument(
        "--deployment", action="append", default=None, metavar="NAME=NET[:CUT]",
        help="serve a named deployment on the multi-model control plane "
        "(repeatable, e.g. --deployment a=lenet --deployment b=svhn:conv6); "
        "all deployments share the --workers cloud pool",
    )
    serve.add_argument(
        "--batch-policy", choices=["mixed", "isolate"], default="mixed",
        help="micro-batch composition: 'mixed' stacks any sessions together "
        "(maximal occupancy), 'isolate' never mixes two sessions in one "
        "batch (cross-user mixing index reads 0)",
    )
    serve.add_argument(
        "--shuffle", action="store_true",
        help="permute each micro-batch's rows across sessions before the "
        "uplink frame is encoded (seeded policy, inverse recorded; "
        "bit-parity preserved) — the wire frame's request table no longer "
        "reveals row ownership, and metrics report per-batch anonymity "
        "sets and the shuffle-amplification bound",
    )
    serve.add_argument(
        "--shuffle-seed", type=int, default=None, metavar="SEED",
        help="explicit shuffling-policy seed (default 0; with --shards, "
        "each shard derives its own stream from this base)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=None,
        help="admission control: reject new requests (typed 429-style "
        "AdmissionError) once this many are already queued per deployment; "
        "admitted requests are never shed later",
    )
    serve.add_argument(
        "--admission-rate", type=float, default=None, metavar="RPS",
        help="admission control: per-deployment token-bucket rate in "
        "requests/second (burst = one second's tokens); submissions above "
        "the sustained rate are rejected typed instead of queued",
    )
    serve.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="serve through N subprocess shards over real sockets "
        "(deterministic session routing, per-shard noise streams; each "
        "shard runs --workers cloud worker threads)",
    )
    serve.add_argument(
        "--trace", choices=["poisson", "diurnal", "bursty"], default=None,
        help="arrival shape of the open-loop trace replayed against the "
        "sharded plane (with --shards; default poisson)",
    )
    serve.add_argument(
        "--trace-rate", type=float, default=None, metavar="RPS",
        help="mean offered rate of the generated trace (with --shards; "
        "default 2000)",
    )
    serve.add_argument(
        "--autoscale", default=None, metavar="MIN:MAX",
        help="elastic pool: autoscale the shared worker pool between MIN "
        "and MAX workers (grows on backlog/SLO pressure and measured "
        "demand, shrinks when idle; multi-deployment serving via "
        "--deployment only)",
    )

    report = sub.add_parser(
        "report", help="render results/*.csv into a markdown report"
    )
    report.add_argument("--results-dir", default="results")
    report.add_argument("--out", default=None, help="write to a file instead of stdout")

    bounds = sub.add_parser(
        "bounds", help="print the analytic SNR-to-MI leakage bracket (section 2.3)"
    )
    bounds.add_argument("--signal-power", type=float, default=1.0)
    bounds.add_argument(
        "--scales", type=float, nargs="*",
        default=[0.25, 0.5, 1.0, 2.0, 4.0],
        help="Laplace noise scales to tabulate",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (2 when the
    library refuses the arguments, as argparse does)."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
