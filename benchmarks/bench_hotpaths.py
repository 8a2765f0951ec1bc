#!/usr/bin/env python3
"""Hot-path micro-benchmarks: estimator layer and collection training.

Times the two paths this repo's experiments live in — kNN mutual-information
estimation and §2.5 noise-collection training — each as "before" (the
retained reference implementations / the sequential member loop) vs "after"
(vectorised estimator backends / one batched multi-member loop), plus the
shared activation cache.  Writes ``BENCH_hotpaths.json`` so future PRs can
track the perf trajectory against a committed baseline.

Run:
    PYTHONPATH=src python benchmarks/bench_hotpaths.py [--smoke] [--output PATH]

``--smoke`` shrinks every workload for CI wiring checks; committed numbers
come from a full run at ``REPRO_SCALE=small``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT) not in sys.path:  # the reference oracles live in tests/
    sys.path.insert(0, str(REPO_ROOT))

import numpy as np
import scipy

from repro.config import Config, get_scale
from repro.core import ShredderPipeline, clear_activation_cache, get_activation_cache
from repro.privacy import kl_entropy, ksg_mutual_information
from repro.privacy import _fastknn
from tests.oracles import kl_entropy_reference, ksg_mutual_information_reference


def best_of(fn, repeats: int) -> tuple[float, object]:
    """Minimum wall time over ``repeats`` calls, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_estimators(n: int, d: int, k: int, repeats: int) -> dict:
    """KSG and KL: reference loop implementations vs the fast backends."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, d))
    y = 0.6 * x + rng.normal(size=(n, d))

    ksg_ref_s, ksg_ref = best_of(lambda: ksg_mutual_information_reference(x, y, k=k), repeats)
    ksg_fast_s, ksg_fast = best_of(lambda: ksg_mutual_information(x, y, k=k), repeats)
    kl_ref_s, kl_ref = best_of(lambda: kl_entropy_reference(x, k=k), repeats)
    kl_fast_s, kl_fast = best_of(lambda: kl_entropy(x, k=k), repeats)

    return {
        "n": n,
        "d": d,
        "k": k,
        "kernel_backend": _fastknn.available(),
        "ksg": {
            "reference_s": ksg_ref_s,
            "vectorized_s": ksg_fast_s,
            "speedup": ksg_ref_s / ksg_fast_s,
            "reference_bits": ksg_ref,
            "vectorized_bits": ksg_fast,
            "abs_diff": abs(ksg_ref - ksg_fast),
        },
        "kl_entropy": {
            "reference_s": kl_ref_s,
            "vectorized_s": kl_fast_s,
            "speedup": kl_ref_s / kl_fast_s,
            "reference_bits": kl_ref,
            "vectorized_bits": kl_fast,
            "abs_diff": abs(kl_ref - kl_fast),
        },
    }


def bench_collect(
    config: Config, n_members: int, iterations: int, repeats: int
) -> dict:
    """Sequential member-at-a-time collect vs the batched training loop."""
    from repro.models import get_pretrained

    bundle = get_pretrained("lenet", config)

    def build_pipeline() -> ShredderPipeline:
        return ShredderPipeline(
            bundle, lambda_coeff=1e-3, init_scale=1.0, config=config
        )

    # Warm the activation cache (and the allocator) so both sides time
    # pure training.
    build_pipeline().collect(n_members, min(iterations, 20), batched=True)

    seq_s, sequential = best_of(
        lambda: build_pipeline().collect(n_members, iterations, batched=False),
        repeats,
    )
    bat_s, batched = best_of(
        lambda: build_pipeline().collect(n_members, iterations, batched=True),
        repeats,
    )
    max_diff = max(
        float(np.abs(s.tensor - b.tensor).max())
        for s, b in zip(sequential.samples, batched.samples)
    )
    return {
        "model": "lenet",
        "scale": config.scale.name,
        "n_members": n_members,
        "iterations": iterations,
        "sequential_s": seq_s,
        "batched_s": bat_s,
        "speedup": seq_s / bat_s,
        "max_member_noise_diff": max_diff,
    }


def bench_backbone_backward(smoke: bool, repeats: int) -> dict:
    """Conv2d weight-gradient contraction: whole-batch einsum (the
    pre-tiling reference) vs the blocked ``_conv2d_grad_w`` path, plus a
    full forward+backward step through the lenet backbone."""
    from repro.nn import Tensor
    from repro.nn import functional as F
    from repro.nn.functional import _conv2d_grad_w
    from repro.nn.im2col import extract_windows

    rng = np.random.default_rng(0)
    # (n, c_in, h, w, c_out, k, stride, pad) — backbone-representative.
    shapes = [
        ("cifar_block", 16 if smoke else 64, 16, 32, 32, 32, 3, 1, 1),
        ("wide_batch_conv0", 64 if smoke else 256, 1, 28, 28, 3, 5, 1, 2),
    ]
    cases = {}
    for name, n, c_in, h, w, c_out, k, s, p in shapes:
        x = rng.normal(size=(n, c_in, h, w)).astype(np.float32)
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        grad = rng.normal(size=(n, c_out, oh, ow)).astype(np.float32)
        grad3 = grad.reshape(n, c_out, oh * ow)

        def einsum_ref():
            windows = extract_windows(x, (k, k), (s, s), (p, p))
            return np.einsum("nopq,ncijpq->ocij", grad, windows, optimize=True)

        def blocked():
            return _conv2d_grad_w(x, grad3, (k, k), (s, s), (p, p))

        ref_s, ref_out = best_of(einsum_ref, repeats)
        blk_s, blk_out = best_of(blocked, repeats)
        cases[name] = {
            "shape": [n, c_in, h, w, c_out, k],
            "einsum_s": ref_s,
            "blocked_s": blk_s,
            "speedup": ref_s / blk_s,
            "max_abs_diff": float(
                np.abs(ref_out - blk_out.reshape(ref_out.shape)).max()
            ),
        }

    # Full backward through a conv stack for context (tape + all grads).
    n = 16 if smoke else 64
    x = Tensor(rng.normal(size=(n, 1, 28, 28)).astype(np.float32))
    w1 = Tensor(
        rng.normal(size=(8, 1, 5, 5)).astype(np.float32), requires_grad=True
    )
    w2 = Tensor(
        rng.normal(size=(16, 8, 5, 5)).astype(np.float32), requires_grad=True
    )

    def step():
        out = F.conv2d(F.conv2d(x, w1, padding=2), w2)
        loss = (out * out).mean()
        w1.zero_grad()
        w2.zero_grad()
        loss.backward()
        return loss

    step_s, _ = best_of(step, repeats)
    return {
        "grad_w": cases,
        "conv_stack_step": {"n": n, "seconds": step_s},
        "gradw_tile_elements": F.GRADW_TILE_ELEMENTS,
    }


def bench_activation_cache(config: Config) -> dict:
    """Pipeline construction with a cold vs warm activation cache."""
    from repro.models import get_pretrained

    bundle = get_pretrained("lenet", config)
    clear_activation_cache()
    cold_s, _ = best_of(
        lambda: ShredderPipeline(bundle, config=config), 1
    )
    warm_s, _ = best_of(
        lambda: ShredderPipeline(bundle, config=config), 1
    )
    stats = get_activation_cache().stats.as_dict()
    return {
        "cold_construct_s": cold_s,
        "warm_construct_s": warm_s,
        "speedup": cold_s / warm_s,
        "cache_stats": stats,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_hotpaths.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workloads; checks wiring, numbers are not meaningful",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    config = Config(scale=get_scale())
    if args.smoke:
        estimator_shape = (400, 4, 3)
        n_members, iterations = 2, 20
    else:
        estimator_shape = (2000, 8, 3)  # the acceptance workload
        n_members, iterations = 4, config.scale.noise_iterations

    print(f"estimators: N={estimator_shape[0]} d={estimator_shape[1]} ...")
    estimators = bench_estimators(*estimator_shape, repeats=args.repeats)
    print(
        f"  ksg: {estimators['ksg']['reference_s']*1e3:.1f}ms -> "
        f"{estimators['ksg']['vectorized_s']*1e3:.1f}ms "
        f"({estimators['ksg']['speedup']:.1f}x, |diff|={estimators['ksg']['abs_diff']:.1e})"
    )
    print(
        f"  kl:  {estimators['kl_entropy']['reference_s']*1e3:.1f}ms -> "
        f"{estimators['kl_entropy']['vectorized_s']*1e3:.1f}ms "
        f"({estimators['kl_entropy']['speedup']:.1f}x)"
    )

    print(f"collect: lenet @ {config.scale.name}, M={n_members}, iters={iterations} ...")
    collect = bench_collect(config, n_members, iterations, repeats=args.repeats)
    print(
        f"  {collect['sequential_s']:.2f}s -> {collect['batched_s']:.2f}s "
        f"({collect['speedup']:.2f}x, max member diff {collect['max_member_noise_diff']:.1e})"
    )

    print("backbone backward (conv2d grad_w) ...")
    backward = bench_backbone_backward(args.smoke, repeats=args.repeats)
    for name, case in backward["grad_w"].items():
        print(
            f"  {name}: {case['einsum_s']*1e3:.1f}ms einsum -> "
            f"{case['blocked_s']*1e3:.1f}ms blocked "
            f"({case['speedup']:.2f}x, |diff|={case['max_abs_diff']:.1e})"
        )

    print("activation cache ...")
    cache = bench_activation_cache(config)
    print(
        f"  construct: {cache['cold_construct_s']*1e3:.0f}ms cold -> "
        f"{cache['warm_construct_s']*1e3:.0f}ms warm ({cache['speedup']:.0f}x)"
    )

    # Merge into the existing report so sections owned by other benchmarks
    # (e.g. bench_serving.py's "serving") survive a hot-path rerun.
    report: dict = {}
    if args.output.exists():
        try:
            report = json.loads(args.output.read_text())
        except json.JSONDecodeError:
            report = {}
    report.setdefault("meta", {})
    report["meta"].update(
        {
            "smoke": args.smoke,
            "scale": config.scale.name,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "fastknn_kernel": _fastknn.available(),
        }
    )
    report["estimators"] = estimators
    report["collect"] = collect
    report["backbone_backward"] = backward
    report["activation_cache"] = cache
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not args.smoke:
        ok = estimators["ksg"]["speedup"] >= 10.0 and collect["speedup"] >= 2.5
        print(
            "targets: ksg >= 10x "
            f"({'PASS' if estimators['ksg']['speedup'] >= 10 else 'FAIL'}), "
            "collect >= 2.5x "
            f"({'PASS' if collect['speedup'] >= 2.5 else 'FAIL'})"
        )
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
