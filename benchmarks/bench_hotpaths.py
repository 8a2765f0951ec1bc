#!/usr/bin/env python3
"""Hot-path benchmarks: estimator layer and collection training.

Times the two paths this repo's experiments live in — kNN mutual-information
estimation and §2.5 noise-collection training — each as "before" (the
reference implementations in ``tests/oracles.py``, the member-at-a-time
collection included) vs "after" (vectorised estimator backends / one
batched multi-member loop), plus the conv weight gradient and the shared
activation cache, all in process CPU with :func:`harness.measure`.  :data:`GATES` declares the
gates; the results merge into ``BENCH_hotpaths.json``.

Run:
    PYTHONPATH=src python benchmarks/bench_hotpaths.py [--smoke] [--output PATH]

``--smoke`` shrinks every workload for CI wiring checks and gates
nothing; committed numbers come from a full run at ``REPRO_SCALE=small``.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
# src/ to run without PYTHONPATH; the root for tests/ (the reference
# oracles), perfbench/ (the host fingerprint) and benchmarks/.
for _path in (REPO_ROOT / "src", REPO_ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks import harness  # noqa: E402
from benchmarks.harness import CPU, Gate, measure, ratio  # noqa: E402

if __name__ == "__main__":
    harness.pin_one_blas_thread()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.config import Config, get_scale  # noqa: E402
from repro.core import (  # noqa: E402
    ShredderPipeline,
    clear_activation_cache,
    get_activation_cache,
)
from repro.privacy import _fastknn, kl_entropy, ksg_mutual_information  # noqa: E402
from tests.oracles import (  # noqa: E402
    collect_reference,
    kl_entropy_reference,
    ksg_mutual_information_reference,
)

#: The vectorised KSG estimator against the loop oracle, and batched
#: against sequential member training (full runs; smoke gates nothing).
GATES = (
    Gate("ksg", "estimators", lambda s: s["ksg"]["speedup"], 10.0, None),
    Gate("collect", "collect", lambda s: s["speedup"], 2.5, None),
)


def estimators(n: int, d: int, k: int, smoke: bool) -> dict:
    """KSG and KL: reference loop implementations vs the fast backends."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, d))
    y = 0.6 * x + rng.normal(size=(n, d))
    t = measure({
        "ksg_reference": lambda stack: partial(
            ksg_mutual_information_reference, x, y, k=k),
        "ksg": lambda stack: partial(ksg_mutual_information, x, y, k=k),
        "kl_reference": lambda stack: partial(kl_entropy_reference, x, k=k),
        "kl": lambda stack: partial(kl_entropy, x, k=k),
    }, clock=CPU, smoke=smoke)
    return {"n": n, "d": d, "k": k, "kernel_backend": _fastknn.available(),
            "scipy": scipy.__version__, **{
                name: {"reference": t[f"{key}_reference"].summary(),
                       "vectorized": t[key].summary(),
                       "speedup": ratio(t, f"{key}_reference", key),
                       "reference_bits": t[f"{key}_reference"].first,
                       "vectorized_bits": t[key].first,
                       "abs_diff": abs(t[f"{key}_reference"].first - t[key].first)}
                for name, key in (("ksg", "ksg"), ("kl_entropy", "kl"))}}


def collect(config: Config, members: int, iterations: int, smoke: bool) -> dict:
    """Member-at-a-time collect (the one-tensor loop oracle) vs the batched
    training loop."""
    from repro.models import get_pretrained

    bundle = get_pretrained("lenet", config)

    def leg(run):
        def build(stack):
            pipeline = ShredderPipeline(bundle, lambda_coeff=1e-3, init_scale=1.0,
                                        config=config)
            return partial(run, pipeline, members, iterations)
        return build

    t = measure({"sequential": leg(collect_reference),
                 "batched": leg(ShredderPipeline.collect)}, clock=CPU, smoke=smoke)
    return {
        "model": "lenet", "scale": config.scale.name, "n_members": members,
        "iterations": iterations, "sequential": t["sequential"].summary(),
        "batched": t["batched"].summary(), "speedup": ratio(t, "sequential", "batched"),
        "max_member_noise_diff": max(
            float(np.abs(s.tensor - b.tensor).max())
            for s, b in zip(t["sequential"].first.samples, t["batched"].first.samples)),
    }


def backbone_backward(smoke: bool) -> dict:
    """Conv2d weight-gradient contraction: whole-batch einsum (the
    pre-tiling reference) vs the blocked ``_conv2d_grad_w`` path, plus a
    full forward+backward step through a two-conv stack."""
    from repro.nn import Tensor
    from repro.nn import functional as F
    from repro.nn.functional import _conv2d_grad_w
    from repro.nn.im2col import extract_windows

    rng = np.random.default_rng(0)
    cases = {}
    # (n, c_in, h, w, c_out, k, stride, pad) — backbone-representative.
    for name, n, c_in, h, w, c_out, k, s, p in (
        ("cifar_block", 16 if smoke else 64, 16, 32, 32, 32, 3, 1, 1),
        ("wide_batch_conv0", 64 if smoke else 256, 1, 28, 28, 3, 5, 1, 2),
    ):
        x = rng.normal(size=(n, c_in, h, w)).astype(np.float32)
        oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        grad = rng.normal(size=(n, c_out, oh, ow)).astype(np.float32)

        def einsum():
            windows = extract_windows(x, (k, k), (s, s), (p, p))
            return np.einsum("nopq,ncijpq->ocij", grad, windows, optimize=True)

        blocked = partial(_conv2d_grad_w, x, grad.reshape(n, c_out, oh * ow),
                          (k, k), (s, s), (p, p))
        t = measure({"einsum": lambda stack: einsum, "blocked": lambda stack: blocked},
                    clock=CPU, smoke=smoke)
        cases[name] = {
            "shape": [n, c_in, h, w, c_out, k], "einsum": t["einsum"].summary(),
            "blocked": t["blocked"].summary(), "speedup": ratio(t, "einsum", "blocked"),
            "max_abs_diff": float(np.abs(t["einsum"].first - t["blocked"].first.reshape(
                t["einsum"].first.shape)).max()),
        }

    n = 16 if smoke else 64
    x = Tensor(rng.normal(size=(n, 1, 28, 28)).astype(np.float32))
    w1 = Tensor(rng.normal(size=(8, 1, 5, 5)).astype(np.float32), requires_grad=True)
    w2 = Tensor(rng.normal(size=(16, 8, 5, 5)).astype(np.float32), requires_grad=True)

    def step():
        out = F.conv2d(F.conv2d(x, w1, padding=2), w2)
        loss = (out * out).mean()
        w1.zero_grad()
        w2.zero_grad()
        loss.backward()

    t = measure({"step": lambda stack: step}, clock=CPU, smoke=smoke)
    return {"grad_w": cases, "conv_stack_step": {"n": n, **t["step"].summary()},
            "gradw_tile_elements": F.GRADW_TILE_ELEMENTS}


def activation_cache(config: Config, smoke: bool) -> dict:
    """Pipeline construction with a cold vs warm activation cache."""
    from repro.models import get_pretrained

    bundle = get_pretrained("lenet", config)
    construct = partial(ShredderPipeline, bundle, config=config)

    def cold(stack):
        clear_activation_cache()
        return construct

    t = measure({"cold": cold, "warm": lambda stack: construct}, clock=CPU,
                smoke=smoke)
    return {"cold_construct": t["cold"].summary(),
            "warm_construct": t["warm"].summary(),
            "speedup": ratio(t, "cold", "warm"),
            "cache_stats": get_activation_cache().stats.as_dict()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_hotpaths.json",
                        help="where to write the JSON report")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads; checks wiring, gates nothing")
    args = parser.parse_args()

    config = Config(scale=get_scale())
    # (N, d, k) of the estimators; the full run's is the acceptance workload.
    shape = (400, 4, 3) if args.smoke else (2000, 8, 3)
    members, iterations = (
        (2, 20) if args.smoke else (4, config.scale.noise_iterations))
    print(f"estimators N={shape[0]} d={shape[1]}; collect lenet @ "
          f"{config.scale.name}, M={members}, iters={iterations}; conv grad_w; "
          "activation cache ...")
    sections = {
        "estimators": estimators(*shape, args.smoke),
        "collect": collect(config, members, iterations, args.smoke),
        "backbone_backward": backbone_backward(args.smoke),
        "activation_cache": activation_cache(config, args.smoke),
    }
    verdicts = harness.decide(GATES, sections, args.smoke)
    harness.write_report(args.output, "hotpaths", sections, verdicts,
                         smoke=args.smoke, scale=config.scale.name)
    return 0 if all(v["pass"] for v in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
