"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream_lenet --seed 1 --seconds 15 --trace 0

Run from the root of a checkout of the repository.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics of a traced
phase, plus the tracing overhead against an untraced reference run of
the same seed in a child process.  Earlier lines carry the host
fingerprint and figures that are printed but not gated.  ``setup_s`` is
scaled to a fixed host speed that the yardstick of :mod:`perfbench.host`
measures beside each import sample.  Compiled kernels, and the span file
of a traced run, go to ``.bench_build/``.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()

# One BLAS thread, pinned before numpy loads: the host has two vCPUs, one
# for the dispatcher and one for the cloud worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Child interpreters per run; each times an import and the host yardstick.
CHILDREN = 6


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load_system() -> float:
    """Import the system and load its kernels; returns the CPU seconds
    the process has used so far.  A kernel compiled on first use builds
    in a ``cc`` child process, so the once-per-host compilation is not
    counted."""
    import numpy  # noqa: F401

    import perfbench.workloads  # noqa: F401  (imports repro.*)
    from repro.edge import _fastexec
    from repro.privacy import _fastknn

    _fastexec.available()
    _fastknn.available()
    return time.process_time()


def _child_samples(count: int) -> list[tuple[float, float]]:
    """``(import CPU s, yardstick CPU s)`` from ``count`` fresh child
    interpreters, one after another, each waited for: the CPU seconds to
    start, import the system and load its kernels, then
    :func:`perfbench.host.yardstick_cpu_s`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    samples = []
    for _ in range(count):
        child = subprocess.run(
            [sys.executable, "-c", "import perfbench.run as r, perfbench.host as h; "
             "print(r._load_system(), h.yardstick_cpu_s())"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        imported, yardstick = child.stdout.split()[-2:]
        samples.append((float(imported), float(yardstick)))
    return samples


def _host_figures(
    first_import_s: float, samples: list[tuple[float, float]]
) -> tuple[float, float, float]:
    """The median import CPU seconds (this process and the children), the
    median yardstick, and the factor that scales this host's CPU seconds
    to the yardstick host's.  Contention on a shared host moves one
    sample by up to half, and the host's speed by a quarter or more over
    minutes; each child times its import and the yardstick moments
    apart, so the two move together."""
    from perfbench.host import YARDSTICK_CPU_S

    import_s = statistics.median([first_import_s] + [i for i, _ in samples])
    yardstick = statistics.median(y for _, y in samples)
    return import_s, yardstick, YARDSTICK_CPU_S / yardstick


def _setup_once(workload, seed: int) -> tuple[object, float, float]:
    """One set-up: the state, its CPU seconds and its wall seconds."""
    cpu, wall = time.process_time(), time.perf_counter()
    state = workload.setup(seed)
    return state, time.process_time() - cpu, time.perf_counter() - wall


def _setup(workload, seed: int) -> tuple[object, float, float]:
    """Set the workload up ``SETUP_REPEATS`` times and keep the last;
    returns it with the median CPU and wall seconds of a set-up."""
    cpu, wall, state = [], [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
            state = None
            gc.collect()
        state, cpu_s, wall_s = _setup_once(workload, seed)
        cpu.append(cpu_s)
        wall.append(wall_s)
    return state, statistics.median(cpu), statistics.median(wall)


def _measure(workload, state, seconds: float):
    """The timed phase.  Objects made before the clock starts (inputs,
    the set-up system) are frozen out of the collector's generations, so
    a collection costs what the timed work allocates, not the inputs."""
    workload.prepare(state, seconds)
    gc.collect()
    gc.freeze()
    try:
        return workload.measure(state, seconds)
    finally:
        gc.unfreeze()


def _phase(workload, state, seconds: float):
    outcome = _measure(workload, state, seconds)
    peak = _peak_rss_mb()
    problems = workload.check(state, outcome)
    workload.close(state)
    return outcome, peak, problems


def _untraced_reference(args) -> tuple[dict, dict, list[str], int, int]:
    """Run this workload and seed with ``--trace 0`` in a child process
    (waited for); returns its end-to-end values, its printed figures, its
    failed checks, and its attempted and failed counts."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = child.stdout.splitlines()
    figures = json.loads(lines[1])
    result = json.loads(lines[-1])
    problems = [line.split(": ", 1)[1] for line in lines if line.startswith("CHECK FAILED: ")]
    if not result["correct"] and not problems:
        problems.append("untraced reference run was not correct")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    figures = {k: v for k, v in figures.items() if k not in ("workload", "attempted", "succeeded", "failed")}
    return values, figures, problems, result["attempted"], result["failed"]


def _traced_phase(workload, seed: int, seconds: float):
    """Set up and measure again with every wrap point installed."""
    from perfbench.trace import Tracer

    labels: dict[int, str] = {}
    tracer = Tracer(workload.wrap_points(labels))
    with tracer:
        state, setup_s, _ = _setup_once(workload, seed)
        labels.update(workload.labels(state))
        outcome = _measure(workload, state, seconds)
    peak = _peak_rss_mb()
    problems = workload.check(state, outcome)
    workload.close(state)
    return tracer, outcome, setup_s, peak, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Everything the run writes -- kernels, the compiler's temporary
    # files, traces -- stays inside the checkout.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    os.environ["REPRO_KERNEL_DIR"] = str(BUILD / "kernels")
    os.environ["REPRO_CACHE_DIR"] = str(BUILD / "cache")
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    first_import_s = _load_system()
    import_wall_s = time.perf_counter() - PROCESS_START

    from perfbench.host import fingerprint
    from perfbench.layers import END_TO_END, PER_LAYER, WALL
    from perfbench.trace import write_spans
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    host = fingerprint(args.seed)
    import_s, yardstick, scale = _host_figures(first_import_s, _child_samples(CHILDREN))
    if args.trace:
        # The untraced reference is a --trace 0 run of its own, so neither
        # phase's memory, heap or warm caches show in the other's figures.
        values, extra, problems, attempted, failed = _untraced_reference(args)
        tracer, traced, traced_setup, traced_peak, traced_problems = _traced_phase(
            workload, args.seed, args.seconds
        )
        problems += traced_problems
        attempted += traced.attempted
        failed += traced.failed
        traced_values = {
            "setup_s": scale * (import_s + traced_setup),
            "peak_rss_mb": traced_peak,
            "cpu_ms_per_op": traced.cpu_ms_per_op,
        }
        spans = tracer.spans()
        layer = {name: 0.0 for name in PER_LAYER}
        layer.update(workload.layers(spans, traced))
        layer.update(traced.layer)
        # Wall-clock figures come from the untraced reference run.
        layer.update({f"wall.{name}": extra[name] for name in WALL})
        layer["setup.import_s"] = import_s
        layer["host.yardstick_s"] = yardstick
        for name in END_TO_END:
            layer[f"trace.overhead.{name}"] = traced_values[name] / values[name]
        path = write_spans(
            BUILD / "traces" / f"{workload.name}-seed{args.seed}.npz",
            spans,
            {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
             "window": [traced.begin, traced.end], "fingerprint": host},
        )
        extra["trace_file"] = str(path.relative_to(ROOT))
        units = {**PER_LAYER, **{f"trace.overhead.{n}": "x" for n in END_TO_END}}
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
    else:
        state, setup_cpu, setup_wall = _setup(workload, args.seed)
        outcome, peak, problems = _phase(workload, state, args.seconds)
        values = {
            "setup_s": scale * (import_s + setup_cpu),
            "peak_rss_mb": peak,
            "cpu_ms_per_op": outcome.cpu_ms_per_op,
        }
        attempted, failed = outcome.attempted, outcome.failed
        extra = {
            **outcome.wall, **outcome.extra,
            "setup_wall_s": import_wall_s + setup_wall,
            "setup_cpu_s": import_s + setup_cpu,
            "yardstick_s": yardstick,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }

    print(json.dumps({"fingerprint": host}))
    print(json.dumps({"workload": workload.name, "attempted": attempted,
                      "succeeded": attempted - failed, "failed": failed, **extra}))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
