"""Host fingerprint printed with every benchmark result.

A timing means little without the machine it came from: which CPU, how
many cores the process may use, which ISA extensions the compiled
``_fastexec`` kernels could use (its packed VNNI conv compiles only when
``cc -march=native`` defines ``__AVX512VNNI__`` and ``__AVX512VBMI__``),
which IR rewrites were active, and how many BLAS threads numpy ran.

On a shared virtual machine the same work also costs more or less CPU
time from one minute to the next, as other tenants load the caches and
memory; :func:`yardstick_cpu_s` measures how fast the host is right now.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
import time

#: ISA extension -> its spellings in ``/proc/cpuinfo`` flags.
ISA_FLAGS = {
    "avx2": ("avx2",),
    "avx512f": ("avx512f",),
    "avx512bw": ("avx512bw",),
    "avx512_vnni": ("avx512_vnni",),
    "avx512_vbmi": ("avx512vbmi", "avx512_vbmi"),
    "amx_int8": ("amx_int8",),
}
NATIVE_MACROS = ("__AVX512VNNI__", "__AVX512VBMI__")


def _cpuinfo() -> tuple[str, set[str]]:
    model, flags = platform.processor() or "unknown", set()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name":
                    model = value.strip()
                elif key == "flags":
                    flags = set(value.split())
                    break
    except OSError:
        pass
    return model, flags


def _run(command: list[str], stdin: str = "") -> str:
    """stdout of a short command, or ``""`` if it cannot run."""
    try:
        done = subprocess.run(
            command, input=stdin, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return done.stdout


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def fingerprint(seed: int) -> dict:
    """Everything needed to tie a result to the host and build it ran on."""
    import numpy as np

    from repro import native
    from repro.edge import _fastexec, ir

    model, flags = _cpuinfo()
    compiler = native.find_compiler()
    version = _run([compiler, "--version"]).splitlines()[:1] if compiler else []
    macros = _run([compiler, "-march=native", "-dM", "-E", "-"]) if compiler else ""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "isa": {isa: any(f in flags for f in names) for isa, names in ISA_FLAGS.items()},
        "compiler": compiler,
        "compiler_version": version[0] if version else None,
        "march_native_defines": {macro: macro in macros for macro in NATIVE_MACROS},
        "fastexec_available": _fastexec.available(),
        "ir_rewrites": list(ir.default_rewrites()),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


#: About the CPU seconds :func:`yardstick_cpu_s` takes on the host the
#: README describes; ``setup_s`` is scaled to it.
YARDSTICK_CPU_S = 0.45


def yardstick_cpu_s() -> float:
    """CPU seconds of a fixed mix of work that is not the system's: a
    GEMM, an im2col-style windowed copy, a symmetric eigendecomposition,
    an interpreted loop and a streaming copy larger than the caches.

    It runs on numpy and the interpreter alone, so no change to ``src/``
    moves it; only the host's speed does.  Its inputs are made before
    the clock starts.  About 0.1 GB is allocated while it runs, so it
    runs in a child process, never in one whose memory is measured.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    panel = rng.standard_normal((2048, 1152), dtype=np.float32)
    weights = rng.standard_normal((1152, 64), dtype=np.float32)
    planes = rng.standard_normal((32, 32, 34, 34), dtype=np.float32)
    square = rng.standard_normal((768, 768))
    symmetric = square @ square.T
    stream = rng.standard_normal(6_000_000, dtype=np.float32)
    copy = np.empty_like(stream)
    start = time.process_time()
    for _ in range(8):
        panel @ weights
    for _ in range(3):
        windows = np.lib.stride_tricks.sliding_window_view(planes, (3, 3), axis=(2, 3))
        np.ascontiguousarray(windows).sum()
    np.linalg.eigh(symmetric)
    total = 0
    for i in range(400_000):
        total += i * i
    for _ in range(10):
        np.copyto(copy, stream)
        copy.sum()
    return time.process_time() - start
