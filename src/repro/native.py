"""Shared build–cache–load pipeline for compiled C kernel modules.

This repo ships small, self-contained C kernels for its measured hot paths
(the kNN estimator sweeps in :mod:`repro.privacy._fastknn` and the serving
executor kernels in :mod:`repro.edge._fastexec`).  Both follow the same
life cycle, implemented once here:

1. the C source is hashed (sha256) and compiled **at first use** with the
   system C compiler (``cc``/``gcc``/``clang``, ``-O3 -march=native`` with
   a portable retry) into a per-user cache directory;
2. the resulting shared object is loaded with :mod:`ctypes` and its
   signatures configured by the owning module;
3. subsequent processes reuse the cached ``.so`` keyed by the source, the
   compile flags and the host's ISA flag set (the ``flags`` line of
   ``/proc/cpuinfo``), so a source edit transparently rebuilds, a
   ``-march=native`` artifact in a shared or copied cache is never loaded
   on a host with a different ISA (which would die with SIGILL), and an
   unchanged kernel costs one ``stat``.  The compiler version is left out:
   reading it would cost a ``cc --version`` subprocess on every load.

Environment contract (honoured by every kernel family):

* ``REPRO_NO_C_KERNEL=1`` disables compiled kernels entirely — callers
  fall back to their pure numpy/scipy implementations;
* ``REPRO_KERNEL_DIR`` overrides the cache directory (useful for CI
  artifact caching); the default is a per-uid directory under the system
  tempdir.

The cache directory lives under a shared tmpdir by default; loading a
``.so`` someone else could have planted there would hand them code
execution in this process, so anything not exclusively owned by this uid
(or group/other-writable) is treated as absent and rebuilt via a private
staging path.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Callable

DISABLE_ENV_VAR = "REPRO_NO_C_KERNEL"
DIR_ENV_VAR = "REPRO_KERNEL_DIR"

#: Flags of the primary build (a portable retry drops ``-march=native``).
COMPILE_FLAGS = ("-O3", "-march=native", "-shared", "-fPIC")

_compiler_cache: tuple[str | None] | None = None


def kernels_disabled() -> bool:
    """Whether ``REPRO_NO_C_KERNEL`` turns compiled kernels off."""
    return bool(os.environ.get(DISABLE_ENV_VAR))


def kernel_dir() -> Path:
    """The cache directory holding compiled kernel artifacts."""
    configured = os.environ.get(DIR_ENV_VAR)
    if configured:
        return Path(configured)
    return Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"


def find_compiler() -> str | None:
    """The first working system C compiler (memoised per process)."""
    global _compiler_cache
    if _compiler_cache is None:
        found = None
        for candidate in ("cc", "gcc", "clang"):
            try:
                subprocess.run(
                    [candidate, "--version"], capture_output=True, check=True
                )
                found = candidate
                break
            except (OSError, subprocess.CalledProcessError):
                continue
        _compiler_cache = (found,)
    return _compiler_cache[0]


def _is_private_to_us(path: Path) -> bool:
    """Owned by this uid and not writable by group/other."""
    try:
        info = path.stat()
    except OSError:
        return False
    return info.st_uid == os.getuid() and not (info.st_mode & 0o022)


@functools.lru_cache(maxsize=None)
def host_isa_flags() -> str:
    """The host's ISA feature set: the first ``flags`` line of
    ``/proc/cpuinfo``, or ``""`` where there is none (memoised)."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key.strip() == "flags":
                    return " ".join(value.split())
    except OSError:
        pass
    return ""


def artifact_path(name: str, source: str) -> Path:
    """Where the compiled ``source`` lives: ``<kernel_dir>/<name>-<hash>.so``,
    the hash covering the source, :data:`COMPILE_FLAGS` and
    :func:`host_isa_flags`."""
    identity = "\0".join((source, " ".join(COMPILE_FLAGS), host_isa_flags()))
    digest = hashlib.sha256(identity.encode()).hexdigest()[:16]
    return kernel_dir() / f"{name}-{digest}.so"


def build_library(name: str, source: str) -> ctypes.CDLL | None:
    """Compile (or reuse) ``source`` and load it; ``None`` on any failure.

    The artifact is :func:`artifact_path`; compilation goes through a
    pid-suffixed staging file and an atomic rename so concurrent processes
    never load a half-written library.
    """
    library = artifact_path(name, source)
    directory = library.parent
    stem = library.stem
    if not (
        library.exists()
        and _is_private_to_us(directory)
        and _is_private_to_us(library)
    ):
        compiler = find_compiler()
        if compiler is None:
            return None
        directory.mkdir(parents=True, exist_ok=True, mode=0o700)
        if not _is_private_to_us(directory):
            return None
        source_path = directory / f"{stem}.c"
        source_path.write_text(source)
        staging = directory / f"{stem}-{os.getpid()}.so.tmp"
        output = ["-o", str(staging), str(source_path)]
        native = [compiler, *COMPILE_FLAGS, *output]
        base = [compiler, *(f for f in COMPILE_FLAGS if f != "-march=native"), *output]
        try:
            subprocess.run(native, capture_output=True, check=True)
        except subprocess.CalledProcessError:
            try:
                # Retry without -march=native for compilers/targets that
                # reject it; the blocked layouts are the main win anyway.
                subprocess.run(base, capture_output=True, check=True)
            except (OSError, subprocess.CalledProcessError):
                return None
        except OSError:
            return None
        os.replace(staging, library)
    try:
        return ctypes.CDLL(str(library))
    except OSError:
        return None


class KernelModule:
    """One compiled kernel family: lazy build + load + signature setup.

    Args:
        name: Artifact file prefix (e.g. ``"fastknn"``).
        source: Complete C source; its hash keys the cached ``.so``.
        configure: Called once with the loaded library to set ``argtypes``
            / ``restype`` on its functions.
    """

    def __init__(
        self,
        name: str,
        source: str,
        configure: Callable[[ctypes.CDLL], None],
    ) -> None:
        self.name = name
        self.source = source
        self._configure = configure
        self._lib: ctypes.CDLL | None = None
        self._load_attempted = False

    def load(self) -> ctypes.CDLL | None:
        """The configured library, or ``None`` when unavailable/disabled.

        The build attempt happens once per process; the disable env var is
        re-read on every call so tests can flip it dynamically.
        """
        if kernels_disabled():
            return None
        if not self._load_attempted:
            self._load_attempted = True
            lib = build_library(self.name, self.source)
            if lib is not None:
                self._configure(lib)
            self._lib = lib
        return self._lib

    def available(self) -> bool:
        """Whether the compiled kernel can be used in this process."""
        return self.load() is not None
