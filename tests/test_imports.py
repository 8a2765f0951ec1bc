"""Importing the system loads neither scipy nor asyncio.

No serving path calls them, and every shard process, healing respawn and
``repro`` command pays for what the package imports: scipy loads where an
image is rendered or a kNN estimator runs, asyncio where the asyncio
facade is used.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_public_packages_load_no_scipy_or_asyncio():
    code = (
        "import sys\n"
        "import repro, repro.serve, repro.edge, repro.core, repro.privacy, repro.eval\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'asyncio')))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert child.stdout.strip() == "[]"
