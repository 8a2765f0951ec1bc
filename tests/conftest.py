"""Shared pytest fixtures for the Shredder reproduction test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

# Tests always run at tiny scale and cache into a throwaway directory so
# they never pollute (or depend on) a user's experiment cache.
os.environ.setdefault("REPRO_SCALE", "tiny")

#: Any non-empty value makes every property test draw a fixed example
#: sequence instead of fresh examples each run (CI sets it).  Per-test
#: ``@settings(...)`` inherit it from the loaded profile.
HYPOTHESIS_DERANDOMIZE_ENV_VAR = "REPRO_HYPOTHESIS_DERANDOMIZE"
settings.register_profile(
    "repro", derandomize=bool(os.environ.get(HYPOTHESIS_DERANDOMIZE_ENV_VAR))
)
settings.load_profile("repro")


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic per-test RNG."""
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Point the pretrained-model cache at a per-test temp directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    yield


@pytest.fixture(scope="session")
def session_cache_dir(tmp_path_factory):
    """A cache shared across one test session, for expensive fixtures."""
    return tmp_path_factory.mktemp("session_cache")


@pytest.fixture(scope="session")
def lenet_bundle():
    """A pre-trained tiny LeNet shared by the whole test session.

    Training takes ~1 s at tiny scale; sharing it avoids re-training in
    every test that needs a realistic frozen backbone.
    """
    from repro.config import TINY, Config
    from repro.models import get_pretrained

    return get_pretrained("lenet", Config(scale=TINY))
