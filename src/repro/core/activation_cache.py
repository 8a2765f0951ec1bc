"""Process-wide cache of materialised cut-point activations.

Every :class:`~repro.core.trainer.NoiseTrainer` (and several eval paths)
starts by pushing an entire dataset through the frozen local half of the
split network, on the edge device's executor
(:meth:`~repro.core.split.SplitInferenceModel.materialize_activations`).
Benchmarks and sweeps construct many pipelines over the same
``(model, cut, dataset)`` triple — λ sweeps, layerwise panels, repeated
collection training — and each used to recompute the identical
activations from scratch.  This module memoises them.

Entries are keyed on the identity of the frozen model and dataset plus the
cut name, batch size and a fingerprint of the model's parameters and
buffers.  A changed fingerprint recomputes, and the executor that
recomputes lowers BatchNorm with the current statistics, because the IR's
lowering cache keys them by content.  Each entry keeps strong references
to the model and dataset it was computed from, which both pins the
arrays' provenance and guarantees the ``id()``-based key can never be
recycled while the entry lives.  The cache is bounded LRU; the arrays it
returns are shared, so callers must treat them as read-only (every
current consumer does — training and eval code index or add, never
mutate in place).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.split import SplitInferenceModel
    from repro.nn import Dataset


@dataclass
class _CacheEntry:
    model: object
    dataset: object
    activations: np.ndarray
    labels: np.ndarray


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}


class ActivationCache:
    """Bounded LRU cache of ``materialize_activations`` results.

    Args:
        max_entries: Entries kept before least-recently-used eviction.
            Activation tensors can be large at paper scale, so the default
            is deliberately small; one entry per (model, cut, split) pair
            in flight is enough for every current workload.
        max_bytes: Total activation-array budget; least-recently-used
            entries are evicted past it (the most recent entry is always
            kept so a single oversized materialisation still caches).
    """

    def __init__(self, max_entries: int = 8, max_bytes: int = 512 * 1024 * 1024) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be positive, got {max_entries}"
            )
        if max_bytes < 1:
            raise ConfigurationError(f"max_bytes must be positive, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple, _CacheEntry] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(
        split: "SplitInferenceModel", dataset: "Dataset", batch_size: int
    ) -> tuple:
        # The state fingerprint guards against in-place mutation of a
        # cached model (load_state_dict, continued training — including
        # BatchNorm running statistics, which live in buffers rather than
        # parameters): any change alters the sums with overwhelming
        # probability, turning the stale entry into a harmless miss.
        fingerprint = tuple(
            float(p.data.sum(dtype=np.float64)) for p in split.model.parameters()
        ) + tuple(
            float(np.asarray(buffer).sum(dtype=np.float64))
            for _, buffer in split.model.named_buffers()
        )
        return (id(split.model), split.cut, id(dataset), batch_size, fingerprint)

    def get_or_compute(
        self,
        split: "SplitInferenceModel",
        dataset: "Dataset",
        batch_size: int = 128,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Activations and labels for ``dataset`` at ``split``'s cut.

        Computes through :meth:`SplitInferenceModel.materialize_activations`
        on a miss; returns the shared cached arrays on a hit.  Treat the
        result as read-only.
        """
        key = self._key(split, dataset, batch_size)
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return entry.activations, entry.labels
        self.stats.misses += 1
        activations, labels = split.materialize_activations(
            dataset, batch_size=batch_size
        )
        self._entries[key] = _CacheEntry(
            model=split.model,
            dataset=dataset,
            activations=activations,
            labels=labels,
        )
        while len(self._entries) > self.max_entries or (
            len(self._entries) > 1 and self.total_bytes() > self.max_bytes
        ):
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return activations, labels

    def total_bytes(self) -> int:
        """Bytes held by cached activation and label arrays."""
        return sum(
            entry.activations.nbytes + entry.labels.nbytes
            for entry in self._entries.values()
        )

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()


_GLOBAL_CACHE = ActivationCache()


def get_activation_cache() -> ActivationCache:
    """The process-wide cache used by trainers and eval helpers."""
    return _GLOBAL_CACHE


def clear_activation_cache() -> None:
    """Reset the process-wide cache (tests, memory pressure)."""
    _GLOBAL_CACHE.clear()


def materialize_activations_cached(
    split: "SplitInferenceModel", dataset: "Dataset", batch_size: int = 128
) -> tuple[np.ndarray, np.ndarray]:
    """Cached drop-in for ``split.materialize_activations(dataset)``."""
    return _GLOBAL_CACHE.get_or_compute(split, dataset, batch_size=batch_size)
