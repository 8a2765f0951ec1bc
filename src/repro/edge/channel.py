"""Simulated network link between edge and cloud.

Models the communication cost the paper's §3.4 trade-off analysis reasons
about: transfer time = latency + bytes/bandwidth, with optional random drops
(retried up to a bound).  By default wall-clock time is *simulated*, not
slept, so the whole deployment story runs instantly in tests and
benchmarks; ``realtime=True`` additionally sleeps the transfer time, which
is what lets a multi-worker :class:`~repro.serve.ControlPlane` demonstrate
real overlap of wire waits (the dominant serving latency) across concurrent micro-batches.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ChannelError, ChannelOwnershipError, ConfigurationError


@dataclass
class ChannelStats:
    """Accumulated traffic statistics."""

    messages: int = 0
    bytes_sent: int = 0
    simulated_seconds: float = 0.0
    drops: int = 0


class Channel:
    """A lossy, bandwidth-limited, fixed-latency link.

    Args:
        bandwidth_mbps: Payload bandwidth in megabits per second.
        latency_ms: One-way latency per message in milliseconds.
        drop_rate: Probability a transmission attempt is lost.
        max_retries: Attempts before giving up with :class:`ChannelError`.
        rng: Randomness for drops.
        realtime: Sleep the simulated transfer time on every transmission
            (in addition to accounting it), emulating a real link so that
            concurrent serving workers genuinely overlap wire waits.
    """

    def __init__(
        self,
        bandwidth_mbps: float = 100.0,
        latency_ms: float = 10.0,
        drop_rate: float = 0.0,
        max_retries: int = 3,
        rng: np.random.Generator | None = None,
        realtime: bool = False,
    ) -> None:
        if bandwidth_mbps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if latency_ms < 0:
            raise ConfigurationError("latency must be non-negative")
        if not 0.0 <= drop_rate < 1.0:
            raise ConfigurationError("drop rate must be in [0, 1)")
        self.bandwidth_mbps = bandwidth_mbps
        self.latency_ms = latency_ms
        self.drop_rate = drop_rate
        self.max_retries = max_retries
        self.realtime = realtime
        self._rng = rng or np.random.default_rng()
        self.stats = ChannelStats()
        # Stats accumulation and the drop generator are not thread-safe;
        # concurrent use is a sharing bug (each worker must hold its own
        # clone), surfaced as a typed error instead of corrupt accounting.
        self._busy = threading.Lock()

    def clone(self, rng: np.random.Generator | None = None) -> "Channel":
        """A channel with the same link parameters but fresh statistics.

        A :class:`~repro.serve.ControlPlane` gives every cloud worker its
        own clone: :class:`ChannelStats` accumulation is not thread-safe,
        and separate stats per worker are exactly what per-worker occupancy
        reporting wants anyway.

        Raises:
            ChannelOwnershipError: When the channel is mid-transmission on
                another thread (cloning would race the drop generator).
        """
        if not self._busy.acquire(blocking=False):
            raise ChannelOwnershipError(
                "cannot clone a channel while another thread is "
                "transmitting on it; clone from the owning thread (e.g. at "
                "deployment registration) instead"
            )
        try:
            return Channel(
                bandwidth_mbps=self.bandwidth_mbps,
                latency_ms=self.latency_ms,
                drop_rate=self.drop_rate,
                max_retries=self.max_retries,
                rng=rng or np.random.default_rng(self._rng.integers(0, 2**63)),
                realtime=self.realtime,
            )
        finally:
            self._busy.release()

    def transfer_seconds(self, n_bytes: int) -> float:
        """Simulated seconds to move ``n_bytes`` across the link once."""
        payload = (n_bytes * 8) / (self.bandwidth_mbps * 1e6)
        return self.latency_ms / 1e3 + payload

    def transmit(self, blob: bytes) -> bytes:
        """Deliver a message, simulating time and possible retries.

        Returns the delivered bytes (identity — the channel is transparent
        apart from cost and drops).

        Raises:
            ChannelError: When every retry is dropped.
            ChannelOwnershipError: When another thread is already
                transmitting on this channel (share a clone per worker,
                never the channel itself).
        """
        if not self._busy.acquire(blocking=False):
            raise ChannelOwnershipError(
                "channel used from two threads at once; every concurrent "
                "worker must transmit over its own clone()"
            )
        try:
            attempts = 0
            while True:
                attempts += 1
                elapsed = self.transfer_seconds(len(blob))
                self.stats.simulated_seconds += elapsed
                if self.realtime:
                    time.sleep(elapsed)
                if self.drop_rate and self._rng.random() < self.drop_rate:
                    self.stats.drops += 1
                    if attempts > self.max_retries:
                        raise ChannelError(
                            f"message lost after {attempts} attempts "
                            f"(drop rate {self.drop_rate})"
                        )
                    continue
                self.stats.messages += 1
                self.stats.bytes_sent += len(blob)
                return blob
        finally:
            self._busy.release()
