"""Request queue for the serving runtime.

Incoming requests (each a small image batch from one user) are appended to
a FIFO :class:`RequestQueue`; the batcher
(:class:`~repro.serve.scheduler.AdaptiveBatcher`) drains a FIFO prefix of
up to ``batch_window`` pending requests at a time, which the control plane
then pushes through one stacked edge/cloud round trip.  FIFO draining
preserves arrival order, which is what makes the batched plane consume the
shared noise generator exactly as the sequential reference path would —
the foundation of the bit-for-bit parity guarantee.

Requests optionally carry a latency SLO (a deadline relative to
submission) and a session id; the batcher closes windows on deadline
slack, and the control plane (:mod:`repro.serve.controlplane`) preserves
response ordering *within* a session.  The queue takes an injectable
clock so the whole scheduling stack can be driven deterministically in
virtual time (:mod:`repro.serve.replay`) as well as against the wall
clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections import deque
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class InferenceRequest:
    """One pending request.

    Attributes:
        request_id: Session-unique, monotonically increasing id.
        images: ``(n, C, H, W)`` image batch (single images are stored with
            the batch dimension restored).
        submitted_at: Submission time on the queue's clock (for latency
            accounting and deadline math).
        slo_seconds: Optional latency SLO; the request's deadline is
            ``submitted_at + slo_seconds``.
        session_id: Optional user-session key; the control plane releases
            results of one session in submission order.
    """

    request_id: int
    images: np.ndarray
    submitted_at: float = field(default_factory=time.perf_counter)
    slo_seconds: float | None = None
    session_id: Hashable | None = None

    @property
    def rows(self) -> int:
        """Samples this request contributes to a micro-batch."""
        return len(self.images)

    @property
    def deadline(self) -> float | None:
        """Absolute deadline on the queue's clock (``None`` without SLO)."""
        if self.slo_seconds is None:
            return None
        return self.submitted_at + self.slo_seconds

    @property
    def ordering_key(self) -> Hashable:
        """Delivery-ordering domain of this request.

        Requests sharing a key are released in submission order; a
        sessionless request orders only against itself.  The live engine
        and the virtual-time simulator must gate on the *same* key, which
        is why it lives here.
        """
        if self.session_id is None:
            return ("solo", self.request_id)
        return ("session", self.session_id)


def request_images(
    images: np.ndarray,
    slo_seconds: float | None,
    image_shape: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Validate one request and return its images as ``(n, C, H, W)``.

    A 3-D ``(C, H, W)`` array is one image.  ``image_shape`` (a tuple)
    additionally pins the per-image shape a deployment's model accepts.

    Raises:
        ConfigurationError: Wrong rank or shape, no images, or a
            non-positive SLO.
    """
    images = np.asarray(images)
    if images.ndim == 3:
        images = images[None]
    if images.ndim != 4 or (
        image_shape is not None and images.shape[1:] != image_shape
    ):
        shape = (
            "C, H, W" if image_shape is None
            else ", ".join(str(size) for size in image_shape)
        )
        raise ConfigurationError(
            f"requests must be ({shape}) or (n, {shape}) images, "
            f"got shape {images.shape}"
        )
    if len(images) == 0:
        raise ConfigurationError("cannot submit an empty request")
    if slo_seconds is not None and slo_seconds <= 0:
        raise ConfigurationError(
            f"a latency SLO must be positive, got {slo_seconds}"
        )
    return images


def stream_requests(
    stream: Iterable[np.ndarray],
    slo_seconds: float | Sequence[float | None] | None = None,
    session_ids: Sequence[Hashable] | None = None,
) -> list[tuple[np.ndarray, float | None, Hashable | None]]:
    """Pair every request of a stream with its SLO and session id.

    ``slo_seconds`` is one SLO for every request (a scalar or ``None``)
    or one per request (``None`` entries = no SLO); ``session_ids`` is
    ``None`` or one key per request.

    Raises:
        ConfigurationError: A per-request sequence whose length is not
            the stream's.
    """
    stream = list(stream)
    if slo_seconds is None or np.isscalar(slo_seconds):
        slos = [slo_seconds] * len(stream)
    else:
        slos = list(slo_seconds)
    sessions = [None] * len(stream) if session_ids is None else list(session_ids)
    for what, values in (("SLOs", slos), ("session ids", sessions)):
        if len(values) != len(stream):
            raise ConfigurationError(
                f"{len(values)} {what} for {len(stream)} requests"
            )
    return list(zip(stream, slos, sessions))


class RequestQueue:
    """FIFO queue assigning request ids at submission.

    Args:
        clock: Time source stamped onto requests; defaults to the wall
            clock, replaced with a virtual clock in scheduling simulations.
        image_shape: Per-image ``(C, H, W)`` shape every request must
            have (``None`` checks only the rank); a public attribute, so
            a deployment's hot swap can move it to the new model.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        image_shape: tuple[int, ...] | None = None,
    ) -> None:
        self._pending: deque[InferenceRequest] = deque()
        self._next_id = 0
        self._clock = clock or time.perf_counter
        self.image_shape = None if image_shape is None else tuple(image_shape)

    def check(
        self, images: np.ndarray, slo_seconds: float | None = None
    ) -> np.ndarray:
        """Validate one request (:func:`request_images` at this queue's
        image shape) without enqueueing it."""
        return request_images(images, slo_seconds, self.image_shape)

    def submit(
        self,
        images: np.ndarray,
        *,
        slo_seconds: float | None = None,
        session_id: Hashable | None = None,
    ) -> int:
        """Validate and enqueue one request; returns its id.

        A 3-D ``(C, H, W)`` array is treated as a single image.
        """
        return self.enqueue(
            self.check(images, slo_seconds), slo_seconds, session_id
        )

    def enqueue(
        self,
        images: np.ndarray,
        slo_seconds: float | None = None,
        session_id: Hashable | None = None,
    ) -> int:
        """Enqueue ``(n, C, H, W)`` images that :meth:`check` accepted;
        returns the request id."""
        request = InferenceRequest(
            request_id=self._next_id,
            images=images,
            submitted_at=self._clock(),
            slo_seconds=slo_seconds,
            session_id=session_id,
        )
        self._next_id += 1
        self._pending.append(request)
        return request.request_id

    @property
    def submitted(self) -> int:
        """Total requests ever submitted (the autoscaler's arrival counter)."""
        return self._next_id

    def peek(self) -> InferenceRequest | None:
        """The head request without dequeuing (``None`` when empty)."""
        return self._pending[0] if self._pending else None

    def pop_window(self, max_requests: int) -> list[InferenceRequest]:
        """Dequeue up to ``max_requests`` requests in arrival order."""
        if max_requests < 1:
            raise ConfigurationError(
                f"window must be >= 1 request, got {max_requests}"
            )
        window: list[InferenceRequest] = []
        while self._pending and len(window) < max_requests:
            window.append(self._pending.popleft())
        return window

    def __iter__(self) -> Iterator[InferenceRequest]:
        """Pending requests in arrival order (for deadline scans)."""
        return iter(self._pending)

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)
