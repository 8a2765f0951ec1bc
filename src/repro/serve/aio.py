"""Asyncio facade over the serving control plane.

The serving stack is deliberately thread-based (the dispatcher owns the
noise stream; cloud workers are a thread pool), but a modern serving
front door wants ``async``: many concurrent logical callers multiplexed
onto one event loop, each just ``await``-ing its result.
:class:`AsyncServingClient` bridges the two worlds without touching the
plane's concurrency story:

* a single background **dispatcher thread** owns every interaction with
  the wrapped :class:`~repro.serve.controlplane.ControlPlane` (submission,
  pumping, result collection) — so the plane's single-owner noise stream
  and single-threaded dispatch invariants hold exactly as they do under
  synchronous use;
* ``await client.submit(images, ...)`` enqueues the request through a
  thread-safe inbox and suspends on an :class:`asyncio.Future` that the
  dispatcher resolves via ``loop.call_soon_threadsafe`` when the plane
  delivers;
* **backpressure** is a bounded in-flight budget: at most ``max_pending``
  requests may be admitted-but-unfinished, enforced with an
  :class:`asyncio.Semaphore` — the ``(max_pending + 1)``-th ``submit``
  suspends until a result frees a slot, so a slow plane propagates
  pressure to producers instead of buffering without bound;
* a **cancelled** caller releases its backpressure slot immediately and
  its result is dropped on delivery (the future's ``done()`` state is
  checked before resolution) — cancellation never wedges the dispatcher
  or other callers.

The facade must be the plane's first (and only) driver: the dispatcher
thread becomes the owner of each deployment's noise stream on first
dispatch.  Wrap a freshly built plane, or ``release()`` its
streams first.

Two elastic-lifecycle bridges ride on the same dispatcher thread:

* **typed overload rejections** — when a deployment's admission gate
  refuses a submission, only *that* caller's ``await`` raises the
  :class:`~repro.errors.AdmissionError` /
  :class:`~repro.errors.OverloadError` (429-style); every other caller
  is untouched;
* **control ops** — :meth:`AsyncServingClient.control` runs an arbitrary
  plane operation (:meth:`~repro.serve.controlplane.ControlPlane.swap`,
  :meth:`~repro.serve.controlplane.ControlPlane.unregister`,
  :meth:`~repro.serve.controlplane.ControlPlane.scale_to`, ...) on the
  dispatcher thread — the only thread allowed to touch the plane — and
  returns its result to the awaiting caller.  After each op the client
  sweeps its outstanding requests: results delivered during a drain
  barrier resolve immediately, and requests whose deployment was
  unregistered fail with a typed error instead of hanging.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from queue import Empty, SimpleQueue
from typing import Callable, Hashable

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.controlplane import ControlPlane, RequestHandle


@dataclass
class _Submission:
    """One caller's request travelling from the event loop to the plane."""

    images: np.ndarray
    deployment: str | None
    slo_seconds: float | None
    session_id: Hashable | None
    future: asyncio.Future
    loop: asyncio.AbstractEventLoop


@dataclass
class _ControlOp:
    """One lifecycle operation bound for the dispatcher thread."""

    fn: Callable[[ControlPlane], object]
    future: asyncio.Future
    loop: asyncio.AbstractEventLoop


class AsyncServingClient:
    """``async submit()/await`` front-end over a serving control plane.

    Args:
        plane: The control plane to serve through (one or many
            deployments; with one, submissions may omit its name).
            The client drives it but does not own it: :meth:`close` stops
            the dispatcher thread and leaves the plane open unless
            ``close_plane=True``.
        max_pending: Bounded-queue backpressure: maximum requests admitted
            and not yet completed before ``submit`` suspends.
        poll_interval: Dispatcher idle sleep between pump turns (seconds);
            bounds added latency when the plane is quiet.

    One client binds to one event loop (the loop of its first ``submit``).

    Failure semantics: a worker error surfacing from the plane fails
    *every* outstanding ``await`` with that exception (the plane cannot
    attribute in-flight losses to callers), after which the client keeps
    accepting new submissions — matching the plane's own
    keep-serving-after-failure contract.
    """

    def __init__(
        self,
        plane: ControlPlane,
        *,
        max_pending: int = 64,
        poll_interval: float = 0.0005,
    ) -> None:
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if poll_interval < 0:
            raise ConfigurationError(
                f"poll_interval must be >= 0, got {poll_interval}"
            )
        self._plane = plane
        self.max_pending = max_pending
        self._poll_interval = poll_interval
        self._inbox: SimpleQueue[_Submission] = SimpleQueue()
        self._controls: SimpleQueue[_ControlOp] = SimpleQueue()
        self._stop = threading.Event()
        self._closed = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._semaphore: asyncio.Semaphore | None = None
        #: Requests admitted and not yet resolved (loop-thread view).
        self.pending = 0
        #: High-water mark of :attr:`pending` — lets tests assert the
        #: backpressure bound actually engaged.
        self.peak_pending = 0
        self._thread = threading.Thread(
            target=self._run, name="shredder-async-dispatcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Event-loop side
    # ------------------------------------------------------------------
    def _bind_loop(self) -> asyncio.Semaphore:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._semaphore = asyncio.Semaphore(self.max_pending)
        elif self._loop is not loop:
            raise ConfigurationError(
                "AsyncServingClient is bound to the event loop of its "
                "first submit; create one client per loop"
            )
        return self._semaphore

    async def submit(
        self,
        images: np.ndarray,
        *,
        deployment: str | None = None,
        slo_seconds: float | None = None,
        session_id: Hashable | None = None,
    ) -> np.ndarray:
        """Serve one request; returns its logits.

        Suspends while the in-flight budget (``max_pending``) is
        exhausted, then until the plane delivers the result.  Cancelling
        the awaiting task releases its budget slot immediately; the
        already-submitted request still executes (its result is dropped).
        """
        if self._closed:
            raise ConfigurationError("async serving client is closed")
        semaphore = self._bind_loop()
        await semaphore.acquire()
        if self._closed:
            # close() ran while this caller was suspended on backpressure;
            # the dispatcher is gone, so enqueueing would hang forever.
            semaphore.release()
            raise ConfigurationError("async serving client is closed")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self.pending += 1
        self.peak_pending = max(self.peak_pending, self.pending)
        self._inbox.put(
            _Submission(
                images=images,
                deployment=deployment,
                slo_seconds=slo_seconds,
                session_id=session_id,
                future=future,
                loop=loop,
            )
        )
        try:
            return await future
        finally:
            self.pending -= 1
            semaphore.release()

    async def classify(self, images: np.ndarray, **kwargs) -> np.ndarray:
        """Predicted labels for one request."""
        logits = await self.submit(images, **kwargs)
        return logits.argmax(axis=1)

    async def control(self, fn: Callable[[ControlPlane], object]) -> object:
        """Run one lifecycle operation on the dispatcher thread.

        ``fn(plane)`` executes between serving turns on the only thread
        allowed to touch the plane, so drain barriers, swaps, pool
        resizes, and metric reads never race the dispatcher.  Returns
        ``fn``'s result (or raises its exception) to this caller only.

        Control ops bypass the submission backpressure budget — an
        operator must be able to shed/resize even when the plane is
        saturated.
        """
        if self._closed:
            raise ConfigurationError("async serving client is closed")
        self._bind_loop()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._controls.put(_ControlOp(fn=fn, future=future, loop=loop))
        return await future

    async def swap(self, name: str, **kwargs) -> list[RequestHandle]:
        """Hot-swap a deployment under live traffic (see
        :meth:`~repro.serve.controlplane.ControlPlane.swap`)."""
        return await self.control(lambda plane: plane.swap(name, **kwargs))

    async def unregister(self, name: str, **kwargs) -> dict[int, np.ndarray]:
        """Remove a deployment under live traffic (see
        :meth:`~repro.serve.controlplane.ControlPlane.unregister`).

        Outstanding ``await``\\ s on the removed deployment resolve if
        their result was delivered by the drain barrier and fail with a
        typed :class:`~repro.errors.ConfigurationError` otherwise —
        never a hang.
        """
        return await self.control(lambda plane: plane.unregister(name, **kwargs))

    # ------------------------------------------------------------------
    # Dispatcher thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        pending: dict[RequestHandle, _Submission] = {}
        while True:
            progressed = self._admit(pending)
            progressed = self._apply_controls(pending) or progressed
            # The whole serving turn sits under one guard: an exception
            # anywhere (worker failure, fault exhaustion, a handle
            # collected behind our back) must fail the waiting callers,
            # never silently kill this thread and wedge them.
            try:
                for handle in self._plane.pump(flush=self._stop.is_set()):
                    logits = self._plane.result(handle)
                    submission = pending.pop(handle, None)
                    if submission is not None:
                        self._resolve(submission, logits)
                    progressed = True
            except BaseException as exc:
                # Salvage what already completed (results delivered in the
                # same turn, or by an earlier batch, stay collectable);
                # everything else fails with the serving error.
                for handle, submission in list(pending.items()):
                    try:
                        logits = self._plane.result(handle)
                    except BaseException:
                        self._reject(submission, exc)
                    else:
                        self._resolve(submission, logits)
                pending.clear()
            if (
                self._stop.is_set()
                and not pending
                and self._inbox.empty()
                and self._controls.empty()
                and not self._plane.pending
                and not self._plane.in_flight
            ):
                return
            if not progressed:
                time.sleep(self._poll_interval)

    def _admit(self, pending: dict[RequestHandle, _Submission]) -> bool:
        """Move inbox submissions onto the plane (dispatcher thread)."""
        progressed = False
        while True:
            try:
                submission = self._inbox.get_nowait()
            except Empty:
                return progressed
            try:
                handle = self._plane.submit(
                    submission.images,
                    deployment=submission.deployment,
                    slo_seconds=submission.slo_seconds,
                    session_id=submission.session_id,
                )
            except BaseException as exc:  # bad request: fail only its caller
                self._reject(submission, exc)
                continue
            pending[handle] = submission
            progressed = True

    def _apply_controls(
        self, pending: dict[RequestHandle, _Submission]
    ) -> bool:
        """Run queued lifecycle ops on the plane (dispatcher thread)."""
        progressed = False
        while True:
            try:
                op = self._controls.get_nowait()
            except Empty:
                return progressed
            progressed = True
            outcome = None
            try:
                outcome = op.fn(self._plane)
            except BaseException as exc:  # op failed: fail only its caller
                self._reject(op, exc)
            else:
                self._resolve(op, outcome)
            self._sweep(
                pending, outcome if isinstance(outcome, dict) else None
            )

    def _sweep(
        self,
        pending: dict[RequestHandle, _Submission],
        leftovers: dict | None = None,
    ) -> None:
        """Settle outstanding callers a lifecycle op just affected: drain
        barriers deliver results early; unregister removes the tenant, in
        which case drained results survive in the op's ``leftovers`` dict
        and still resolve their callers — anything else fails typed, so
        no ``await`` ever hangs on a removed deployment."""
        for handle, submission in list(pending.items()):
            if handle.deployment not in self._plane.registry:
                del pending[handle]
                result = (
                    None if leftovers is None
                    else leftovers.get(handle.request_id)
                )
                if result is not None:
                    self._resolve(submission, result)
                else:
                    self._reject(
                        submission,
                        ConfigurationError(
                            f"deployment {handle.deployment!r} was "
                            f"unregistered while request "
                            f"{handle.request_id} was outstanding"
                        ),
                    )
            elif self._plane.has_result(handle):
                del pending[handle]
                self._resolve(submission, self._plane.result(handle))

    @staticmethod
    def _resolve(submission: _Submission, logits: np.ndarray) -> None:
        def deliver() -> None:
            if not submission.future.done():  # cancelled callers: drop
                submission.future.set_result(logits)

        try:
            submission.loop.call_soon_threadsafe(deliver)
        except RuntimeError:  # loop already closed; nobody is listening
            pass

    @staticmethod
    def _reject(submission: _Submission, exc: BaseException) -> None:
        def deliver() -> None:
            if not submission.future.done():
                submission.future.set_exception(exc)

        try:
            submission.loop.call_soon_threadsafe(deliver)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, *, close_plane: bool = False, timeout: float = 30.0) -> None:
        """Stop the dispatcher (drains outstanding work first).

        Thread-join runs under ``try/finally`` with the optional plane
        shutdown, so neither step can leak the other's resources on an
        exception path.  Safe to call from any thread except the
        dispatcher itself; idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        try:
            self._thread.join(timeout)
        finally:
            if close_plane:
                self._plane.close()

    async def aclose(self, *, close_plane: bool = False) -> None:
        """Async :meth:`close` (joins the dispatcher off the event loop)."""
        await asyncio.to_thread(self.close, close_plane=close_plane)

    async def __aenter__(self) -> "AsyncServingClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()
