"""Process-sharded serving: N subprocess shards, each a full control plane.

Every earlier serving layer ran in **one interpreter**: the C kernels
release the GIL, but the dispatcher's edge half, noise draws, queueing,
and framing are serialized, so N worker threads never bought N× compute.
This module shards the plane across worker *processes*: the parent
spawns N shard subprocesses, each owning a complete one-deployment
:class:`~repro.serve.controlplane.ControlPlane` (executors, noise
stream, metrics), and routes every request by **deterministic session
hashing** (:func:`route_session` — a stable CRC32, never Python's salted
``hash()``).  Activations and logits cross real sockets as the existing
SHRB/SHRD frames inside the length-prefixed transport
(:mod:`repro.serve.transport`).

**Parity strategy (ROADMAP item 3).**  One global noise stream cannot
span processes, so each shard owns its own stream, seeded from
``(base_seed, shard_index)`` via :func:`shard_seed`.  Routing is
deterministic and a session never spans shards, so every shard is
bit-identical to its *own* sequential
:class:`~repro.edge.InferenceSession` reference run over exactly the
subsequence of requests routed to it — the property
``tests/serve/test_sharded_parity.py`` pins for 1/2/4 shards.

**Healing (the PR 6 contract across process boundaries).**  The parent
keeps a per-shard log of every admitted request.  When a shard dies
(:class:`~repro.errors.ShardCrashError` from its socket), the parent
respawns it pre-warmed and replays the **entire** log in original
admission order: replay reproduces the shard's noise draws bit-exactly,
results already delivered to the caller are discarded on re-arrival, and
the remainder completes exactly once, in per-session order.  Admitted
work is never silently dropped.

**Spawn safety.**  A shard subprocess is bootstrapped from a
:class:`ShardSpec` of *plain data only* — model name + state-dict
arrays, cut name, noise member tensors, seeds, and channel parameters.
No live :class:`~repro.edge.Channel`, executor, socket, or thread ever
crosses the process boundary, which is what makes the ``spawn`` start
method (no inherited address space) work identically to ``fork``.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import select
import socket
import struct
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.edge.protocol import (
    BatchActivationMessage,
    BatchPredictionMessage,
    decode_activation_batch,
    decode_prediction_batch,
    encode_activation_batch,
    encode_prediction_batch,
)
from repro.errors import ConfigurationError, ShardCrashError
from repro.serve.controlplane import DeploymentSpec, RequestHandle
from repro.serve.metrics import ServingMetrics
from repro.serve.queue import request_images, stream_requests
from repro.serve.transport import SocketTransport

# ----------------------------------------------------------------------
# Message kinds (first byte of every transport frame)
# ----------------------------------------------------------------------
_MSG_HELLO = 0  # child -> parent: {"shard", "token", "input_shape"} — plane is warm
_MSG_SUBMIT = 1  # parent -> child: header + SHRB activation frame
_MSG_RESULT = 2  # child -> parent: SHRD prediction frame
_MSG_DRAIN = 3  # parent -> child: flush everything
_MSG_DRAINED = 4  # child -> parent: queue and flights are empty
_MSG_METRICS = 5  # parent -> child: send raw metrics
_MSG_METRICS_REPLY = 6  # child -> parent: ServingMetrics.to_payload() JSON
_MSG_SHUTDOWN = 7  # parent -> child: close and exit

_HEADER_LEN = struct.Struct("<I")


def _pack(kind: int, *parts: bytes) -> bytes:
    return bytes([kind]) + b"".join(parts)


def _pack_json(kind: int, payload: dict) -> bytes:
    return _pack(kind, json.dumps(payload).encode("utf-8"))


def _unpack_json(body: bytes) -> dict:
    return json.loads(body.decode("utf-8"))


# ----------------------------------------------------------------------
# Deterministic routing and seeding
# ----------------------------------------------------------------------
def route_session(session_id: Hashable, n_shards: int) -> int:
    """The shard owning ``session_id`` — stable across processes and runs.

    Python's built-in ``hash()`` is salted per process, which would make
    routing (and therefore every shard's noise stream) irreproducible;
    this uses CRC32 of the id's string form instead.

    **Canonicalisation contract** (pinned by
    ``tests/serve/test_sharded_parity.py``): the id is canonicalised
    through ``str()`` before hashing, i.e. the route is
    ``zlib.crc32(str(session_id).encode("utf-8")) % n_shards``.  Two ids
    with equal string forms — ``1`` and ``"1"`` — therefore route to the
    same shard *by design*: the sharded wire header already serialises
    session ids as strings (see ``_send_batch``), so a shard cannot
    distinguish them anyway, and hashing the pre-``str()`` value would
    let the parent and a replaying/healed shard disagree about session
    identity.  Callers who need distinct sessions must use ids with
    distinct string forms.
    """
    if n_shards < 1:
        raise ConfigurationError(f"need >= 1 shard, got {n_shards}")
    return zlib.crc32(str(session_id).encode("utf-8")) % n_shards


def shard_seed(base_seed: int, shard_index: int) -> int:
    """The noise seed of shard ``shard_index`` (and of its sequential
    reference session) — a stable function of the plane's base seed."""
    return int(
        np.random.SeedSequence([int(base_seed), int(shard_index)]).generate_state(1)[0]
    )


# ----------------------------------------------------------------------
# Spawn-safe shard bootstrap
# ----------------------------------------------------------------------
@dataclass
class ShardSpec:
    """Plain-data recipe a shard subprocess rebuilds its plane from.

    Every field is arrays, strings, numbers or a plain-data
    :class:`~repro.serve.controlplane.DeploymentSpec` (its fields a shard
    cannot honour are refused) — never a live model, channel, executor,
    noise stream or socket — so the spec pickles identically under
    ``fork`` and ``spawn``.  Build one with :meth:`capture`.
    """

    model_name: str
    width: float
    model_state: dict[str, np.ndarray]
    cut: str
    noise_tensors: np.ndarray | None  # (members, *activation_shape)
    deployment: DeploymentSpec = field(default_factory=DeploymentSpec)
    base_seed: int = 7
    workers: int = 1
    kernel_backend: str = "auto"
    channel: dict = field(default_factory=dict)  # Channel(**channel) kwargs

    def __post_init__(self) -> None:
        if self.channel and not isinstance(self.channel, dict):
            raise ConfigurationError(
                "ShardSpec.channel must be plain data, a dict of Channel "
                f"kwargs (got {type(self.channel).__name__})"
            )
        if self.workers < 1:
            raise ConfigurationError(f"need >= 1 worker, got {self.workers}")
        self.refuse_unserved(self.deployment)

    @staticmethod
    def refuse_unserved(spec: DeploymentSpec) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` naming a field
        of ``spec`` that no shard process can honour."""
        spec.refuse(
            ("model", "cut", "noise", "rng", "channel", "quantize_bits"),
            "cannot reach a shard process: capture takes the model and cut "
            "(and stores the noise as tensors), a calibrated quantization "
            "and channel kwargs, and each shard seeds its noise from "
            "base_seed",
        )
        spec.refuse(
            ("max_pending", "admission_rate_rps", "admission_burst",
             "shed_unmeetable"),
            "is not served by shards: the sharded parent has no admission "
            "gate",
        )

    @classmethod
    def capture(
        cls,
        model,
        cut: str,
        spec: DeploymentSpec | None = None,
        /,
        *,
        width: float | None = None,
        base_seed: int = 7,
        workers: int = 1,
        kernel_backend: str = "auto",
        channel: dict | None = None,
        **overrides,
    ) -> "ShardSpec":
        """Serialise a live deployment of ``spec`` (keyword ``overrides``
        replace its fields) to plain data.

        Args:
            model: A :class:`~repro.models.SplittableModel` (its name and
                state dict are captured; the live object stays behind).
            cut: The cut point every shard serves.
            spec: The deployment; its noise collection travels as member
                tensors.
            width: Channel-width multiplier the model was built with;
                defaults to the current scale's default.
            base_seed / workers / kernel_backend / channel: The shard
                planes' fields (``channel`` is ``Channel`` kwargs, never
                the object).
        """
        from repro.config import get_scale
        from repro.models import default_width

        spec = replace(spec or DeploymentSpec(), **overrides)
        if width is None:
            width = default_width(get_scale())
        state = {k: np.asarray(v).copy() for k, v in model.state_dict().items()}
        tensors = None
        if spec.noise is not None:
            tensors = np.stack([s.tensor for s in spec.noise.samples])
        return cls(
            model_name=model.model_name,
            width=float(width),
            model_state=state,
            cut=cut,
            noise_tensors=tensors,
            deployment=replace(spec, noise=None),
            base_seed=base_seed,
            workers=workers,
            kernel_backend=kernel_backend,
            channel=channel if channel is not None else {},
        )

    def _model(self):
        """The captured backbone, rebuilt frozen from plain data."""
        from repro.models import build_model

        model = build_model(
            self.model_name, np.random.default_rng(0), width=self.width
        )
        model.load_state_dict(self.model_state)
        model.eval()
        model.freeze()
        return model

    def _noise(self):
        from repro.core.sampler import NoiseCollection

        if self.noise_tensors is None:
            return None
        noise = NoiseCollection(self.noise_tensors.shape[1:])
        for tensor in self.noise_tensors:
            noise.add(tensor, accuracy=0.0, in_vivo_privacy=0.0)
        return noise

    def _rng(self, shard_index: int) -> np.random.Generator:
        return np.random.default_rng(shard_seed(self.base_seed, shard_index))

    def build_engine(self, shard_index: int):
        """Reconstruct this shard's one-deployment
        :class:`~repro.serve.controlplane.ControlPlane` (child side)."""
        from repro.edge.channel import Channel
        from repro.serve.controlplane import ControlPlane

        plane = ControlPlane(
            workers=self.workers,
            channel=Channel(**self.channel) if self.channel else None,
            kernel_backend=self.kernel_backend,
        )
        spec = self.deployment
        if spec.shuffle:  # each shard shuffles with its own stream
            spec = replace(
                spec, shuffle_seed=shard_seed(spec.shuffle_seed or 0, shard_index)
            )
        try:
            plane.register(
                self.model_name, self._model(), self.cut, spec,
                noise=self._noise(), rng=self._rng(shard_index),
            )
        except BaseException:
            plane.close()
            raise
        return plane

    def reference_session(self, shard_index: int, n_shards: int):
        """The sequential reference this shard must be bit-identical to.

        Also used by tests to compute, for a full request stream, the
        subsequence shard ``shard_index`` serves (see
        :func:`route_session`).
        """
        from repro.edge.device import InferenceSession

        model = self._model()
        return InferenceSession(
            model,
            self.cut,
            *self.deployment.normalisation(model.input_shape[0]),
            noise=self._noise(),
            rng=self._rng(shard_index),
            kernel_backend=self.kernel_backend,
            weight_bits=self.deployment.weight_bits,
        )


# ----------------------------------------------------------------------
# Shard subprocess
# ----------------------------------------------------------------------
def _shard_main(
    spec: ShardSpec, shard_index: int, address: tuple[str, int], token: str
) -> None:
    """Entry point of one shard subprocess.

    Builds the plane from the spec (slow part: kernel compilation —
    shared across shards via the ``REPRO_KERNEL_DIR`` artifact cache),
    connects back to the parent, announces readiness, then serves until
    shutdown or parent death.
    """
    plane = spec.build_engine(shard_index)
    sock = socket.create_connection(address, timeout=30.0)
    sock.settimeout(None)
    transport = SocketTransport(sock, shard_id=shard_index)
    transport.send(_pack_json(_MSG_HELLO, {
        "shard": shard_index,
        "token": token,
        "input_shape": list(plane.deployment().model.input_shape),
    }))

    pending: dict[int, int] = {}  # local id -> global id

    def deliver(handles: list[RequestHandle]) -> None:
        # One SHRD frame per delivery batch: per-frame overhead amortises
        # across every result the pump turn produced.
        if not handles:
            return
        ids, splits, parts = [], [], []
        for handle in handles:
            logits = plane.result(handle)
            ids.append(pending.pop(handle.request_id))
            splits.append(logits.shape[0])
            parts.append(logits)
        transport.send(
            _pack(
                _MSG_RESULT,
                encode_prediction_batch(
                    BatchPredictionMessage(
                        request_ids=tuple(ids),
                        splits=tuple(splits),
                        logits=np.ascontiguousarray(
                            np.concatenate(parts, axis=0)
                        ),
                    )
                ),
            )
        )

    # Plane turns are ~100x the cost of a socket read, so the loop
    # drains the inbound socket greedily and only runs the plane when
    # the parent has momentarily stopped streaming (or the admitted
    # backlog passes the high watermark — submissions must not outrun
    # serving without bound).  Partial windows are only force-flushed
    # once the inbound side has been quiet for a grace period: flushing
    # on every momentary socket gap would dispatch fragment batches,
    # each paying a full wire round-trip on latency-bound channels.
    high_watermark = 4 * max(1, plane.deployment().batch_window)
    idle_flush = max(spec.deployment.batch_timeout, 0.002)
    unpumped = 0
    last_rx = time.monotonic()

    try:
        while True:
            frame = transport.try_recv()
            if frame is None:
                if pending:
                    flush = (time.monotonic() - last_rx) >= idle_flush
                    delivered = plane.pump(flush=flush)
                    deliver(delivered)
                    unpumped = 0
                    # Nothing deliverable means the workers are mid-batch:
                    # yield briefly instead of spinning the GIL away from
                    # them.
                    frame = transport.recv(timeout=0.0 if delivered else 0.0005)
                else:
                    frame = transport.recv(timeout=0.05)
                if frame is None:
                    continue
            last_rx = time.monotonic()
            kind = frame[0]
            body = frame[1:]
            if kind == _MSG_SUBMIT:
                # One SUBMIT frame carries a *batch* of requests (the SHRB
                # format is n-ary already); submitting them in frame order
                # preserves the admission order the noise stream depends on.
                (header_len,) = _HEADER_LEN.unpack_from(body)
                header = _unpack_json(body[4 : 4 + header_len])
                uplink = decode_activation_batch(body[4 + header_len :])
                tensor = np.asarray(uplink.tensor, dtype=np.float32)
                offset = 0
                for global_id, rows, session, slo in zip(
                    uplink.request_ids,
                    uplink.splits,
                    header["sessions"],
                    header["slos"],
                ):
                    handle = plane.submit(
                        tensor[offset : offset + rows],
                        slo_seconds=slo,
                        session_id=session,
                    )
                    offset += rows
                    pending[handle.request_id] = global_id
                    unpumped += 1
                if unpumped >= high_watermark:
                    deliver(plane.pump())
                    unpumped = 0
            elif kind == _MSG_DRAIN:
                deliver(plane.drain())
                transport.send(_pack_json(_MSG_DRAINED, {"shard": shard_index}))
            elif kind == _MSG_METRICS:
                metrics = plane.deployment().metrics
                transport.send(
                    _pack_json(_MSG_METRICS_REPLY, metrics.to_payload())
                )
            elif kind == _MSG_SHUTDOWN:
                break
            else:
                raise ConfigurationError(f"unknown shard message kind {kind}")
    except ShardCrashError:
        pass  # the parent died; nothing left to serve for
    finally:
        plane.close()
        transport.close()


# ----------------------------------------------------------------------
# Parent
# ----------------------------------------------------------------------
@dataclass
class _Logged:
    """One admitted request, retained for crash replay."""

    global_id: int
    images: np.ndarray
    session_id: Hashable | None
    slo_seconds: float | None


class _Shard:
    """Parent-side handle on one shard subprocess."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.transport: SocketTransport | None = None
        self.log: list[_Logged] = []  # admission-ordered, for replay
        self.staged: list[_Logged] = []  # admitted but not yet on the wire
        self.outstanding: set[int] = set()
        self.discard: set[int] = set()  # replayed ids already delivered
        self.drained = False
        self.generation = 0  # bumps per (re)spawn; guards nested replays
        self.metrics_reply: dict | None = None


class ShardedServingEngine:
    """N subprocess shards behind deterministic session routing.

    Args:
        spec: The spawn-safe deployment recipe every shard builds from.
        shards: Subprocess count (each runs ``spec.workers`` cloud
            worker threads internally).
        start_method: ``fork`` / ``spawn`` / ``forkserver``; ``None``
            uses the platform default.  Both ``fork`` and ``spawn`` are
            supported — the spec carries no live state.
        spawn_timeout: Seconds to wait for a shard to build its plane
            and report ready.
        auto_heal: Respawn dead shards and replay their logs (default).
            When off, a shard death surfaces as
            :class:`~repro.errors.ShardCrashError`.
        coalesce: Submissions per shard to stage before sending one
            multi-request SHRB frame (framing + syscall cost amortise
            across the batch — the parent's routing hot path).  Staged
            requests are flushed by reaching the threshold, by
            :meth:`poll`, or by any control message (drain, metrics,
            shutdown), so nothing is held indefinitely.  Defaults to the
            spec's batch window.
    """

    def __init__(
        self,
        spec: ShardSpec,
        *,
        shards: int = 2,
        start_method: str | None = None,
        spawn_timeout: float = 120.0,
        auto_heal: bool = True,
        coalesce: int | None = None,
    ) -> None:
        if shards < 1:
            raise ConfigurationError(f"need >= 1 shard, got {shards}")
        if coalesce is not None and coalesce < 1:
            raise ConfigurationError(f"need coalesce >= 1, got {coalesce}")
        self.spec = spec
        self._image_shape: tuple[int, ...] | None = None  # from each HELLO
        self.n_shards = shards
        self.auto_heal = auto_heal
        self.coalesce = coalesce or max(1, spec.deployment.batch_window or 1)
        self.respawned_shards = 0
        self._spawn_timeout = spawn_timeout
        self._ctx = multiprocessing.get_context(start_method)
        self._token = os.urandom(8).hex()
        self._next_id = itertools.count()
        self._rr = itertools.count()  # round-robin for sessionless requests
        self._results: dict[int, np.ndarray] = {}
        self._closed = False
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.listen(shards)
        self._address = self._listener.getsockname()
        self._shards = [_Shard(i) for i in range(shards)]
        try:
            for shard in self._shards:
                self._spawn(shard)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Shard lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, shard: _Shard) -> None:
        """Start (or restart) one shard and wait until it is warm."""
        process = self._ctx.Process(
            target=_shard_main,
            args=(self.spec, shard.index, self._address, self._token),
            daemon=True,
        )
        process.start()
        deadline = time.monotonic() + self._spawn_timeout
        self._listener.settimeout(1.0)
        while True:
            if time.monotonic() > deadline:
                process.terminate()
                raise ShardCrashError(
                    f"shard {shard.index} did not report ready within "
                    f"{self._spawn_timeout:.0f}s",
                    shard_id=shard.index,
                )
            if not process.is_alive():
                raise ShardCrashError(
                    f"shard {shard.index} died during bootstrap "
                    f"(exit code {process.exitcode})",
                    shard_id=shard.index,
                )
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            transport = SocketTransport(conn, shard_id=shard.index)
            hello = transport.recv(timeout=self._spawn_timeout)
            if hello is None or hello[0] != _MSG_HELLO:
                transport.close()
                continue
            meta = _unpack_json(hello[1:])
            if meta.get("token") != self._token:
                transport.close()  # not ours
                continue
            if meta.get("shard") != shard.index:
                # A concurrent respawn's connection; shouldn't happen —
                # spawns are serialized — so treat as a protocol breach.
                transport.close()
                raise ShardCrashError(
                    f"expected shard {shard.index} on the wire, got "
                    f"{meta.get('shard')}",
                    shard_id=shard.index,
                )
            break
        self._image_shape = tuple(meta["input_shape"])
        conn.setblocking(False)
        shard.process = process
        shard.transport = transport
        shard.drained = False
        shard.generation += 1
        shard.metrics_reply = None

    def _heal(self, shard: _Shard) -> None:
        """Respawn a dead shard pre-warmed and replay its admitted log.

        Replaying the *whole* log in admission order reproduces the
        shard's noise stream bit-exactly; results the caller already
        collected re-arrive and are discarded, the rest complete exactly
        once.
        """
        if not self.auto_heal:
            raise ShardCrashError(
                f"shard {shard.index} died (auto_heal off)",
                shard_id=shard.index,
            )
        if shard.transport is not None:
            shard.transport.close()
        if shard.process is not None:
            shard.process.join(timeout=5.0)
            if shard.process.is_alive():
                shard.process.kill()
                shard.process.join(timeout=5.0)
        self._spawn(shard)
        self.respawned_shards += 1
        # Anything staged at crash time is already in the log and will go
        # out with the replay below — sending it twice would desync noise.
        shard.staged = []
        # Everything already delivered (whether or not the caller has
        # collected it) re-arrives during replay and must be dropped.
        shard.discard = {
            logged.global_id
            for logged in shard.log
            if logged.global_id not in shard.outstanding
        }
        generation = shard.generation
        for start in range(0, len(shard.log), self.coalesce):
            self._send_batch(shard, shard.log[start : start + self.coalesce])
            if shard.generation != generation:
                # The shard died again mid-replay; the nested heal already
                # replayed the whole log against the newest incarnation —
                # continuing here would double-submit (and desync noise).
                return

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    def _send_batch(self, shard: _Shard, batch: Sequence[_Logged]) -> None:
        """One multi-request SUBMIT frame; heals (and aborts) on peer death."""
        if not batch:
            return
        header = json.dumps(
            {
                "sessions": [
                    None if l.session_id is None else str(l.session_id)
                    for l in batch
                ],
                "slos": [l.slo_seconds for l in batch],
            }
        ).encode("utf-8")
        frame = _pack(
            _MSG_SUBMIT,
            _HEADER_LEN.pack(len(header)),
            header,
            encode_activation_batch(
                BatchActivationMessage(
                    request_ids=tuple(l.global_id for l in batch),
                    splits=tuple(l.images.shape[0] for l in batch),
                    tensor=np.ascontiguousarray(
                        np.concatenate([l.images for l in batch], axis=0),
                        dtype=np.float32,
                    ),
                )
            ),
        )
        try:
            shard.transport.send(frame, on_block=self._absorb_once)
        except ShardCrashError:
            self._heal(shard)  # replays the log, including this batch

    def _flush(self, shard: _Shard) -> None:
        if shard.staged:
            batch, shard.staged = shard.staged, []
            self._send_batch(shard, batch)

    def _absorb_once(self, timeout: float = 0.0) -> list[int]:
        """Drain whatever inbound frames are ready; returns delivered ids."""
        delivered: list[int] = []
        live = [s for s in self._shards if s.transport is not None]
        if not live:
            return delivered
        try:
            ready, _, _ = select.select([s.transport for s in live], [], [], timeout)
        except (OSError, ValueError):
            ready = []
        for transport in ready:
            shard = self._shards[transport.shard_id]
            while True:
                try:
                    frame = shard.transport.try_recv()
                except ShardCrashError:
                    self._heal(shard)
                    break
                if frame is None:
                    break
                delivered.extend(self._handle(shard, frame))
        return delivered

    def _handle(self, shard: _Shard, frame: bytes) -> list[int]:
        kind = frame[0]
        if kind == _MSG_RESULT:
            downlink = decode_prediction_batch(frame[1:])
            delivered: list[int] = []
            offset = 0
            for global_id, rows in zip(downlink.request_ids, downlink.splits):
                logits = downlink.logits[offset : offset + rows]
                offset += rows
                if global_id in shard.discard:
                    shard.discard.remove(global_id)  # replayed duplicate
                    continue
                shard.outstanding.discard(global_id)
                self._results[global_id] = np.array(logits, copy=True)
                delivered.append(global_id)
            return delivered
        if kind == _MSG_DRAINED:
            shard.drained = True
            return []
        if kind == _MSG_METRICS_REPLY:
            shard.metrics_reply = _unpack_json(frame[1:])
            return []
        raise ConfigurationError(f"unknown parent message kind {kind}")

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def route(self, session_id: Hashable | None) -> int:
        """The shard index a request with ``session_id`` is served by."""
        if session_id is None:
            return next(self._rr) % self.n_shards
        return route_session(session_id, self.n_shards)

    def submit(
        self,
        images: np.ndarray,
        *,
        slo_seconds: float | None = None,
        session_id: Hashable | None = None,
    ) -> int:
        """Route one request to its shard; returns the global request id.

        The request is checked against the model's input shape first, so
        a malformed one is refused here rather than failing its shard's
        whole SUBMIT frame.
        """
        if self._closed:
            raise ConfigurationError("sharded engine is closed")
        images = request_images(images, slo_seconds, self._image_shape)
        global_id = next(self._next_id)
        shard = self._shards[self.route(session_id)]
        logged = _Logged(
            global_id=global_id,
            images=np.array(images, dtype=np.float32, copy=True),
            session_id=session_id,
            slo_seconds=slo_seconds,
        )
        shard.log.append(logged)
        shard.outstanding.add(global_id)
        shard.staged.append(logged)
        if len(shard.staged) >= self.coalesce:
            self._flush(shard)
            # Results are tiny (one logits row per request); the kernel
            # socket buffers hold thousands, so draining on the flush
            # boundary keeps syscalls off the routing hot path.  A full
            # *outbound* buffer still drains inbound via ``on_block``.
            self._absorb_once()
        return global_id

    def poll(self) -> list[int]:
        """Non-blocking collection; returns newly deliverable ids."""
        for shard in self._shards:
            self._flush(shard)
        return self._absorb_once()

    def drain(self, timeout: float = 300.0) -> list[int]:
        """Flush every shard and wait for all admitted work to deliver."""
        if self._closed:
            raise ConfigurationError("sharded engine is closed")
        delivered: list[int] = []
        deadline = time.monotonic() + timeout
        for shard in self._shards:
            shard.drained = False
        # DRAIN barriers are per-incarnation: a shard healed mid-drain has
        # a fresh plane that never saw the barrier, so track which
        # generation each DRAIN actually reached and re-send on respawn.
        drain_sent: dict[int, int] = {}
        while True:
            for shard in self._shards:
                if not shard.drained and drain_sent.get(shard.index) != shard.generation:
                    self._send_control(shard, _MSG_DRAIN)
                    drain_sent[shard.index] = shard.generation
            remaining = [
                s
                for s in self._shards
                if not s.drained or s.outstanding or s.discard
            ]
            if not remaining:
                return delivered
            if time.monotonic() > deadline:
                raise ShardCrashError(
                    f"drain timed out with {sum(len(s.outstanding) for s in remaining)} "
                    "requests outstanding"
                )
            delivered.extend(self._absorb_once(timeout=0.05))

    def _send_control(self, shard: _Shard, kind: int) -> None:
        # Control messages are ordering barriers: staged submissions must
        # reach the shard before the drain/metrics request does.
        self._flush(shard)
        try:
            shard.transport.send(_pack(kind), on_block=self._absorb_once)
        except ShardCrashError:
            self._heal(shard)
            shard.drained = False
            shard.transport.send(_pack(kind), on_block=self._absorb_once)

    def result(self, request_id: int) -> np.ndarray:
        """Collect (and release) a delivered request's logits."""
        if request_id not in self._results:
            raise ConfigurationError(
                f"request {request_id} has no deliverable result (still in "
                "flight, unknown, or already collected)"
            )
        return self._results.pop(request_id)

    def infer_stream(
        self,
        stream: Iterable[np.ndarray] | Sequence[np.ndarray],
        *,
        slo_seconds: float | Sequence[float | None] | None = None,
        session_ids: Sequence[Hashable] | None = None,
    ) -> list[np.ndarray]:
        """Submit a whole stream, drain it, return logits in order
        (arguments as for :meth:`ControlPlane.infer_stream`)."""
        ids = [
            self.submit(images, slo_seconds=slo, session_id=session)
            for images, slo, session in stream_requests(
                stream, slo_seconds, session_ids
            )
        ]
        self.drain()
        return [self.result(request_id) for request_id in ids]

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics(self, timeout: float = 30.0) -> ServingMetrics:
        """One merged view over every shard's raw metrics."""
        for shard in self._shards:
            shard.metrics_reply = None
            self._send_control(shard, _MSG_METRICS)
        deadline = time.monotonic() + timeout
        while any(s.metrics_reply is None for s in self._shards):
            if time.monotonic() > deadline:
                raise ShardCrashError("metrics collection timed out")
            self._absorb_once(timeout=0.05)
        return ServingMetrics.merge(
            [ServingMetrics.from_payload(s.metrics_reply) for s in self._shards]
        )

    def shard_pids(self) -> list[int]:
        """Live shard process ids (fault-injection tests kill these)."""
        return [s.process.pid for s in self._shards if s.process is not None]

    @property
    def outstanding(self) -> int:
        """Admitted requests not yet delivered."""
        return sum(len(s.outstanding) for s in self._shards)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            if shard.transport is not None:
                try:
                    shard.transport.send(_pack(_MSG_SHUTDOWN))
                except ShardCrashError:
                    pass
        for shard in self._shards:
            if shard.process is not None:
                shard.process.join(timeout=5.0)
                if shard.process.is_alive():
                    shard.process.kill()
                    shard.process.join(timeout=5.0)
            if shard.transport is not None:
                shard.transport.close()
            shard.transport = None
            shard.process = None
        self._listener.close()

    def __enter__(self) -> "ShardedServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
