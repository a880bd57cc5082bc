"""Networked evaluation worker: scores envelopes, owns resident strips.

``WorkerServer`` is one node of the cluster: a TCP server speaking the
:mod:`repro.cluster.protocol` framing.  Run it standalone::

    python -m repro.cluster.worker --port 9701

or embed it (tests, docs snippets, single-process demos)::

    server = WorkerServer()          # port 0: OS-assigned
    host, port = server.start_background()
    ...
    server.stop()

Two planes of traffic arrive on separate connections:

* **task plane** — pipelined ``MSG_TASK`` frames carrying pickled
  :class:`~repro.engine.tasks.EngineTask` envelopes; each is scored
  with :func:`~repro.engine.tasks.score_task_payload` (pure O(b²)
  scalar arithmetic, bit-identical to the serial engine) and answered
  with a ``MSG_RESULT`` in arrival order.
* **placement plane** — request/reply frames that make this worker a
  *holder* of specific block-row strips of the sharded Gram layout
  (:class:`~repro.engine.cache.ShardedGramCache` semantics over the
  wire).  After a one-time ``MSG_INIT`` (the sample, kernel factory
  and held row slices — the localhost stand-in for data that, in a
  real IoT deployment, is born on the node), the worker materialises,
  normalises, centres and *keeps* its strips; only O(n) vectors and
  O(1) scalars ever travel per block.  The arithmetic mirrors
  ``ShardedGramCache`` / ``ShardedBlockStatsCache`` line for line, so
  reduced statistics are bit-identical to the in-process sharded
  caches.  The block handlers are **idempotent**: a replayed request
  (the coordinator's fan-out retry after a peer worker died) answers
  from resident state instead of failing, and a worker that adopted a
  strip mid-block self-heals by computing the missing raw strip.  The
  same plane carries the **landmark factor strips** of the low-rank
  scoring path (``MSG_LANDMARK_FACTOR`` / ``_STATS`` / ``_PAIR``):
  only the m×r whitening transform and O(m) vectors cross the wire,
  each worker builds ``k(X[rows], X[L]) @ T`` for its own rows, and
  the handlers rebuild any missing strip from the transform in the
  request body (factor strips are cheaper to rebuild than to ship).

A third plane rides the task connections once a search has finished:

* **serving plane** — ``MSG_SERVE_INSTALL`` / ``_ROWS`` / ``_DROP`` /
  ``_STATUS`` frames embed a
  :class:`~repro.serving.store.StripModelStore` in the worker:
  versioned combined-model parameters plus this worker's training-row
  strips stay resident, and each request batch is answered by strip-wise
  cross-Gram math (never an n×n materialisation).  An install may ship
  ``rows=None`` to reuse the placement-resident sample from ``MSG_INIT``
  instead of re-sending rows.  Serve replies *echo* the request frame
  type (unlike placement's generic ``MSG_OK``) so both directions are
  booked in the ``serve`` wire bucket.

Resilience hooks:

* ``secret=`` — every frame on every connection must carry (and is
  answered with) the shared-secret HMAC trailer; tampered, replayed or
  unauthenticated frames are answered with ``MSG_ERROR`` and the
  connection dropped, without taking the server down for its peers;
* ``MSG_STRIP_STATE`` / ``MSG_STRIP_INSTALL`` — the re-replication
  pair: a live holder's built strips are fetched and installed on a
  survivor, restoring the replication factor after a holder death;
* ``MSG_STRIP_REBUILD`` — the explicit ``replication=1`` fallback: the
  worker adopts row slices and rebuilds the named blocks' strips from
  its own sample copy (raw → scale → centre, given the already-reduced
  scale and row statistics).

Fault injection for tests: ``fail_after=N`` makes the server stop
abruptly (no reply, sockets torn down) after scoring N task envelopes,
simulating a node killed mid-search.  Richer scripted faults (hangs,
garbage emission, frame-counted kills) live in
``tests/test_cluster_faults.py``'s ``FaultyWorker``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    MSG_BLOCK_CENTER,
    MSG_BLOCK_RAW,
    MSG_BLOCK_SCALE,
    MSG_ERROR,
    MSG_INIT,
    MSG_JOIN,
    MSG_JOIN_ACK,
    MSG_LANDMARK_FACTOR,
    MSG_LANDMARK_PAIR,
    MSG_LANDMARK_STATS,
    MSG_OK,
    MSG_PAIR,
    MSG_PING,
    MSG_PONG,
    MSG_RESULT,
    MSG_SERVE_DROP,
    MSG_SERVE_INSTALL,
    MSG_SERVE_ROWS,
    MSG_SERVE_STATUS,
    MSG_SHUTDOWN,
    MSG_STRIP_INSTALL,
    MSG_STRIP_REBUILD,
    MSG_STRIP_STATE,
    MSG_STRIPS_FETCH,
    MSG_TARGET,
    MSG_TASK,
    MSG_TELEMETRY,
    ConnectionClosed,
    FrameAuth,
    ProtocolError,
    dump_payload,
    load_payload,
    recv_frame,
    send_frame,
)
from repro.engine.cache import _normalize_factor_rows
from repro.engine.tasks import encode_result, score_task_payload
from repro.kernels.gram import (
    center_symmetric_strip,
    strip_row_inners,
    strip_row_stats,
)
from repro.telemetry import MetricsRegistry, get_tracer

__all__ = ["WorkerServer", "configure_worker_logging", "main"]

logger = logging.getLogger("repro.cluster.worker")

# Serve frame -> StripModelStore op.  The worker resolves the wire type
# to the transport-neutral op name so every backend shares one dispatch
# (``repro.serving.store.handle_serve_op``).
_SERVE_OPS = {
    MSG_SERVE_INSTALL: "install",
    MSG_SERVE_ROWS: "rows",
    MSG_SERVE_DROP: "drop",
    MSG_SERVE_STATUS: "status",
}


@dataclass
class _PlacementState:
    """Resident shard-ownership state installed by ``MSG_INIT``.

    ``slices`` maps strip index -> this worker's row slice; strips for
    strip indices held by other workers are never built here (until an
    install/rebuild adopts them).  Strip arrays are keyed by the
    canonical block key exactly like the in-process caches.
    """

    X: np.ndarray
    block_kernel: object
    normalize: bool
    slices: dict[int, slice]
    centered_y: np.ndarray | None = None
    landmarks: np.ndarray | None = None
    raw: dict[tuple, dict[int, np.ndarray]] = field(default_factory=dict)
    strips: dict[tuple, dict[int, np.ndarray]] = field(default_factory=dict)
    centered: dict[tuple, dict[int, np.ndarray]] = field(default_factory=dict)
    factor_strips: dict[tuple, dict[int, np.ndarray]] = field(default_factory=dict)
    factor_centered: dict[tuple, dict[int, np.ndarray]] = field(
        default_factory=dict
    )

    def resident_bytes(self) -> int:
        """Bytes of strip state currently resident on this worker."""
        total = 0
        for store in (
            self.strips,
            self.centered,
            self.factor_strips,
            self.factor_centered,
        ):
            for per_strip in store.values():
                total += sum(strip.nbytes for strip in per_strip.values())
        return total


class WorkerServer:
    """One cluster node: scores task envelopes, holds placed row strips.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` lets the OS pick (read it back from
        ``server.port``).  The listening socket is bound in the
        constructor so the address is known before serving starts.
    max_frame_bytes:
        Frames over this size are rejected by the protocol layer.
    secret:
        Shared secret: every frame received must carry a valid HMAC
        trailer, and every reply carries one.  ``None`` (default)
        speaks the exact unauthenticated protocol.
    fail_after:
        Test hook — after this many task envelopes have been scored,
        the server tears itself down without replying (simulates a
        worker killed mid-search).  ``None`` disables.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        secret: str | bytes | None = None,
        fail_after: int | None = None,
    ):
        self.max_frame_bytes = int(max_frame_bytes)
        if secret is not None and not secret:
            raise ValueError(
                "secret must be non-empty; pass None to disable frame "
                "authentication explicitly"
            )
        self.secret = secret
        self.fail_after = fail_after
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        # Serialises every placement/replication handler: the planes
        # arrive on separate connections (hence separate threads), and
        # a strip copy iterating the resident stores while a block
        # build inserts into them would corrupt the state they share.
        self._placement_op_lock = threading.Lock()
        # Placement residency is namespaced so concurrent tenants (or a
        # tenant next to the default single-search plane) each get their
        # own strip store: a second MSG_INIT in a different namespace
        # adds a sibling state instead of clobbering the first.
        self._placements: dict[str, _PlacementState] = {}
        # Serving-plane residency: created lazily on the first serve
        # frame so workers that never serve pay nothing.
        self._serving_lock = threading.Lock()
        self._serving_store = None
        self._connections: set[socket.socket] = set()
        self._stopped = threading.Event()
        self._tasks_scored = 0
        self._serve_thread: threading.Thread | None = None
        # Always-on op/error counters answered over MSG_TELEMETRY.
        # Counting is a dict add under a lock — microseconds against the
        # millisecond-scale scoring it books — and never touches any
        # value the arithmetic reads, so results stay bit-identical.
        self.metrics = MetricsRegistry()
        self._started_monotonic = time.monotonic()

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> str:
        """``host:port`` string accepted by the coordinator."""
        return f"{self.host}:{self.port}"

    def start_background(self) -> tuple[str, int]:
        """Serve on a daemon thread; returns ``(host, port)``."""
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.serve_forever,
                name=f"cluster-worker:{self.port}",
                daemon=True,
            )
            self._serve_thread.start()
        return self.host, self.port

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop`; thread per connection."""
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            with self._lock:
                if self._stopped.is_set():
                    conn.close()
                    break
                self._connections.add(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def stop(self) -> None:
        """Tear the server down: listener and every open connection."""
        self._stopped.set()
        # A thread blocked in accept() holds the listening socket alive
        # even after close() — the in-flight syscall pins it, keeping
        # the port bound.  Shut the listener down and poke it with a
        # throwaway connection so the accept returns and the port is
        # actually released.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            with socket.create_connection((self.host, self.port), timeout=0.2):
                pass
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            connections, self._connections = list(self._connections), set()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()

    # -- connection loop -----------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        auth = FrameAuth(self.secret) if self.secret else None
        try:
            while not self._stopped.is_set():
                try:
                    msg_type, payload, _ = recv_frame(
                        conn, self.max_frame_bytes, auth=auth
                    )
                except ConnectionClosed:
                    return
                except ProtocolError as error:
                    # Garbage on the wire (or an unauthenticated /
                    # tampered / replayed frame): report once, drop the
                    # connection.  The server itself keeps serving —
                    # one misbehaving client must not take the node
                    # down for its peers.
                    self.metrics.count("worker.protocol_errors")
                    logger.warning(
                        "protocol error on %s:%s connection: %s",
                        self.host,
                        self.port,
                        error,
                    )
                    try:
                        send_frame(
                            conn, MSG_ERROR, dump_payload(str(error)), auth=auth
                        )
                    except OSError:
                        pass
                    return
                if not self._dispatch(conn, msg_type, payload, auth):
                    return
        except OSError:
            return  # connection torn down under us (stop(), peer reset)
        finally:
            with self._lock:
                self._connections.discard(conn)
            conn.close()

    def _dispatch(
        self,
        conn: socket.socket,
        msg_type: int,
        payload: bytes,
        auth: FrameAuth | None = None,
    ) -> bool:
        """Handle one frame; returns False to end the connection."""
        if msg_type == MSG_TASK:
            if self.fail_after is not None:
                with self._lock:
                    self._tasks_scored += 1
                    tripped = self._tasks_scored > self.fail_after
                if tripped:
                    logger.warning(
                        "fail_after=%s tripped: simulating node death",
                        self.fail_after,
                    )
                    self.stop()  # simulated kill: no reply, sockets gone
                    return False
            t0 = time.perf_counter()
            try:
                result = encode_result(*score_task_payload(payload))
            except Exception as error:
                # An unscorable envelope is an application error, not a
                # node death: answer MSG_ERROR so the coordinator raises
                # instead of reassigning the poison envelope across the
                # fleet (which would kill every worker's connection in
                # turn and misreport fleet death).
                self.metrics.count("worker.task_errors")
                logger.warning("task envelope failed to score: %s", error)
                send_frame(
                    conn,
                    MSG_ERROR,
                    dump_payload(f"{type(error).__name__}: {error}"),
                    auth=auth,
                )
                return True
            t1 = time.perf_counter()
            self.metrics.count("worker.tasks_scored")
            self.metrics.observe("worker.task_seconds", t1 - t0)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.record_span(
                    "worker.score_task", t0, t1, cat="worker", bytes=len(payload)
                )
            send_frame(conn, MSG_RESULT, result, auth=auth)
            return True
        if msg_type == MSG_PING:
            self.metrics.count("worker.pings")
            send_frame(conn, MSG_PONG, b"", auth=auth)
            return True
        if msg_type == MSG_SHUTDOWN:
            logger.info("shutdown frame received; stopping")
            send_frame(conn, MSG_OK, b"", auth=auth)
            self.stop()
            return False
        if msg_type == MSG_TELEMETRY:
            # Introspection poll: answered from counters and resident
            # state on any plane's connection, echoing MSG_TELEMETRY so
            # both directions book in the "telemetry" wire bucket.
            snapshot = self.telemetry_snapshot()
            send_frame(conn, MSG_TELEMETRY, dump_payload(snapshot), auth=auth)
            return True
        if msg_type == MSG_JOIN:
            # Membership handshake: a coordinator admitting this worker
            # (revived or brand new) asks for an announce snapshot.  The
            # reply states what this node still holds so the admitting
            # side knows whether strips must be migrated or are already
            # resident (a coordinator rejoining a live fleet).
            self.metrics.count("worker.joins")
            with self._lock:
                placements = dict(self._placements)
            resident = sorted(
                {
                    index
                    for state in placements.values()
                    for index in state.slices
                }
            )
            announce = {
                "pid": os.getpid(),
                "address": self.address,
                "has_placement": bool(placements),
                "strips": resident,
            }
            logger.info(
                "join handshake answered (resident strips: %s)",
                announce["strips"],
            )
            send_frame(conn, MSG_JOIN_ACK, dump_payload(announce), auth=auth)
            return True
        if msg_type in _SERVE_OPS:
            op = _SERVE_OPS[msg_type]
            try:
                reply = self._dispatch_serve(msg_type, payload)
            except Exception as error:  # surfaced plane-side, loudly
                self.metrics.count("worker.serve_errors")
                logger.warning("serve op %s failed: %s", op, error)
                send_frame(
                    conn,
                    MSG_ERROR,
                    dump_payload(f"{type(error).__name__}: {error}"),
                    auth=auth,
                )
                return True
            self.metrics.count("worker.serve_ops", op=op)
            # Echo the request type (not MSG_OK): serve replies must
            # book in the "serve" wire bucket in both directions.
            send_frame(conn, msg_type, dump_payload(reply), auth=auth)
            return True
        try:
            with self._placement_op_lock:
                reply = self._dispatch_placement(msg_type, payload)
        except Exception as error:  # surfaced coordinator-side, loudly
            self.metrics.count("worker.placement_errors")
            logger.warning(
                "placement op (msg_type=%s) failed: %s", msg_type, error
            )
            send_frame(
                conn,
                MSG_ERROR,
                dump_payload(f"{type(error).__name__}: {error}"),
                auth=auth,
            )
            return True
        self.metrics.count("worker.placement_ops", msg_type=msg_type)
        send_frame(conn, MSG_OK, dump_payload(reply), auth=auth)
        return True

    # -- telemetry plane -----------------------------------------------

    def telemetry_snapshot(self) -> dict:
        """Everything a fleet poll wants to know about this node.

        Pickle-friendly plain dicts only: liveness/identity, the
        always-on op counters, placement residency (strip indices and
        resident bytes) and serving residency (versions and bytes),
        plus the in-process tracer's spans when tracing is enabled
        worker-side (``--trace`` on the CLI).
        """
        with self._lock:
            n_connections = len(self._connections)
            placements = dict(self._placements)
            tasks_scored = self._tasks_scored
        snapshot = {
            "address": self.address,
            "pid": os.getpid(),
            "uptime_s": time.monotonic() - self._started_monotonic,
            "n_connections": n_connections,
            "metrics": self.metrics.snapshot(),
            "placement": None,
            "serving": None,
        }
        if self.fail_after is not None:
            snapshot["tasks_before_fail"] = max(
                0, self.fail_after - tasks_scored
            )
        if placements:
            strips = sorted(
                {
                    index
                    for state in placements.values()
                    for index in state.slices
                }
            )
            snapshot["placement"] = {
                "n_strips": len(strips),
                "strips": strips,
                "resident_bytes": sum(
                    state.resident_bytes() for state in placements.values()
                ),
                "namespaces": sorted(placements),
            }
        with self._serving_lock:
            store = self._serving_store
        if store is not None:
            snapshot["serving"] = store.status()
        tracer = get_tracer()
        if tracer.enabled:
            # Bounded tail: a poll is a liveness probe, not a bulk
            # trace export — workers export full traces themselves.
            snapshot["spans"] = tracer.records()[-200:]
        return snapshot

    # -- serving plane -------------------------------------------------

    def _dispatch_serve(self, msg_type: int, payload: bytes):
        """Route one serve frame through the shared store dispatch.

        The import is deliberately lazy: :mod:`repro.serving` imports
        the cluster coordinator, so importing it at module scope here
        would close an import cycle.  Only the cycle-free store module
        is touched.
        """
        from repro.serving.store import StripModelStore, handle_serve_op

        with self._serving_lock:
            if self._serving_store is None:
                self._serving_store = StripModelStore()
            store = self._serving_store
        op = _SERVE_OPS[msg_type]
        resident_X = None
        if op == "install":
            # Snapshot the placement-resident sample for rows=None
            # installs.  Lock order is serving -> placement only (the
            # placement handlers never take the serving lock), so this
            # cannot deadlock with a concurrent placement op.
            with self._placement_op_lock:
                # rows=None installs reuse the single-search placement's
                # resident sample; prefer the default namespace, fall
                # back to a sole tenant namespace when that is all the
                # node holds.
                state = self._placements.get("default")
                if state is None and len(self._placements) == 1:
                    (state,) = self._placements.values()
                if state is not None:
                    resident_X = state.X
        return handle_serve_op(
            store, op, load_payload(payload), resident_X=resident_X
        )

    # -- placement plane -----------------------------------------------
    #
    # Every numerical step below mirrors ShardedGramCache /
    # ShardedBlockStatsCache exactly: the centring and the strip
    # reductions call the same repro.kernels.gram helpers, and the rest
    # uses the same expressions in the same operand order, which is
    # what makes the reduced statistics bit-identical to the in-process
    # sharded caches.

    def _raw_strips(self, state: _PlacementState, key: tuple) -> dict[int, np.ndarray]:
        """Raw (unscaled) strips for a block, for every held slice.

        Self-healing for replayed or late-adopted strips: a worker that
        missed the original raw pass for some slice (fan-out retry,
        adoption mid-block) rebuilds exactly the missing raw strips
        from its own sample copy instead of failing.
        """
        raw = state.raw.setdefault(key, {})
        missing = [index for index in state.slices if index not in raw]
        if missing:
            kernel = state.block_kernel(key).bind(state.X)
            for index in missing:
                sl = state.slices[index]
                raw[index] = kernel(state.X[sl], state.X)
        return raw

    def _scaled_strips(
        self, state: _PlacementState, key: tuple, scale
    ) -> dict[int, np.ndarray]:
        """Cosine-scaled strips for every held slice, filling any gap.

        Strips already resident (normal replies, replays after a
        fan-out retry, copies installed by re-replication) are reused
        untouched; only missing slices are built — with exactly the
        arithmetic of the first pass, so the values are bit-identical
        wherever they are computed.
        """
        strips = state.strips.setdefault(key, {})
        missing = [index for index in state.slices if index not in strips]
        if missing:
            raw = self._raw_strips(state, key)
            scale_arr = (
                np.asarray(scale, dtype=float) if scale is not None else None
            )
            for index in missing:
                strip = raw[index]
                if scale_arr is not None:
                    strip = strip / np.outer(
                        scale_arr[state.slices[index]], scale_arr
                    )
                strips[index] = strip
            state.raw.pop(key, None)
        return strips

    def _centered_strips(
        self,
        state: _PlacementState,
        key: tuple,
        scale,
        row_means: np.ndarray,
        grand_mean: float,
    ) -> dict[int, np.ndarray]:
        """Centred strips for every held slice, filling any gap with the
        same centring helper the in-process sharded cache calls."""
        strips = self._scaled_strips(state, key, scale)
        centered = state.centered.setdefault(key, {})
        for index, strip in strips.items():
            if index not in centered:
                centered[index] = center_symmetric_strip(
                    strip, row_means[state.slices[index]], row_means, grand_mean
                )
        return centered

    def _landmark_strips(
        self, state: _PlacementState, key: tuple, transform
    ) -> dict[int, np.ndarray]:
        """Nyström factor strips for every held slice, filling any gap.

        The m×r whitening transform always travels in the request body,
        so the handler is self-healing: a worker that adopted a strip
        mid-block (or answers a fan-out replay) rebuilds exactly the
        missing factor strips — ``k(X[rows], X[L]) @ T``, row-normalised
        strip-locally — with the same expressions as the in-process
        :class:`~repro.engine.cache.ShardedLandmarkGramCache`, keeping
        the bit-identity contract.  Factor strips are never shipped
        between workers: at O(n·m/shards) they are cheaper to rebuild
        than to replicate.
        """
        strips = state.factor_strips.setdefault(key, {})
        missing = [index for index in state.slices if index not in strips]
        if missing:
            if state.landmarks is None:
                raise RuntimeError(
                    "landmark request but MSG_INIT carried no landmarks"
                )
            transform = np.asarray(transform, dtype=float)
            landmarks = state.landmarks
            kernel = state.block_kernel(key).bind(state.X[landmarks])
            for index in missing:
                sl = state.slices[index]
                strip = kernel(state.X[sl], state.X[landmarks]) @ transform
                if state.normalize:
                    strip = _normalize_factor_rows(strip)
                strips[index] = strip
        return strips

    def _landmark_centered(
        self, state: _PlacementState, key: tuple, transform, col_means
    ) -> dict[int, np.ndarray]:
        """Centred factor strips (``HF = F - col_means``), filling gaps.

        ``col_means`` is the globally-reduced column mean vector the
        coordinator computed from every strip's column sums, so the
        per-strip centring here matches the in-process sharded landmark
        cache exactly.
        """
        centered = state.factor_centered.setdefault(key, {})
        missing = [index for index in state.slices if index not in centered]
        if missing:
            strips = self._landmark_strips(state, key, transform)
            col_means = np.asarray(col_means, dtype=float)
            for index in missing:
                centered[index] = strips[index] - col_means
        return centered

    def _dispatch_placement(self, msg_type: int, payload: bytes):
        request = load_payload(payload)
        # Every placement frame carries (or defaults) a namespace; one
        # namespace per tenant keeps concurrent searches' strip stores
        # disjoint on a shared node.
        ns = str(request.get("ns", "default"))
        if msg_type == MSG_INIT:
            landmarks = request.get("landmarks")
            state = _PlacementState(
                X=np.asarray(request["X"], dtype=float),
                block_kernel=request["block_kernel"],
                normalize=bool(request["normalize"]),
                slices={int(i): sl for i, sl in request["slices"].items()},
                landmarks=(
                    None
                    if landmarks is None
                    else np.asarray(landmarks, dtype=int)
                ),
            )
            with self._lock:
                self._placements[ns] = state
            return {"n_strips": len(state.slices)}
        state = self._placements.get(ns)
        if state is None:
            raise RuntimeError(
                f"placement plane used before MSG_INIT (namespace {ns!r})"
            )
        if msg_type == MSG_TARGET:
            state.centered_y = np.asarray(request["centered_y"], dtype=float)
            return {}
        if msg_type == MSG_STRIP_STATE:
            wanted = {int(s) for s in request["strips"]}
            held = wanted & set(state.slices)
            keys = request.get("keys")
            if keys is not None:
                keys = {tuple(k) for k in keys}
            # ``built`` always lists every block with resident state for
            # the wanted strips, so a replicator can page the copy one
            # block per frame (keys=[] lists without shipping arrays —
            # a whole search's strips in one frame could blow the
            # frame-size limit and wedge re-replication permanently).
            built = sorted(
                {
                    key
                    for store in (state.strips, state.centered)
                    for key, per in store.items()
                    if any(s in per for s in held)
                }
            )
            return {
                "slices": {s: state.slices[s] for s in held},
                "built": built,
                "scaled": {
                    key: {s: per[s] for s in held if s in per}
                    for key, per in state.strips.items()
                    if keys is None or key in keys
                },
                "centered": {
                    key: {s: per[s] for s in held if s in per}
                    for key, per in state.centered.items()
                    if keys is None or key in keys
                },
            }
        if msg_type == MSG_STRIP_INSTALL:
            for s, sl in request["slices"].items():
                state.slices[int(s)] = sl
            for store, shipped in (
                (state.strips, request["scaled"]),
                (state.centered, request["centered"]),
            ):
                for key, per in shipped.items():
                    store.setdefault(tuple(key), {}).update(
                        {int(s): np.asarray(strip) for s, strip in per.items()}
                    )
            return {"resident_bytes": state.resident_bytes()}
        if msg_type == MSG_STRIP_REBUILD:
            adopted = {int(s): sl for s, sl in request["slices"].items()}
            state.slices.update(adopted)
            for key, spec in request["blocks"].items():
                key = tuple(key)
                row_means = np.asarray(spec["row_means"], dtype=float)
                grand_mean = float(spec["grand_mean"])
                # The shared helpers fill exactly the adopted (missing)
                # slices with the one copy of the raw/scale arithmetic,
                # keeping the bit-identity contract in a single place.
                self._centered_strips(
                    state, key, spec["scale"], row_means, grand_mean
                )
            return {"resident_bytes": state.resident_bytes()}
        if msg_type == MSG_LANDMARK_FACTOR:
            strips = self._landmark_strips(
                state, tuple(request["key"]), request["transform"]
            )
            return {
                "col_sums": {
                    index: strip.sum(axis=0)
                    for index, strip in strips.items()
                },
                "resident_bytes": state.resident_bytes(),
            }
        if msg_type == MSG_LANDMARK_STATS:
            yc = state.centered_y
            if yc is None:
                raise RuntimeError("MSG_LANDMARK_STATS before MSG_TARGET")
            centered = self._landmark_centered(
                state,
                tuple(request["key"]),
                request["transform"],
                request["col_means"],
            )
            stats = {
                index: (
                    strip.T @ yc[state.slices[index]],
                    strip.T @ strip,
                )
                for index, strip in centered.items()
            }
            return {"stats": stats, "resident_bytes": state.resident_bytes()}
        if msg_type == MSG_LANDMARK_PAIR:
            first = self._landmark_centered(
                state,
                tuple(request["first"]),
                request["first_transform"],
                request["first_col_means"],
            )
            second = self._landmark_centered(
                state,
                tuple(request["second"]),
                request["second_transform"],
                request["second_col_means"],
            )
            return {
                "inners": {
                    index: first[index].T @ second[index]
                    for index in first
                    if index in second
                }
            }
        key = tuple(request["key"])
        if msg_type == MSG_BLOCK_RAW:
            raw = self._raw_strips(state, key)
            diag = {}
            for index, strip in raw.items():
                sl = state.slices[index]
                diag[index] = strip[
                    np.arange(sl.stop - sl.start), np.arange(sl.start, sl.stop)
                ]
            return {"diag": diag}
        if msg_type == MSG_BLOCK_SCALE:
            strips = self._scaled_strips(state, key, request["scale"])
            return {
                "row_means": {
                    index: strip.mean(axis=1) for index, strip in strips.items()
                }
            }
        if msg_type == MSG_BLOCK_CENTER:
            row_means = np.asarray(request["row_means"], dtype=float)
            grand_mean = float(request["grand_mean"])
            yc = state.centered_y
            if yc is None:
                raise RuntimeError("MSG_BLOCK_CENTER before MSG_TARGET")
            centered = self._centered_strips(
                state, key, request.get("scale"), row_means, grand_mean
            )
            stats = {
                index: strip_row_stats(strip, yc)
                for index, strip in centered.items()
            }
            return {"stats": stats, "resident_bytes": state.resident_bytes()}
        if msg_type == MSG_PAIR:
            # Answer with whatever strip pairs are resident; gaps (a
            # holder adopted after these blocks were centred) surface
            # coordinator-side as a missing index, which triggers the
            # idempotent re-centring heal — a worker-side KeyError
            # would read as an application error and kill the search.
            other = tuple(request["other"])
            first = state.centered.get(key, {})
            second = state.centered.get(other, {})
            return {
                "inners": {
                    index: strip_row_inners(first[index], second[index])
                    for index in first
                    if index in second
                }
            }
        if msg_type == MSG_STRIPS_FETCH:
            # Resident strips only; a gap (holder adopted after the
            # block was built) surfaces coordinator-side, where gram()
            # re-runs the idempotent scale fan-out to heal it.
            return {"strips": state.strips.get(key, {})}
        raise ProtocolError(f"message type {msg_type} not valid on this plane")


class _JsonLogFormatter(logging.Formatter):
    """One JSON object per log record (machine-ingestable worker logs)."""

    def format(self, record: logging.LogRecord) -> str:
        entry = {
            "ts": self.formatTime(record, datefmt="%Y-%m-%dT%H:%M:%S%z"),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
            "pid": record.process,
        }
        if record.exc_info:
            entry["exc"] = self.formatException(record.exc_info)
        return json.dumps(entry, sort_keys=True)


def configure_worker_logging(level: str = "warning", json_logs: bool = False) -> None:
    """Wire the ``repro.cluster.worker`` logger to stderr.

    Structured (``json_logs=True``) emits one JSON object per record;
    plain mode is human-readable.  stderr keeps the stdout announce
    line (parsed by ``spawn_local_workers``) unpolluted.
    """
    handler = logging.StreamHandler()
    if json_logs:
        handler.setFormatter(_JsonLogFormatter())
    else:
        handler.setFormatter(
            logging.Formatter(
                "%(asctime)s %(levelname)s %(name)s: %(message)s"
            )
        )
    logger.handlers = [handler]
    logger.setLevel(getattr(logging, level.upper()))
    logger.propagate = False


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.cluster.worker --port N``."""
    parser = argparse.ArgumentParser(
        description="repro.cluster evaluation worker (trusted networks only)"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 = OS-assigned (announced on stdout)"
    )
    parser.add_argument(
        "--max-frame-bytes", type=int, default=DEFAULT_MAX_FRAME_BYTES
    )
    parser.add_argument(
        "--secret-file",
        default=None,
        help=(
            "path to a file holding the shared HMAC secret; the "
            "REPRO_CLUSTER_SECRET environment variable is the "
            "argv-free alternative"
        ),
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error"),
        help="worker log verbosity on stderr (default: warning)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit one JSON object per log record instead of plain text",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "enable the in-process span tracer; spans ride back in "
            "MSG_TELEMETRY snapshots (python -m repro.cluster.status)"
        ),
    )
    args = parser.parse_args(argv)
    configure_worker_logging(args.log_level, args.log_json)
    if args.trace:
        get_tracer().enable()
    secret: str | None
    if args.secret_file is not None:
        with open(args.secret_file, "r", encoding="utf-8") as handle:
            secret = handle.read().strip()
        if not secret:
            # An empty secret file must not silently run unauthenticated.
            parser.error(f"secret file {args.secret_file!r} is empty")
    elif "REPRO_CLUSTER_SECRET" in os.environ:
        secret = os.environ["REPRO_CLUSTER_SECRET"]
        if not secret:
            # Same downgrade guard for broken secret injection: set
            # but empty is a misconfiguration, not a request for
            # unauthenticated operation (unset the variable for that).
            parser.error("REPRO_CLUSTER_SECRET is set but empty")
    else:
        secret = None
    server = WorkerServer(
        host=args.host,
        port=args.port,
        max_frame_bytes=args.max_frame_bytes,
        secret=secret,
    )
    # The announce line is parsed by spawn_local_workers; keep stable.
    print(f"repro-cluster-worker listening on {server.host}:{server.port}", flush=True)
    logger.info(
        "worker up on %s:%s (auth=%s, trace=%s)",
        server.host,
        server.port,
        "on" if secret else "off",
        "on" if args.trace else "off",
    )
    server.serve_forever()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
