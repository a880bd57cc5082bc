"""The serving plane: versioned, strip-resident, hot-swappable inference.

After a search fixes a partition and weights, a
:class:`~repro.serving.model.ServedModel` is **published** to a
:class:`ServingPlane` and stays resident on the serving hosts; arriving
request batches are answered by fanning one typed request per holding
worker, each computing its strips' columns of the combined cross-Gram
against the rows it holds (:mod:`repro.serving.store`), and applying
the fitted LS-SVM to the concatenated result coordinator-side.  No n×n
matrix is ever materialised and nothing is ever gathered — the
responses are nonetheless bit-identical to the offline
``FacetedLearner.predict``.

Three interchangeable backends:

* ``"serial"`` — one in-process store (the reference loop);
* ``"processes"`` — dedicated ``multiprocessing`` workers, one pipe
  each, with model versions resident per process;
* ``"sockets"`` — the cluster fleet: requests ride the coordinator's
  authenticated ticket plane as pinned ``MSG_SERVE_*`` frames
  (request/response bytes booked in the ``serve`` wire bucket), and an
  install may *reuse* the training rows already resident from a placed
  search instead of re-shipping them.

Hot swap is **install-then-flip**: ``install`` stages a new version on
every holder (old versions untouched), ``activate`` flips the active
pointer atomically, and every request pins the version it was admitted
under — so during a swap every response carries exactly one version and
none are dropped, without ever restarting the serving loop.

Strips are placed with replication (default 2) via the cluster's
:class:`~repro.cluster.placement.ShardPlacement`; a host dying
mid-serving resolves its in-flight requests *lost*, the placement
promotes surviving holders (booked as ``n_promotions``), and the lost
strips are re-routed (``n_reroutes``) — the response is still
bit-identical.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.coordinator import Coordinator
from repro.cluster.placement import MovementPlan, ShardPlacement
from repro.cluster.protocol import (
    MSG_SERVE_DROP,
    MSG_SERVE_INSTALL,
    MSG_SERVE_ROWS,
    MSG_SERVE_STATUS,
    dump_payload,
    load_payload,
)
from repro.engine.backends import process_context
from repro.engine.cache import shard_row_slices
from repro.kernels.base import as_2d
from repro.serving.model import ServedModel
from repro.serving.store import StripModelStore, handle_serve_op
from repro.telemetry import SERVING_LEDGER_KINDS, MetricsRegistry, get_tracer

__all__ = ["ServingPlane", "ServeResponse", "ServingError"]


class ServingError(RuntimeError):
    """The serving plane cannot answer (no model, or strips lost)."""


@dataclass(frozen=True)
class ServeResponse:
    """One answered request batch, pinned to exactly one model version."""

    version: int
    decisions: np.ndarray
    predictions: np.ndarray

    @property
    def n_requests(self) -> int:
        return self.predictions.shape[0]


# ---------------------------------------------------------------------------
# Transports: fan (worker, op, payload) requests out, return one reply
# dict per request — or None where the target worker died.  Application
# errors raise.  All hosts run the shared ``handle_serve_op`` dispatch.
# ---------------------------------------------------------------------------


class _SerialTransport:
    """One in-process store; the reference serving loop."""

    name = "serial"

    def __init__(self) -> None:
        self.n_workers = 1
        self._store = StripModelStore()

    def fan_out(self, requests):
        return [
            handle_serve_op(self._store, op, payload)
            for _, op, payload in requests
        ]

    def close(self) -> None:
        pass


def _serving_process_main(conn) -> None:
    """A dedicated serving process: one store, one request pipe."""
    store = StripModelStore()
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):
            return
        if op == "__stop__":
            return
        try:
            reply = handle_serve_op(store, op, payload)
        except Exception as error:
            try:
                conn.send(("error", f"{type(error).__name__}: {error}"))
            except (OSError, BrokenPipeError):
                return
            continue
        try:
            conn.send(("ok", reply))
        except (OSError, BrokenPipeError):
            return


class _ProcessTransport:
    """Dedicated ``multiprocessing`` workers, one duplex pipe each.

    Unlike the engine's :class:`ProcessPoolBackend` (whose pool cannot
    target a *specific* process), serving needs strip affinity — each
    model version's strips stay resident in the process that installed
    them — so the transport owns named processes and routes by index.
    The processes start from :func:`~repro.engine.backends.process_context`,
    like the engine's pool, so a serving plane built while other
    threads run cannot inherit their locks.
    """

    name = "processes"

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        self.n_workers = int(n_workers)
        self.dead_workers: set[int] = set()
        ctx = process_context()
        self._pipes = []
        self._procs = []
        for index in range(self.n_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_serving_process_main,
                args=(child_conn,),
                name=f"serving-worker-{index}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._pipes.append(parent_conn)
            self._procs.append(proc)

    def _mark_dead(self, worker: int) -> None:
        self.dead_workers.add(worker)
        try:
            self._pipes[worker].close()
        except OSError:
            pass

    def fan_out(self, requests):
        # Send everything first, then collect — the pipes pipeline, so
        # worker k+1 computes while worker k's reply is read.
        replies: list[dict | None] = [None] * len(requests)
        sent = []
        for i, (worker, op, payload) in enumerate(requests):
            if worker in self.dead_workers:
                continue
            try:
                self._pipes[worker].send((op, payload))
            except (OSError, BrokenPipeError, ValueError):
                self._mark_dead(worker)
                continue
            sent.append((i, worker))
        for i, worker in sent:
            if worker in self.dead_workers:
                continue
            try:
                status, reply = self._pipes[worker].recv()
            except (EOFError, OSError):
                self._mark_dead(worker)
                continue
            if status == "error":
                raise ServingError(reply)
            replies[i] = reply
        return replies

    def kill(self, worker: int) -> None:
        """Fault-injection hook: hard-kill one serving process."""
        proc = self._procs[worker]
        proc.terminate()
        proc.join(timeout=10.0)

    def close(self) -> None:
        for worker, (pipe, proc) in enumerate(zip(self._pipes, self._procs)):
            if worker not in self.dead_workers:
                try:
                    pipe.send(("__stop__", None))
                except (OSError, BrokenPipeError, ValueError):
                    pass
            try:
                pipe.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()


class _SocketTransport:
    """Requests ride the coordinator's pinned-ticket plane."""

    name = "sockets"

    _OPS = {
        "install": MSG_SERVE_INSTALL,
        "rows": MSG_SERVE_ROWS,
        "drop": MSG_SERVE_DROP,
        "status": MSG_SERVE_STATUS,
    }

    def __init__(self, coordinator: Coordinator, owns: bool) -> None:
        self.coordinator = coordinator
        self.n_workers = coordinator.n_workers
        self._owns = owns

    def fan_out(self, requests):
        tickets = [
            (
                i,
                self.coordinator.submit_request(
                    worker, self._OPS[op], dump_payload(payload)
                ),
            )
            for i, (worker, op, payload) in enumerate(requests)
        ]
        replies: list[dict | None] = [None] * len(requests)
        for i, ticket in tickets:
            raw = self.coordinator.wait_ticket(ticket)
            if raw is not None:
                replies[i] = load_payload(raw)
        return replies

    def close(self) -> None:
        if self._owns:
            self.coordinator.close()


# ---------------------------------------------------------------------------
# The plane
# ---------------------------------------------------------------------------


class ServingPlane:
    """Long-lived serving mode over one of the three backends.

    Parameters
    ----------
    backend:
        ``"serial"``, ``"processes"`` or ``"sockets"``.
    workers:
        Sockets only — worker addresses for a fresh fleet (the plane
        owns and closes the connections).
    socket_backend:
        Sockets only — an existing
        :class:`~repro.cluster.backend.SocketBackend` whose fleet (and
        placement-resident training rows) serving should reuse; the
        plane borrows the coordinator and leaves it open on ``close``.
        Don't drive a search and serve concurrently on one borrowed
        fleet — the ticket plane is single-threaded by design.
    n_workers:
        Processes only — dedicated serving processes (default 2).
    n_strips:
        Row strips the training sample is split into (default: one per
        worker).  Every published model must have at least this many
        samples.
    replication:
        Holders per strip (default ``min(2, n_workers)``), so one
        holder death is survivable without losing the model.
    secret:
        Sockets with ``workers=`` — shared-secret frame authentication.
    """

    def __init__(
        self,
        backend: str = "serial",
        *,
        workers=None,
        socket_backend=None,
        n_workers: int | None = None,
        n_strips: int | None = None,
        replication: int | None = None,
        secret: str | bytes | None = None,
        connect_timeout: float = 10.0,
        io_timeout: float | None = 120.0,
    ):
        if backend == "serial":
            transport = _SerialTransport()
        elif backend == "processes":
            transport = _ProcessTransport(n_workers or 2)
        elif backend == "sockets":
            if socket_backend is not None:
                coordinator = socket_backend.coordinator
                owns = False
            elif workers:
                coordinator = Coordinator(
                    workers,
                    secret=secret,
                    connect_timeout=connect_timeout,
                    io_timeout=io_timeout,
                )
                owns = True
            else:
                raise ValueError(
                    "backend='sockets' needs workers= addresses or an "
                    "existing socket_backend= to attach to"
                )
            transport = _SocketTransport(coordinator, owns)
            coordinator.add_death_listener(self._on_worker_death)
        else:
            raise ValueError(
                f"unknown serving backend {backend!r}; expected 'serial', "
                "'processes' or 'sockets'"
            )
        self.backend = transport.name
        self._transport = transport
        self.n_strips = int(n_strips or transport.n_workers)
        if self.n_strips < 1:
            raise ValueError("n_strips must be positive")
        self.replication = int(
            replication
            if replication is not None
            else min(2, transport.n_workers)
        )
        self._placement: ShardPlacement | None = None
        self._dead_workers: set[int] = set()
        self._models: dict[int, ServedModel] = {}
        self._slices: dict[int, list[slice]] = {}
        self._next_version = 1
        self._active: int | None = None
        # The flip lock: ``activate`` and the per-request version read
        # synchronise here and nowhere else — a swap is one pointer
        # write, requests pin whatever version they were admitted
        # under, and old versions stay resident until retired.
        self._version_lock = threading.Lock()
        # One request round in flight at a time: throughput comes from
        # batching, and the underlying ticket plane is driven by a
        # single thread at a time by design.
        self._request_lock = threading.Lock()
        self.n_installs = 0
        self.n_swaps = 0
        self.n_batches = 0
        self.n_rows_served = 0
        self.n_requests = 0
        self.n_reroutes = 0
        self.n_promotions = 0
        self.n_rebalances = 0
        self.n_rebalanced_strips = 0

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "ServingPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release the transport (a borrowed fleet stays open)."""
        if self.backend == "sockets":
            self._transport.coordinator.remove_death_listener(
                self._on_worker_death
            )
        self._transport.close()

    # -- death bookkeeping ---------------------------------------------

    def _on_worker_death(self, worker_index: int) -> None:
        if worker_index in self._dead_workers:
            return
        self._dead_workers.add(worker_index)
        if self._placement is not None:
            outcome = self._placement.drop_worker(worker_index)
            self.n_promotions += len(outcome["promoted"])

    def _first_live_holder(self, strip: int) -> int | None:
        assert self._placement is not None
        for worker in self._placement.holders_of(strip):
            if worker not in self._dead_workers:
                return worker
        return None

    def _fan_out(self, requests):
        """One transport round + death bookkeeping on lost replies."""
        self.n_requests += len(requests)
        with get_tracer().span(
            "serve.fan_out", cat="serve", n_requests=len(requests)
        ) as span:
            replies = self._transport.fan_out(requests)
            lost = sum(1 for reply in replies if reply is None)
            if lost:
                span.set(lost=lost)
        for (worker, _, _), reply in zip(requests, replies):
            if reply is None:
                self._on_worker_death(worker)
        return replies

    # -- publish / hot swap --------------------------------------------

    def install(self, model: ServedModel, reuse_resident: bool = False) -> int:
        """Stage a model on every strip holder; returns its version.

        Does **not** change the active version — pair with
        :meth:`activate` (or use :meth:`publish`) for the flip.  With
        ``reuse_resident=True`` (sockets only) the training rows are
        not shipped: each worker slices the sample already resident
        from the placed search that produced the model.
        """
        if reuse_resident and self.backend != "sockets":
            raise ServingError(
                "reuse_resident requires the sockets backend: only cluster "
                "workers hold a placement-resident training sample"
            )
        tracer = get_tracer()
        t0 = time.perf_counter() if tracer.enabled else 0.0
        with self._request_lock:
            version = self._next_version
            self._next_version += 1
            slices = shard_row_slices(model.n_samples, self.n_strips)
            if self._placement is None:
                self._placement = ShardPlacement(
                    self.n_strips,
                    self._transport.n_workers,
                    replication=self.replication,
                )
                for worker in sorted(self._dead_workers):
                    outcome = self._placement.drop_worker(worker)
                    self.n_promotions += len(outcome["promoted"])
            requests = []
            for worker in self._placement.active_workers:
                strips = {}
                for strip in self._placement.strips_of(worker):
                    sl = slices[strip]
                    strips[strip] = {
                        "sl": (sl.start, sl.stop),
                        "rows": None if reuse_resident else model.X[sl],
                        "diags": [d[sl] for d in model.train_diags],
                    }
                if strips:
                    requests.append(
                        (
                            worker,
                            "install",
                            {
                                "version": version,
                                "blocks": model.blocks,
                                "weights": model.weights,
                                "block_kernel": model.block_kernel,
                                "strips": strips,
                            },
                        )
                    )
            replies = self._fan_out(requests)
            installed: set[int] = set()
            for (_, _, payload), reply in zip(requests, replies):
                if reply is not None:
                    installed.update(payload["strips"])
            missing = set(range(len(slices))) - installed
            if missing:
                raise ServingError(
                    f"strips {sorted(missing)} of version {version} have no "
                    "surviving holder; the fleet is too degraded to install"
                )
            self._models[version] = model
            self._slices[version] = slices
            self.n_installs += 1
            if tracer.enabled:
                tracer.record_span(
                    "serve.install",
                    t0,
                    time.perf_counter(),
                    cat="serve",
                    version=version,
                    n_strips=len(slices),
                    reuse_resident=reuse_resident,
                )
            return version

    def activate(self, version: int) -> None:
        """Atomically flip the active version (the hot-swap moment)."""
        with self._version_lock:
            if version not in self._models:
                raise ServingError(
                    f"version {version} is not installed on this plane"
                )
            if self._active is not None and self._active != version:
                self.n_swaps += 1
            previous, self._active = self._active, version
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "serve.flip", cat="serve", version=version, previous=previous
            )

    def publish(self, model: ServedModel, reuse_resident: bool = False) -> int:
        """Install then activate: the zero-downtime swap in one call."""
        version = self.install(model, reuse_resident=reuse_resident)
        self.activate(version)
        return version

    def retire(self, version: int) -> None:
        """Drop a non-active version from every host and this plane."""
        with self._version_lock:
            if version == self._active:
                raise ServingError(
                    f"version {version} is active; activate another "
                    "version before retiring it"
                )
        with self._request_lock:
            if version not in self._models:
                raise ServingError(f"version {version} is not installed")
            requests = [
                (worker, "drop", {"version": version})
                for worker in range(self._transport.n_workers)
                if worker not in self._dead_workers
            ]
            self._fan_out(requests)
            del self._models[version]
            del self._slices[version]

    def admit_worker(
        self, address: str | None = None, index: int | None = None
    ) -> int:
        """Readmit (or add) a serving host mid-flight — sockets only.

        Wraps ``Coordinator.admit_worker`` under the plane's request
        lock: the coordinator's ticket plane is single-threaded by
        design, so admitting a host while a concurrent ``classify`` is
        pumping it would desynchronise result routing.  The admitted
        index is marked live again; follow with :meth:`rebalance` to
        hand it strips.
        """
        if self.backend != "sockets":
            raise ServingError(
                "admit_worker requires the sockets backend; serial and "
                "process planes have a fixed host set"
            )
        with self._request_lock:
            worker = self._transport.coordinator.admit_worker(
                address=address, index=index
            )
            self._dead_workers.discard(worker)
        return worker

    def rebalance(self, workers=None) -> MovementPlan:
        """Spread served strips back out over ``workers`` (live hosts).

        The serving-plane face of the cluster's elasticity story:
        :meth:`ShardPlacement.rebalance` plans the minimal strip
        movement onto the target hosts, every resident version's moved
        strips are re-installed on their new holders (the store's
        install is additive and idempotent, so a version already
        resident there is untouched), and only then is ownership
        flipped — requests admitted at any point during the rebalance
        are answered bit-identically, because every strip always has at
        least its old holders until the new one is fully resident.

        ``workers`` defaults to every host not currently marked dead.
        Passing it explicitly also *revives* listed hosts that were
        marked dead (the rejoin path: restart the host, then hand its
        index back in).  Returns the executed
        :class:`~repro.cluster.placement.MovementPlan`.
        """
        with self._request_lock:
            if workers is None:
                workers = [
                    w
                    for w in range(self._transport.n_workers)
                    if w not in self._dead_workers
                ]
            else:
                workers = sorted({int(w) for w in workers})
                # Explicitly listed hosts are declared live again — the
                # caller restarted them before asking for a rebalance.
                self._dead_workers.difference_update(workers)
            if self._placement is None:
                # Nothing installed yet: the next install() lays strips
                # out fresh, so there is nothing to move.
                return MovementPlan(
                    workers=tuple(workers), capacity=0, moves=()
                )
            plan = self._placement.rebalance(workers)
            with get_tracer().span(
                "serve.rebalance",
                cat="serve",
                n_moves=plan.n_moves,
                n_workers=len(plan.workers),
            ):
                if plan.moves:
                    self._execute_plan(plan)
                self.n_rebalances += 1
            return plan

    def _execute_plan(self, plan: MovementPlan) -> None:
        """Re-install moved strips on their new holders, then promote.

        Caller holds ``_request_lock``.  One install request per
        (target, version) carries every strip headed to that target;
        a target that fails any install keeps none of its moves (the
        old holders still answer, so nothing is lost — the next
        rebalance retries).
        """
        by_target: dict[int, list[int]] = {}
        for move in plan.moves:
            by_target.setdefault(move.target, []).append(move.strip)
        requests = []
        for target in sorted(by_target):
            for version in sorted(self._models):
                model = self._models[version]
                slices = self._slices[version]
                strips = {}
                for strip in by_target[target]:
                    sl = slices[strip]
                    strips[strip] = {
                        "sl": (sl.start, sl.stop),
                        "rows": model.X[sl],
                        "diags": [d[sl] for d in model.train_diags],
                    }
                requests.append(
                    (
                        target,
                        "install",
                        {
                            "version": version,
                            "blocks": model.blocks,
                            "weights": model.weights,
                            "block_kernel": model.block_kernel,
                            "strips": strips,
                        },
                    )
                )
        replies = self._fan_out(requests)
        failed = {
            worker
            for (worker, _, _), reply in zip(requests, replies)
            if reply is None
        }
        assert self._placement is not None
        for move in plan.moves:
            if move.target in failed:
                continue
            self._placement.add_holder(move.strip, move.target)
            self._placement.promote_holder(move.strip, move.target)
            self.n_rebalanced_strips += 1

    @property
    def active_version(self) -> int | None:
        with self._version_lock:
            return self._active

    @property
    def versions(self) -> tuple[int, ...]:
        return tuple(sorted(self._models))

    # -- request path --------------------------------------------------

    def classify(self, X: np.ndarray) -> ServeResponse:
        """Answer a batch of classification requests."""
        return self._serve(X)

    def score(self, X: np.ndarray) -> ServeResponse:
        """Answer a batch of scoring requests (same envelope, the
        decisions are the payload of interest)."""
        return self._serve(X)

    def _serve(self, X: np.ndarray) -> ServeResponse:
        tracer = get_tracer()
        t0 = time.perf_counter() if tracer.enabled else 0.0
        with self._request_lock:
            with self._version_lock:
                version = self._active
            if version is None:
                raise ServingError(
                    "no active model version; publish one before serving"
                )
            model = self._models[version]
            X = as_2d(X)
            if X.shape[1] != model.n_features:
                raise ServingError(
                    f"request rows have {X.shape[1]} features, the active "
                    f"model was trained on {model.n_features}"
                )
            query_diags = model.query_diags(X)
            slices = self._slices[version]
            pending = set(range(len(slices)))
            strip_results: dict[int, np.ndarray] = {}
            first_round = True
            while pending:
                groups: dict[int, list[int]] = {}
                for strip in sorted(pending):
                    holder = self._first_live_holder(strip)
                    if holder is None:
                        raise ServingError(
                            f"strip {strip} of version {version} has no "
                            "surviving holder; the model is lost"
                        )
                    groups.setdefault(holder, []).append(strip)
                if not first_round:
                    self.n_reroutes += len(pending)
                requests = [
                    (
                        worker,
                        "rows",
                        {
                            "version": version,
                            "strips": strips,
                            "X": X,
                            "query_diags": query_diags,
                        },
                    )
                    for worker, strips in sorted(groups.items())
                ]
                replies = self._fan_out(requests)
                for reply in replies:
                    if reply is None:
                        continue  # dead worker: re-routed next round
                    if reply["version"] != version:
                        raise ServingError(
                            f"worker answered version {reply['version']} "
                            f"for a version-{version} request"
                        )
                    for strip, columns in reply["strips"].items():
                        strip_results[int(strip)] = columns
                        pending.discard(int(strip))
                first_round = False
            cross = np.hstack(
                [strip_results[strip] for strip in range(len(slices))]
            )
            decisions = model.estimator.decision_function(cross)
            predictions = model.estimator.predict(cross)
            self.n_batches += 1
            self.n_rows_served += X.shape[0]
            if tracer.enabled:
                tracer.record_span(
                    "serve.request",
                    t0,
                    time.perf_counter(),
                    cat="serve",
                    version=version,
                    rows=int(X.shape[0]),
                    n_strips=len(slices),
                )
            return ServeResponse(
                version=version, decisions=decisions, predictions=predictions
            )

    # -- introspection -------------------------------------------------

    def host_status(self) -> list[dict | None]:
        """Each live host's resident versions/strips (None where dead)."""
        with self._request_lock:
            requests = [
                (worker, "status", {})
                for worker in range(self._transport.n_workers)
                if worker not in self._dead_workers
            ]
            return self._fan_out(requests)

    def stats(self) -> dict:
        """The serving ledger: request counts, swap/fault bookkeeping,
        and — on sockets — the serve-bucket wire bytes.  ``n_gathers``
        is definitionally zero: the plane has no gather code path, and
        the ledger records that as evidence alongside the placed
        caches' own counters."""
        stats = {
            "backend": self.backend,
            "n_workers": self._transport.n_workers,
            "n_dead_workers": len(self._dead_workers),
            "n_strips": self.n_strips,
            "replication": self.replication,
            "active_version": self.active_version,
            "versions": list(self.versions),
            "n_installs": self.n_installs,
            "n_swaps": self.n_swaps,
            "n_batches": self.n_batches,
            "n_rows_served": self.n_rows_served,
            "n_requests": self.n_requests,
            "n_reroutes": self.n_reroutes,
            "n_promotions": self.n_promotions,
            "n_rebalances": self.n_rebalances,
            "n_rebalanced_strips": self.n_rebalanced_strips,
            "n_gathers": 0,
        }
        if self.backend == "sockets":
            wire = self._transport.coordinator.wire_stats()
            stats["serve_bytes_out"] = wire["serve_bytes_out"]
            stats["serve_bytes_in"] = wire["serve_bytes_in"]
        return stats

    def metrics(self) -> MetricsRegistry:
        """The serving ledger as a kind-tagged registry view.

        Purely derived from :meth:`stats` — counters and gauges carry
        the declared :data:`~repro.telemetry.SERVING_LEDGER_KINDS`
        kinds, so merging across planes or polling windows follows the
        documented semantics instead of ad-hoc dict arithmetic.
        """
        return MetricsRegistry().absorb(
            self.stats(), SERVING_LEDGER_KINDS, prefix="serving."
        )
