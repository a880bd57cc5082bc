"""Pluggable evaluation backends: how batches of partitions get scored.

A backend is anything with a ``name`` and an order-preserving
``map(fn, items) -> list`` — the engine hands it a scoring closure and
a batch of frontier partitions and expects one score per partition, in
input order.  Three implementations ship:

* :class:`SerialBackend` — a plain loop; the deterministic reference.
* :class:`ThreadPoolBackend` — ``concurrent.futures`` thread pool.
  NumPy releases the GIL inside the O(n²) kernels, so batches of
  partition scores genuinely overlap; the engine's caches are lock
  guarded, so bookkeeping (``n_evaluations``, ``n_gram_computations``,
  ``n_matrix_ops``) stays exact.
* :class:`ProcessPoolBackend` — a persistent ``multiprocessing`` worker
  pool.  Scoring closures don't pickle (they close over locks and
  caches), so this backend declares ``supports_tasks = True`` and
  scores :class:`~repro.engine.tasks.EngineTask` envelopes instead:
  the engine ships scalar statistic tables — never Grams, samples or
  labels — and workers do pure O(b²) arithmetic, returning scores that
  are bit-identical to the serial backend's.  Envelope submission is
  pipelined: the coordinator materialises the next chunk's statistics
  while workers score the current one.

A fourth, ``"sockets"`` (:class:`repro.cluster.SocketBackend`), takes
the same ``supports_tasks`` + :class:`EngineTask` contract across the
network to :mod:`repro.cluster` worker servers; it is registered here
through a lazy factory so the engine never imports the cluster package
at import time.  Third parties (rpc fan-out, other transports) plug in
through :func:`register_backend`; anything satisfying the protocol
works, and backends that set ``supports_tasks`` receive statistic
envelopes through ``map_tasks`` instead of closures through ``map``.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Protocol, runtime_checkable

from repro.engine.tasks import (
    EngineTask,
    TaskEnvelopeError,
    WorkerCrashError,
    check_task_payload,
    default_task_chunks,
    score_task_payload,
)
from repro.telemetry import get_tracer, merge_counts

__all__ = [
    "process_context",
    "EvaluationBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "get_backend",
    "register_backend",
    "available_backends",
]


@runtime_checkable
class EvaluationBackend(Protocol):
    """Protocol every evaluation backend satisfies.

    Optional capability hooks (duck-typed; the engine probes with
    ``getattr``): ``supports_tasks`` + ``map_tasks``/``task_chunks``
    for envelope shipping, ``supports_speculation`` +
    ``submit_task``/``wait_task``/``cancel_task`` for the non-blocking
    ticket surface, ``make_placed_cache``/``make_placed_landmark_cache``
    for worker-resident sharding, ``wire_stats`` for the wire ledger,
    and ``for_tenant(name, weight=..., max_queue_depth=...)`` for
    multi-tenant fleets — a backend exposing it returns a tenant-scoped
    view (:class:`repro.cluster.tenancy.TenantBackend`) the engine uses
    in place of the shared backend when constructed with ``tenant=``.
    Backends without a shared fleet simply omit the hook; the engine
    then accepts and ignores the tenant tag, so one call site works on
    serial, processes and sockets alike.
    """

    name: str

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to every item, returning results in input order."""
        ...


class SerialBackend:
    """Score partitions one after another in the calling thread."""

    name = "serial"

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        return [fn(item) for item in items]


class ThreadPoolBackend:
    """Score a batch concurrently on a persistent thread pool.

    ``max_workers=None`` defers to the executor default (CPU count
    based).  The executor is created lazily on first use and reused
    across batches — a search scores hundreds of batches, so per-call
    pool construction would dominate small workloads.  Results keep
    the input order regardless of completion order.  ``close()``
    releases the worker threads early; otherwise they are reclaimed at
    interpreter shutdown.
    """

    name = "threads"

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        """Shut the pool down; the backend can be reused afterwards."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: Modules the fork server imports once, so every worker it forks
#: starts with the engine and the serving store already loaded.
PRELOAD_MODULES = ["repro.engine.tasks", "repro.serving.plane"]


def process_context(method: str | None = None):
    """The ``multiprocessing`` context worker processes start from.

    The default is ``forkserver`` (``spawn`` where that is missing):
    workers fork from a clean single-threaded server process, never
    from the caller.  A plain ``fork`` from a parent that already runs
    threads — tenant searches, prefetch, BLAS pools — can copy a lock
    some other thread holds into the child, which then hangs.  The
    server preloads :data:`PRELOAD_MODULES`, so each worker skips the
    imports a ``spawn`` start would pay.
    """
    import multiprocessing

    if method is None:
        method = (
            "forkserver"
            if "forkserver" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
    context = multiprocessing.get_context(method)
    if method == "forkserver":
        # Takes effect when the server first starts; one per process.
        context.set_forkserver_preload(PRELOAD_MODULES)
    return context


class ProcessPoolBackend:
    """Fan partition scoring out to a persistent process pool.

    The pool is created lazily (from :func:`process_context`:
    ``forkserver`` where available, ``spawn`` otherwise, or the
    ``mp_context`` start method given) and reused across batches.  Two
    entry points:

    * ``map(fn, items)`` — generic order-preserving map for *picklable*
      module-level functions;
    * ``map_tasks(tasks)`` — the engine path: consumes an iterable of
      :class:`~repro.engine.tasks.EngineTask` envelopes, submitting
      each as soon as it is produced.  Passing a lazy generator makes
      the async overlap automatic — the coordinator builds (and
      materialises statistics for) envelope ``k+1`` while workers score
      envelope ``k``.

    Fault handling: a worker crash (``BrokenProcessPool``) discards the
    broken pool, rebuilds it, and retries the full batch up to
    ``retries`` times — safe because task scoring is pure and
    deterministic; ``map`` callers must likewise pass side-effect-free
    functions.  Exhausted retries raise
    :class:`~repro.engine.tasks.WorkerCrashError`; the backend remains
    usable afterwards (the next call builds a fresh pool).  Envelopes
    larger than ``max_task_bytes`` on the wire are rejected with
    :class:`~repro.engine.tasks.TaskEnvelopeError` before submission —
    an oversized envelope means the chunking (or sharding) upstream is
    wrong, not that the transport should silently strain.
    """

    name = "processes"
    supports_tasks = True

    def __init__(
        self,
        max_workers: int | None = None,
        max_task_bytes: int = 64 * 1024 * 1024,
        retries: int = 1,
        mp_context: str | None = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        if max_task_bytes < 1:
            raise ValueError("max_task_bytes must be positive")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.max_workers = max_workers
        self.max_task_bytes = int(max_task_bytes)
        self.retries = int(retries)
        self.mp_context = mp_context
        self._pool = None
        self._wire = {"envelope_bytes_out": 0, "envelope_bytes_in": 0, "n_tasks": 0}

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            context = process_context(self.mp_context)
            method = context.get_start_method()
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=context
            )
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "backend.pool_build",
                    cat="backend",
                    method=method,
                    max_workers=self.max_workers,
                )
        return self._pool

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event("backend.pool_discard", cat="backend")

    def warm_up(self) -> None:
        """Create the worker pool now instead of on first use.

        The engine calls this before starting its prefetch thread.  The
        default start methods never fork the caller, so this only moves
        the start-up cost; with an explicit ``mp_context="fork"`` the
        pool must exist before the caller starts any thread, because
        forking a multi-threaded process can inherit locked
        allocator/BLAS mutexes in the children.
        """
        self._ensure_pool()

    def close(self) -> None:
        """Shut the pool down; the backend can be reused afterwards."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- execution with crash recovery ---------------------------------

    def _run(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        guard: Callable[[Any], None] | None,
    ) -> list[Any]:
        staged: list[Any] = []

        def produce() -> Iterator[Any]:
            for item in items:
                if guard is not None:
                    guard(item)
                staged.append(item)
                yield item

        source: Iterable[Any] = produce()
        attempt = 0
        while True:
            pool = self._ensure_pool()
            try:
                futures = [pool.submit(fn, item) for item in source]
                return [future.result() for future in futures]
            except BrokenProcessPool as error:
                self._discard_pool()
                if attempt >= self.retries:
                    # Terminal: report immediately — don't build (or
                    # size-check) envelopes that would be thrown away.
                    raise WorkerCrashError(
                        f"worker pool crashed scoring a batch of "
                        f"{len(staged)} items"
                        + (f" after {attempt} retr{'y' if attempt == 1 else 'ies'}"
                           if attempt else "")
                    ) from error
                # Drain anything not yet pulled so the replay covers the
                # whole batch, then resubmit `staged`.
                for _ in source:
                    pass
                attempt += 1
                source = iter(staged)

    # -- public mapping surface ----------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Order-preserving map of a picklable function over items."""
        items = list(items)
        if not items:
            return []
        return self._run(fn, items, guard=None)

    def _check_payload(self, payload: bytes) -> None:
        check_task_payload(payload, self.max_task_bytes)
        # Passed the guard: these bytes will ship.  (Replays after a
        # pool crash reuse the staged payloads, so nothing is double
        # counted.)
        merge_counts(
            self._wire, {"envelope_bytes_out": len(payload), "n_tasks": 1}
        )

    def map_tasks(
        self, tasks: Iterable[EngineTask]
    ) -> list[tuple[list[float], int]]:
        """Score envelopes on the pool, one ``(scores, ops)`` per task.

        Each envelope is serialized exactly once: the bytes are both
        the wire-size guard's measurement and the shipped payload.
        """

        payloads = (task.payload() for task in tasks)
        with get_tracer().span("backend.map_tasks", cat="backend") as span:
            results = self._run(
                score_task_payload, payloads, guard=self._check_payload
            )
            span.set(n_tasks=len(results))
        merge_counts(
            self._wire,
            {
                "envelope_bytes_in": sum(
                    len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
                    for result in results
                )
            },
        )
        return results

    def wire_stats(self) -> dict[str, int]:
        """Cumulative envelope bytes shipped to / received from workers.

        The process boundary is a pipe, not a network, but the pickled
        envelope is the same payload a remote transport would frame —
        recording it makes pool and socket runs directly comparable in
        ``BENCH_backends.json``.
        """
        return dict(self._wire)

    def task_chunks(self, n_items: int) -> int:
        """Envelopes to split an ``n_items`` batch into (shared 2-per-
        worker pipeline policy)."""
        return default_task_chunks(n_items, self.max_workers or os.cpu_count() or 1)

    # -- speculation plane ---------------------------------------------
    #
    # The engine's speculation scheduler submits likely-next envelopes
    # ahead of the strategy's decision.  On a process pool these map
    # directly onto executor futures; a queued future can be truly
    # cancelled, a running one is simply discarded on completion.

    supports_speculation = True

    def submit_task(self, payload: bytes) -> "_PoolTaskHandle":
        """Submit one envelope without waiting; returns a handle.

        A pool already broken by an earlier crash is discarded and
        rebuilt here, mirroring the batch path — speculation must not
        turn a recoverable crash into a submission failure.
        """
        check_task_payload(payload, self.max_task_bytes)
        merge_counts(
            self._wire, {"envelope_bytes_out": len(payload), "n_tasks": 1}
        )
        try:
            future = self._ensure_pool().submit(score_task_payload, payload)
        except BrokenProcessPool:
            self._discard_pool()
            future = self._ensure_pool().submit(score_task_payload, payload)
        return _PoolTaskHandle(payload=payload, future=future)

    def wait_task(self, handle: "_PoolTaskHandle"):
        """Block for a speculative result; ``None`` if it was cancelled.

        A pool crash mid-speculation discards the broken pool and
        replays the (pure, deterministic) envelope through the normal
        retry path, so speculation inherits the batch path's crash
        recovery instead of weakening it.
        """
        from concurrent.futures import CancelledError

        try:
            result = handle.future.result()
        except CancelledError:
            return None
        except BrokenProcessPool:
            self._discard_pool()
            result = self._run(score_task_payload, [handle.payload], guard=None)[0]
        merge_counts(
            self._wire,
            {
                "envelope_bytes_in": len(
                    pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
                )
            },
        )
        return result

    def cancel_task(self, handle: "_PoolTaskHandle") -> None:
        """Cancel a queued speculative future (running ones complete
        and are discarded by the caller's ledger)."""
        handle.future.cancel()


class _PoolTaskHandle:
    """One speculative envelope in flight on the process pool."""

    __slots__ = ("payload", "future")

    def __init__(self, payload: bytes, future):
        self.payload = payload
        self.future = future


def _sockets_factory(**options: Any) -> EvaluationBackend:
    """Lazy factory for the networked backend (``repro.cluster``).

    Imported on first use so the engine package never depends on the
    cluster package at import time (cluster builds on engine, not the
    reverse).
    """
    from repro.cluster import SocketBackend

    return SocketBackend(**options)


_REGISTRY: dict[str, Callable[..., EvaluationBackend]] = {
    "serial": SerialBackend,
    "threads": ThreadPoolBackend,
    "processes": ProcessPoolBackend,
    "sockets": _sockets_factory,
}


def register_backend(name: str, factory: Callable[..., EvaluationBackend]) -> None:
    """Register a backend factory under ``name`` (overwrites existing)."""
    if not name:
        raise ValueError("backend name must be non-empty")
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend`."""
    return tuple(sorted(_REGISTRY))


def get_backend(spec: str | EvaluationBackend, **options: Any) -> EvaluationBackend:
    """Resolve a backend name (or pass an instance through)."""
    if not isinstance(spec, str):
        if not isinstance(spec, EvaluationBackend):
            raise TypeError(f"not an evaluation backend: {spec!r}")
        return spec
    try:
        factory = _REGISTRY[spec]
    except KeyError:
        raise ValueError(
            f"unknown backend {spec!r}; available: {', '.join(available_backends())}"
        ) from None
    return factory(**options)
