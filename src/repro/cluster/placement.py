"""Placement-aware sharding: workers hold row strips end-to-end.

The in-process :class:`~repro.engine.cache.ShardedGramCache` proved
the layout (per-shard row strips, rank-1 centred target, strip-wise
scalar reductions) but kept every strip in one address space.  This
module moves strip *ownership* onto the cluster workers:

* :class:`ShardPlacement` maps each strip index to the ordered set of
  workers **holding** it — a primary owner plus ``replication - 1``
  replicas (round-robin by default, or seeded from an explicit
  primary assignment);
* :class:`PlacedGramCache` / :class:`PlacedBlockStatsCache` are the
  coordinator-side facades with the same surface as the sharded
  caches (``strips`` are replaced by ownership; ``block_stats`` /
  ``pair_inner`` / ``partition_stats`` / ``target_norm`` are
  identical), orchestrating the per-block reduction over the
  placement plane of a :class:`~repro.cluster.coordinator.Coordinator`.

What crosses the wire per block is three O(n)-vector round trips
(raw-diagonal → scale, row-mean segments → global row means, then the
per-strip scalar statistics) and per *pair* a single scalar round trip
— the strips themselves are built and stay **resident worker-side**,
never re-shipped per task.  The one-time ``MSG_INIT`` ships the
training sample to each worker, standing in for data that a real IoT
deployment already has on the node that owns those rows.

Failure model (the cluster-resilience subsystem):

* every holder of a strip builds (and keeps) its copy during the
  block fan-outs, so with ``replication >= 2`` a strip owner's death
  costs nothing but a **promotion**: the next live holder becomes the
  primary, reductions continue from its bit-identical copy, and the
  search result — scores, op ledger, ``n_gathers == 0`` — is unchanged
  (no fresh-cache rebuild);
* a promotion leaves the strip *degraded* (fewer than ``replication``
  live holders), so a background **re-replicator** copies the built
  strips from a live holder to a survivor over dedicated replication
  connections (``MSG_STRIP_STATE`` → ``MSG_STRIP_INSTALL``), restoring
  the factor; the copied bytes are the ``replication_bytes_*`` ledger;
* ``replication=1`` keeps no replicas by explicit choice, so a dead
  owner's strips are *lost*; the next placement operation performs the
  **explicit rebuild fallback** — warn, adopt the lost row slices on a
  survivor, and rebuild the built blocks' strips there from the stored
  scale/row statistics (``MSG_STRIP_REBUILD``, counted in
  ``n_strip_rebuilds``).  This is the loud successor of the silent
  fresh-cache rebuild PR 3 required;
* when *every* holder of a strip is gone and replicas were requested,
  :class:`StripLossError` (a
  :class:`~repro.engine.tasks.WorkerCrashError`) is raised — resident
  state cannot be silently recomputed when the caller paid for
  redundancy and lost it.

Numerical contract: every reduction happens in the same order and with
the same expressions as ``ShardedBlockStatsCache`` and always reads
the **primary** holder's scalars, so the values — and therefore every
score — are **bit-identical** to an in-process sharded run with the
same ``n_shards``, before and after promotions (replica copies are
built by the same code on the same float64 inputs).  The op ledger
keeps the same logical schedule (2 target passes, 3 per block, 1 per
pair; ``n_gram_computations`` one per block), and ``n_gathers`` counts
the deliberate full-Gram assemblies (final-model training only): a
search keeps it at zero.
"""

from __future__ import annotations

import hashlib
import math
import threading
import warnings
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.cluster.protocol import (
    MSG_BLOCK_CENTER,
    MSG_BLOCK_RAW,
    MSG_BLOCK_SCALE,
    MSG_INIT,
    MSG_LANDMARK_FACTOR,
    MSG_LANDMARK_PAIR,
    MSG_LANDMARK_STATS,
    MSG_PAIR,
    MSG_STRIP_INSTALL,
    MSG_STRIP_REBUILD,
    MSG_STRIP_STATE,
    MSG_STRIPS_FETCH,
    MSG_TARGET,
    ProtocolError,
    dump_payload,
    load_payload,
)
from repro.combinatorics.partitions import SetPartition
from repro.engine.cache import (
    _KeyLocked,
    _PartitionStatsMixin,
    canonical_block_key,
    default_n_landmarks,
    landmark_transform,
    select_landmarks,
    shard_row_slices,
)
from repro.engine.tasks import WorkerCrashError
from repro.kernels.base import as_2d
from repro.kernels.gram import frobenius_inner, reduce_strip_rows
from repro.kernels.partition_kernel import BlockKernelFactory, default_block_kernel
from repro.telemetry import get_tracer

__all__ = [
    "ShardPlacement",
    "PlacedGramCache",
    "PlacedBlockStatsCache",
    "PlacedLandmarkGramCache",
    "PlacedLandmarkStatsCache",
    "StripLossError",
    "StripMove",
    "MovementPlan",
    "rendezvous_owners",
]

BlockKey = tuple[int, ...]


def _rendezvous_score(strip: int, worker: int) -> int:
    """Deterministic rendezvous (HRW) weight of a (strip, worker) pair.

    SHA-1 of the pair, *not* Python's ``hash()``: every process that
    ranks workers for a strip — the coordinator today, a test asserting
    movement bounds, a future coordinator restarted over the same fleet
    — must produce the identical ranking, and ``hash()`` is randomised
    per interpreter.
    """
    digest = hashlib.sha1(b"%d:%d" % (strip, worker)).digest()
    return int.from_bytes(digest[:8], "big")


def _rendezvous_ranking(strip: int, workers: Sequence[int]) -> list[int]:
    """Workers ordered by descending rendezvous preference for a strip."""
    return sorted(workers, key=lambda w: (-_rendezvous_score(strip, w), w))


def rendezvous_owners(n_shards: int, workers: Sequence[int]) -> list[int]:
    """Bounded-load rendezvous assignment of strip primaries.

    Each strip prefers workers by its private rendezvous ranking, and
    strips are assigned in index order to their most-preferred worker
    that still has capacity (``ceil(n_shards / n_workers)`` primaries
    per worker).  The capacity bound keeps the load balanced; the
    rendezvous ranking keeps membership changes *local*: a worker's
    removal strands only the strips it owned, and a worker's addition
    attracts only the strips that rank it first among the survivors'
    overflow — the property :meth:`ShardPlacement.rebalance` turns into
    a provably minimal movement plan.
    """
    workers = sorted({int(w) for w in workers})
    if not workers:
        raise ValueError("at least one worker is required")
    if any(w < 0 for w in workers):
        raise ValueError("worker indices must be non-negative")
    capacity = math.ceil(n_shards / len(workers))
    load = {w: 0 for w in workers}
    owners: list[int] = []
    for strip in range(n_shards):
        for worker in _rendezvous_ranking(strip, workers):
            if load[worker] < capacity:
                owners.append(worker)
                load[worker] += 1
                break
    return owners


@dataclass(frozen=True)
class StripMove:
    """One planned primary movement: copy ``strip`` from ``source``
    (``None`` when every holder is already gone) and make ``target``
    its new primary."""

    strip: int
    source: int | None
    target: int


@dataclass(frozen=True)
class MovementPlan:
    """A minimal-movement rebalance plan (see
    :meth:`ShardPlacement.rebalance`).

    ``workers`` is the target fleet, ``capacity`` the per-worker
    primary bound the plan enforces, and ``moves`` the strips whose
    primaries change — everything else stays exactly where it is.
    """

    workers: tuple[int, ...]
    capacity: int
    moves: tuple[StripMove, ...]

    @property
    def n_moves(self) -> int:
        return len(self.moves)

    @property
    def moved_strips(self) -> tuple[int, ...]:
        return tuple(move.strip for move in self.moves)


class StripLossError(WorkerCrashError):
    """Every holder of a replicated strip died before re-replication
    could restore a copy — the resident state is gone and the search
    cannot continue without recomputation the caller did not opt into
    (``replication=1`` opts into the explicit rebuild fallback)."""


class ShardPlacement:
    """Assignment of strip indices to the workers holding them.

    ``holders_of(s)`` is the ordered tuple of workers with strip ``s``
    resident; the first is the **primary** (``owners[s]``) whose
    scalars every reduction reads.  Each strip starts with
    ``replication`` holders — the primary (round-robin by default, or
    the explicit ``owners`` assignment) plus the next distinct workers
    in index order — so ``replication - 1`` deaths are survivable per
    strip without losing resident state.

    The placement is *mutable*: :meth:`drop_worker` removes a dead
    worker everywhere (promoting replicas where it was primary) and
    :meth:`add_holder` publishes a re-replicated or rebuilt copy.
    """

    def __init__(
        self,
        n_shards: int,
        n_workers: int,
        owners: Sequence[int] | None = None,
        replication: int | None = None,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be positive")
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        if replication is None:
            replication = min(2, n_workers)
        if not 1 <= replication <= n_workers:
            raise ValueError(
                f"replication must be in [1, n_workers={n_workers}], "
                f"got {replication}"
            )
        if owners is None:
            owners = [s % n_workers for s in range(n_shards)]
        owners = [int(o) for o in owners]
        if len(owners) != n_shards:
            raise ValueError(
                f"owners must assign all {n_shards} strips, got {len(owners)}"
            )
        if any(o < 0 or o >= n_workers for o in owners):
            raise ValueError("strip owner index outside the worker fleet")
        self.n_shards = int(n_shards)
        self.n_workers = int(n_workers)
        self.replication = int(replication)
        self._holders: list[list[int]] = []
        for primary in owners:
            holders = [primary]
            step = 1
            while len(holders) < self.replication:
                candidate = (primary + step) % n_workers
                if candidate not in holders:
                    holders.append(candidate)
                step += 1
            self._holders.append(holders)

    @property
    def owners(self) -> tuple[int | None, ...]:
        """Primary holder per strip (``None`` for a lost strip)."""
        return tuple(h[0] if h else None for h in self._holders)

    def holders_of(self, strip: int) -> tuple[int, ...]:
        """Workers holding the strip, primary first."""
        return tuple(self._holders[strip])

    def strips_of(self, worker_index: int) -> tuple[int, ...]:
        """Strip indices the worker holds (primary or replica)."""
        return tuple(
            s
            for s, holders in enumerate(self._holders)
            if worker_index in holders
        )

    @property
    def active_workers(self) -> tuple[int, ...]:
        """Workers holding at least one strip, in index order."""
        active: set[int] = set()
        for holders in self._holders:
            active.update(holders)
        return tuple(sorted(active))

    def drop_worker(self, worker_index: int) -> dict:
        """Remove a dead worker from every holder list.

        Returns ``{"promoted": {strip: new_primary}, "lost": (strips
        with no holder left,), "degraded": (strips still held but below
        the replication factor,)}``.  Idempotent: dropping a worker
        that holds nothing returns empty results.
        """
        promoted: dict[int, int] = {}
        lost: list[int] = []
        degraded: list[int] = []
        for s, holders in enumerate(self._holders):
            if worker_index not in holders:
                continue
            was_primary = holders[0] == worker_index
            holders.remove(worker_index)
            if not holders:
                lost.append(s)
            else:
                degraded.append(s)
                if was_primary:
                    promoted[s] = holders[0]
        return {
            "promoted": promoted,
            "lost": tuple(lost),
            "degraded": tuple(degraded),
        }

    def add_holder(self, strip: int, worker_index: int) -> None:
        """Publish a new holder (re-replication or rebuild adopted it)."""
        holders = self._holders[strip]
        if worker_index not in holders:
            holders.append(int(worker_index))

    def promote_holder(self, strip: int, worker_index: int) -> None:
        """Make an existing holder the strip's primary (a completed
        migration flips ownership only once the copy is resident)."""
        holders = self._holders[strip]
        if worker_index not in holders:
            raise ValueError(
                f"worker {worker_index} does not hold strip {strip}; "
                "install the strip (add_holder) before promoting"
            )
        holders.remove(worker_index)
        holders.insert(0, int(worker_index))

    def grow_fleet(self, n_workers: int) -> None:
        """Raise the registered fleet size (new workers hold nothing
        until a rebalance moves strips onto them)."""
        if n_workers < self.n_workers:
            raise ValueError(
                f"cannot shrink the fleet from {self.n_workers} to "
                f"{n_workers} workers; rebalance away from a worker "
                "instead of unregistering it"
            )
        self.n_workers = int(n_workers)

    @classmethod
    def rendezvous(
        cls,
        n_shards: int,
        n_workers: int,
        replication: int | None = None,
    ) -> "ShardPlacement":
        """A placement whose primaries follow the bounded-load
        rendezvous assignment (:func:`rendezvous_owners`) — the layout
        whose membership changes :meth:`rebalance` keeps minimal."""
        return cls(
            n_shards,
            n_workers,
            owners=rendezvous_owners(n_shards, range(n_workers)),
            replication=replication,
        )

    def primary_load(self) -> dict[int, int]:
        """Primaries per worker (workers owning nothing are absent)."""
        load: dict[int, int] = {}
        for holders in self._holders:
            if holders:
                load[holders[0]] = load.get(holders[0], 0) + 1
        return load

    def rebalance(self, workers: Sequence[int]) -> MovementPlan:
        """Plan a minimal-movement primary rebalance onto ``workers``.

        Keep-first: a strip stays with its current primary whenever
        that primary is in the target fleet and under the capacity
        bound ``ceil(n_shards / len(workers))``.  Only orphaned strips
        (primary dead, departed, or lost) and the over-capacity
        overflow move — each to its most-preferred under-capacity
        worker by rendezvous ranking.  Movement bounds (``S`` strips,
        balanced rendezvous start):

        * remove one of ``n`` workers → only its own strips move:
          at most ``ceil(S / n)``;
        * add a worker to ``n`` → only the overflow above the new
          capacity moves: at most ``ceil(S / n) + n`` in the worst
          ceiling case, ~``S / (n + 1)`` typically;
        * unchanged membership on a balanced placement → an empty plan
          (rebalance is idempotent).

        The plan is *advice*: nothing is mutated here.  The executor
        copies each moved strip to its target, then calls
        :meth:`add_holder` + :meth:`promote_holder` to flip ownership.
        """
        targets = sorted({int(w) for w in workers})
        if not targets:
            raise ValueError("cannot rebalance onto an empty worker set")
        if any(w < 0 or w >= self.n_workers for w in targets):
            raise ValueError("rebalance target outside the worker fleet")
        capacity = math.ceil(self.n_shards / len(targets))
        allowed = set(targets)
        load = {w: 0 for w in targets}
        pending: list[int] = []
        owners = self.owners
        for strip, owner in enumerate(owners):
            if owner in allowed and load[owner] < capacity:
                load[owner] += 1
            else:
                pending.append(strip)
        moves: list[StripMove] = []
        for strip in pending:
            for worker in _rendezvous_ranking(strip, targets):
                if load[worker] < capacity:
                    load[worker] += 1
                    moves.append(
                        StripMove(
                            strip=strip, source=owners[strip], target=worker
                        )
                    )
                    break
        return MovementPlan(
            workers=tuple(targets), capacity=capacity, moves=tuple(moves)
        )


class PlacedGramCache(_KeyLocked):
    """Coordinator-side facade over worker-resident Gram strips.

    Same ledger surface as :class:`~repro.engine.cache.ShardedGramCache`
    (``n_gram_computations``, ``n_gathers``, ``row_slices``,
    ``max_strip_rows``, ``stats_cache``); the strips themselves live on
    the holding workers.  ``gram()`` — the one deliberate full-matrix
    assembly, for final-model training — fetches every strip once and
    counts a gather.

    On construction the cache registers itself as a death listener on
    the coordinator: a detected worker death immediately drops the
    worker from the placement (promoting replicas) and queues the
    degraded strips for background re-replication.
    """

    #: Fan-out rounds attempted before declaring the placement
    #: unreachable (each round re-targets the updated holder set).
    MAX_FANOUT_ATTEMPTS = 4
    #: Re-replication attempts per degraded strip before giving up
    #: (the strip stays readable from its surviving holders).
    MAX_REPLICATION_ATTEMPTS = 3

    def __init__(
        self,
        coordinator,
        X: np.ndarray,
        block_kernel: BlockKernelFactory = default_block_kernel,
        normalize: bool = True,
        n_shards: int = 2,
        placement: ShardPlacement | None = None,
        replication: int | None = None,
        namespace: str = "default",
    ):
        super().__init__()
        self.coordinator = coordinator
        # Worker-side placement residency is keyed by namespace, so two
        # caches (two tenants, or a tenant next to the default plane)
        # sharing the fleet never clobber each other's strips.  Every
        # placement frame this cache sends carries the namespace.
        self.namespace = str(namespace)
        self.X = as_2d(X)
        n = self.X.shape[0]
        if not 1 <= n_shards <= n:
            raise ValueError(
                f"n_shards must be in [1, n_samples={n}], got {n_shards}"
            )
        if placement is not None and replication is not None:
            raise ValueError("pass either placement or replication, not both")
        self.block_kernel = block_kernel
        self.normalize = normalize
        self.n_shards = int(n_shards)
        self.placement = placement or ShardPlacement(
            self.n_shards, coordinator.n_workers, replication=replication
        )
        if self.placement.n_shards != self.n_shards:
            raise ValueError("placement does not cover n_shards strips")
        self.row_slices = shard_row_slices(n, self.n_shards)
        self._initialised = False
        self._initialised_workers: set[int] = set()
        # Per block: the global row-mean vector and grand mean of the
        # (normalised) strips — the O(n) reduction centring needs —
        # plus the scale vector, kept so late-adopting holders (and the
        # replication=1 rebuild) can reproduce the strips exactly.
        self._row_stats: dict[BlockKey, tuple[np.ndarray, float]] = {}
        self._block_scale: dict[BlockKey, np.ndarray | None] = {}
        # Resilience state: guarded by _data_lock, mutated by the death
        # listener (any thread) and the re-replicator.  Lock order:
        # coordinator plane locks before _data_lock, never the reverse
        # — so no network I/O ever happens while _data_lock is held.
        self._data_lock = threading.RLock()
        self._lost_strips: set[int] = set()
        self._repl_queue: deque[int] = deque()
        self._repl_attempts: dict[int, int] = {}
        self._repl_thread: threading.Thread | None = None
        self._target_body: dict | None = None
        self._target_workers: set[int] = set()
        self._rebuild_warned = False
        self.n_gram_computations = 0
        self.n_gathers = 0
        self.n_promotions = 0
        self.n_replicated_strips = 0
        self.n_replication_failures = 0
        self.n_strip_rebuilds = 0
        self.n_rebalances = 0
        self.n_rebalanced_strips = 0
        self.resident_strip_bytes: dict[int, int] = {}
        coordinator.add_death_listener(self._on_worker_death)
        coordinator.add_join_listener(self._on_worker_join)
        # A reused coordinator may already know some workers are dead —
        # and it notifies each death only once per worker life, so a
        # cache built afterwards must fold the standing deaths into its
        # placement now or it would wait forever on dead primaries.
        for index in range(coordinator.n_workers):
            if coordinator.worker_is_dead(index):
                self._on_worker_death(index)

    def detach(self) -> None:
        """Unhook this cache from the coordinator's death notifications.

        Called when the search that owned the cache is over: a reused
        backend keeps serving other searches, and a stale cache must
        not keep promoting placements or shipping strip copies for
        results nobody will read.  Idempotent.
        """
        self.coordinator.remove_death_listener(self._on_worker_death)
        self.coordinator.remove_join_listener(self._on_worker_join)
        with self._data_lock:
            self._repl_queue.clear()

    @property
    def max_strip_rows(self) -> int:
        """Largest row count any one strip (hence worker block) holds."""
        return max(sl.stop - sl.start for sl in self.row_slices)

    # -- death handling -------------------------------------------------

    def _on_worker_death(self, worker_index: int) -> None:
        """Coordinator death listener: promote replicas, queue repairs.

        Bookkeeping only (no network I/O — listeners may run under the
        coordinator's plane locks): the placement is updated so the
        very next reduction reads the promoted holders, and degraded
        strips are queued for the background re-replicator.
        """
        with self._data_lock:
            outcome = self.placement.drop_worker(worker_index)
            self.n_promotions += len(outcome["promoted"])
            self._lost_strips.update(outcome["lost"])
            self._initialised_workers.discard(worker_index)
            self._target_workers.discard(worker_index)
            # A dead node's strips are gone; leaving its last reported
            # residency in the ledger would overstate the evidence.
            self.resident_strip_bytes.pop(worker_index, None)
            repair = [
                s for s in outcome["degraded"] if s not in self._repl_queue
            ]
            self._repl_queue.extend(repair)
            should_kick = bool(repair) and self.placement.replication > 1
        tracer = get_tracer()
        if tracer.enabled and outcome["promoted"]:
            tracer.event(
                "placement.promote",
                cat="placement",
                worker=worker_index,
                promoted=dict(outcome["promoted"]),
            )
        if should_kick:
            self._kick_replicator()

    def _live_holders(self, strip: int) -> list[int]:
        """Live workers holding the strip (caller holds ``_data_lock``)."""
        return [
            w
            for w in self.placement.holders_of(strip)
            if not self.coordinator.worker_is_dead(w)
        ]

    # -- placement-plane orchestration ---------------------------------

    def _request(self, worker: int, msg_type: int, body: dict) -> dict:
        reply = self.coordinator.placement_request(
            worker, msg_type, dump_payload({**body, "ns": self.namespace})
        )
        return load_payload(reply)

    def _fan_out(
        self, msg_type: int, body: dict
    ) -> tuple[dict[int, dict], tuple[int, ...]]:
        """One request to every live strip holder, computed concurrently.

        All requests go out before any reply is awaited
        (:meth:`~repro.cluster.coordinator.Coordinator.placement_fan_out`),
        so per-strip O(n²) work overlaps across the fleet; the replies
        are then reduced coordinator-side in strip order regardless of
        completion order, keeping the sums bit-identical.

        Holder deaths during the fan-out run the death listener (the
        placement is promoted in place), the round is re-targeted at
        the updated holder set, and the replayed requests answer from
        resident state (the worker handlers are idempotent).  Only when
        no round can reach a live holder for every strip does the
        fan-out raise — :class:`StripLossError` for lost resident
        state, :class:`~repro.engine.tasks.WorkerCrashError` when the
        whole fleet is gone.

        Returns ``(replies, owners)`` — the owner snapshot validated
        against these replies, so reductions index a consistent view
        even if another death lands right after the fan-out.
        """
        payload = dump_payload({**body, "ns": self.namespace})
        for _ in range(self.MAX_FANOUT_ATTEMPTS):
            self._repair_lost_strips()
            with self._data_lock:
                targets = [
                    w
                    for w in self.placement.active_workers
                    if not self.coordinator.worker_is_dead(w)
                ]
            if not targets:
                raise WorkerCrashError(
                    "no live strip holders remain in the placement"
                )
            with get_tracer().span(
                "placement.fan_out",
                cat="placement",
                msg_type=msg_type,
                n_targets=len(targets),
            ):
                raw = self.coordinator.placement_fan_out(
                    targets, msg_type, payload
                )
            replies = {w: load_payload(r) for w, r in raw.items()}
            with self._data_lock:
                owners = self.placement.owners
            if all(o is not None and o in replies for o in owners):
                return replies, owners
        raise WorkerCrashError(
            "placement fan-out could not reach a live holder for every "
            f"strip after {self.MAX_FANOUT_ATTEMPTS} rounds"
        )

    def ensure_init(self) -> None:
        """Ship each holding worker its ownership state once (idempotent).

        A holder that died before (or while) being initialised is
        recorded dead — promoting its strips — and skipped; coverage is
        enforced by the fan-outs that follow.
        """
        with self._key_lock("__init__"):
            if self._initialised:
                return
            with self._data_lock:
                workers = list(self.placement.active_workers)
            for worker in workers:
                if self.coordinator.worker_is_dead(worker):
                    continue
                self._init_worker(worker, self._request)
            self._initialised = True

    def _init_worker(self, worker: int, requester) -> bool:
        """Send MSG_INIT (once) to a worker; False if it died."""
        with self._data_lock:
            if worker in self._initialised_workers:
                return True
            slices = {
                s: self.row_slices[s] for s in self.placement.strips_of(worker)
            }
        try:
            requester(
                worker,
                MSG_INIT,
                {
                    "X": self.X,
                    "block_kernel": self.block_kernel,
                    "normalize": self.normalize,
                    "slices": slices,
                },
            )
        except (ProtocolError, OSError):
            return False
        with self._data_lock:
            self._initialised_workers.add(worker)
        return True

    def ship_target(self, centered_y: np.ndarray) -> None:
        """Ship the centred target to every live holder (idempotent).

        The payload is remembered so late adopters (re-replication
        targets, rebuild survivors) receive it too — every holder must
        be able to answer ``MSG_BLOCK_CENTER`` statistics.
        """
        with self._key_lock("__target__"):
            if self._target_body is not None:
                return
            self.ensure_init()
            body = {"centered_y": centered_y}
            with self._data_lock:
                workers = list(self.placement.active_workers)
            shipped: set[int] = set()
            for worker in workers:
                if self.coordinator.worker_is_dead(worker):
                    continue
                try:
                    self._request(worker, MSG_TARGET, body)
                except (ProtocolError, OSError):
                    continue
                shipped.add(worker)
            with self._data_lock:
                self._target_body = body
                self._target_workers |= shipped

    def _ship_target_to(self, worker: int, requester) -> None:
        """Forward the remembered target payload to a late adopter."""
        with self._data_lock:
            body = self._target_body
            if body is None or worker in self._target_workers:
                return
        requester(worker, MSG_TARGET, body)
        with self._data_lock:
            self._target_workers.add(worker)

    def gram_cached(self, block: Sequence[int]) -> bool:
        """True if the block's strips are already built fleet-side."""
        return canonical_block_key(block) in self._row_stats

    def ensure_strips(self, block: Sequence[int]) -> tuple[np.ndarray, float]:
        """Build (normalise) a block's strips on every holder, once.

        Returns the block's global row means and grand mean — the O(n)
        reduction the stats cache needs for centring.  Reduction order
        matches ``ShardedGramCache`` exactly: diagonal segments and
        row-mean segments are concatenated in strip order, always from
        the primary holder's reply.
        """
        key = canonical_block_key(block)
        cached = self._row_stats.get(key)
        if cached is not None:
            return cached
        with self._key_lock(("strips", key)):
            if key not in self._row_stats:
                self.ensure_init()
                raw, owners = self._fan_out(MSG_BLOCK_RAW, {"key": key})
                scale = None
                if self.normalize:
                    diagonal = np.concatenate(
                        [raw[owners[s]]["diag"][s] for s in range(self.n_shards)]
                    )
                    # A diagonal of exact ones scales nothing (as in
                    # ShardedGramCache): holders skip the division.
                    if not np.all(diagonal == 1.0):
                        scale = np.sqrt(np.clip(diagonal, 1e-12, None))
                scaled, owners = self._fan_out(
                    MSG_BLOCK_SCALE, {"key": key, "scale": scale}
                )
                row_means = np.concatenate(
                    [
                        scaled[owners[s]]["row_means"][s]
                        for s in range(self.n_shards)
                    ]
                )
                grand_mean = float(row_means.mean())
                with self._lock:
                    self.n_gram_computations += 1
                    self._block_scale[key] = scale
                    self._row_stats[key] = (row_means, grand_mean)
        return self._row_stats[key]

    # -- resilience: repair paths --------------------------------------

    def _repair_lost_strips(self) -> None:
        """Handle strips whose every holder died.

        ``replication=1`` opted out of redundancy, so the fallback is
        explicit and loud: warn once, adopt the lost row slices on the
        survivor with the fewest strips, and rebuild the already-built
        blocks there from the stored scale/row statistics.  With
        replicas requested, lost resident state is a hard error.
        """
        with self._data_lock:
            lost = sorted(self._lost_strips)
            replication = self.placement.replication
        if not lost:
            return
        if replication > 1:
            raise StripLossError(
                f"every holder of strip{'s' if len(lost) > 1 else ''} "
                f"{lost} died before re-replication could restore a copy "
                f"(replication={replication}); the resident strips are "
                "gone — restart the search with a fresh cache or more "
                "workers"
            )
        if not self._rebuild_warned:
            self._rebuild_warned = True
            warnings.warn(
                "a dead strip owner with replication=1 forces an explicit "
                f"rebuild of strip{'s' if len(lost) > 1 else ''} {lost} on a "
                "surviving worker; set replication>=2 to recover from "
                "replicas instead",
                RuntimeWarning,
                stacklevel=2,
            )
        for strip in lost:
            self._rebuild_strip(strip)

    def _repair_candidates(self, strip: int) -> list[int]:
        """Live workers not holding the strip, least-loaded first (the
        shared target order of both repair paths; caller holds
        ``_data_lock``)."""
        return sorted(
            (
                w
                for w in self.coordinator.live_worker_indices()
                if w not in self.placement.holders_of(strip)
            ),
            key=lambda w: (len(self.placement.strips_of(w)), w),
        )

    def _rebuild_strip(self, strip: int) -> None:
        """The ``replication=1`` fallback: recompute a lost strip."""
        with self._data_lock:
            candidates = self._repair_candidates(strip)
            blocks = {
                key: {
                    "scale": self._block_scale.get(key),
                    "row_means": row_means,
                    "grand_mean": grand_mean,
                }
                for key, (row_means, grand_mean) in self._row_stats.items()
            }
        for target in candidates:
            if not self._init_worker(target, self._request):
                continue
            try:
                self._ship_target_to(target, self._request)
                self._request(
                    target,
                    MSG_STRIP_REBUILD,
                    {
                        "slices": {strip: self.row_slices[strip]},
                        "blocks": blocks,
                    },
                )
            except (ProtocolError, OSError):
                continue
            with self._data_lock:
                self.placement.add_holder(strip, target)
                self._lost_strips.discard(strip)
                self.n_strip_rebuilds += 1
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "placement.rebuild_strip",
                    cat="placement",
                    strip=strip,
                    target=target,
                )
            return
        raise WorkerCrashError(
            f"no surviving worker could rebuild lost strip {strip}"
        )

    def _kick_replicator(self) -> None:
        """Start the background re-replication thread if not running."""
        with self._data_lock:
            if self._repl_thread is not None and self._repl_thread.is_alive():
                return
            self._repl_thread = threading.Thread(
                target=self._replication_loop,
                name="strip-replicator",
                daemon=True,
            )
            self._repl_thread.start()

    def wait_replication(self, timeout: float | None = 30.0) -> bool:
        """Block until background re-replication settles (tests, benches)."""
        while True:
            with self._data_lock:
                thread = self._repl_thread
            if thread is None or not thread.is_alive():
                return True
            thread.join(timeout=timeout)
            if thread.is_alive():
                return False

    def _replication_loop(self) -> None:
        while True:
            with self._data_lock:
                if not self._repl_queue:
                    self._repl_thread = None
                    return
                strip = self._repl_queue.popleft()
            try:
                self._replicate_strip(strip)
            except Exception as error:
                # Transport faults (the source or target died mid-copy;
                # their deaths are already recorded) and application
                # errors (RemoteTaskError from a worker-side handler)
                # alike must not kill the replicator thread.  Retry a
                # bounded number of times; a strip that cannot be
                # re-replicated stays readable from its live holders —
                # but say so: silently staying degraded would turn the
                # next holder death into a surprise StripLossError.
                with self._data_lock:
                    attempts = self._repl_attempts.get(strip, 0) + 1
                    self._repl_attempts[strip] = attempts
                    retry = attempts < self.MAX_REPLICATION_ATTEMPTS
                    if retry:
                        self._repl_queue.append(strip)
                    else:
                        self.n_replication_failures += 1
                if not retry:
                    warnings.warn(
                        f"re-replication of strip {strip} gave up after "
                        f"{attempts} attempts ({error}); the strip stays "
                        "degraded on its surviving holders",
                        RuntimeWarning,
                        stacklevel=2,
                    )

    def _replicate_strip(self, strip: int) -> None:
        """Copy a degraded strip's resident state to a survivor.

        The copy travels coordinator-side over the dedicated
        replication connections (fetch from a live holder, install on
        the target) **one block per frame**, so a long search's resident
        state can never exceed the frame-size limit in a single
        message.  The target is published as a holder after the first
        full pass, then a second sweep copies any blocks built while
        the first was in flight — blocks built after publication reach
        the target through the ordinary fan-outs.
        """
        request = self.coordinator.replication_request
        with self._data_lock:
            holders = self._live_holders(strip)
            if not holders or len(holders) >= self.placement.replication:
                return
            source = holders[0]
            candidates = self._repair_candidates(strip)
            if not candidates:
                return
            target = candidates[0]

        def replication_requester(worker, msg_type, body):
            return load_payload(
                request(
                    worker,
                    msg_type,
                    dump_payload({**body, "ns": self.namespace}),
                )
            )

        def copy_blocks(keys) -> None:
            for key in keys:
                state = replication_requester(
                    source, MSG_STRIP_STATE, {"strips": [strip], "keys": [key]}
                )
                replication_requester(
                    target,
                    MSG_STRIP_INSTALL,
                    {
                        "slices": state["slices"],
                        "scaled": state["scaled"],
                        "centered": state["centered"],
                    },
                )

        if not self._init_worker(target, replication_requester):
            raise ProtocolError(f"replication target {target} died during init")
        self._ship_target_to(target, replication_requester)
        listing = replication_requester(
            source, MSG_STRIP_STATE, {"strips": [strip], "keys": []}
        )
        replication_requester(
            target,
            MSG_STRIP_INSTALL,
            {"slices": listing["slices"], "scaled": {}, "centered": {}},
        )
        installed = {tuple(key) for key in listing["built"]}
        copy_blocks(sorted(installed))
        with self._data_lock:
            self.placement.add_holder(strip, target)
            self.n_replicated_strips += 1
            self._repl_attempts.pop(strip, None)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "placement.replicate",
                cat="placement",
                strip=strip,
                source=source,
                target=target,
            )
        # Second sweep: blocks built while the first pass was copying.
        relisting = replication_requester(
            source, MSG_STRIP_STATE, {"strips": [strip], "keys": []}
        )
        copy_blocks(
            sorted({tuple(key) for key in relisting["built"]} - installed)
        )
        with self._data_lock:
            # One pass restores one holder; with replication > 2 (or
            # deaths that landed while the queue entry was pending) the
            # strip may still be below factor — requeue it so the loop
            # keeps going instead of silently staying degraded.
            if (
                len(self._live_holders(strip)) < self.placement.replication
                and strip not in self._repl_queue
            ):
                self._repl_queue.append(strip)

    # -- elasticity: rejoin and rebalance ------------------------------

    def _on_worker_join(self, worker_index: int, announce: dict) -> None:
        """Coordinator join listener: re-adopt strips onto the admitted
        worker.

        Runs on the admitting thread *outside* the coordinator's plane
        locks (unlike the death listener), so it may perform placement
        I/O: the revived or newly added worker is woven back into the
        placement by a minimal-movement rebalance over the live fleet,
        migrating its strips' resident state over the rebalance links.
        A revived worker is a fresh process — its announce reports no
        placement state — so nothing it previously held is trusted.
        """
        with self._data_lock:
            if worker_index >= self.placement.n_workers:
                self.placement.grow_fleet(worker_index + 1)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "placement.worker_join",
                cat="placement",
                worker=worker_index,
                announced_strips=list(announce.get("strips", [])),
            )
        self.rebalance()

    def rebalance(self, workers: Sequence[int] | None = None) -> MovementPlan:
        """Plan and execute a minimal-movement primary rebalance.

        Plans over the live fleet (or an explicit worker set), migrates
        each moved strip's resident state to its new primary over the
        coordinator's dedicated rebalance links (one block per frame —
        the re-replication wire discipline — every byte booked in the
        ``rebalance`` bucket), and flips the primary only once the copy
        is fully resident.  In-flight scoring keeps reading the old
        primary until the flip, and the copied strips are bit-identical
        to the originals, so reductions — and therefore every score —
        are unchanged before, during, and after the rebalance.
        """
        with self._data_lock:
            if workers is None:
                workers = list(self.coordinator.live_worker_indices())
            if workers and max(workers) >= self.placement.n_workers:
                self.placement.grow_fleet(max(workers) + 1)
            plan = self.placement.rebalance(workers)
        with get_tracer().span(
            "placement.rebalance",
            cat="placement",
            n_moves=plan.n_moves,
            n_workers=len(plan.workers),
        ):
            for move in plan.moves:
                try:
                    self._migrate_strip(move)
                except (ProtocolError, OSError) as error:
                    # The source or target died mid-copy; its death is
                    # already recorded and the placement untouched for
                    # this strip — the ordinary repair paths own it now.
                    warnings.warn(
                        f"migration of strip {move.strip} to worker "
                        f"{move.target} failed ({error}); the strip stays "
                        "with its current holders",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        with self._data_lock:
            self.n_rebalances += 1
            # A rejoin often follows a death that left strips degraded
            # (sole-holder) after the repair loop ran out of targets.
            # With fresh capacity in the fleet those strips are
            # repairable again — requeue them so a later death of the
            # surviving holder is survivable, not a StripLossError.
            should_kick = False
            if self.placement.replication > 1:
                repair = [
                    strip
                    for strip in range(self.placement.n_shards)
                    if len(self._live_holders(strip))
                    < self.placement.replication
                    and strip not in self._repl_queue
                    and strip not in self._lost_strips
                ]
                self._repl_queue.extend(repair)
                should_kick = bool(repair)
        if should_kick:
            self._kick_replicator()
        return plan

    def _migrate_strip(self, move: StripMove) -> None:
        """Execute one planned movement: copy, publish, promote.

        Same wire discipline as :meth:`_replicate_strip` — list the
        source's built blocks, install the slice, copy one block per
        frame, publish the target as a holder (so fan-outs reach it and
        self-heal anything still missing), sweep blocks built while the
        first pass was in flight, then promote the target to primary.
        The old primary stays on as a replica; it is not torn down.
        """
        strip, target = move.strip, move.target
        with self._data_lock:
            holders = self._live_holders(strip)
            if target in holders:
                # Already resident (the target held a replica): flipping
                # the primary is the entire move — zero bytes shipped.
                self.placement.promote_holder(strip, target)
                self.n_rebalanced_strips += 1
                return
            if not holders:
                # Every holder is gone: there is nothing to copy.  The
                # repair paths (rebuild with replication=1, loud
                # StripLossError otherwise) own lost strips.
                return
            source = holders[0]
        request = self.coordinator.rebalance_request

        def rebalance_requester(worker, msg_type, body):
            return load_payload(
                request(
                    worker,
                    msg_type,
                    dump_payload({**body, "ns": self.namespace}),
                )
            )

        def copy_blocks(keys) -> None:
            for key in keys:
                state = rebalance_requester(
                    source, MSG_STRIP_STATE, {"strips": [strip], "keys": [key]}
                )
                rebalance_requester(
                    target,
                    MSG_STRIP_INSTALL,
                    {
                        "slices": state["slices"],
                        "scaled": state["scaled"],
                        "centered": state["centered"],
                    },
                )

        if not self._init_worker(target, rebalance_requester):
            raise ProtocolError(f"migration target {target} died during init")
        self._ship_target_to(target, rebalance_requester)
        listing = rebalance_requester(
            source, MSG_STRIP_STATE, {"strips": [strip], "keys": []}
        )
        rebalance_requester(
            target,
            MSG_STRIP_INSTALL,
            {"slices": listing["slices"], "scaled": {}, "centered": {}},
        )
        installed = {tuple(key) for key in listing["built"]}
        copy_blocks(sorted(installed))
        with self._data_lock:
            self.placement.add_holder(strip, target)
        # Second sweep: blocks built while the first pass was copying.
        # Blocks built after the add_holder publication reach the target
        # through the ordinary (self-healing) fan-outs.
        relisting = rebalance_requester(
            source, MSG_STRIP_STATE, {"strips": [strip], "keys": []}
        )
        copy_blocks(
            sorted({tuple(key) for key in relisting["built"]} - installed)
        )
        with self._data_lock:
            self.placement.promote_holder(strip, target)
            self.n_rebalanced_strips += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "placement.migrate",
                cat="placement",
                strip=strip,
                source=source,
                target=target,
            )

    # -- GramCache surface ---------------------------------------------

    def gram(self, block: Sequence[int]) -> np.ndarray:
        """Gather the full Gram from the workers' resident strips.

        The one deliberate materialisation point (final-model training,
        reference checks); never called on the incremental scoring
        path, and ``n_gathers`` counts every use.
        """
        key = canonical_block_key(block)
        self.ensure_strips(key)
        fetched, owners = self._fan_out(MSG_STRIPS_FETCH, {"key": key})
        try:
            strips = [
                fetched[owners[s]]["strips"][s] for s in range(self.n_shards)
            ]
        except KeyError:
            # A promotion handed a strip to a holder that adopted it
            # after this block was built: re-run the (idempotent) scale
            # fan-out so it self-heals the missing strip, then refetch.
            self._fan_out(
                MSG_BLOCK_SCALE,
                {"key": key, "scale": self._block_scale.get(key)},
            )
            fetched, owners = self._fan_out(MSG_STRIPS_FETCH, {"key": key})
            strips = [
                fetched[owners[s]]["strips"][s] for s in range(self.n_shards)
            ]
        with self._lock:
            self.n_gathers += 1
        return np.vstack(strips)

    def grams_for(self, partition: SetPartition) -> list[np.ndarray]:
        """Gathered per-block Grams (counts one gather per block)."""
        return [self.gram(block) for block in partition.blocks]

    def stats_cache(self, y: np.ndarray) -> "PlacedBlockStatsCache":
        """The statistics cache matching this placed layout."""
        return PlacedBlockStatsCache(self, y)


class PlacedBlockStatsCache(_KeyLocked, _PartitionStatsMixin):
    """Centred-Gram scalars reduced across worker-resident strips.

    Scalar surface identical to
    :class:`~repro.engine.cache.ShardedBlockStatsCache`; the per-row
    partial statistics of each strip (O(n / shards) floats) are
    computed by the strip's primary holder and reduced coordinator-side
    **in strip order**, which keeps every value bit-identical to the
    in-process sharded (and dense) cache — including after a holder
    death promotes a replica (the replica built its copy with the same
    code on the same inputs).
    """

    def __init__(self, grams: PlacedGramCache, y: np.ndarray):
        super().__init__()
        self.grams = grams
        y = np.asarray(y, dtype=float).ravel()
        if y.shape[0] != self.grams.X.shape[0]:
            raise ValueError("y length must match the cached sample")
        self.y = y
        self._target_inner: dict[BlockKey, float] = {}
        self._pair_inner: dict[tuple[BlockKey, BlockKey], float] = {}
        self._centered_keys: set[BlockKey] = set()
        # Rank-1 centred target, exactly as the sharded cache: its
        # statistics are O(n) and stay coordinator-side.
        self.centered_y = y - y.mean()
        self.target_norm = frobenius_inner(self.centered_y, self.centered_y)
        # Ledger parity with the dense cache's two target passes.
        self.n_matrix_ops = 2

    def _pair_stats_keys(self):
        return self._centered_keys

    def _ensure_target(self) -> None:
        self.grams.ship_target(self.centered_y)

    def _center_fan_out(
        self, key: BlockKey
    ) -> tuple[dict[int, dict], tuple[int, ...]]:
        """The centring fan-out for one block (idempotent on workers).

        Carries the stored scale alongside the row statistics so a
        holder that adopted the strip mid-block (re-replication racing
        a build) can self-heal by rebuilding the scaled strip exactly.
        """
        row_means, grand_mean = self.grams.ensure_strips(key)
        return self.grams._fan_out(
            MSG_BLOCK_CENTER,
            {
                "key": key,
                "row_means": row_means,
                "grand_mean": grand_mean,
                "scale": self.grams._block_scale.get(key),
            },
        )

    def block_stats(self, block: Sequence[int]) -> tuple[float, float]:
        """``(a_i, M_ii)`` reduced across the primary holders."""
        key = canonical_block_key(block)
        if key not in self._centered_keys:
            with self._key_lock(("block", key)):
                if key not in self._centered_keys:
                    self._ensure_target()
                    replies, owners = self._center_fan_out(key)
                    stats = [
                        replies[owners[s]]["stats"][s]
                        for s in range(self.grams.n_shards)
                    ]
                    target_inner = reduce_strip_rows(
                        [part[0] for part in stats], self.centered_y
                    )
                    self_inner = reduce_strip_rows([part[1] for part in stats])
                    for worker, reply in replies.items():
                        self.grams.resident_strip_bytes[worker] = int(
                            reply["resident_bytes"]
                        )
                    with self._lock:
                        self._target_inner[key] = target_inner
                        self._pair_inner[(key, key)] = self_inner
                        self.n_matrix_ops += 3
                        self._centered_keys.add(key)
        return self._target_inner[key], self._pair_inner[(key, key)]

    def _reduce_pair(self, key: tuple[BlockKey, BlockKey]) -> float:
        replies, owners = self.grams._fan_out(
            MSG_PAIR, {"key": key[0], "other": key[1]}
        )
        return reduce_strip_rows(
            [replies[owners[s]]["inners"][s] for s in range(self.grams.n_shards)]
        )

    def pair_inner(self, first: Sequence[int], second: Sequence[int]) -> float:
        """``M_ij`` reduced in strip order from primary-holder row inners."""
        key = tuple(
            sorted((canonical_block_key(first), canonical_block_key(second)))
        )
        value = self._pair_inner.get(key)
        if value is not None:
            return value
        self.block_stats(key[0])
        self.block_stats(key[1])
        if key[0] == key[1]:
            return self._pair_inner[key]
        with self._key_lock(("pair", key)):
            if key not in self._pair_inner:
                try:
                    value = self._reduce_pair(key)
                except KeyError:
                    # A promotion handed the primary role to a holder
                    # that adopted the strip after these blocks were
                    # centred: re-run the (idempotent) centring
                    # fan-outs so it self-heals, then reduce again.
                    self._center_fan_out(key[0])
                    self._center_fan_out(key[1])
                    value = self._reduce_pair(key)
                with self._lock:
                    self._pair_inner[key] = value
                    self.n_matrix_ops += 1
        return self._pair_inner[key]


class PlacedLandmarkGramCache(_KeyLocked):
    """Coordinator-side facade over worker-resident Nyström factor strips.

    The placed twin of
    :class:`~repro.engine.cache.ShardedLandmarkGramCache`: each worker
    holds the factor strips ``k(X[rows], X[L]) @ T`` for the row slices
    it owns, and only the m×r whitening transform ``T`` (computed once
    per block coordinator-side from the O(m²) landmark Gram), O(m)
    vectors and O(1) scalars ever cross the wire — booked in
    ``factor_bytes_shipped`` on top of the ordinary placement-plane
    byte ledger.  ``n_gathers`` stays at zero for a whole search: no
    n×n matrix, and no n×r factor, is ever assembled coordinator-side.

    Failure model: factor strips are **rebuilt, never replicated** —
    at O(n·m/shards) a strip costs less to recompute than to copy, so
    the placement always runs with ``replication=1`` and a dead owner's
    strips are adopted by a survivor (``MSG_STRIP_INSTALL`` publishes
    the row slices; the self-healing landmark handlers rebuild the
    strips from the transform carried by the very next fan-out).
    Adoptions are counted in ``n_strip_rebuilds``.

    Ledger contract matches the in-process landmark caches:
    ``n_gram_computations`` and the stats cache's ``n_matrix_ops`` stay
    0 forever; ``n_factor_computations`` counts per-block factor
    builds; reductions are performed coordinator-side in strip order
    with the same expressions as ``ShardedLandmarkStatsCache``, so
    every score is **bit-identical** to an in-process sharded landmark
    run with the same ``(n_shards, n_landmarks, landmark_seed)``.
    """

    #: Fan-out rounds attempted before declaring the placement
    #: unreachable (each round re-targets the updated holder set).
    MAX_FANOUT_ATTEMPTS = 4

    def __init__(
        self,
        coordinator,
        X: np.ndarray,
        block_kernel: BlockKernelFactory = default_block_kernel,
        normalize: bool = True,
        n_shards: int = 2,
        n_landmarks: int | None = None,
        landmark_seed: int = 0,
        placement: ShardPlacement | None = None,
        namespace: str = "default",
    ):
        super().__init__()
        self.coordinator = coordinator
        # Namespaced residency, mirroring PlacedGramCache: every frame
        # carries the namespace so tenants sharing the fleet keep
        # disjoint worker-side factor stores.
        self.namespace = str(namespace)
        self.X = as_2d(X)
        n = self.X.shape[0]
        if not 1 <= n_shards <= n:
            raise ValueError(
                f"n_shards must be in [1, n_samples={n}], got {n_shards}"
            )
        self.block_kernel = block_kernel
        self.normalize = normalize
        self.n_shards = int(n_shards)
        m = default_n_landmarks(n) if n_landmarks is None else int(n_landmarks)
        self.landmark_seed = int(landmark_seed)
        self.landmarks = select_landmarks(n, m, self.landmark_seed)
        self.n_landmarks = m
        self.placement = placement or ShardPlacement(
            self.n_shards, coordinator.n_workers, replication=1
        )
        if self.placement.n_shards != self.n_shards:
            raise ValueError("placement does not cover n_shards strips")
        if self.placement.replication != 1:
            raise ValueError(
                "landmark factor strips are rebuilt on adoption, not "
                "replicated; the placement must use replication=1"
            )
        self.row_slices = shard_row_slices(n, self.n_shards)
        self._initialised = False
        self._initialised_workers: set[int] = set()
        # Per block: the m×r whitening transform (shipped with every
        # landmark fan-out so adopters self-heal) and the globally
        # reduced factor column means (the centring vector).
        self._transforms: dict[BlockKey, np.ndarray] = {}
        self._col_means: dict[BlockKey, np.ndarray] = {}
        # Same lock discipline as PlacedGramCache: coordinator plane
        # locks before _data_lock, never the reverse.
        self._data_lock = threading.RLock()
        self._lost_strips: set[int] = set()
        self._target_body: dict | None = None
        self._target_workers: set[int] = set()
        self._adopt_warned = False
        self.n_gram_computations = 0
        self.n_factor_computations = 0
        self.n_gathers = 0
        self.n_promotions = 0
        self.n_replicated_strips = 0
        self.n_replication_failures = 0
        self.n_strip_rebuilds = 0
        self.factor_bytes_shipped = 0
        self.resident_strip_bytes: dict[int, int] = {}
        coordinator.add_death_listener(self._on_worker_death)
        # Fold standing deaths into the placement (a reused coordinator
        # notifies each death only once per worker life).
        for index in range(coordinator.n_workers):
            if coordinator.worker_is_dead(index):
                self._on_worker_death(index)

    def detach(self) -> None:
        """Unhook this cache from the coordinator's death notifications.

        Idempotent; called when the search that owned the cache is
        over, so a stale cache stops mutating placements for results
        nobody will read.
        """
        self.coordinator.remove_death_listener(self._on_worker_death)

    @property
    def max_strip_rows(self) -> int:
        """Largest row count any one strip (hence worker block) holds."""
        return max(sl.stop - sl.start for sl in self.row_slices)

    # -- death handling -------------------------------------------------

    def _on_worker_death(self, worker_index: int) -> None:
        """Death listener: bookkeeping only (no network I/O here).

        With ``replication=1`` every strip the dead worker held is
        *lost*; the next fan-out adopts the lost slices on survivors
        and the self-healing handlers rebuild the factors there.
        """
        with self._data_lock:
            outcome = self.placement.drop_worker(worker_index)
            self.n_promotions += len(outcome["promoted"])
            self._lost_strips.update(outcome["lost"])
            self._initialised_workers.discard(worker_index)
            self._target_workers.discard(worker_index)
            self.resident_strip_bytes.pop(worker_index, None)
        tracer = get_tracer()
        if tracer.enabled and outcome["lost"]:
            tracer.event(
                "placement.strips_lost",
                cat="placement",
                worker=worker_index,
                lost=list(outcome["lost"]),
            )

    # -- placement-plane orchestration ---------------------------------

    def _request(self, worker: int, msg_type: int, body: dict) -> dict:
        reply = self.coordinator.placement_request(
            worker, msg_type, dump_payload({**body, "ns": self.namespace})
        )
        return load_payload(reply)

    def _fan_out(
        self, msg_type: int, body: dict
    ) -> tuple[dict[int, dict], tuple[int, ...]]:
        """One request to every live strip holder, computed concurrently.

        Same retry/repair loop as :meth:`PlacedGramCache._fan_out`:
        deaths during the round promote the placement in place, lost
        strips are adopted on survivors, and the replayed requests
        self-heal from the transform in the request body.  Returns
        ``(replies, owners)`` with the owner snapshot validated against
        the replies.
        """
        payload = dump_payload({**body, "ns": self.namespace})
        for _ in range(self.MAX_FANOUT_ATTEMPTS):
            self._adopt_lost_strips()
            with self._data_lock:
                targets = [
                    w
                    for w in self.placement.active_workers
                    if not self.coordinator.worker_is_dead(w)
                ]
            if not targets:
                raise WorkerCrashError(
                    "no live strip holders remain in the placement"
                )
            with get_tracer().span(
                "placement.fan_out",
                cat="placement",
                msg_type=msg_type,
                n_targets=len(targets),
            ):
                raw = self.coordinator.placement_fan_out(
                    targets, msg_type, payload
                )
            replies = {w: load_payload(r) for w, r in raw.items()}
            with self._data_lock:
                owners = self.placement.owners
            if all(o is not None and o in replies for o in owners):
                return replies, owners
        raise WorkerCrashError(
            "placement fan-out could not reach a live holder for every "
            f"strip after {self.MAX_FANOUT_ATTEMPTS} rounds"
        )

    def ensure_init(self) -> None:
        """Ship each holding worker its ownership state once (idempotent)."""
        with self._key_lock("__init__"):
            if self._initialised:
                return
            with self._data_lock:
                workers = list(self.placement.active_workers)
            for worker in workers:
                if self.coordinator.worker_is_dead(worker):
                    continue
                self._init_worker(worker)
            self._initialised = True

    def _init_worker(self, worker: int) -> bool:
        """Send MSG_INIT (once, with the landmark set) to a worker."""
        with self._data_lock:
            if worker in self._initialised_workers:
                return True
            slices = {
                s: self.row_slices[s] for s in self.placement.strips_of(worker)
            }
        try:
            self._request(
                worker,
                MSG_INIT,
                {
                    "X": self.X,
                    "block_kernel": self.block_kernel,
                    "normalize": self.normalize,
                    "slices": slices,
                    "landmarks": self.landmarks,
                },
            )
        except (ProtocolError, OSError):
            return False
        with self._data_lock:
            self._initialised_workers.add(worker)
        return True

    def ship_target(self, centered_y: np.ndarray) -> None:
        """Ship the centred target to every live holder (idempotent)."""
        with self._key_lock("__target__"):
            if self._target_body is not None:
                return
            self.ensure_init()
            body = {"centered_y": centered_y}
            with self._data_lock:
                workers = list(self.placement.active_workers)
            shipped: set[int] = set()
            for worker in workers:
                if self.coordinator.worker_is_dead(worker):
                    continue
                try:
                    self._request(worker, MSG_TARGET, body)
                except (ProtocolError, OSError):
                    continue
                shipped.add(worker)
            with self._data_lock:
                self._target_body = body
                self._target_workers |= shipped

    def _ship_target_to(self, worker: int) -> None:
        """Forward the remembered target payload to a late adopter."""
        with self._data_lock:
            body = self._target_body
            if body is None or worker in self._target_workers:
                return
        self._request(worker, MSG_TARGET, body)
        with self._data_lock:
            self._target_workers.add(worker)

    # -- resilience: adoption ------------------------------------------

    def _adopt_lost_strips(self) -> None:
        """Adopt strips whose owner died on surviving workers.

        Loud by design (same contract as the exact cache's
        ``replication=1`` rebuild): warn once, publish the lost row
        slices on the least-loaded survivor, and let the self-healing
        landmark handlers rebuild the factor strips from the transform
        the very next fan-out carries.
        """
        with self._data_lock:
            lost = sorted(self._lost_strips)
        if not lost:
            return
        if not self._adopt_warned:
            self._adopt_warned = True
            warnings.warn(
                "a dead landmark strip owner forces strip"
                f"{'s' if len(lost) > 1 else ''} {lost} to be adopted by a "
                "surviving worker; the factor strips are rebuilt there on "
                "the next fan-out",
                RuntimeWarning,
                stacklevel=2,
            )
        for strip in lost:
            self._adopt_strip(strip)

    def _adopt_strip(self, strip: int) -> None:
        with self._data_lock:
            candidates = sorted(
                (
                    w
                    for w in self.coordinator.live_worker_indices()
                    if w not in self.placement.holders_of(strip)
                ),
                key=lambda w: (len(self.placement.strips_of(w)), w),
            )
        for target in candidates:
            if not self._init_worker(target):
                continue
            try:
                self._ship_target_to(target)
                # Publish the slice only — no strip payload: the
                # landmark handlers rebuild from the shipped transform.
                self._request(
                    target,
                    MSG_STRIP_INSTALL,
                    {
                        "slices": {strip: self.row_slices[strip]},
                        "scaled": {},
                        "centered": {},
                    },
                )
            except (ProtocolError, OSError):
                continue
            with self._data_lock:
                self.placement.add_holder(strip, target)
                self._lost_strips.discard(strip)
                self.n_strip_rebuilds += 1
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "placement.adopt_strip",
                    cat="placement",
                    strip=strip,
                    target=target,
                )
            return
        raise WorkerCrashError(
            f"no surviving worker could adopt lost landmark strip {strip}"
        )

    # -- landmark factor plane -----------------------------------------

    def gram_cached(self, block: Sequence[int]) -> bool:
        """True if the block's factor strips are already built fleet-side."""
        return canonical_block_key(block) in self._col_means

    def transform(self, block: Sequence[int]) -> np.ndarray:
        """The m×r whitening transform of one block (coordinator-side).

        Computed from the O(m²) landmark Gram with the kernel bound to
        ``X[L]`` — exactly the expressions of the in-process landmark
        caches, so the shipped transform (and hence every worker-built
        strip) is bit-identical to the sharded layout.
        """
        key = canonical_block_key(block)
        transform = self._transforms.get(key)
        if transform is None:
            with self._key_lock(("transform", key)):
                if key not in self._transforms:
                    landmarks = self.landmarks
                    kernel = self.block_kernel(key).bind(self.X[landmarks])
                    transform = landmark_transform(
                        kernel(self.X[landmarks], self.X[landmarks])
                    )
                    with self._lock:
                        self._transforms[key] = transform
        return self._transforms[key]

    def ensure_factor(self, block: Sequence[int]) -> np.ndarray:
        """Build a block's factor strips on every holder, once.

        Returns the block's factor column means — the O(m) reduction
        the stats cache centres with, summed from the per-strip column
        sums in strip order (always the primary holder's reply),
        matching ``ShardedLandmarkStatsCache`` bit for bit.
        """
        key = canonical_block_key(block)
        cached = self._col_means.get(key)
        if cached is not None:
            return cached
        with self._key_lock(("factor", key)):
            if key not in self._col_means:
                self.ensure_init()
                transform = self.transform(key)
                replies, owners = self._fan_out(
                    MSG_LANDMARK_FACTOR, {"key": key, "transform": transform}
                )
                col_means = sum(
                    replies[owners[s]]["col_sums"][s]
                    for s in range(self.n_shards)
                ) / float(self.X.shape[0])
                for worker, reply in replies.items():
                    self.resident_strip_bytes[worker] = int(
                        reply["resident_bytes"]
                    )
                with self._lock:
                    self.n_factor_computations += 1
                    self.factor_bytes_shipped += int(transform.nbytes) * len(
                        replies
                    )
                    self._col_means[key] = col_means
        return self._col_means[key]

    def _book_factor_bytes(self, nbytes: int, n_targets: int) -> None:
        """Ledger hook for transforms re-shipped by stats/pair fan-outs."""
        with self._lock:
            self.factor_bytes_shipped += int(nbytes) * int(n_targets)

    def gram(self, block: Sequence[int]) -> np.ndarray:
        """Never materialised: factor strips stay worker-resident.

        Exact final-model training runs through a fresh exact cache
        (``FacetedLearner`` does this automatically when
        ``approx="landmarks"``); asking the placed landmark layout for
        an n×n Gram is a configuration error, not a slow path.
        """
        raise NotImplementedError(
            "PlacedLandmarkGramCache keeps Nyström factor strips resident "
            "worker-side and never assembles an n×n Gram coordinator-side; "
            "use an exact cache for final-model training"
        )

    def grams_for(self, partition: SetPartition) -> list[np.ndarray]:
        """See :meth:`gram` — never materialised."""
        raise NotImplementedError(
            "PlacedLandmarkGramCache never assembles n×n Grams; use an "
            "exact cache for final-model training"
        )

    def stats_cache(self, y: np.ndarray) -> "PlacedLandmarkStatsCache":
        """The statistics cache matching this placed factor layout."""
        return PlacedLandmarkStatsCache(self, y)


class PlacedLandmarkStatsCache(_KeyLocked, _PartitionStatsMixin):
    """Landmark-factor statistics reduced across worker-resident strips.

    Scalar surface identical to
    :class:`~repro.engine.cache.ShardedLandmarkStatsCache`; the
    per-strip partials (``(HF_s)' Hy[rows_s]`` and ``(HF_s)' HF_s``)
    are computed by each strip's primary holder and summed
    coordinator-side **in strip order**, which keeps every value
    bit-identical to the in-process sharded landmark cache.  The
    ledger follows the same contract: ``n_matrix_ops`` stays 0,
    ``n_landmark_ops`` books the standard 2/3/1 schedule.
    """

    def __init__(self, grams: PlacedLandmarkGramCache, y: np.ndarray):
        super().__init__()
        self.grams = grams
        y = np.asarray(y, dtype=float).ravel()
        if y.shape[0] != self.grams.X.shape[0]:
            raise ValueError("y length must match the cached sample")
        self.y = y
        self._target_inner: dict[BlockKey, float] = {}
        self._pair_inner: dict[tuple[BlockKey, BlockKey], float] = {}
        self._stats_keys: set[BlockKey] = set()
        # Rank-1 centred target: O(n), stays coordinator-side.
        self.centered_y = y - y.mean()
        self.target_norm = float(self.centered_y @ self.centered_y)
        self.n_matrix_ops = 0
        # Ledger parity with the exact caches' two target passes.
        self.n_landmark_ops = 2

    def _pair_stats_keys(self):
        return self._stats_keys

    def _ensure_target(self) -> None:
        self.grams.ship_target(self.centered_y)

    def block_stats(self, block: Sequence[int]) -> tuple[float, float]:
        """``(a_i, M_ii)`` reduced across the primary holders."""
        key = canonical_block_key(block)
        if key not in self._stats_keys:
            with self._key_lock(("block", key)):
                if key not in self._stats_keys:
                    self._ensure_target()
                    col_means = self.grams.ensure_factor(key)
                    transform = self.grams.transform(key)
                    replies, owners = self.grams._fan_out(
                        MSG_LANDMARK_STATS,
                        {
                            "key": key,
                            "transform": transform,
                            "col_means": col_means,
                        },
                    )
                    self.grams._book_factor_bytes(
                        transform.nbytes, len(replies)
                    )
                    n_shards = self.grams.n_shards
                    t = sum(
                        replies[owners[s]]["stats"][s][0]
                        for s in range(n_shards)
                    )
                    target_inner = float(t @ t)
                    inner = sum(
                        replies[owners[s]]["stats"][s][1]
                        for s in range(n_shards)
                    )
                    self_inner = float(np.sum(inner * inner))
                    for worker, reply in replies.items():
                        self.grams.resident_strip_bytes[worker] = int(
                            reply["resident_bytes"]
                        )
                    with self._lock:
                        self._target_inner[key] = target_inner
                        self._pair_inner[(key, key)] = self_inner
                        self.n_landmark_ops += 3
                        self._stats_keys.add(key)
        return self._target_inner[key], self._pair_inner[(key, key)]

    def pair_inner(self, first: Sequence[int], second: Sequence[int]) -> float:
        """``M_ij`` from strip-order-summed worker inner partials."""
        key = tuple(
            sorted((canonical_block_key(first), canonical_block_key(second)))
        )
        value = self._pair_inner.get(key)
        if value is not None:
            return value
        self.block_stats(key[0])
        self.block_stats(key[1])
        if key[0] == key[1]:
            return self._pair_inner[key]
        with self._key_lock(("pair", key)):
            if key not in self._pair_inner:
                first_transform = self.grams.transform(key[0])
                second_transform = self.grams.transform(key[1])
                replies, owners = self.grams._fan_out(
                    MSG_LANDMARK_PAIR,
                    {
                        "first": key[0],
                        "second": key[1],
                        "first_transform": first_transform,
                        "second_transform": second_transform,
                        "first_col_means": self.grams.ensure_factor(key[0]),
                        "second_col_means": self.grams.ensure_factor(key[1]),
                    },
                )
                self.grams._book_factor_bytes(
                    first_transform.nbytes + second_transform.nbytes,
                    len(replies),
                )
                cross = sum(
                    replies[owners[s]]["inners"][s]
                    for s in range(self.grams.n_shards)
                )
                value = float(np.sum(cross * cross))
                with self._lock:
                    self._pair_inner[key] = value
                    self.n_landmark_ops += 1
        return self._pair_inner[key]
