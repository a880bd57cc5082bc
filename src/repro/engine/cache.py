"""Gram and centred-statistics caches backing the evaluation engine.

Two cache layers, both keyed by *canonical* feature blocks (sorted
column tuples, so permuted orderings hit the same entry):

* :class:`GramCache` — the materialised per-block Gram matrices for a
  fixed training sample.  ``n_gram_computations`` counts actual kernel
  evaluations, the cost metric of the complexity experiments.
* :class:`BlockStatsCache` — scalar statistics of the *centred* block
  Grams against a fixed target.  One O(n²) pass per block (and per
  co-occurring block pair) is enough to score any weighted combination
  of cached blocks in O(b²) scalar arithmetic; see
  :mod:`repro.engine` for the algebra.

A third, *approximate* layer breaks the Θ(n²) wall entirely:
:class:`LandmarkGramCache` / :class:`LandmarkBlockStatsCache`
represent each block's Gram by an n×r Nyström factor against ``m ≪ n``
deterministic landmark rows and compute the same scalar statistics in
O(n·m); their sharded twins (:class:`ShardedLandmarkGramCache` /
:class:`ShardedLandmarkStatsCache`) split the factor into row strips
that compose with the placement layer.  Approximate work is booked in
``n_landmark_ops`` / ``n_factor_computations`` and never touches
``n_matrix_ops`` / ``n_gram_computations``, so exact and approximate
ledgers stay distinguishable.

Each exact cache has a *sharded* twin for samples that do not fit one node:
:class:`ShardedGramCache` partitions the Gram by block-row and only
ever materialises per-shard row strips (``kernel(X[rows], X)``), and
:class:`ShardedBlockStatsCache` reduces the same scalar statistics
strip-wise — exploiting that the centred target is rank-1
(``C_T = (Hy)(Hy)'``), so even the target never exists as an n×n
matrix.  The scalar API is identical, which is what lets the engine,
the task envelopes and every strategy run unchanged on top of either.

All caches use per-key locks: concurrent backends (thread pools
scoring batches of partitions) overlap O(n²) work on *different*
blocks while each block/pair is computed exactly once, and the op
counters are published under a global lock so the bookkeeping the
complexity benchmarks rely on stays exact.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence

import numpy as np

from repro.combinatorics.partitions import SetPartition
from repro.kernels.base import as_2d
from repro.kernels.gram import (
    center_symmetric_strip,
    frobenius_inner,
    normalize_gram,
    reduce_strip_rows,
    strip_row_inners,
    strip_row_stats,
)
from repro.kernels.partition_kernel import BlockKernelFactory, default_block_kernel
from repro.telemetry import get_tracer

__all__ = [
    "GramCache",
    "BlockStatsCache",
    "ShardedGramCache",
    "ShardedBlockStatsCache",
    "LandmarkGramCache",
    "LandmarkBlockStatsCache",
    "ShardedLandmarkGramCache",
    "ShardedLandmarkStatsCache",
    "canonical_block_key",
    "cross_gram_strip",
    "query_block_diags",
    "shard_row_slices",
    "select_landmarks",
    "landmark_transform",
    "default_n_landmarks",
]

BlockKey = tuple[int, ...]


def shard_row_slices(n: int, n_shards: int) -> list[slice]:
    """Contiguous row ranges splitting ``n`` samples over ``n_shards``.

    The single source of the row layout: the in-process sharded caches
    and the cluster placement layer both call this, so a strip index
    means the same rows everywhere.  ``n_shards`` must lie in
    ``[1, n]`` — more shards than samples would mean empty strips,
    which every strip consumer (normalisation diagonals, placement
    ownership, rebuilds) treats as a bug, so the degenerate layout is
    rejected here at the single source rather than representable.
    """
    if not 1 <= n_shards <= n:
        raise ValueError(
            f"n_shards must be in [1, n_samples={n}], got {n_shards}"
        )
    edges = np.linspace(0, n, n_shards + 1).astype(int)
    return [
        slice(int(start), int(stop))
        for start, stop in zip(edges[:-1], edges[1:])
    ]


def default_n_landmarks(n: int) -> int:
    """Default landmark count for an ``n``-sample problem.

    ``min(n, max(16, round(4 * sqrt(n))))`` — grows slowly enough that
    the O(n·m) landmark path stays asymptotically cheap while keeping
    the rank high enough for stable rankings at small n.
    """
    return int(min(n, max(16, round(4.0 * np.sqrt(n)))))


def select_landmarks(n: int, n_landmarks: int, seed: int = 0) -> np.ndarray:
    """Deterministic landmark rows: a seeded uniform sample, sorted.

    Sorting makes the selection order-free (the same (n, m, seed)
    triple yields the same index set everywhere — coordinator, every
    worker, every backend), which is what the bit-identity contracts
    of the landmark path rest on.  At ``n_landmarks == n`` this is
    ``arange(n)``, so the Nyström factorisation becomes exact.
    """
    if not 1 <= n_landmarks <= n:
        raise ValueError(
            f"n_landmarks must be in [1, n_samples={n}], got {n_landmarks}"
        )
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=int(n_landmarks), replace=False))


def landmark_transform(W: np.ndarray, epsilon: float = 1e-10) -> np.ndarray:
    """Nyström whitening transform ``T`` of a landmark Gram ``W``.

    With ``W = U diag(lam) U'`` (symmetric eigendecomposition) the
    transform is ``T = U_+ diag(lam_+)^{-1/2}`` over the eigenvalues
    above ``epsilon * max(lam_max, 1)``, so that for a cross-Gram
    ``C = k(X, X[L])`` the factor ``F = C T`` satisfies
    ``F F' = C W^+ C'`` — the Nyström approximation of the full Gram,
    exact when the landmarks span the sample (in particular at m = n
    for a PSD kernel).
    """
    W = np.asarray(W, dtype=float)
    W = (W + W.T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(W)
    cutoff = epsilon * max(float(eigenvalues[-1]), 1.0)
    keep = eigenvalues > cutoff
    if not np.any(keep):
        # Degenerate landmark Gram (all-zero kernel): rank-0 factor.
        return np.zeros((W.shape[0], 0))
    return eigenvectors[:, keep] / np.sqrt(eigenvalues[keep])


def _normalize_factor_rows(factor: np.ndarray) -> np.ndarray:
    """Cosine-normalise a Nyström factor row-wise.

    ``(F F')_{rr} = ||F[r]||²`` is the approximate Gram diagonal, so
    dividing each row by ``sqrt(clip(||F[r]||², 1e-12))`` makes
    ``F F'`` exactly ``normalize_gram(F F')`` — the same clipped
    cosine normalisation the exact caches apply.  Purely row-local,
    which is what lets sharded layouts normalise strip-by-strip with
    no cross-shard reduction.
    """
    norms = np.sqrt(np.clip(np.sum(factor * factor, axis=1), 1e-12, None))
    return factor / norms[:, None]


def canonical_block_key(block: Iterable[int]) -> BlockKey:
    """Canonical cache key of a feature block: the sorted column tuple.

    Sorting makes permuted orderings of the same block (``(1, 0)`` vs
    ``(0, 1)``) share one cache entry — block kernels are symmetric in
    their columns, so the Grams are identical.
    """
    return tuple(sorted(int(c) for c in block))


# -- predict-time strip evaluation (the serving plane's kernel math) ----
#
# A fitted combined model scores a query batch against the training
# sample through a weighted, cosine-normalised cross-Gram.  Both
# helpers below are deliberately *strip-agnostic*: ``X_rows`` may be
# the full training sample (the in-process predict path) or any
# contiguous row strip of it (a worker serving only the rows it holds).
# Because the default block kernels are pair-local (each entry depends
# only on its own (query, train) row pair — the RBF bandwidth is a
# function of the *query* operand alone) and the combination is
# column-local, evaluating strip-by-strip and concatenating in strip
# order is **bit-identical** to the monolithic evaluation.  That
# identity is what lets the serving plane answer requests from
# worker-resident strips without ever materialising an n×n matrix.


def query_block_diags(
    X_query: np.ndarray,
    blocks: Sequence[Iterable[int]],
    block_kernel: BlockKernelFactory,
) -> list[np.ndarray]:
    """Per-block query self-similarity diagonals for normalisation.

    These depend only on the query batch, so a request fan-out computes
    them once and ships the O(b · batch) vectors with the request.
    :meth:`~repro.kernels.base.Kernel.diagonal` makes them O(batch) for
    RBF and Laplacian blocks (exact ones) instead of a batch×batch Gram.
    """
    X_query = as_2d(X_query)
    return [
        np.sqrt(np.clip(block_kernel(block).diagonal(X_query), 1e-12, None))
        for block in blocks
    ]


def cross_gram_strip(
    X_query: np.ndarray,
    X_rows: np.ndarray,
    blocks: Sequence[Iterable[int]],
    weights: Sequence[float],
    block_kernel: BlockKernelFactory,
    train_diags: Sequence[np.ndarray],
    query_diags: Sequence[np.ndarray],
) -> np.ndarray:
    """Weighted normalised cross-Gram of a query batch against row strip.

    ``train_diags`` are the per-block training self-similarity
    diagonals *already sliced* to ``X_rows``; ``query_diags`` come from
    :func:`query_block_diags` on the same batch.  Zero-weight blocks
    are skipped exactly like the in-process predict path, and the
    per-entry arithmetic (normalise, weight, accumulate in block
    order) matches it expression for expression — the strip result is
    the corresponding column slice of the monolithic cross-Gram, bit
    for bit.
    """
    X_query = as_2d(X_query)
    combined = np.zeros((X_query.shape[0], X_rows.shape[0]))
    for weight, block, train_diag, query_diag in zip(
        weights, blocks, train_diags, query_diags
    ):
        if weight <= 0:
            continue
        kernel = block_kernel(block)
        cross = kernel(X_query, X_rows)
        combined += weight * (cross / np.outer(query_diag, train_diag))
    return combined


class _KeyLocked:
    """Per-key locking discipline shared by every cache in this module.

    ``self._lock`` guards the lock table itself (and is reused by
    subclasses to publish counters); ``self._key_lock(key)`` hands out
    one lock per key so concurrent fills of *different* keys overlap
    while each key's O(n²) work happens exactly once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._key_locks: dict[object, threading.Lock] = {}

    def _key_lock(self, key: object) -> threading.Lock:
        with self._lock:
            lock = self._key_locks.get(key)
            if lock is None:
                lock = self._key_locks[key] = threading.Lock()
            return lock


class GramCache(_KeyLocked):
    """Cache of per-block Gram matrices for a fixed training sample.

    Key insight: within one cone the same blocks appear in many
    partitions, so Grams are memoised by block (canonical tuple of
    columns).  ``n_gram_computations`` counts actual kernel
    evaluations — the cost metric reported by the complexity
    experiments.

    Contract: the ``block_kernel`` factory receives the *sorted*
    column tuple, so custom factories must not be sensitive to column
    order (partition blocks are always sorted by ``SetPartition``;
    sorting here extends the same canonical form to ad-hoc calls like
    ``gram((3, 1))``).
    """

    def __init__(
        self,
        X: np.ndarray,
        block_kernel: BlockKernelFactory = default_block_kernel,
        normalize: bool = True,
    ):
        super().__init__()
        self.X = as_2d(X)
        self.block_kernel = block_kernel
        self.normalize = normalize
        self._store: dict[BlockKey, np.ndarray] = {}
        self.n_gram_computations = 0

    def gram_cached(self, block: Sequence[int]) -> bool:
        """True if the block's Gram is already materialised (the
        speculation ledger's attribution probe)."""
        return canonical_block_key(block) in self._store

    def gram(self, block: Sequence[int]) -> np.ndarray:
        """Gram of one feature block (cached, key canonicalised).

        Concurrent callers block only on the *same* key; different
        blocks materialise in parallel, each computed exactly once.
        """
        key = canonical_block_key(block)
        gram = self._store.get(key)
        if gram is not None:
            return gram
        with self._key_lock(key):
            if key not in self._store:
                with get_tracer().span(
                    "cache.gram", cat="cache", block_size=len(key)
                ):
                    gram = self.block_kernel(key)(self.X)
                    if self.normalize:
                        gram = normalize_gram(gram)
                with self._lock:
                    self._store[key] = gram
                    self.n_gram_computations += 1
        return self._store[key]

    def grams_for(self, partition: SetPartition) -> list[np.ndarray]:
        """Per-block Grams of a partition of column indices."""
        return [self.gram(block) for block in partition.blocks]

    def stats_cache(self, y: np.ndarray) -> "BlockStatsCache":
        """The statistics cache matching this Gram layout."""
        return BlockStatsCache(self, y)


class _PartitionStatsMixin:
    """Partition-level assembly shared by the dense and sharded caches.

    Subclasses provide ``block_stats`` and ``pair_inner``; everything a
    strategy or task envelope needs on top is pure dictionary lookups.
    The ``*_cached`` probes report whether a statistic is already
    materialised *without* computing it — the engine's speculation
    ledger uses them to attribute O(n²) costs to the speculative build
    that first paid them (see :mod:`repro.engine.core`).
    """

    def block_cached(self, block: Sequence[int]) -> bool:
        """True if the block's statistics are already materialised."""
        return canonical_block_key(block) in self._pair_stats_keys()

    def pair_cached(self, first: Sequence[int], second: Sequence[int]) -> bool:
        """True if ``M_ij`` for the (canonicalised) pair is materialised."""
        key = tuple(
            sorted((canonical_block_key(first), canonical_block_key(second)))
        )
        return key in self._pair_inner

    def _pair_stats_keys(self):
        """The container recording completed per-block statistics."""
        return self._centered

    def partition_stats(self, partition: SetPartition) -> tuple[np.ndarray, np.ndarray]:
        """Alignment vector ``a`` and Gram-of-Grams ``M`` of a partition.

        ``a[i]`` and ``M[i, j]`` follow the block order of
        ``partition.blocks``; all statistics come from the cache, so a
        warm partition costs zero matrix work.
        """
        keys = [canonical_block_key(block) for block in partition.blocks]
        count = len(keys)
        a = np.empty(count)
        M = np.empty((count, count))
        for i, key in enumerate(keys):
            a[i], M[i, i] = self.block_stats(key)
        for i in range(count):
            for j in range(i + 1, count):
                M[i, j] = M[j, i] = self.pair_inner(keys[i], keys[j])
        return a, M

    def warm_partition(self, partition: SetPartition) -> None:
        """Materialise every statistic the partition needs (prefetch).

        Safe to call from a background thread concurrently with
        scoring: the per-key locks guarantee each block/pair is
        computed exactly once, so warming early never changes the op
        counters — only when the work happens.
        """
        self.partition_stats(partition)


class BlockStatsCache(_KeyLocked, _PartitionStatsMixin):
    """Centred-Gram scalar statistics for incremental alignment scoring.

    With ``H = I - 11'/n`` and cosine-normalised block Grams ``K_i``
    from a :class:`GramCache`, the cache materialises ``C_i = H K_i H``
    once per block and memoises the scalars

    * ``a_i  = <C_i, C_T>``   (inner product with the centred target),
    * ``M_ij = <C_i, C_j>``   (pairwise, computed lazily per pair),

    plus ``||C_T||_F`` once.  The centred target is rank-1,
    ``C_T = (Hy)(Hy)'``, so ``a_i = (Hy)' C_i (Hy)`` and
    ``||C_T||_F = ||Hy||²`` need no n×n target.  Centred alignment of
    any weighted combination ``K_w = sum_i w_i K_i`` then follows from
    linearity of the centring map:

        rho(w) = (w·a) / (sqrt(w'Mw) · ||C_T||)

    — pure O(b²) scalar arithmetic, no O(n²) matrix work, once the
    blocks and pairs involved have been visited.  ``n_matrix_ops``
    counts the O(n²) full-matrix passes actually performed (centrings,
    Frobenius inner products, norms), the quantity the engine benchmark
    compares against direct per-partition materialisation.
    """

    def __init__(self, grams: GramCache, y: np.ndarray):
        super().__init__()
        self.grams = grams
        y = np.asarray(y, dtype=float).ravel()
        if y.shape[0] != self.grams.X.shape[0]:
            raise ValueError("y length must match the cached sample")
        self.y = y
        self._centered: dict[BlockKey, np.ndarray] = {}
        self._target_inner: dict[BlockKey, float] = {}
        self._pair_inner: dict[tuple[BlockKey, BlockKey], float] = {}
        # Rank-1 centred target C_T = (Hy)(Hy)', as in the sharded
        # cache: ||C_T||_F = ||Hy||², and no n×n target is formed.
        self.centered_y = y - y.mean()
        self.target_norm = frobenius_inner(self.centered_y, self.centered_y)
        # Ledger parity with the historical centring + norm passes.
        self.n_matrix_ops = 2

    def block_stats(self, block: Sequence[int]) -> tuple[float, float]:
        """``(a_i, M_ii)`` for one block; three O(n²) passes on first use.

        Per-key locking: concurrent scorers compute statistics of
        different blocks in parallel, each block exactly once.
        """
        key = canonical_block_key(block)
        if key not in self._centered:
            with self._key_lock(("block", key)):
                if key not in self._centered:
                    with get_tracer().span(
                        "cache.block_stats", cat="cache", block_size=len(key)
                    ):
                        gram = self.grams.gram(key)
                        # The one-strip case of the sharded arithmetic.
                        row_means = gram.mean(axis=1)
                        centered = center_symmetric_strip(
                            gram, row_means, row_means, float(row_means.mean())
                        )
                        yc = self.centered_y
                        target_rows, self_rows = strip_row_stats(centered, yc)
                        target_inner = reduce_strip_rows([target_rows], yc)
                        self_inner = reduce_strip_rows([self_rows])
                    with self._lock:
                        self._target_inner[key] = target_inner
                        self._pair_inner[(key, key)] = self_inner
                        self.n_matrix_ops += 3
                        # Published last: presence in _centered marks the
                        # block's statistics complete for lock-free reads.
                        self._centered[key] = centered
        return self._target_inner[key], self._pair_inner[(key, key)]

    def pair_inner(self, first: Sequence[int], second: Sequence[int]) -> float:
        """``M_ij = <C_i, C_j>``; one O(n²) pass per distinct pair."""
        key = tuple(sorted((canonical_block_key(first), canonical_block_key(second))))
        value = self._pair_inner.get(key)
        if value is not None:
            return value
        self.block_stats(key[0])
        self.block_stats(key[1])
        if key[0] == key[1]:
            return self._pair_inner[key]
        with self._key_lock(("pair", key)):
            if key not in self._pair_inner:
                first, second = self._centered[key[0]], self._centered[key[1]]
                value = reduce_strip_rows([strip_row_inners(first, second)])
                with self._lock:
                    self._pair_inner[key] = value
                    self.n_matrix_ops += 1
        return self._pair_inner[key]


class ShardedGramCache(_KeyLocked):
    """Block-row-sharded Gram cache: strips, never the full matrix.

    The sample's rows are split into ``n_shards`` contiguous ranges; a
    block's Gram exists only as the per-shard cross-Gram strips
    ``kernel(X[rows_s], X)`` — nothing n×n is ever assembled during a
    search, so the peak single allocation is one strip.  Every strip
    operation is local to its row range (plus O(n) shared vectors),
    which is the placement contract a multi-host deployment needs to
    pin each strip to the node owning those rows; in this in-process
    implementation the strips still share one address space, so total
    resident memory is not reduced — peak allocation and placement
    structure are.  The block kernel is *bound* to the full
    sample first (:meth:`repro.kernels.base.Kernel.bind`), so every
    strip is bit-identical to the corresponding rows of the monolithic
    Gram, normalisation included (the cosine diagonal is reduced across
    shards before scaling).

    :meth:`gram` — gathering a full matrix out of the strips — exists
    for final-model training and reference checks only; ``n_gathers``
    counts how often it happens, and a search on the incremental path
    keeps it at zero (the evidence ``BENCH_backends.json`` records).

    ``n_gram_computations`` counts *logical* per-block materialisations
    (one per block, however many strips), keeping cost ledgers
    comparable with the dense cache.
    """

    def __init__(
        self,
        X: np.ndarray,
        block_kernel: BlockKernelFactory = default_block_kernel,
        normalize: bool = True,
        n_shards: int = 2,
    ):
        super().__init__()
        self.X = as_2d(X)
        n = self.X.shape[0]
        if not 1 <= n_shards <= n:
            raise ValueError(
                f"n_shards must be in [1, n_samples={n}], got {n_shards}"
            )
        self.block_kernel = block_kernel
        self.normalize = normalize
        self.n_shards = int(n_shards)
        self.row_slices = shard_row_slices(n, self.n_shards)
        self._store: dict[BlockKey, list[np.ndarray]] = {}
        self.n_gram_computations = 0
        self.n_gathers = 0

    @property
    def max_strip_rows(self) -> int:
        """Largest row count any one shard holds."""
        return max(sl.stop - sl.start for sl in self.row_slices)

    def gram_cached(self, block: Sequence[int]) -> bool:
        """True if the block's strips are already materialised."""
        return canonical_block_key(block) in self._store

    def strips(self, block: Sequence[int]) -> list[np.ndarray]:
        """Per-shard row strips of one block's Gram (cached)."""
        key = canonical_block_key(block)
        strips = self._store.get(key)
        if strips is not None:
            return strips
        with self._key_lock(key):
            if key not in self._store:
                with get_tracer().span(
                    "cache.strips",
                    cat="cache",
                    block_size=len(key),
                    n_shards=self.n_shards,
                ):
                    kernel = self.block_kernel(key).bind(self.X)
                    strips = [
                        kernel(self.X[sl], self.X) for sl in self.row_slices
                    ]
                    if self.normalize:
                        # Reduce the diagonal across shards (an O(n)
                        # exchange of scalars), then scale each strip
                        # locally — same arithmetic as normalize_gram on
                        # the full matrix.
                        diagonal = np.concatenate(
                            [
                                strip[
                                    np.arange(sl.stop - sl.start),
                                    np.arange(sl.start, sl.stop),
                                ]
                                for strip, sl in zip(strips, self.row_slices)
                            ]
                        )
                        # A diagonal of exact ones scales nothing.
                        if not np.all(diagonal == 1.0):
                            scale = np.sqrt(np.clip(diagonal, 1e-12, None))
                            strips = [
                                strip / np.outer(scale[sl], scale)
                                for strip, sl in zip(strips, self.row_slices)
                            ]
                with self._lock:
                    self._store[key] = strips
                    self.n_gram_computations += 1
        return self._store[key]

    def gram(self, block: Sequence[int]) -> np.ndarray:
        """Gather the full Gram from its strips — the one deliberate
        materialisation point (final-model training, reference checks);
        never called on the incremental scoring path."""
        strips = self.strips(block)
        with self._lock:
            self.n_gathers += 1
        return np.vstack(strips)

    def grams_for(self, partition: SetPartition) -> list[np.ndarray]:
        """Gathered per-block Grams (counts one gather per block)."""
        return [self.gram(block) for block in partition.blocks]

    def stats_cache(self, y: np.ndarray) -> "ShardedBlockStatsCache":
        """The statistics cache matching this Gram layout."""
        return ShardedBlockStatsCache(self, y)


class ShardedBlockStatsCache(_KeyLocked, _PartitionStatsMixin):
    """Centred-Gram scalar statistics reduced strip-wise across shards.

    Same scalar surface as :class:`BlockStatsCache` (``block_stats``,
    ``pair_inner``, ``partition_stats``, ``target_norm``), but no n×n
    array is ever formed:

    * the centred target is rank-1, ``C_T = H(yy')H = (Hy)(Hy)'``, so
      ``||C_T||_F = ||Hy||²`` and ``a_i = <C_i, C_T> = (Hy)' C_i (Hy)``
      reduce to per-row vector products;
    * centring a strip needs only the global row-mean vector (an O(n)
      reduction of per-shard row sums — the symmetric Gram's column
      means equal its row means) plus the grand mean;
    * ``M_ij`` is the sum of per-row strip inner products.

    ``n_matrix_ops`` counts logical full-matrix-equivalent passes with
    the same schedule as the dense cache (2 for the target, 3 per
    block, 1 per pair), so sharded and dense runs stay comparable in
    the complexity ledgers.  Scalars equal the dense cache's bit for
    bit: strips are the dense Gram's rows, and every statistic is
    reduced from per-row shares concatenated in row order
    (:func:`~repro.kernels.gram.reduce_strip_rows`), the same
    arithmetic for one strip or many.
    """

    def __init__(self, grams: ShardedGramCache, y: np.ndarray):
        super().__init__()
        self.grams = grams
        y = np.asarray(y, dtype=float).ravel()
        if y.shape[0] != self.grams.X.shape[0]:
            raise ValueError("y length must match the cached sample")
        self.y = y
        self._centered: dict[BlockKey, list[np.ndarray]] = {}
        self._target_inner: dict[BlockKey, float] = {}
        self._pair_inner: dict[tuple[BlockKey, BlockKey], float] = {}
        # Rank-1 centred target: C_T = (Hy)(Hy)'; its stats are O(n).
        self.centered_y = y - y.mean()
        self.target_norm = frobenius_inner(self.centered_y, self.centered_y)
        # Ledger parity with the dense cache's two target passes.
        self.n_matrix_ops = 2

    def _centered_strips(self, key: BlockKey) -> list[np.ndarray]:
        strips = self.grams.strips(key)
        row_means = np.concatenate([strip.mean(axis=1) for strip in strips])
        grand_mean = float(row_means.mean())
        return [
            center_symmetric_strip(strip, row_means[sl], row_means, grand_mean)
            for strip, sl in zip(strips, self.grams.row_slices)
        ]

    def block_stats(self, block: Sequence[int]) -> tuple[float, float]:
        """``(a_i, M_ii)`` for one block, reduced across shards."""
        key = canonical_block_key(block)
        if key not in self._centered:
            with self._key_lock(("block", key)):
                if key not in self._centered:
                    centered = self._centered_strips(key)
                    yc = self.centered_y
                    parts = [strip_row_stats(strip, yc) for strip in centered]
                    target_inner = reduce_strip_rows(
                        [part[0] for part in parts], yc
                    )
                    self_inner = reduce_strip_rows([part[1] for part in parts])
                    with self._lock:
                        self._target_inner[key] = target_inner
                        self._pair_inner[(key, key)] = self_inner
                        self.n_matrix_ops += 3
                        # Published last: presence in _centered marks the
                        # block's statistics complete for lock-free reads.
                        self._centered[key] = centered
        return self._target_inner[key], self._pair_inner[(key, key)]

    def pair_inner(self, first: Sequence[int], second: Sequence[int]) -> float:
        """``M_ij = <C_i, C_j>`` as a sum of per-row strip inners."""
        key = tuple(sorted((canonical_block_key(first), canonical_block_key(second))))
        value = self._pair_inner.get(key)
        if value is not None:
            return value
        self.block_stats(key[0])
        self.block_stats(key[1])
        if key[0] == key[1]:
            return self._pair_inner[key]
        with self._key_lock(("pair", key)):
            if key not in self._pair_inner:
                value = reduce_strip_rows(
                    [
                        strip_row_inners(ci, cj)
                        for ci, cj in zip(self._centered[key[0]], self._centered[key[1]])
                    ]
                )
                with self._lock:
                    self._pair_inner[key] = value
                    self.n_matrix_ops += 1
        return self._pair_inner[key]


class LandmarkGramCache(_KeyLocked):
    """Low-rank (Nyström) Gram cache: n×r factors, never n×n matrices.

    Each block's Gram is represented by the factor ``F = C T`` where
    ``C = k(X, X[L])`` is the cross-Gram against ``m`` landmark rows
    ``L`` (:func:`select_landmarks`, deterministic per seed) and ``T``
    is the whitening transform of the landmark Gram
    (:func:`landmark_transform`), so ``F F' = C W^+ C'`` — the Nyström
    approximation.  Building a factor costs O(n·m) kernel evaluations
    plus an O(m³) eigendecomposition, versus the exact cache's O(n²)
    per block.

    The block kernel is bound to the *landmark* sample
    (``bind(X[L])``), not the full sample: the default RBF kernel's
    median-heuristic bandwidth is itself an O(n²) pairwise-distance
    pass, which would silently reinstate the quadratic wall.  Binding
    to ``X[L]`` keeps kernel set-up at O(m²) and coincides with the
    exact binding at m = n (the landmark set is sorted, so
    ``X[L] == X`` there), preserving exact convergence.

    ``normalize=True`` applies the clipped cosine normalisation
    row-locally on the factor (``(F F')_{rr} = ||F[r]||²`` is the
    approximate diagonal), matching :func:`normalize_gram` applied to
    the approximate Gram.

    Ledger contract: ``n_gram_computations`` stays 0 forever — this
    cache never performs an exact O(n²) pass; ``n_factor_computations``
    counts the O(n·m) factor builds instead, and :meth:`gram` (the one
    deliberate n×n materialisation, for final fits and reference
    checks) counts ``n_gathers``.
    """

    def __init__(
        self,
        X: np.ndarray,
        block_kernel: BlockKernelFactory = default_block_kernel,
        normalize: bool = True,
        n_landmarks: int | None = None,
        landmark_seed: int = 0,
    ):
        super().__init__()
        self.X = as_2d(X)
        n = self.X.shape[0]
        self.block_kernel = block_kernel
        self.normalize = normalize
        m = default_n_landmarks(n) if n_landmarks is None else int(n_landmarks)
        self.landmark_seed = int(landmark_seed)
        self.landmarks = select_landmarks(n, m, self.landmark_seed)
        self.n_landmarks = m
        self._store: dict[BlockKey, np.ndarray] = {}
        self._transforms: dict[BlockKey, np.ndarray] = {}
        self.n_gram_computations = 0
        self.n_factor_computations = 0
        self.n_gathers = 0

    def gram_cached(self, block: Sequence[int]) -> bool:
        """True if the block's factor is already materialised."""
        return canonical_block_key(block) in self._store

    def transform(self, block: Sequence[int]) -> np.ndarray:
        """The m×r whitening transform of one block (cached with the
        factor; the placed layout ships it to workers)."""
        self.factor(block)
        return self._transforms[canonical_block_key(block)]

    def factor(self, block: Sequence[int]) -> np.ndarray:
        """The n×r Nyström factor of one block's Gram (cached)."""
        key = canonical_block_key(block)
        factor = self._store.get(key)
        if factor is not None:
            return factor
        with self._key_lock(key):
            if key not in self._store:
                kernel = self.block_kernel(key).bind(self.X[self.landmarks])
                cross = kernel(self.X, self.X[self.landmarks])
                transform = landmark_transform(cross[self.landmarks])
                factor = cross @ transform
                if self.normalize:
                    factor = _normalize_factor_rows(factor)
                with self._lock:
                    self._transforms[key] = transform
                    self._store[key] = factor
                    self.n_factor_computations += 1
        return self._store[key]

    def factors_for(self, partition: SetPartition) -> list[np.ndarray]:
        """Per-block factors of a partition of column indices."""
        return [self.factor(block) for block in partition.blocks]

    def gram(self, block: Sequence[int]) -> np.ndarray:
        """Materialise the approximate Gram ``F F'`` — final-model
        training and reference checks only; counts a gather."""
        factor = self.factor(block)
        with self._lock:
            self.n_gathers += 1
        return factor @ factor.T

    def grams_for(self, partition: SetPartition) -> list[np.ndarray]:
        """Materialised approximate per-block Grams (one gather each)."""
        return [self.gram(block) for block in partition.blocks]

    def stats_cache(self, y: np.ndarray) -> "LandmarkBlockStatsCache":
        """The statistics cache matching this factor layout."""
        return LandmarkBlockStatsCache(self, y)


class LandmarkBlockStatsCache(_KeyLocked, _PartitionStatsMixin):
    """Centred-alignment statistics from Nyström factors in O(n·m).

    Same scalar surface as :class:`BlockStatsCache` (``block_stats``,
    ``pair_inner``, ``partition_stats``, ``target_norm``), but every
    reduction runs on the n×r factors:

    * centring: ``H F F' H = (HF)(HF)'`` with ``HF = F - colmeans(F)``
      — an O(n·r) pass, no n×n centring;
    * ``a_i  = <C_i, C_T> = ||(HF_i)' Hy||²`` (the centred target is
      rank-1, as in the sharded exact cache);
    * ``M_ij = <C_i, C_j> = ||(HF_i)'(HF_j)||_F²`` — an r_i×r_j inner
      Gram, O(n·r_i·r_j).

    Ledger contract: ``n_matrix_ops`` stays 0 forever (no O(n²)
    passes happen here); ``n_landmark_ops`` counts O(n·m)-equivalent
    passes on the *same schedule* as the exact caches book
    ``n_matrix_ops`` (2 for the target, 3 per block, 1 per pair), so
    exact and approximate ledgers are directly comparable —
    ``n_matrix_ops · n²`` versus ``n_landmark_ops · n·m`` element
    work.
    """

    def __init__(self, grams: LandmarkGramCache, y: np.ndarray):
        super().__init__()
        self.grams = grams
        y = np.asarray(y, dtype=float).ravel()
        if y.shape[0] != self.grams.X.shape[0]:
            raise ValueError("y length must match the cached sample")
        self.y = y
        self._centered: dict[BlockKey, np.ndarray] = {}
        self._target_inner: dict[BlockKey, float] = {}
        self._pair_inner: dict[tuple[BlockKey, BlockKey], float] = {}
        # Rank-1 centred target: C_T = (Hy)(Hy)'; its stats are O(n).
        self.centered_y = y - y.mean()
        self.target_norm = float(self.centered_y @ self.centered_y)
        self.n_matrix_ops = 0
        # Ledger parity with the exact caches' two target passes.
        self.n_landmark_ops = 2

    def block_stats(self, block: Sequence[int]) -> tuple[float, float]:
        """``(a_i, M_ii)`` for one block from its centred factor."""
        key = canonical_block_key(block)
        if key not in self._centered:
            with self._key_lock(("block", key)):
                if key not in self._centered:
                    factor = self.grams.factor(key)
                    centered = factor - factor.mean(axis=0)
                    t = centered.T @ self.centered_y
                    target_inner = float(t @ t)
                    inner = centered.T @ centered
                    self_inner = float(np.sum(inner * inner))
                    with self._lock:
                        self._target_inner[key] = target_inner
                        self._pair_inner[(key, key)] = self_inner
                        self.n_landmark_ops += 3
                        # Published last: presence in _centered marks the
                        # block's statistics complete for lock-free reads.
                        self._centered[key] = centered
        return self._target_inner[key], self._pair_inner[(key, key)]

    def pair_inner(self, first: Sequence[int], second: Sequence[int]) -> float:
        """``M_ij = ||(HF_i)'(HF_j)||_F²``; one O(n·r²) pass per pair."""
        key = tuple(sorted((canonical_block_key(first), canonical_block_key(second))))
        value = self._pair_inner.get(key)
        if value is not None:
            return value
        self.block_stats(key[0])
        self.block_stats(key[1])
        if key[0] == key[1]:
            return self._pair_inner[key]
        with self._key_lock(("pair", key)):
            if key not in self._pair_inner:
                cross = self._centered[key[0]].T @ self._centered[key[1]]
                value = float(np.sum(cross * cross))
                with self._lock:
                    self._pair_inner[key] = value
                    self.n_landmark_ops += 1
        return self._pair_inner[key]


class ShardedLandmarkGramCache(_KeyLocked):
    """Row-sharded Nyström cache: per-shard factor strips.

    The factor of :class:`LandmarkGramCache` split by the same
    contiguous row layout as :class:`ShardedGramCache`
    (:func:`shard_row_slices`): a block's factor exists only as the
    per-shard strips ``k(X[rows_s], X[L]) @ T``.  Each strip is local
    to its row range — the landmark set, the whitening transform
    (m×r) and the O(n) label vector are the only shared state, which
    is the placement contract the cluster-side
    ``PlacedLandmarkGramCache`` uses to pin factor strips to the
    workers owning those rows.  Row normalisation is strip-local (the
    approximate diagonal is a per-row factor norm), so unlike the
    exact sharded cache no cross-shard diagonal reduction is needed.
    """

    def __init__(
        self,
        X: np.ndarray,
        block_kernel: BlockKernelFactory = default_block_kernel,
        normalize: bool = True,
        n_shards: int = 2,
        n_landmarks: int | None = None,
        landmark_seed: int = 0,
    ):
        super().__init__()
        self.X = as_2d(X)
        n = self.X.shape[0]
        if not 1 <= n_shards <= n:
            raise ValueError(
                f"n_shards must be in [1, n_samples={n}], got {n_shards}"
            )
        self.block_kernel = block_kernel
        self.normalize = normalize
        self.n_shards = int(n_shards)
        self.row_slices = shard_row_slices(n, self.n_shards)
        m = default_n_landmarks(n) if n_landmarks is None else int(n_landmarks)
        self.landmark_seed = int(landmark_seed)
        self.landmarks = select_landmarks(n, m, self.landmark_seed)
        self.n_landmarks = m
        self._store: dict[BlockKey, list[np.ndarray]] = {}
        self._transforms: dict[BlockKey, np.ndarray] = {}
        self.n_gram_computations = 0
        self.n_factor_computations = 0
        self.n_gathers = 0

    @property
    def max_strip_rows(self) -> int:
        """Largest row count any one shard holds."""
        return max(sl.stop - sl.start for sl in self.row_slices)

    def gram_cached(self, block: Sequence[int]) -> bool:
        """True if the block's factor strips are already materialised."""
        return canonical_block_key(block) in self._store

    def transform(self, block: Sequence[int]) -> np.ndarray:
        """The m×r whitening transform of one block."""
        self.factor_strips(block)
        return self._transforms[canonical_block_key(block)]

    def factor_strips(self, block: Sequence[int]) -> list[np.ndarray]:
        """Per-shard row strips of one block's Nyström factor (cached)."""
        key = canonical_block_key(block)
        strips = self._store.get(key)
        if strips is not None:
            return strips
        with self._key_lock(key):
            if key not in self._store:
                landmarks = self.landmarks
                kernel = self.block_kernel(key).bind(self.X[landmarks])
                transform = landmark_transform(
                    kernel(self.X[landmarks], self.X[landmarks])
                )
                strips = [
                    kernel(self.X[sl], self.X[landmarks]) @ transform
                    for sl in self.row_slices
                ]
                if self.normalize:
                    strips = [_normalize_factor_rows(strip) for strip in strips]
                with self._lock:
                    self._transforms[key] = transform
                    self._store[key] = strips
                    self.n_factor_computations += 1
        return self._store[key]

    def factor(self, block: Sequence[int]) -> np.ndarray:
        """The full n×r factor assembled from its strips.

        O(n·r) assembly — *not* a gather in the n×n sense, so it does
        not count against ``n_gathers``; the factor-trained CV scorer
        uses it."""
        return np.vstack(self.factor_strips(block))

    def gram(self, block: Sequence[int]) -> np.ndarray:
        """Materialise the approximate Gram ``F F'`` (counts a gather)."""
        factor = self.factor(block)
        with self._lock:
            self.n_gathers += 1
        return factor @ factor.T

    def grams_for(self, partition: SetPartition) -> list[np.ndarray]:
        """Materialised approximate per-block Grams (one gather each)."""
        return [self.gram(block) for block in partition.blocks]

    def stats_cache(self, y: np.ndarray) -> "ShardedLandmarkStatsCache":
        """The statistics cache matching this strip layout."""
        return ShardedLandmarkStatsCache(self, y)


class ShardedLandmarkStatsCache(_KeyLocked, _PartitionStatsMixin):
    """Landmark-factor statistics reduced strip-wise across shards.

    The sharded twin of :class:`LandmarkBlockStatsCache`, with every
    reduction expressed as strip-local partials summed in strip order
    — exactly the reductions the cluster-side placed landmark cache
    performs over worker replies, which is what makes the in-process
    and placed layouts bit-identical:

    * column means: per-strip column sums, summed in strip order, / n;
    * ``t = sum_s (HF_s)' Hy[rows_s]`` and ``a_i = ||t||²``;
    * ``G = sum_s (HF_s)' (HF_s)`` and ``M_ii = ||G||_F²`` (pairs
      alike with ``G_ij = sum_s (HF_i_s)' (HF_j_s)``).

    Ledger contract matches :class:`LandmarkBlockStatsCache`:
    ``n_matrix_ops`` stays 0, ``n_landmark_ops`` follows the standard
    2/3/1 schedule.
    """

    def __init__(self, grams: ShardedLandmarkGramCache, y: np.ndarray):
        super().__init__()
        self.grams = grams
        y = np.asarray(y, dtype=float).ravel()
        if y.shape[0] != self.grams.X.shape[0]:
            raise ValueError("y length must match the cached sample")
        self.y = y
        self._centered: dict[BlockKey, list[np.ndarray]] = {}
        self._target_inner: dict[BlockKey, float] = {}
        self._pair_inner: dict[tuple[BlockKey, BlockKey], float] = {}
        self.centered_y = y - y.mean()
        self.target_norm = float(self.centered_y @ self.centered_y)
        self.n_matrix_ops = 0
        self.n_landmark_ops = 2

    def _centered_strips(self, key: BlockKey) -> list[np.ndarray]:
        strips = self.grams.factor_strips(key)
        n = self.grams.X.shape[0]
        col_sums = [strip.sum(axis=0) for strip in strips]
        col_means = sum(col_sums) / float(n)
        return [strip - col_means for strip in strips]

    def block_stats(self, block: Sequence[int]) -> tuple[float, float]:
        """``(a_i, M_ii)`` for one block, reduced across shards."""
        key = canonical_block_key(block)
        if key not in self._centered:
            with self._key_lock(("block", key)):
                if key not in self._centered:
                    centered = self._centered_strips(key)
                    yc = self.centered_y
                    slices = self.grams.row_slices
                    t = sum(
                        strip.T @ yc[sl] for strip, sl in zip(centered, slices)
                    )
                    target_inner = float(t @ t)
                    inner = sum(strip.T @ strip for strip in centered)
                    self_inner = float(np.sum(inner * inner))
                    with self._lock:
                        self._target_inner[key] = target_inner
                        self._pair_inner[(key, key)] = self_inner
                        self.n_landmark_ops += 3
                        # Published last: presence in _centered marks the
                        # block's statistics complete for lock-free reads.
                        self._centered[key] = centered
        return self._target_inner[key], self._pair_inner[(key, key)]

    def pair_inner(self, first: Sequence[int], second: Sequence[int]) -> float:
        """``M_ij`` as the Frobenius norm² of strip-summed inner Grams."""
        key = tuple(sorted((canonical_block_key(first), canonical_block_key(second))))
        value = self._pair_inner.get(key)
        if value is not None:
            return value
        self.block_stats(key[0])
        self.block_stats(key[1])
        if key[0] == key[1]:
            return self._pair_inner[key]
        with self._key_lock(("pair", key)):
            if key not in self._pair_inner:
                cross = sum(
                    ci.T @ cj
                    for ci, cj in zip(self._centered[key[0]], self._centered[key[1]])
                )
                value = float(np.sum(cross * cross))
                with self._lock:
                    self._pair_inner[key] = value
                    self.n_landmark_ops += 1
        return self._pair_inner[key]
