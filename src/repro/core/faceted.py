"""End-to-end faceted learner: the paper's Sec. III pipeline in one object.

``FacetedLearner`` chains the pieces the paper describes:

1. *dynamic seed selection* — discretise the features, pick the block
   ``K`` with the best rough approximation accuracy of the label
   concept (:mod:`repro.mkl.seed`), unless a seed or known facet
   structure is supplied;
2. *lattice exploration* — search the lower cone of ``(K, S - K)`` for
   the best multiple-kernel partition, by exhaustive enumeration,
   symmetric-chain walk, or greedy smushing;
3. *final model* — train a (least-squares) SVM on the winning combined
   Gram; prediction reuses the per-block kernels.

The learner exposes the chosen partition, the search ledger, and a
:class:`repro.core.trust.TrustReport` so "the human decision-maker"
can see why the configuration was chosen (paper Sec. I.B).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.analytics.lssvm import LSSVC
from repro.combinatorics.partitions import SetPartition
from repro.engine.cache import cross_gram_strip, query_block_diags
from repro.engine.strategies import available_strategies
from repro.kernels.base import as_2d
from repro.kernels.combination import combine_grams, uniform_weights
from repro.kernels.gram import normalize_gram
from repro.kernels.partition_kernel import BlockKernelFactory, default_block_kernel
from repro.mkl.alignf import alignf_weights
from repro.mkl.combiner import alignment_weights
from repro.mkl.partition_search import (
    AlignmentScorer,
    CrossValScorer,
    PartitionMKLSearch,
    SearchResult,
)
from repro.mkl.seed import RoughSeedResult, roughset_seed_block

__all__ = ["FacetedLearner"]


class FacetedLearner:
    """Partition-aware multiple-kernel classifier for faceted IoT data.

    Parameters
    ----------
    strategy:
        ``"chain"`` (linear walk, default), ``"chains"``, ``"greedy"``
        (smushing), ``"beam"`` (top-down beam search), ``"best_first"``
        (evaluation-budgeted best-first), or ``"exhaustive"``
        (Bell-cost enumeration).
    scorer:
        ``"alignment"`` (fast surrogate) or ``"cv"`` (cross-validated
        accuracy), or any callable ``(gram, y) -> float``.
    seed_block:
        Explicit column indices for ``K``; ``None`` selects it by rough
        approximation accuracy.
    views:
        Known facet structure (sequence of column-index tuples).  When
        given, the search starts from this partition's coarsening and
        the seed block is its highest-alignment view.
    backend:
        Evaluation backend for the search (``"serial"``, ``"threads"``,
        ``"processes"``); the process pool requires the alignment
        scorer (it ships scalar statistics, not Grams).
    shards:
        When set (> 1), the search runs over block-row-sharded Gram
        storage and never materialises a full n×n Gram; only the final
        model fit gathers the winning blocks once.  With a
        ``SocketBackend`` *instance* the strips live on the workers
        (placement-aware sharding) and the final gather fetches them
        over the wire.
    workers:
        Worker addresses for ``backend="sockets"`` (``"host:port"``
        strings or ``(host, port)`` pairs).
    backend_options:
        Extra backend-factory options when ``backend`` is a name — for
        ``"sockets"``, the cluster resilience knobs (``secret=``,
        ``heartbeat_interval=``, ``replication=``).
    overlap:
        Materialise upcoming batches' statistics in the background
        while the current batch is scored.
    speculate:
        Strategy-side speculative batching: the search proposes likely
        next candidates before each decision resolves so networked
        workers stay saturated; results are bit-identical, and the
        hit/waste ledger lands on ``search_result_.speculation``.
    speculation_depth:
        Speculation budget and lookahead horizon.
    approx:
        ``"landmarks"`` runs seed selection and the lattice search over
        the low-rank Nyström caches — O(n·m) per block instead of
        O(n²), with CV folds trained in factor space.  The *final*
        model is still fitted on exact Grams of the winning partition
        (one O(n²) pass per winning block), so only the search is
        approximate.  ``None`` (default) keeps everything exact.
    n_landmarks, landmark_seed:
        Landmark count and deterministic selection seed for
        ``approx="landmarks"``.
    facet_parallel:
        Run the per-facet seed-selection statistics (the ``views``
        alignment ranking — the largest remaining serial loop)
        concurrently, one thread per facet, instead of one facet after
        another.  The per-key cache locks make warming thread-safe and
        the reduced scalars are build-order independent, so the chosen
        seed, the search, and every ledger stay bit-identical to the
        sequential path on all backends.  On a shared fleet
        (``SocketBackend`` instance) each facet is registered as a
        sibling tenant of this learner, so fleet introspection shows
        the facets side by side.
    tenant, tenant_weight, tenant_max_queue_depth:
        Run the learner's search as a named tenant of a shared fleet —
        fair-share scheduled envelopes, per-tenant wire ledger,
        namespaced placed strips (:mod:`repro.cluster.tenancy`).
        Ignored by backends without a shared fleet.
    """

    def __init__(
        self,
        strategy: str = "chain",
        scorer: str | Callable = "cv",
        weighting: str = "alignment",
        seed_block: Sequence[int] | None = None,
        views: Sequence[Sequence[int]] | None = None,
        block_kernel: BlockKernelFactory = default_block_kernel,
        estimator_gamma: float = 10.0,
        n_chains: int = 5,
        patience: int = 2,
        seed_max_size: int = 2,
        random_state: int = 0,
        beam_width: int | None = 3,
        max_evaluations: int | None = None,
        backend: str = "serial",
        shards: int | None = None,
        workers=None,
        backend_options: dict | None = None,
        overlap: bool = False,
        speculate: bool = False,
        speculation_depth: int = 4,
        approx: str | None = None,
        n_landmarks: int | None = None,
        landmark_seed: int = 0,
        facet_parallel: bool = False,
        tenant: str | None = None,
        tenant_weight: float = 1.0,
        tenant_max_queue_depth: int | None = None,
    ):
        # Defer to the engine's registry so register_strategy extensions
        # are reachable from the high-level API too (``greedy`` is a
        # registry strategy like every other since the speculation PR).
        if strategy not in available_strategies():
            raise ValueError(
                f"unknown strategy {strategy!r}; available: "
                f"{', '.join(available_strategies())}"
            )
        self.strategy = strategy
        if callable(scorer):
            self._scorer = scorer
        elif scorer == "alignment":
            self._scorer = AlignmentScorer()
        elif scorer == "cv":
            self._scorer = CrossValScorer(n_folds=3, seed=random_state)
        else:
            raise ValueError("scorer must be 'alignment', 'cv' or a callable")
        if weighting not in ("uniform", "alignment", "alignf"):
            raise ValueError(
                "weighting must be 'uniform', 'alignment' or 'alignf'"
            )
        self.weighting = weighting
        self.seed_block = tuple(seed_block) if seed_block is not None else None
        self.views = [tuple(view) for view in views] if views is not None else None
        self.block_kernel = block_kernel
        self.estimator_gamma = float(estimator_gamma)
        self.n_chains = int(n_chains)
        self.patience = int(patience)
        self.seed_max_size = int(seed_max_size)
        self.random_state = int(random_state)
        self.beam_width = beam_width if beam_width is None else int(beam_width)
        self.max_evaluations = (
            max_evaluations if max_evaluations is None else int(max_evaluations)
        )
        self.backend = backend
        self.shards = shards
        self.workers = workers
        self.backend_options = backend_options
        self.overlap = bool(overlap)
        self.speculate = bool(speculate)
        self.speculation_depth = int(speculation_depth)
        if approx not in (None, "landmarks"):
            raise ValueError(f"approx must be None or 'landmarks', got {approx!r}")
        if approx is None and n_landmarks is not None:
            raise ValueError("n_landmarks requires approx='landmarks'")
        self.approx = approx
        self.n_landmarks = n_landmarks
        self.landmark_seed = int(landmark_seed)
        self.facet_parallel = bool(facet_parallel)
        self.tenant = None if tenant is None else str(tenant)
        self.tenant_weight = float(tenant_weight)
        self.tenant_max_queue_depth = tenant_max_queue_depth

        self.partition_: SetPartition | None = None
        self.search_result_: SearchResult | None = None
        self.rough_seed_: RoughSeedResult | None = None
        self.weights_: np.ndarray | None = None
        self._estimator: LSSVC | None = None
        self._train_X: np.ndarray | None = None
        self._train_diags: list[np.ndarray] | None = None

    # ------------------------------------------------------------------

    def _choose_seed(self, X: np.ndarray, y: np.ndarray, cache) -> tuple[int, ...]:
        if self.seed_block is not None:
            return self.seed_block
        if self.views:
            # Use the view best aligned with the labels as the seed
            # facet, ranked from cache scalar statistics — identical
            # argmax to alignment_weights over materialised Grams, but
            # works over the sharded layout without ever gathering a
            # full n×n view Gram.  The cache is the one the search will
            # score through, so view Grams computed here are reused.
            from repro.engine import alignment_weights_from_stats

            stats = cache.stats_cache(np.asarray(y))
            pairs = self._facet_stats(stats)
            weights = alignment_weights_from_stats(
                np.array([a for a, _ in pairs]),
                np.array([m for _, m in pairs]),
                stats.target_norm,
            )
            return tuple(self.views[int(np.argmax(weights))])
        self.rough_seed_ = roughset_seed_block(
            X, y, max_size=self.seed_max_size
        )
        return self.rough_seed_.seed_columns

    def _facet_stats(self, stats) -> list[tuple[float, float]]:
        """Per-view ``(a, m)`` alignment statistics, in view order.

        Sequential by default.  With ``facet_parallel`` each view's
        statistics are computed on its own thread — the caches'
        per-key locks make concurrent warming safe, and the reduced
        scalars do not depend on block build order, so the resulting
        pairs (hence the chosen seed and everything downstream) are
        bit-identical to the sequential loop.
        """
        assert self.views is not None
        if not self.facet_parallel or len(self.views) <= 1:
            return [stats.block_stats(view) for view in self.views]
        import threading

        pairs: list = [None] * len(self.views)
        errors: list[BaseException] = []

        def work(index: int, view: tuple) -> None:
            try:
                pairs[index] = stats.block_stats(view)
            except BaseException as error:  # re-raised on the caller
                errors.append(error)

        threads = [
            threading.Thread(
                target=work, args=(index, view), name=f"facet-{index}"
            )
            for index, view in enumerate(self.views)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return pairs

    def _register_facet_tenants(self) -> None:
        """Announce the facets as sibling tenants of this learner.

        Accounting only — facet statistics ride the placement plane's
        shared residency, so registration makes the concurrent facets
        visible in ``tenant_queue_depths()`` / ``tenant_ledgers()``
        without changing what is computed.  A no-op off the shared
        fleet (no coordinator) or when the run is sequential.
        """
        if not self.facet_parallel or not self.views:
            return
        coordinator = getattr(self.backend, "coordinator", None)
        register = getattr(coordinator, "register_tenant", None)
        if register is None:
            return
        base = self.tenant if self.tenant is not None else "facets"
        for index in range(len(self.views)):
            register(f"{base}:facet{index}", weight=self.tenant_weight)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "FacetedLearner":
        X = as_2d(X)
        y = np.asarray(y)
        self._train_X = X
        search = PartitionMKLSearch(
            scorer=self._scorer,
            weighting=self.weighting,
            block_kernel=self.block_kernel,
            backend=self.backend,
            shards=self.shards,
            workers=self.workers,
            backend_options=self.backend_options,
            overlap=self.overlap,
            speculate=self.speculate,
            speculation_depth=self.speculation_depth,
            approx=self.approx,
            n_landmarks=self.n_landmarks,
            landmark_seed=self.landmark_seed,
            tenant=self.tenant,
            tenant_weight=self.tenant_weight,
            tenant_max_queue_depth=self.tenant_max_queue_depth,
        )
        # One cache serves seed selection, the search, and the final
        # model.  In the sharded layout the first two score over row
        # strips only; the sole full-Gram gathers happen below, once,
        # to train the final model on the winning configuration.
        cache = search._make_cache(X)
        self._register_facet_tenants()
        seed = self._choose_seed(X, y, cache)
        strategy_params: dict = {}
        if self.strategy == "chain":
            strategy_params = {"patience": self.patience}
        elif self.strategy == "chains":
            strategy_params = {
                "n_chains": self.n_chains,
                "patience": self.patience,
                "permutation_seed": self.random_state,
            }
        elif self.strategy == "beam":
            strategy_params = {
                "beam_width": self.beam_width,
                "max_evaluations": self.max_evaluations,
            }
        elif self.strategy == "best_first":
            strategy_params = {"max_evaluations": self.max_evaluations}
        result = search.search(
            X, y, seed, strategy=self.strategy, cache=cache, **strategy_params
        )
        self.search_result_ = result
        self.partition_ = result.best_partition

        if self.approx == "landmarks":
            # The search was approximate; the final model is not.  The
            # winning partition's blocks get exact Grams from a fresh
            # dense cache — b O(n²) passes total, paid once, versus the
            # O(n²)-per-block search the landmark path just avoided.
            from repro.engine.cache import GramCache

            final_cache = GramCache(X, self.block_kernel)
            grams = final_cache.grams_for(self.partition_)
        else:
            grams = cache.grams_for(self.partition_)
        if self.weighting == "uniform":
            self.weights_ = uniform_weights(len(grams))
        elif self.weighting == "alignf":
            self.weights_ = alignf_weights(grams, y)
        else:
            self.weights_ = alignment_weights(grams, y)
        combined = combine_grams(grams, self.weights_, normalize=False)
        self._estimator = LSSVC("precomputed", gamma=self.estimator_gamma)
        self._estimator.fit(combined, y)
        # Cache per-block training self-similarities for cross-Gram
        # normalisation at predict time.
        self._train_diags = [
            np.sqrt(np.clip(self.block_kernel(block).diagonal(X), 1e-12, None))
            for block in self.partition_.blocks
        ]
        return self

    # ------------------------------------------------------------------

    def _cross_gram(self, X: np.ndarray) -> np.ndarray:
        # Delegates to the engine's strip evaluator with one "strip"
        # covering the whole training sample — the very same code path
        # the serving plane runs per worker-resident strip, which is
        # what makes served responses bit-identical to this method.
        assert self.partition_ is not None and self._train_X is not None
        assert self.weights_ is not None and self._train_diags is not None
        X = as_2d(X)
        blocks = self.partition_.blocks
        return cross_gram_strip(
            X,
            self._train_X,
            blocks,
            self.weights_,
            self.block_kernel,
            self._train_diags,
            query_block_diags(X, blocks, self.block_kernel),
        )

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed decision scores for new samples."""
        if self._estimator is None:
            raise RuntimeError("fit must be called before predict")
        return self._estimator.decision_function(self._cross_gram(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels for new samples."""
        if self._estimator is None:
            raise RuntimeError("fit must be called before predict")
        return self._estimator.predict(self._cross_gram(X))

    # ------------------------------------------------------------------

    @property
    def n_kernels(self) -> int:
        """Kernels in the selected configuration."""
        if self.partition_ is None:
            raise RuntimeError("fit must be called first")
        return self.partition_.n_blocks

    def describe(self) -> dict:
        """Summary of the fitted configuration (for logging/reports)."""
        if self.partition_ is None or self.search_result_ is None:
            raise RuntimeError("fit must be called first")
        return {
            "strategy": self.strategy,
            "partition": self.partition_.compact_str(),
            "n_kernels": self.n_kernels,
            "score": self.search_result_.best_score,
            "n_evaluations": self.search_result_.n_evaluations,
            "n_gram_computations": self.search_result_.n_gram_computations,
            "weights": None if self.weights_ is None else self.weights_.tolist(),
            "seed_partition": self.search_result_.seed_partition.compact_str(),
            "approx": self.search_result_.approx,
            "n_landmark_ops": self.search_result_.n_landmark_ops,
            "n_cv_solves": self.search_result_.n_cv_solves,
            "n_cv_solves_landmark": self.search_result_.n_cv_solves_landmark,
        }
