"""Bitwise contracts of the one-distance-pass block arithmetic.

A block's Gram is built from one condensed distance vector (bandwidth
and off-diagonal ``exp``s alike), its normalisation is skipped when the
diagonal is exactly 1.0, and its alignment statistics are reduced
without temporaries.  None of that may change a bit of a bandwidth or
a Gram: every property below compares against the straightforward
full-matrix formula, kept here as the oracle.
"""

import multiprocessing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from repro.combinatorics.loeb import partitions_of_type
from repro.core import FacetedLearner
from repro.combinatorics.partitions import SetPartition
from repro.engine.backends import process_context
from repro.engine.cache import (
    BlockStatsCache,
    GramCache,
    ShardedBlockStatsCache,
    ShardedGramCache,
    query_block_diags,
)
from repro.kernels import (
    LaplacianKernel,
    LinearKernel,
    RBFKernel,
    default_block_kernel,
    frobenius_inner,
    median_heuristic_gamma,
    normalize_gram,
)


def full_matrix_median_gamma(X):
    """The median heuristic over a full ``cdist`` matrix (the oracle)."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.shape[0] < 2:
        return 1.0
    distances = cdist(X, X)
    positive = distances[distances > 0]
    if positive.size == 0:
        return 1.0
    median = float(np.median(positive))
    return 1.0 / (2.0 * median * median)


def sample(n, d, kind, seed):
    """Data shapes that stress the median: continuous values, heavy
    ties (few distinct integer values), all-equal rows, NaN rows."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
    if kind == "ties":
        return rng.integers(0, 3, size=(n, d)).astype(float)
    if kind == "equal":
        return np.full((n, d), float(rng.normal()))
    X = rng.normal(size=(n, d))
    X[rng.random(n) < 0.2] = np.nan
    return X


samples = st.builds(
    sample,
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["normal", "ties", "equal", "nan"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
finite_samples = st.builds(
    sample,
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["normal", "ties"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)


class TestMedianHeuristic:
    @settings(max_examples=200, deadline=None)
    @given(samples)
    @example(np.zeros((0, 2)))
    @example(np.ones((1, 3)))
    @example(np.ones((6, 2)))  # all rows equal: no positive distance
    @example(np.array([[0.0], [1.0], [3.0]]))  # 3 pairs: odd count
    @example(np.array([[0.0], [1.0], [3.0], [7.0]]))  # 6 pairs: even count
    @example(np.array([[0.0], [1.0], [2.0], [3.0]]))  # tied distances
    def test_equals_full_matrix_median_bitwise(self, X):
        assert median_heuristic_gamma(X) == full_matrix_median_gamma(X)

    def test_one_dimensional_input_is_a_column(self):
        x = np.array([0.0, 2.0, 5.0, 9.0, 14.0])
        assert median_heuristic_gamma(x) == full_matrix_median_gamma(x)


class TestSelfGramFastPath:
    @settings(max_examples=100, deadline=None)
    @given(samples, st.sampled_from([None, 0.3, 2.5]))
    def test_self_gram_equals_cdist_formula_bitwise(self, X, gamma):
        if X.shape[0] == 0:
            return
        g = full_matrix_median_gamma(X) if gamma is None else gamma
        expected = np.exp(-g * cdist(X, X, "sqeuclidean"))
        assert np.array_equal(RBFKernel(gamma)(X), expected, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(finite_samples, st.sampled_from([None, 0.7]), st.data())
    def test_bound_rows_equal_bound_strips_bitwise(self, X, gamma, data):
        n = X.shape[0]
        start = data.draw(st.integers(min_value=0, max_value=n - 1))
        stop = data.draw(st.integers(min_value=start + 1, max_value=n))
        bound = RBFKernel(gamma).bind(X)
        assert np.array_equal(bound(X)[start:stop], bound(X[start:stop], X))

    @settings(max_examples=40, deadline=None)
    @given(finite_samples)
    def test_subset_kernel_keeps_the_fast_path(self, X):
        columns = tuple(range(X.shape[1]))[::-1][: max(1, X.shape[1] - 1)]
        kernel = default_block_kernel(tuple(sorted(columns)))
        sub = X[:, list(kernel.columns)]
        g = full_matrix_median_gamma(sub)
        assert np.array_equal(kernel(X), np.exp(-g * cdist(sub, sub, "sqeuclidean")))
        bound = kernel.bind(X)
        assert np.array_equal(bound(X)[1:], bound(X[1:], X))


    def test_self_grams_never_run_a_full_cdist(self, monkeypatch):
        import repro.kernels.standard as standard

        def full_pass(*args, **kwargs):
            raise AssertionError("a self-Gram ran a full n×n cdist")

        monkeypatch.setattr(standard, "cdist", full_pass)
        X = np.random.default_rng(2).normal(size=(12, 3))
        RBFKernel(None)(X)
        default_block_kernel((0, 2))(X)  # the subset slice keeps Z is X
        RBFKernel(None).bind(X)


class TestDiagonal:
    @settings(max_examples=60, deadline=None)
    @given(samples)
    def test_closed_form_diagonals_match_the_gram(self, X):
        for kernel in (
            RBFKernel(None),
            RBFKernel(1.5),
            LaplacianKernel(0.4),
            LinearKernel(),
            RBFKernel(None).restrict(range(X.shape[1])),
        ):
            assert np.array_equal(
                kernel.diagonal(X), np.diag(kernel(X)), equal_nan=True
            )

    def test_query_diags_are_ones_without_a_gram(self, monkeypatch):
        X = np.random.default_rng(3).normal(size=(5, 4))
        calls = []
        original = RBFKernel.compute
        monkeypatch.setattr(
            RBFKernel,
            "compute",
            lambda self, A, B: calls.append(1) or original(self, A, B),
        )
        diags = query_block_diags(X, [(0, 1), (2, 3)], default_block_kernel)
        assert not calls
        assert all(np.array_equal(d, np.ones(5)) for d in diags)


class TestAllocationFreeStatistics:
    def test_frobenius_inner_is_layout_independent(self):
        rng = np.random.default_rng(7)
        A, B = rng.normal(size=(2, 60, 70))
        value = frobenius_inner(A, B)
        assert frobenius_inner(np.asfortranarray(A), B) == value
        assert value == pytest.approx(float(np.sum(A * B)), rel=1e-12)
        with pytest.raises(ValueError):
            frobenius_inner(A, B[:, :-1])

    def test_unit_diagonal_gram_is_not_divided(self):
        gram = RBFKernel(0.5)(np.random.default_rng(1).normal(size=(9, 2)))
        assert normalize_gram(gram) is gram
        scaled = 4.0 * gram
        assert np.allclose(np.diag(normalize_gram(scaled)), 1.0)

    @pytest.mark.parametrize("n_shards", [1, 3, 7])
    def test_dense_and_sharded_statistics_agree_bitwise(self, n_shards):
        # Strips are the dense Gram's rows, and every statistic reduces
        # per-row shares in row order, so the layout changes no bit.
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 4))
        y = np.where(rng.random(40) < 0.4, 1.0, -1.0)
        dense = BlockStatsCache(GramCache(X), y)
        sharded = ShardedBlockStatsCache(
            ShardedGramCache(X, n_shards=n_shards), y
        )
        assert dense.target_norm == sharded.target_norm
        for block in [(0,), (1, 2), (0, 1, 2, 3)]:
            assert dense.block_stats(block) == sharded.block_stats(block)
        assert dense.pair_inner((0,), (1, 2)) == sharded.pair_inner((0,), (1, 2))
        assert dense.n_matrix_ops == sharded.n_matrix_ops == 2 + 3 * 3 + 1


    def test_dense_and_sharded_fits_agree_bitwise(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(48, 5))
        y = np.where(X[:, 0] * X[:, 1] + 0.3 * rng.normal(size=48) > 0, 1.0, -1.0)
        fits = [
            FacetedLearner(strategy="exhaustive", scorer="alignment", **options).fit(X, y)
            for options in ({}, {"shards": 3})
        ]
        dense, sharded = (fit.search_result_ for fit in fits)
        assert dense.best_partition == sharded.best_partition
        assert dense.best_score == sharded.best_score
        assert list(dense.history) == list(sharded.history)
        assert np.array_equal(fits[0].weights_, fits[1].weights_)


class TestTrustedPartitionConstructor:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4))
    def test_generated_partitions_equal_validated_ones(self, composition):
        for partition in partitions_of_type(tuple(composition)):
            checked = SetPartition(partition.blocks)
            assert partition == checked and hash(partition) == hash(checked)
            assert partition.ground_set == checked.ground_set
            for element in checked.ground_set:
                assert partition.block_of(element) == checked.block_of(element)


def test_process_context_never_forks_the_caller():
    method = process_context().get_start_method()
    expected = (
        "forkserver"
        if "forkserver" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    assert method == expected
    assert process_context("spawn").get_start_method() == "spawn"
