"""Kernel interface.

Kernels map data into high-dimensional feature spaces implicitly via
Gram matrices (paper Sec. II.A).  A kernel here is a callable object:
``kernel(X)`` returns the square Gram matrix of a sample, and
``kernel(X, Z)`` the rectangular cross-Gram between two samples.  All
arrays are ``numpy`` 2-D ``(n_samples, n_features)``.

Kernels can be *restricted* to a feature subset with
:class:`SubsetKernel` — the building block of the paper's faceted
configurations, where each block of a feature partition gets its own
kernel.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

import numpy as np

__all__ = ["Kernel", "SubsetKernel", "as_2d"]


def as_2d(X: np.ndarray) -> np.ndarray:
    """Validate and return data as a 2-D float array."""
    array = np.asarray(X, dtype=float)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    if array.ndim != 2:
        raise ValueError(f"expected 2-D data, got shape {array.shape}")
    return array


class Kernel(abc.ABC):
    """A positive-semidefinite similarity function on feature vectors."""

    @abc.abstractmethod
    def compute(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Return the cross-Gram matrix ``K[i, j] = k(X[i], Z[j])``."""

    def __call__(self, X: np.ndarray, Z: np.ndarray | None = None) -> np.ndarray:
        X = as_2d(X)
        Z = X if Z is None else as_2d(Z)
        if X.shape[1] != Z.shape[1]:
            raise ValueError(
                f"feature dimensions differ: {X.shape[1]} vs {Z.shape[1]}"
            )
        gram = self.compute(X, Z)
        return np.asarray(gram, dtype=float)

    def diagonal(self, X: np.ndarray) -> np.ndarray:
        """Self-similarities ``k(X[i], X[i])`` — the diagonal of ``self(X)``.

        This default builds the whole Gram; kernels whose diagonal is
        known in closed form override it, so normalisation diagonals
        cost O(n) instead of an n×n evaluation.
        """
        return np.diag(self(X)).copy()

    def restrict(self, columns: Sequence[int]) -> "SubsetKernel":
        """Return this kernel applied only to the given feature columns."""
        return SubsetKernel(self, columns)

    def bind(self, X: np.ndarray) -> "Kernel":
        """Resolve data-dependent parameters against a reference sample.

        A *bound* kernel must satisfy the row-consistency contract

            ``bound(X[rows], X) == bound(X)[rows]``

        so that a Gram matrix can be assembled strip-wise (cross-Grams
        of row subsets against the full sample) and still match the
        monolithic computation exactly — the invariant the sharded
        caches rely on.  Kernels with fixed parameters already satisfy
        it and return themselves; kernels that infer parameters per
        call (e.g. a median-heuristic bandwidth) must freeze them here
        against the full ``X``.
        """
        return self

    def __repr__(self) -> str:
        params = ", ".join(
            f"{name}={value!r}"
            for name, value in sorted(vars(self).items())
            if not name.startswith("_")
        )
        return f"{type(self).__name__}({params})"


class SubsetKernel(Kernel):
    """A kernel evaluated on a column subset of the input data.

    This realises the paper's faceted construction: the kernel for a
    block ``B`` of the feature partition sees only the columns in ``B``.
    """

    def __init__(self, base: Kernel, columns: Sequence[int]):
        columns = tuple(int(c) for c in columns)
        if not columns:
            raise ValueError("a subset kernel needs at least one column")
        if len(set(columns)) != len(columns):
            raise ValueError("duplicate columns in subset")
        if any(c < 0 for c in columns):
            raise ValueError("column indices must be non-negative")
        self.base = base
        self.columns = columns

    def _columns_of(self, X: np.ndarray) -> np.ndarray:
        max_needed = max(self.columns)
        if X.shape[1] <= max_needed:
            raise ValueError(
                f"data has {X.shape[1]} columns, subset needs column {max_needed}"
            )
        return X[:, self.columns]

    def compute(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        X_sub = self._columns_of(X)
        # Slicing a self-Gram once keeps ``Z is X``, which is what lets
        # the base kernel take its symmetric (condensed) fast path.
        Z_sub = X_sub if Z is X else self._columns_of(Z)
        return self.base.compute(X_sub, Z_sub)

    def diagonal(self, X: np.ndarray) -> np.ndarray:
        return self.base.diagonal(self._columns_of(as_2d(X)))

    def bind(self, X: np.ndarray) -> "SubsetKernel":
        X = as_2d(X)
        return SubsetKernel(self.base.bind(X[:, self.columns]), self.columns)
