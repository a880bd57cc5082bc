"""Standard parametric kernels (paper Sec. II.A).

Polynomial and radial-basis-function kernels are singled out by the
paper as "parametric templates whose parameters can be found by
optimization"; linear, Laplacian and sigmoid kernels complete the usual
toolbox.  All are numpy-vectorised.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from repro.kernels.base import Kernel, as_2d

__all__ = [
    "LinearKernel",
    "PolynomialKernel",
    "RBFKernel",
    "LaplacianKernel",
    "SigmoidKernel",
    "median_heuristic_gamma",
]


def median_heuristic_gamma(X: np.ndarray) -> float:
    """Return ``1 / (2 * median^2)`` of the pairwise distances of ``X``.

    The classic bandwidth heuristic for RBF kernels; falls back to 1.0
    for degenerate samples (fewer than two distinct points).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.shape[0] < 2:
        return 1.0
    return _median_gamma(pdist(X, "sqeuclidean"))


def _median_gamma(squared: np.ndarray) -> float:
    """The median-heuristic gamma from condensed squared distances.

    Bit-identical to the median of the full distance matrix's positive
    entries: that matrix holds every condensed distance twice, so its
    middle pair is the condensed median (or one value twice), and
    ``sqrt`` is monotone, so selecting on squared distances and taking
    ``sqrt`` of only the one or two middle values picks the same
    numbers.  ``np.median`` of those then averages them exactly as it
    did on the full matrix.
    """
    positive = squared[squared > 0]  # a fresh copy: partition in place
    if positive.size == 0:
        return 1.0
    upper = positive.size // 2
    positive.partition(upper)
    selected = [positive[upper]]
    if positive.size % 2 == 0:
        # The lower middle value is the largest one left of the upper;
        # one selection plus a max beats a two-pivot partition.
        selected.insert(0, positive[:upper].max())
    median = float(np.median(np.sqrt(selected)))
    return 1.0 / (2.0 * median * median)


def _self_distances(X: np.ndarray) -> np.ndarray:
    """``d(x, x)`` per row for a translation-invariant distance: exactly
    0.0 for finite rows and NaN where a row holds NaN or ±inf (the
    values ``cdist`` gives on the diagonal)."""
    return np.where(np.isfinite(X).all(axis=1), 0.0, np.nan)


class LinearKernel(Kernel):
    """``k(x, z) = x . z``"""

    def compute(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        return X @ Z.T


class PolynomialKernel(Kernel):
    """``k(x, z) = (gamma * x.z + coef0) ** degree``"""

    def __init__(self, degree: int = 2, gamma: float = 1.0, coef0: float = 1.0):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.degree = int(degree)
        self.gamma = float(gamma)
        self.coef0 = float(coef0)

    def compute(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        return (self.gamma * (X @ Z.T) + self.coef0) ** self.degree


class RBFKernel(Kernel):
    """``k(x, z) = exp(-gamma * ||x - z||^2)``

    With ``gamma=None`` the bandwidth is set per call by the median
    heuristic on the left operand.
    """

    def __init__(self, gamma: float | None = 1.0):
        if gamma is not None and gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = None if gamma is None else float(gamma)

    def compute(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        if Z is X and X.shape[0] > 1:
            # Self-Gram: one condensed distance pass feeds both the
            # bandwidth and the n(n-1)/2 off-diagonal exps.  squareform
            # of pdist equals cdist bit for bit, so the result is the
            # general path's Gram, at half the exp work.
            squared = pdist(X, "sqeuclidean")
            gamma = self.gamma if self.gamma is not None else _median_gamma(squared)
            # exp(-gamma * d) in place: the same products and exps as
            # the general path, with no condensed temporaries.
            np.multiply(squared, -gamma, out=squared)
            np.exp(squared, out=squared)
            gram = squareform(squared)
            np.fill_diagonal(gram, np.exp(-gamma * _self_distances(X)))
            return gram
        gamma = self.gamma if self.gamma is not None else median_heuristic_gamma(X)
        squared = cdist(X, Z, metric="sqeuclidean")
        return np.exp(-gamma * squared)

    def diagonal(self, X: np.ndarray) -> np.ndarray:
        # exp(-gamma * 0) is 1.0 for every finite bandwidth, so the
        # median never needs computing here.
        gamma = 1.0 if self.gamma is None else self.gamma
        return np.exp(-gamma * _self_distances(as_2d(X)))

    def bind(self, X: np.ndarray) -> "RBFKernel":
        # Freeze the median-heuristic bandwidth against the reference
        # sample so row-strip cross-Grams match full-Gram rows exactly.
        if self.gamma is not None:
            return self
        return RBFKernel(median_heuristic_gamma(X))


class LaplacianKernel(Kernel):
    """``k(x, z) = exp(-gamma * ||x - z||_1)``"""

    def __init__(self, gamma: float = 1.0):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)

    def compute(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        return np.exp(-self.gamma * cdist(X, Z, metric="cityblock"))

    def diagonal(self, X: np.ndarray) -> np.ndarray:
        return np.exp(-self.gamma * _self_distances(as_2d(X)))


class SigmoidKernel(Kernel):
    """``k(x, z) = tanh(gamma * x.z + coef0)`` (not PSD in general)."""

    def __init__(self, gamma: float = 0.01, coef0: float = 0.0):
        self.gamma = float(gamma)
        self.coef0 = float(coef0)

    def compute(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        return np.tanh(self.gamma * (X @ Z.T) + self.coef0)
