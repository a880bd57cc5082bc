"""Gram-matrix utilities: centering, normalisation, alignment, PSD checks.

Kernel-target alignment (plain and the centred variant of Cortes,
Mohri & Rostamizadeh) is the cheap surrogate objective the multiple-
kernel search uses to weigh and score kernels without training a full
classifier at every lattice node.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "center_gram",
    "normalize_gram",
    "target_gram",
    "centered_target_gram",
    "alignment",
    "alignment_from_stats",
    "centered_alignment",
    "is_psd",
    "frobenius_inner",
    "center_symmetric_strip",
    "strip_row_stats",
    "strip_row_inners",
    "reduce_strip_rows",
]


def center_gram(gram: np.ndarray) -> np.ndarray:
    """Double-centre a Gram matrix: ``HKH`` with ``H = I - 11'/n``."""
    gram = np.asarray(gram, dtype=float)
    n = gram.shape[0]
    if gram.shape != (n, n):
        raise ValueError("centering requires a square Gram matrix")
    row_means = gram.mean(axis=1, keepdims=True)
    col_means = gram.mean(axis=0, keepdims=True)
    return gram - row_means - col_means + gram.mean()


def center_symmetric_strip(
    strip: np.ndarray,
    strip_row_means: np.ndarray,
    row_means: np.ndarray,
    grand_mean: float,
) -> np.ndarray:
    """Rows of ``HKH`` for a *symmetric* ``K``, from a row strip of it.

    A symmetric Gram's column means equal its row means, so centring a
    strip needs only the global row-mean vector (``strip_row_means`` is
    its slice for the strip's rows) and the grand mean, taken as the
    mean of the row means.  The whole matrix is the one-strip case,
    which is why dense, sharded and worker-resident centring are the
    same arithmetic.
    """
    # In place after the first subtraction: the same left-to-right
    # arithmetic as the one-line expression, without two temporaries.
    centered = strip - strip_row_means[:, None]
    centered -= row_means[None, :]
    centered += grand_mean
    return centered


def strip_row_stats(
    centered: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row shares of a centred strip's alignment statistics.

    For each row ``r`` of the strip: ``(C y)_r`` (its share of
    ``a = y' C y`` against the rank-1 target, with ``y`` the centred
    labels ``Hy``) and ``<C_r, C_r>`` (its share of ``<C, C>``).  Each
    row's share comes from the same loop wherever the row lives, so
    :func:`reduce_strip_rows` over the shares gathered in strip order
    gives the same bits for any strip layout — one strip (dense),
    in-process shards or worker-resident strips alike.
    """
    return (
        np.einsum("ij,j->i", centered, y),
        np.einsum("ij,ij->i", centered, centered),
    )


def strip_row_inners(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Per-row shares ``<A_r, B_r>`` of a pair inner product (see
    :func:`strip_row_stats`)."""
    return np.einsum("ij,ij->i", first, second)


def reduce_strip_rows(
    parts: Sequence[np.ndarray], y: np.ndarray | None = None
) -> float:
    """Reduce per-row shares gathered in strip order to one scalar:
    ``y · shares`` for target shares, the plain sum otherwise."""
    shares = np.concatenate(parts)
    if y is None:
        return float(shares.sum())
    return float(np.einsum("i,i->", y, shares))


def normalize_gram(gram: np.ndarray, epsilon: float = 1e-12) -> np.ndarray:
    """Cosine-normalise: ``K[i,j] / sqrt(K[i,i] * K[j,j])``.

    A Gram whose diagonal is exactly 1.0 (every RBF or Laplacian Gram)
    is returned as is — dividing by ``sqrt(1.0 * 1.0)`` would change no
    bit.
    """
    gram = np.asarray(gram, dtype=float)
    diagonal = np.diag(gram)
    if np.all(diagonal == 1.0):
        return gram
    diagonal = np.sqrt(np.clip(diagonal, epsilon, None))
    return gram / np.outer(diagonal, diagonal)


def target_gram(y: np.ndarray) -> np.ndarray:
    """Ideal Gram ``y y^T`` for labels in {-1, +1}."""
    y = np.asarray(y, dtype=float).ravel()
    return np.outer(y, y)


def centered_target_gram(y: np.ndarray) -> np.ndarray:
    """Centred ideal Gram ``H (y y') H`` — the alignment reference.

    Every partition scored during one search is compared against this
    same matrix, so callers (scorers, stats caches) compute it once and
    reuse it rather than re-centring per evaluation.
    """
    return center_gram(target_gram(y))


def frobenius_inner(first: np.ndarray, second: np.ndarray) -> float:
    """Frobenius inner product ``<A, B>_F`` of equal-shape arrays.

    One pass with no temporary array.  ``einsum`` runs numpy's own
    loop, so the bits depend only on the values in C order — never on
    memory layout or the BLAS thread count (``np.vdot`` does depend on
    the latter), which the bit-identity contracts need.
    """
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.shape != second.shape:
        raise ValueError(f"shapes differ: {first.shape} vs {second.shape}")
    return float(np.einsum("i,i->", first.ravel(), second.ravel()))


def alignment(gram: np.ndarray, target: np.ndarray, epsilon: float = 1e-12) -> float:
    """Kernel-target alignment ``<K, T> / (||K|| ||T||)`` in [-1, 1]."""
    inner = frobenius_inner(gram, target)
    norms = np.linalg.norm(gram) * np.linalg.norm(target)
    if norms < epsilon:
        return 0.0
    return inner / norms


def alignment_from_stats(
    inner: float, first_norm: float, second_norm: float, epsilon: float = 1e-12
) -> float:
    """Alignment from precomputed scalars ``<A, B>``, ``||A||``, ``||B||``.

    The closed form the incremental engine uses: same epsilon guard as
    :func:`alignment`, no matrix work.
    """
    norms = first_norm * second_norm
    if norms < epsilon:
        return 0.0
    return inner / norms


def centered_alignment(
    gram: np.ndarray, target: np.ndarray, epsilon: float = 1e-12
) -> float:
    """Centred alignment (Cortes et al.): alignment of ``HKH`` vs ``HTH``.

    Robust to unbalanced classes, which plain alignment is not.
    """
    return alignment(center_gram(gram), center_gram(target), epsilon)


def is_psd(gram: np.ndarray, tolerance: float = 1e-8) -> bool:
    """Return True if the symmetric part of ``gram`` is PSD up to tolerance."""
    gram = np.asarray(gram, dtype=float)
    symmetric = (gram + gram.T) / 2.0
    eigenvalues = np.linalg.eigvalsh(symmetric)
    return bool(eigenvalues.min() >= -tolerance * max(1.0, abs(eigenvalues.max())))
