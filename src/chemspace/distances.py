"""Pairwise distance oracles: fingerprint-backed Tanimoto and explicit matrices.

Both oracle flavors answer row and submatrix queries over a fixed point set,
and are read-only after construction. A Tanimoto oracle computes each query
with the popcount kernels until ``full_matrix()`` has built and cached the
whole matrix; from then on it answers rows and submatrices from that matrix,
whose rows equal the kernel rows bit for bit. The full matrix is built from
the row strips at and right of the diagonal, each mirrored below it.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import MatrixValidationError
from .fingerprints import Dataset

TRIANGLE_TOL = 1e-9


def _bitwise_rows(words_a: np.ndarray, words_b: np.ndarray) -> np.ndarray:
    """Popcount of AND between one packed row and many packed rows."""
    return np.bitwise_count(words_a[None, :] & words_b).sum(axis=1, dtype=np.int64)


def tanimoto_row(
    words: np.ndarray, popcounts: np.ndarray, i: int, targets: np.ndarray | None = None
) -> np.ndarray:
    """Distances from point ``i`` to ``targets`` (default: all points)."""
    tw = words if targets is None else words[targets]
    tp = popcounts if targets is None else popcounts[targets]
    return tanimoto_from_row(words[i], popcounts[i], tw, tp)


def tanimoto_from_row(
    row_words: np.ndarray, row_popcount: int, words: np.ndarray, popcounts: np.ndarray
) -> np.ndarray:
    """Distances from one packed row, given with its popcount, to every row of ``words``."""
    inter = _bitwise_rows(row_words, words)
    union = row_popcount + popcounts - inter
    out = np.ones(len(words), dtype=np.float64)
    nz = union > 0
    out[nz] = 1.0 - inter[nz] / union[nz]
    out[~nz] = 0.0
    return out


def _count_dtype(width_bits: int) -> type:
    """Float type whose every sum of 0/1 products up to ``width_bits`` is exact.

    float32 holds each integer up to 2**24 exactly, so partial sums in any
    order stay exact; wider rows need float64.
    """
    return np.float32 if width_bits <= 2**24 else np.float64


def pairwise_tanimoto(
    words: np.ndarray, popcounts: np.ndarray, block_rows: int = 256
) -> np.ndarray:
    """Full pairwise Tanimoto distance matrix from packed fingerprints.

    The rows are unpacked once to a 0/1 float matrix. Each block of rows gets
    the intersection counts of its strip at and right of the diagonal as one
    BLAS product, and the strip below the block is its mirror, so about half
    the full product is taken. The counts are exact integers and
    ``p_i + p_j - x`` does not depend on the order of ``i`` and ``j``, so the
    matrix is exactly symmetric, and the final ``1 - inter / union`` is the
    same float64 arithmetic as ``tanimoto_from_row``: the two agree bit for
    bit. The union is zero only between two empty rows; their 0/0 is set to
    distance 0 once the matrix is built.
    """
    n = words.shape[0]
    bits = np.unpackbits(words.view(np.uint8), axis=1)
    bits = bits.astype(_count_dtype(bits.shape[1]))
    pops = popcounts.astype(np.float64)
    out = np.empty((n, n), dtype=np.float64)
    with np.errstate(invalid="ignore"):
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            inter = bits[start:stop] @ bits[start:].T
            strip = np.add.outer(pops[start:stop], pops[start:])
            np.subtract(strip, inter, out=strip)
            np.divide(inter, strip, out=strip)
            np.subtract(1.0, strip, out=strip)
            out[start:stop, start:] = strip
            # Mirrored from the strip, not from ``out``: a copy within one
            # array would go through a temporary.
            out[stop:, start:stop] = strip[:, stop - start :].T
    empty = np.flatnonzero(popcounts == 0)
    if empty.size:
        out[np.ix_(empty, empty)] = 0.0
    return out


def gather_submatrix(matrix: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``matrix[np.ix_(idx, idx)]`` as one gather over the flattened matrix,
    which costs less than the two-axis fancy index at every size used here."""
    return matrix.ravel().take(idx[:, None] * matrix.shape[1] + idx)


@functools.lru_cache(maxsize=16)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(n, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def gather_upper(matrix: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The entries above the diagonal of ``gather_submatrix(matrix, idx)``,
    row by row, gathered without the rest of the submatrix."""
    rows, cols = _upper_pairs(idx.size)
    return matrix.ravel().take(idx[rows] * matrix.shape[1] + idx[cols])


def _matrix_row(matrix: np.ndarray, i: int, targets=None) -> np.ndarray:
    """Row ``i`` of a read-only matrix (restricted to ``targets``) as a fresh,
    writable array."""
    if targets is None:
        return matrix[i].copy()
    return matrix[i, np.asarray(targets, dtype=np.int64)]


class TanimotoOracle:
    """Lazy Tanimoto distance oracle over a fingerprint dataset."""

    def __init__(self, dataset: Dataset):
        if len(dataset) == 0:
            raise ValueError("cannot build an oracle over an empty dataset")
        self._words = dataset.words
        self._pops = dataset.popcounts
        self._full: np.ndarray | None = None

    def row(self, i: int, targets: np.ndarray | None = None) -> np.ndarray:
        if self._full is not None:
            return _matrix_row(self._full, i, targets)
        targets = None if targets is None else np.asarray(targets, dtype=np.int64)
        return tanimoto_row(self._words, self._pops, i, targets)

    def submatrix(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        if self._full is not None:
            return gather_submatrix(self._full, idx)
        return pairwise_tanimoto(self._words[idx], self._pops[idx])

    def full_matrix(self) -> np.ndarray:
        """Materialize (and cache) the complete n x n distance matrix."""
        if self._full is None:
            full = pairwise_tanimoto(self._words, self._pops)
            full.setflags(write=False)
            self._full = full
        return self._full


class MatrixOracle:
    """Distance oracle backed by an explicit symmetric matrix in [0, 1]."""

    def __init__(self, matrix: np.ndarray, validate: bool = True):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise MatrixValidationError(f"matrix must be square, got shape {matrix.shape}")
        if matrix.shape[0] == 0:
            raise MatrixValidationError("matrix must be nonempty")
        if validate:
            _validate_metric(matrix)
        matrix = matrix.copy()
        np.fill_diagonal(matrix, 0.0)
        matrix.setflags(write=False)
        self._matrix = matrix

    def row(self, i: int, targets: np.ndarray | None = None) -> np.ndarray:
        return _matrix_row(self._matrix, i, targets)

    def submatrix(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        return gather_submatrix(self._matrix, idx)

    def full_matrix(self) -> np.ndarray:
        return self._matrix


DistanceOracle = TanimotoOracle | MatrixOracle


def _validate_metric(matrix: np.ndarray) -> None:
    n = matrix.shape[0]
    if not np.isfinite(matrix).all():
        raise MatrixValidationError("matrix contains non-finite entries")
    bad = np.argwhere((matrix < -TRIANGLE_TOL) | (matrix > 1.0 + TRIANGLE_TOL))
    if bad.size:
        i, j = map(int, bad[0])
        raise MatrixValidationError(
            f"distance out of [0,1] at ({i},{j}): {matrix[i, j]}", indices=(i, j)
        )
    diag = np.abs(np.diag(matrix))
    if (diag > TRIANGLE_TOL).any():
        i = int(np.argmax(diag > TRIANGLE_TOL))
        raise MatrixValidationError(f"nonzero diagonal at ({i},{i}): {matrix[i, i]}", indices=(i, i))
    asym = np.abs(matrix - matrix.T)
    if (asym > TRIANGLE_TOL).any():
        i, j = map(int, np.argwhere(asym > TRIANGLE_TOL)[0])
        raise MatrixValidationError(
            f"asymmetric entries at ({i},{j}): {matrix[i, j]} vs {matrix[j, i]}", indices=(i, j)
        )
    # Triangle inequality: d(i,k) <= d(i,via) + d(via,k) for every via. The
    # slack goes into one buffer, and only a failing via is searched.
    slack = np.empty_like(matrix)
    for via in range(n):
        np.add(matrix[:, via][:, None], matrix[via][None, :], out=slack)
        np.subtract(matrix, slack, out=slack)
        if slack.max() > TRIANGLE_TOL:
            i, k = map(int, np.argwhere(slack > TRIANGLE_TOL)[0])
            raise MatrixValidationError(
                f"triangle violation at ({i},{via},{k}): "
                f"d({i},{k})={matrix[i, k]} > d({i},{via})+d({via},{k})="
                f"{matrix[i, via] + matrix[via, k]}",
                indices=(i, via, k),
            )

