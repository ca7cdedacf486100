"""Rank correlation and dynamic time warping used by the validity protocols."""

from __future__ import annotations

import numpy as np


def average_ranks(values) -> np.ndarray:
    """Ranks 1..n with ties given the mean of the ranks they occupy."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=np.float64)
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks.

    Returns 0.0 when either side has zero rank variance (constant input),
    rather than NaN; callers that care can detect the degeneracy themselves.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("spearman requires two equal-length 1-d sequences")
    if xs.size < 2:
        raise ValueError("spearman requires at least two observations")
    rx = average_ranks(xs) - (xs.size + 1) / 2.0
    ry = average_ranks(ys) - (ys.size + 1) / 2.0
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom == 0.0:
        return 0.0
    return float(np.clip((rx * ry).sum() / denom, -1.0, 1.0))


def is_degenerate(values) -> bool:
    """True when a sequence is constant (zero variance)."""
    arr = np.asarray(values, dtype=np.float64)
    return bool(arr.size == 0 or (arr == arr[0]).all())


def _znorm(arr: np.ndarray) -> np.ndarray:
    std = arr.std()
    if std == 0.0:
        return arr - arr.mean()
    return (arr - arr.mean()) / std


def dtw(a, b, normalize: bool = False) -> float | np.ndarray:
    """Dynamic time warping distance with |a_i - b_j| local cost.

    Classic unwindowed dynamic program over match / insert / delete steps:
    ``acc[i, j] = |a_i - b_j| + min(acc[i-1, j], acc[i, j-1], acc[i-1, j-1])``.
    It is computed by anti-diagonals ``k = i + j``, each from the two before
    it, in O(n + m) memory. Each cell is one min and one addition whatever
    the fill order, so the float result is the same as a row-by-row fill's.
    ``a`` is one series, or a stack of equal-length series (one per row)
    that are all warped against ``b`` in the same pass; a stack returns one
    distance per row, each bit-identical to a one-row call. ``normalize``
    z-scores ``b`` and each row of ``a`` first (off by default; the raw
    scales are part of what the growing-size comparison looks at). Empty or
    non-finite series are refused.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim not in (1, 2) or b.ndim != 1:
        raise ValueError("dtw requires a series or a stack of series against one series")
    if a.size == 0 or b.size == 0:
        raise ValueError("dtw requires nonempty series")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("dtw requires finite values")
    if normalize:
        a = np.apply_along_axis(_znorm, -1, a)
        b = _znorm(b)
    n, m = a.shape[-1], b.size
    rb = b[::-1]
    # Diagonal buffers indexed by (row, i); cells off the grid stay inf.
    shape = a.shape[:-1] + (n + 1,)
    before = np.full(shape, np.inf)  # k = 0: only acc[0, 0]
    before[..., 0] = 0.0
    last = np.full(shape, np.inf)  # k = 1: acc[0, 1] and acc[1, 0]
    for k in range(2, n + m + 1):
        lo, hi = max(1, k - m), min(n, k - 1)
        cur = np.full(shape, np.inf)
        step = np.minimum(
            np.minimum(last[..., lo - 1 : hi], last[..., lo : hi + 1]), before[..., lo - 1 : hi]
        )
        cur[..., lo : hi + 1] = np.abs(a[..., lo - 1 : hi] - rb[m - k + lo : m - k + hi + 1]) + step
        before, last = last, cur
    return last[:, n] if a.ndim == 2 else float(last[n])
