import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemspace.stats import average_ranks, dtw, is_degenerate, spearman


def rank_difference_spearman(xs, ys):
    """1 - 6*sum(d^2)/(n(n^2-1)), valid for tie-free inputs (test oracle)."""
    n = len(xs)
    rx = np.argsort(np.argsort(xs)) + 1
    ry = np.argsort(np.argsort(ys)) + 1
    d2 = ((rx - ry) ** 2).sum()
    return 1.0 - 6.0 * d2 / (n * (n**2 - 1))


def brute_force_dtw(a, b):
    """Minimum path cost over every monotone warping path (test oracle)."""
    n, m = len(a), len(b)
    best = math.inf

    def walk(i, j, acc):
        nonlocal best
        acc += abs(a[i] - b[j])
        if acc >= best:
            return
        if i == n - 1 and j == m - 1:
            best = acc
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best


def row_by_row_dtw(a, b, normalize=False):
    """The row-by-row fill of the DTW recurrence (test reference)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if normalize:
        a, b = (a - a.mean()) / a.std(), (b - b.mean()) / b.std()
    n, m = a.size, b.size
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    cost = np.abs(a[:, None] - b[None, :])
    for i in range(1, n + 1):
        row = acc[i]
        prev = acc[i - 1]
        for j in range(1, m + 1):
            row[j] = cost[i - 1, j - 1] + min(prev[j], row[j - 1], prev[j - 1])
    return float(acc[n, m])


def test_average_ranks_ties():
    assert average_ranks([10, 20, 20, 30]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([5, 5, 5]).tolist() == [2.0, 2.0, 2.0]


def test_spearman_identity_and_reversal():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0]
    assert spearman(xs, xs) == pytest.approx(1.0)
    assert spearman(xs, [-v for v in xs]) == pytest.approx(-1.0)


def test_spearman_hand_computed():
    # Ranks differ by two swaps: sum d^2 = 2 -> 1 - 12/60 = 0.8.
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_spearman_degenerate_constant():
    assert spearman([1, 1, 1, 1], [1, 2, 3, 4]) == 0.0
    assert is_degenerate([2, 2, 2])
    assert not is_degenerate([2, 2, 3])


def test_spearman_matches_rank_difference_formula():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        xs = rng.permutation(n).astype(float)  # tie-free by construction
        ys = rng.permutation(n).astype(float)
        assert spearman(xs, ys) == pytest.approx(rank_difference_spearman(xs, ys), abs=1e-12)


def test_spearman_input_validation():
    with pytest.raises(ValueError):
        spearman([1.0], [2.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])


# Increasing transforms; in float64 all but doubling can merge two close
# inputs (atan(-100.0) == atan(-99.99999999999999)), which adds a tie.
MONOTONE_TRANSFORMS = (math.atan, math.exp, lambda x: x**3, lambda x: 2.0 * x)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=3, max_size=20, unique=True),
)
@example(xs=[0.0, -100.0, -99.99999999999999])
def test_spearman_invariant_under_monotone_transform(xs):
    ys = list(reversed(sorted(xs)))
    base = spearman(xs, ys)
    ordered = sorted(xs)
    checked = 0
    for transform in MONOTONE_TRANSFORMS:
        image = [transform(x) for x in ordered]
        if any(a >= b for a, b in zip(image, image[1:])):
            continue  # not strictly increasing on these values
        squashed = [transform(x) for x in xs]
        assert spearman(squashed, ys) == pytest.approx(base, abs=1e-12)
        checked += 1
    assert checked >= 1  # doubling is exact, so it always qualifies


def test_dtw_identical_series_zero():
    a = [1.0, 2.0, 5.0, 3.0]
    assert dtw(a, a) == 0.0


def test_dtw_single_cell():
    assert dtw([0.0], [1.0]) == 1.0


def test_dtw_two_step_shifted_hand_computed():
    # [1,2] vs [2,3]: diagonal path costs |1-2| + |2-3| = 2.
    assert dtw([1.0, 2.0], [2.0, 3.0]) == pytest.approx(2.0)
    assert brute_force_dtw([1.0, 2.0], [2.0, 3.0]) == pytest.approx(2.0)


def test_dtw_matches_brute_force_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        a = rng.random(n) * 10
        b = rng.random(m) * 10
        assert dtw(a, b) == brute_force_dtw(a, b)


def test_dtw_equals_row_by_row_fill_exactly():
    rng = np.random.default_rng(7)
    for case in range(320):
        n = 1 if case < 20 else int(rng.integers(1, 80))
        m = n if case % 3 == 0 else int(rng.integers(1, 80))
        scale = 10.0 ** rng.uniform(-3, 3)
        if case % 4 == 0:  # few distinct values: many tied mins
            a = rng.integers(0, 4, n) * scale
            b = rng.integers(0, 4, m) * scale
        else:
            a = rng.standard_normal(n) * scale
            b = rng.standard_normal(m) * scale
        # Normalizing a constant series divides by a zero deviation.
        normalize = case % 2 == 1 and np.ptp(a) > 0 and np.ptp(b) > 0
        assert dtw(a, b, normalize=normalize) == row_by_row_dtw(a, b, normalize), (case, n, m)


@st.composite
def _dtw_stacks(draw):
    n = draw(st.integers(1, 80))
    finite = st.floats(-50, 50, allow_subnormal=False)
    rows = draw(st.lists(st.lists(finite, min_size=n, max_size=n), min_size=1, max_size=10))
    b = draw(st.lists(finite, min_size=1, max_size=80))
    return np.array(rows), np.array(b), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(_dtw_stacks())
def test_dtw_stack_equals_one_call_per_row(case):
    rows, b, normalize = case
    got = dtw(rows, b, normalize=normalize)
    assert got.shape == (len(rows),)
    for row, value in zip(rows, got):
        assert value == dtw(row, b, normalize=normalize)
        # The reference divides by the deviation, so it needs non-constant series.
        if not normalize or (row.std() > 0 and b.std() > 0):
            assert value == row_by_row_dtw(row, b, normalize)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=10),
    st.lists(st.floats(-50, 50), min_size=1, max_size=10),
)
def test_dtw_symmetric_and_self_zero(a, b):
    assert dtw(a, b) == pytest.approx(dtw(b, a), abs=1e-9)
    assert dtw(a, a) == 0.0


def test_dtw_normalize_flag():
    a = [1.0, 2.0, 3.0]
    b = [10.0, 20.0, 30.0]
    assert dtw(a, b) > 0
    assert dtw(a, b, normalize=True) == pytest.approx(0.0, abs=1e-12)


def test_dtw_rejects_empty():
    with pytest.raises(ValueError):
        dtw([], [1.0])


def test_dtw_rejects_shapes_other_than_series_or_stack():
    with pytest.raises(ValueError, match="stack"):
        dtw(np.zeros((2, 2, 2)), [1.0])
    with pytest.raises(ValueError, match="stack"):
        dtw([1.0], [[1.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dtw_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        dtw([1.0, bad], [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        dtw([1.0, 2.0], [bad], normalize=True)
