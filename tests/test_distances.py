import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemspace import distances
from chemspace.distances import (
    MatrixOracle,
    TanimotoOracle,
    gather_submatrix,
    pairwise_tanimoto,
    tanimoto_from_row,
)
from chemspace.errors import (
    DimensionMismatchError,
    MatrixValidationError,
)
from chemspace.fingerprints import Dataset, Fingerprint, MoleculeRecord, tanimoto_distance


def fp(bits):
    return Fingerprint.from_bits(bits)


def make_dataset(bit_rows):
    return Dataset(
        [MoleculeRecord(f"m{i}", fp(row)) for i, row in enumerate(bit_rows)]
    )


def test_tanimoto_identity():
    a = fp([1, 1, 0, 0])
    assert tanimoto_distance(a, a) == 0.0


def test_tanimoto_disjoint_supports():
    assert tanimoto_distance(fp([1, 1, 0, 0]), fp([0, 0, 1, 1])) == 1.0


def test_tanimoto_hand_counted():
    # intersection=1, union=3 -> distance 1 - 1/3
    d = tanimoto_distance(fp([1, 1, 0, 0]), fp([1, 0, 1, 0]))
    assert abs(d - 2.0 / 3.0) < 1e-15


def test_tanimoto_both_zero_is_zero():
    assert tanimoto_distance(fp([0, 0, 0]), fp([0, 0, 0])) == 0.0


def test_tanimoto_width_mismatch():
    with pytest.raises(DimensionMismatchError):
        tanimoto_distance(fp([1, 0]), fp([1, 0, 0]))


def test_tanimoto_metric_on_many_random_triples():
    # Symmetry, indiscernibility on supports, and the triangle inequality,
    # checked over 10^4 random triples via the vectorized kernel.
    rng = np.random.default_rng(42)
    n_triples = 10_000
    bits = (rng.random((3 * n_triples, 64)) < 0.3).astype(np.uint8)
    ds = make_dataset(bits)
    oracle = TanimotoOracle(ds)
    idx = np.arange(3 * n_triples).reshape(n_triples, 3)
    d01 = np.empty(n_triples)
    d02 = np.empty(n_triples)
    d12 = np.empty(n_triples)
    for k in range(n_triples):
        i, j, m = idx[k]
        sub = oracle.submatrix([i, j, m])
        assert sub[0, 1] == sub[1, 0]
        d01[k], d02[k], d12[k] = sub[0, 1], sub[0, 2], sub[1, 2]
    assert (d01 <= d02 + d12 + 1e-12).all()
    assert (d02 <= d01 + d12 + 1e-12).all()
    assert (d12 <= d01 + d02 + 1e-12).all()
    assert (d01 >= 0).all() and (d01 <= 1).all()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=8, max_size=8),
    st.lists(st.integers(0, 1), min_size=8, max_size=8),
    st.lists(st.integers(0, 1), min_size=8, max_size=8),
)
def test_tanimoto_triangle_property(a, b, c):
    fa, fb, fc = fp(a), fp(b), fp(c)
    dab = tanimoto_distance(fa, fb)
    dac = tanimoto_distance(fa, fc)
    dbc = tanimoto_distance(fb, fc)
    assert dab == tanimoto_distance(fb, fa)
    assert dab <= dac + dbc + 1e-12
    if a == b:
        assert dab == 0.0


def test_oracle_identical_fingerprints_all_zero_distances():
    ds = make_dataset([[1, 0, 1, 0]] * 3)
    oracle = TanimotoOracle(ds)
    assert oracle.submatrix([0, 1, 2]).max() == 0.0


def test_oracle_purity_bit_identical():
    rng = np.random.default_rng(7)
    ds = make_dataset((rng.random((20, 32)) < 0.4).astype(np.uint8))
    oracle = TanimotoOracle(ds)
    first = oracle.submatrix(range(20)).copy()
    for _ in range(3):
        again = oracle.submatrix(range(20))
        assert (first == again).all()
    assert oracle.row(3)[11] == first[3, 11]


def test_pairwise_matches_scalar_kernel():
    rng = np.random.default_rng(3)
    bits = (rng.random((40, 100)) < 0.2).astype(np.uint8)
    ds = make_dataset(bits)
    oracle = TanimotoOracle(ds)
    full = pairwise_tanimoto(ds.words, ds.popcounts, block_rows=7)
    for i in range(0, 40, 5):
        for j in range(0, 40, 7):
            assert full[i, j] == tanimoto_distance(fp(bits[i]), fp(bits[j]))
    row = oracle.row(5)
    assert (row == full[5]).all()


def stacked_rows(ds):
    """The reference: one ``tanimoto_from_row`` call per row, stacked."""
    return np.stack(
        [tanimoto_from_row(ds.words[i], ds.popcounts[i], ds.words, ds.popcounts) for i in range(len(ds))]
    )


def random_rows(seed, n, width, density, empty=0):
    rng = np.random.default_rng(seed)
    bits = (rng.random((n, width)) < density).astype(np.uint8)
    bits[rng.permutation(n)[:empty]] = 0
    return bits


@settings(max_examples=150, deadline=None)
@given(
    width=st.one_of(st.sampled_from([63, 64, 65]), st.integers(1, 300)),
    n=st.integers(1, 40),
    density=st.sampled_from([0.0, 0.02, 0.3, 0.7, 1.0]),
    empty=st.integers(0, 3),
    block_rows=st.integers(1, 45),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairwise_bytes_equal_stacked_rows(width, n, density, empty, block_rows, seed):
    ds = make_dataset(random_rows(seed, n, width, density, empty))
    full = pairwise_tanimoto(ds.words, ds.popcounts, block_rows=block_rows)
    assert full.tobytes() == stacked_rows(ds).tobytes()
    assert full.tobytes() == full.T.tobytes()


def test_pairwise_bytes_equal_stacked_rows_sparse_2048_bits():
    # 2-5% of 2048 bits set, as in substructure fingerprints; 70 rows over
    # blocks of 32 leave a partial last block.
    ds = make_dataset(random_rows(11, 70, 2048, 0.035, empty=2))
    full = pairwise_tanimoto(ds.words, ds.popcounts, block_rows=32)
    assert full.tobytes() == stacked_rows(ds).tobytes()


def test_pairwise_empty_rows_and_single_row():
    ds = make_dataset([[0, 0, 0], [0, 0, 0], [1, 0, 1]])
    full = pairwise_tanimoto(ds.words, ds.popcounts, block_rows=2)
    assert full.tobytes() == np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]).tobytes()
    for row in ([0, 0, 0, 0], [1, 0, 1, 1]):
        one = make_dataset([row])
        assert pairwise_tanimoto(one.words, one.popcounts).tobytes() == np.zeros((1, 1)).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pairwise_exact_under_each_count_dtype(monkeypatch, dtype):
    widths = []

    def forced(width_bits):
        widths.append(width_bits)
        return dtype

    monkeypatch.setattr(distances, "_count_dtype", forced)
    ds = make_dataset(random_rows(5, 37, 130, 0.25, empty=2))
    full = pairwise_tanimoto(ds.words, ds.popcounts, block_rows=8)
    assert widths == [192]
    assert full.tobytes() == stacked_rows(ds).tobytes()


def test_count_dtype_is_float32_only_while_counts_are_exact():
    assert distances._count_dtype(64) is np.float32
    assert distances._count_dtype(2**24) is np.float32
    assert distances._count_dtype(2**24 + 64) is np.float64


def test_full_matrix_cache_consistency():
    rng = np.random.default_rng(4)
    ds = make_dataset((rng.random((15, 16)) < 0.5).astype(np.uint8))
    oracle = TanimotoOracle(ds)
    direct = oracle.submatrix([2, 9, 14]).copy()
    oracle.full_matrix()
    assert (oracle.submatrix([2, 9, 14]) == direct).all()


@pytest.mark.parametrize("targets", [None, [7, 0, 3, 14, 12]])
def test_row_bytes_equal_before_and_after_full_matrix(targets):
    rng = np.random.default_rng(6)
    bits = (rng.random((15, 40)) < 0.4).astype(np.uint8)
    bits[12] = 0  # an empty fingerprint: distance 0 to itself, 1 to the rest
    oracle = TanimotoOracle(make_dataset(bits))
    before = [oracle.row(i, targets) for i in range(15)]
    full = oracle.full_matrix()
    after = [oracle.row(i, targets) for i in range(15)]
    assert [r.tobytes() for r in after] == [r.tobytes() for r in before]
    if targets is None:
        row = oracle.row(3)
        assert row.flags.writeable and not np.shares_memory(row, full)
        row[:] = 2.0
        assert oracle.row(3).tobytes() == before[3].tobytes()


def test_matrix_oracle_lookup():
    oracle = MatrixOracle(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert oracle.row(0)[1] == 0.5
    assert oracle.row(1)[1] == 0.0


def test_matrix_oracle_triangle_violation_names_triple():
    m = np.array(
        [
            [0.0, 0.1, 0.9],
            [0.1, 0.0, 0.1],
            [0.9, 0.1, 0.0],
        ]
    )
    with pytest.raises(MatrixValidationError) as err:
        MatrixOracle(m)
    assert err.value.indices == (0, 1, 2)


def euclidean_with_planted_pair(seed, i, k, n=12):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 3))
    m = np.sqrt(((x[:, None] - x[None]) ** 2).sum(-1))
    m /= m.max()
    m[i, k] = m[k, i] = 1.0
    return m


def planted_short_cut():
    m = np.full((6, 6), 0.5)
    np.fill_diagonal(m, 0.0)
    m[2, 4] = m[4, 2] = 1.0
    m[2, 3] = m[3, 2] = 0.25
    return m


@pytest.mark.parametrize(
    "matrix, triple, message",
    [
        (planted_short_cut(), (2, 3, 4), "d(2,4)=1.0 > d(2,3)+d(3,4)=0.75"),
        (euclidean_with_planted_pair(0, 1, 7), (1, 2, 7), "d(1,7)=1.0 > d(1,2)+d(2,7)=0.9264605867733366"),
        (euclidean_with_planted_pair(5, 0, 11), (0, 1, 11), "d(0,11)=1.0 > d(0,1)+d(1,11)=0.9097736781086738"),
        (euclidean_with_planted_pair(9, 4, 9), (4, 6, 9), "d(4,9)=1.0 > d(4,6)+d(6,9)=0.8291864433647369"),
    ],
)
def test_matrix_oracle_reports_first_triangle_violation(matrix, triple, message):
    # The first violating via, then the first (i, k) in row-major order.
    with pytest.raises(MatrixValidationError) as err:
        MatrixOracle(matrix)
    assert err.value.indices == triple
    assert str(err.value) == "triangle violation at ({},{},{}): ".format(*triple) + message


def test_matrix_oracle_rejects_asymmetry():
    m = np.array([[0.0, 0.2], [0.3, 0.0]])
    with pytest.raises(MatrixValidationError, match="asymmetric"):
        MatrixOracle(m)


def test_matrix_oracle_rejects_nonzero_diagonal():
    m = np.array([[0.1, 0.2], [0.2, 0.0]])
    with pytest.raises(MatrixValidationError, match="diagonal"):
        MatrixOracle(m)


def test_matrix_oracle_rejects_out_of_range():
    m = np.array([[0.0, 1.2], [1.2, 0.0]])
    with pytest.raises(MatrixValidationError, match="out of"):
        MatrixOracle(m)


@given(n=st.integers(1, 40), data=st.data())
@settings(max_examples=50, deadline=None)
def test_gather_submatrix_equals_two_axis_index(n, data):
    matrix = np.random.default_rng(n).random((n, n))
    idx = np.asarray(
        data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)), dtype=np.int64
    )
    block = gather_submatrix(matrix, idx)
    assert block.shape == (idx.size, idx.size)
    assert block.tobytes() == matrix[np.ix_(idx, idx)].tobytes()
