import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemspace.distances import MatrixOracle, TanimotoOracle
from chemspace.errors import MeasureParamError, MeasureSizeError
from chemspace.fingerprints import Dataset, Fingerprint, MoleculeRecord
from chemspace.measures import (
    MEASURES,
    MeasureSpec,
    _offdiag,
    dpp_from_dmatrix,
    evaluate_measure,
    parse_measure_spec,
    sum_bottleneck_from_dmatrix,
    sum_diameter_from_dmatrix,
    validate_spec,
)

ALL_DISTANCE_FNS = (
    "diversity", "sum_diversity", "diameter", "sum_diameter", "bottleneck", "sum_bottleneck", "dpp"
)


def geodesic_oracle(a, delta):
    m = np.array(
        [
            [0.0, a, delta],
            [a, 0.0, a - delta],
            [delta, a - delta, 0.0],
        ]
    )
    return MatrixOracle(m)


def random_metric_oracle(rng, n):
    pts = rng.random((n, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    m = np.sqrt((diff**2).sum(axis=2)) / np.sqrt(3.0)
    return MatrixOracle(m)


def cofactor_det(m):
    """O(n!) determinant by first-row cofactor expansion (test oracle)."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * cofactor_det(minor)
    return total


def test_diversity_single_pair():
    oracle = MatrixOracle(np.array([[0.0, 0.37], [0.37, 0.0]]))
    assert evaluate_measure(MeasureSpec("diversity"), [0, 1], oracle=oracle).value == pytest.approx(0.37, abs=1e-15)


def test_diversity_geodesic_constant_two_thirds():
    for delta in [0.1, 0.25, 0.5, 0.77]:
        oracle = geodesic_oracle(1.0, delta)
        value = evaluate_measure(MeasureSpec("diversity"), [0, 1, 2], oracle=oracle).value
        assert value == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_diversity_matches_brute_force_average():
    rng = np.random.default_rng(11)
    oracle = random_metric_oracle(rng, 5)
    total = 0.0
    for i in range(5):
        for j in range(5):
            if i != j:
                total += oracle.row(i)[j]
    expected = total / (5 * 4)
    value = evaluate_measure(MeasureSpec("diversity"), range(5), oracle=oracle).value
    assert value == pytest.approx(expected, abs=1e-12)


def test_sum_diversity_pair_and_identity():
    oracle = MatrixOracle(np.array([[0.0, 0.4], [0.4, 0.0]]))
    assert evaluate_measure(MeasureSpec("sum_diversity"), [0, 1], oracle=oracle).value == pytest.approx(0.8, abs=1e-15)
    rng = np.random.default_rng(5)
    for _ in range(10):
        oracle = random_metric_oracle(rng, 8)
        total = evaluate_measure(MeasureSpec("sum_diversity"), range(8), oracle=oracle).value
        mean = evaluate_measure(MeasureSpec("diversity"), range(8), oracle=oracle).value
        assert total == pytest.approx(8 * mean, rel=1e-12)


def test_diameter_and_sum_diameter_row_maxima():
    # Geodesic triple with a=1, delta=0.5: row maxima are {1, 1, 0.5}.
    oracle = geodesic_oracle(1.0, 0.5)
    assert evaluate_measure(MeasureSpec("diameter"), [0, 1, 2], oracle=oracle).value == pytest.approx(1.0)
    assert evaluate_measure(MeasureSpec("sum_diameter"), [0, 1, 2], oracle=oracle).value == pytest.approx(2.5)


def test_equilateral_matrix():
    m = np.full((4, 4), 0.7)
    np.fill_diagonal(m, 0.0)
    oracle = MatrixOracle(m)
    assert evaluate_measure(MeasureSpec("diameter"), range(4), oracle=oracle).value == pytest.approx(0.7)
    assert evaluate_measure(MeasureSpec("sum_diameter"), range(4), oracle=oracle).value == pytest.approx(2.8)
    assert evaluate_measure(MeasureSpec("bottleneck"), range(4), oracle=oracle).value == pytest.approx(0.7)
    assert evaluate_measure(MeasureSpec("sum_bottleneck"), range(4), oracle=oracle).value == pytest.approx(2.8)


def test_bottleneck_geodesic_midpoint():
    oracle = geodesic_oracle(1.0, 0.5)
    assert evaluate_measure(MeasureSpec("bottleneck"), [0, 1, 2], oracle=oracle).value == pytest.approx(0.5)
    assert evaluate_measure(MeasureSpec("sum_bottleneck"), [0, 1, 2], oracle=oracle).value == pytest.approx(1.5)


def test_near_duplicate_decreases_sum_bottleneck():
    spread = MatrixOracle(np.array([[0.0, 0.9], [0.9, 0.0]]))
    base = evaluate_measure(MeasureSpec("sum_bottleneck"), [0, 1], oracle=spread).value
    with_dup = MatrixOracle(
        np.array(
            [
                [0.0, 0.9, 0.01],
                [0.9, 0.0, 0.89],
                [0.01, 0.89, 0.0],
            ]
        )
    )
    extended = evaluate_measure(MeasureSpec("sum_bottleneck"), [0, 1, 2], oracle=with_dup).value
    assert extended < base


def test_dpp_two_points_closed_form():
    for b in [0.0, 0.3, 0.5, 0.99]:
        oracle = MatrixOracle(np.array([[0.0, 1 - b], [1 - b, 0.0]]))
        value = evaluate_measure(MeasureSpec("dpp"), [0, 1], oracle=oracle).value
        assert value == pytest.approx(1 - b**2, abs=1e-9)


def test_dpp_duplicate_is_zero():
    m = np.array(
        [
            [0.0, 0.0, 0.5],
            [0.0, 0.0, 0.5],
            [0.5, 0.5, 0.0],
        ]
    )
    oracle = MatrixOracle(m)
    assert evaluate_measure(MeasureSpec("dpp"), [0, 1, 2], oracle=oracle).value == pytest.approx(0.0, abs=1e-9)


def test_dpp_matches_cofactor_expansion():
    rng = np.random.default_rng(23)
    for _ in range(5):
        oracle = random_metric_oracle(rng, 6)
        d = oracle.submatrix(range(6))
        sim = 1.0 - d
        np.fill_diagonal(sim, 1.0)
        expected = cofactor_det(sim)
        value = evaluate_measure(MeasureSpec("dpp"), range(6), oracle=oracle).value
        assert value == pytest.approx(expected, abs=1e-9)


def test_dpp_negative_raw_kept_in_metadata():
    # Valid metric whose similarity matrix is not PSD: raw det < 0,
    # the reported value clamps at zero.
    m = np.array(
        [
            [0.0, 0.1, 0.9],
            [0.1, 0.0, 0.9],
            [0.9, 0.9, 0.0],
        ]
    )
    sim = 1.0 - m
    np.fill_diagonal(sim, 1.0)
    raw = np.linalg.det(sim)
    oracle = MatrixOracle(m)
    res = evaluate_measure(MeasureSpec("dpp"), [0, 1, 2], oracle=oracle)
    if raw < 0:
        assert res.value == 0.0
        assert res.metadata["raw_determinant"] == pytest.approx(raw)


def test_dpp_size_cap():
    big = np.zeros((3000, 3000))
    with pytest.raises(MeasureSizeError, match="2048"):
        dpp_from_dmatrix(big)


def test_richness_counts_unique_patterns():
    fps = [[1, 0], [1, 0], [0, 1], [1, 1], [0, 0]]
    ds = Dataset([MoleculeRecord(f"m{i}", Fingerprint.from_bits(b)) for i, b in enumerate(fps)])
    assert evaluate_measure(MeasureSpec("richness"), range(5), dataset=ds).value == 4
    assert evaluate_measure(MeasureSpec("richness"), [], dataset=ds).value == 0


def test_empty_and_singleton_conventions():
    oracle = MatrixOracle(np.array([[0.0, 0.5], [0.5, 0.0]]))
    for kind in ALL_DISTANCE_FNS:
        assert evaluate_measure(MeasureSpec(kind), [], oracle=oracle).value == 0.0
        assert evaluate_measure(MeasureSpec(kind), [0], oracle=oracle).value == 0.0


def test_repeated_indices_rejected():
    oracle = MatrixOracle(np.array([[0.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="repeat"):
        evaluate_measure(MeasureSpec("diversity"), [0, 0], oracle=oracle)


@pytest.mark.parametrize("n", [0, 1, 2, 12, 200])
def test_offdiag_bytes_equal_triu_indices(n):
    dmatrix = np.random.default_rng(n).random((n, n))
    expected = dmatrix[np.triu_indices(n, 1)]
    got = _offdiag(dmatrix)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def copied_row_extrema_sums(dmatrix):
    """sum_diameter and sum_bottleneck by the formula the strip reduction
    replaced: one copy of the whole matrix with +-inf on its diagonal."""
    if dmatrix.shape[0] < 2:
        return 0.0, 0.0
    sums = []
    for diagonal, extremum in ((-np.inf, np.max), (np.inf, np.min)):
        masked = dmatrix.copy()
        np.fill_diagonal(masked, diagonal)
        sums.append(float(extremum(masked, axis=1).sum(dtype=np.longdouble)))
    return tuple(sums)


def symmetric_matrix(rng, n):
    upper = np.triu(rng.random((n, n)), 1)
    return upper + upper.T


def strip_matrices():
    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 255, 256, 257, 600):
        yield f"random-{n}", symmetric_matrix(rng, n)
    points = rng.random((300, 4))[rng.integers(0, 120, 300)]  # many duplicate rows
    yield "duplicates", np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=2))
    tiny = symmetric_matrix(rng, 270)
    tiny[rng.random(tiny.shape) < 0.05] = -1e-17
    yield "tiny-negative", MatrixOracle(np.minimum(tiny, tiny.T), validate=False).full_matrix()


STRIP_MATRICES = dict(strip_matrices())


@pytest.mark.parametrize("name", list(STRIP_MATRICES))
def test_row_extrema_strips_bytes_equal_whole_copy(name):
    dmatrix = STRIP_MATRICES[name]
    expected = copied_row_extrema_sums(dmatrix)
    got = (sum_diameter_from_dmatrix(dmatrix), sum_bottleneck_from_dmatrix(dmatrix))
    assert np.array(got).tobytes() == np.array(expected).tobytes(), name


def test_parse_measure_spec_grammar():
    spec = parse_measure_spec("circles:t=0.75,mode=greedy,restarts=4")
    assert spec.kind == "circles"
    assert spec.param("t") == 0.75
    assert spec.param("mode") == "greedy"
    assert spec.param("restarts") == 4
    assert spec.key() == "circles:mode=greedy,restarts=4,t=0.75"
    assert parse_measure_spec("richness").key() == "richness"


def test_parse_measure_spec_validation():
    with pytest.raises(MeasureParamError, match="unknown"):
        parse_measure_spec("entropy")
    with pytest.raises(MeasureParamError, match="requires parameter t"):
        parse_measure_spec("circles")
    with pytest.raises(MeasureParamError, match="in \\[0,1\\)"):
        parse_measure_spec("circles:t=1.0")
    with pytest.raises(MeasureParamError, match="mode"):
        parse_measure_spec("circles:t=0.5,mode=fancy")


# Values for every parameter a spec key carries, valid and invalid. Coverage
# ``universe`` is left out: its key joins the ids with commas, which the
# grammar reads as separate parameters. A coverage ``kind`` is drawn as a
# name; one holding a comma or numeric text does not parse back either.
SPEC_PARAM_VALUES = {
    "t": st.one_of(st.floats(-0.5, 1.5, allow_nan=False), st.integers(-1, 2)),
    "mode": st.sampled_from(["auto", "exact", "greedy", "fancy"]),
    "restarts": st.integers(-2, 50),
    "seed": st.integers(-2, 2**64),
    "kind": st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,8}", fullmatch=True),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(MEASURES)), st.data())
def test_every_valid_spec_key_parses_back_to_the_spec(kind, data):
    takes = [name for name in MEASURES[kind].params if name in SPEC_PARAM_VALUES]
    names = data.draw(st.sets(st.sampled_from(takes))) if takes else set()
    spec = MeasureSpec(kind, {name: data.draw(SPEC_PARAM_VALUES[name]) for name in names})
    try:
        validate_spec(spec)
    except MeasureParamError:
        return
    assert parse_measure_spec(spec.key()) == spec


@pytest.mark.parametrize(
    "text, key",
    [
        ("circles:t=0.75,restart=1", "restart"),
        ("diversity:foo=2", "foo"),
        ("richness:t=0.5", "t"),
        ("dpp:seed=1", "seed"),
        ("gs:t=0.5", "t"),
        ("coverage:universes=u.txt", "universes"),
    ],
)
def test_unknown_parameters_refused(text, key):
    with pytest.raises(MeasureParamError, match=f"has no parameter {key!r}"):
        parse_measure_spec(text)


def test_each_kind_names_the_parameters_it_takes():
    assert MEASURES["circles"].params == ("t", "mode", "restarts", "seed")
    assert MEASURES["coverage"].params == ("kind", "universe")
    assert all(not m.params for kind, m in MEASURES.items() if kind not in ("circles", "coverage"))
    parse_measure_spec("circles:t=0.5,mode=greedy,restarts=2,seed=3")
    parse_measure_spec("coverage:kind=FG")
    # A spec built in code is held to the same names as a parsed one.
    with pytest.raises(MeasureParamError, match="^circles has no parameter 'restart'; it takes t, mode"):
        validate_spec(MeasureSpec("circles", {"t": 0.5, "restart": 1}))
    with pytest.raises(MeasureParamError, match="^sum_bottleneck has no parameter 't'; it takes none$"):
        evaluate_measure(MeasureSpec("sum_bottleneck", {"t": 0.5}), [0], oracle=MatrixOracle(np.zeros((1, 1))))


def test_evaluate_measure_dispatch():
    rng = np.random.default_rng(2)
    bits = (rng.random((6, 32)) < 0.4).astype(np.uint8)
    bits[5] = bits[0]  # duplicate pattern
    ds = Dataset([MoleculeRecord(f"m{i}", Fingerprint.from_bits(b)) for i, b in enumerate(bits)])
    oracle = TanimotoOracle(ds)
    res = evaluate_measure(parse_measure_spec("richness"), range(6), dataset=ds)
    assert res.value == 5.0
    res = evaluate_measure(parse_measure_spec("circles:t=0.0"), range(6), oracle=oracle)
    assert res.value == 5.0
    assert res.metadata["mode"] == "exact"
    res = evaluate_measure(parse_measure_spec("diversity"), [], oracle=oracle)
    assert res.value == 0.0 and res.metadata.get("empty")


def test_evaluate_measure_missing_inputs():
    with pytest.raises(MeasureParamError, match="oracle"):
        evaluate_measure(MeasureSpec("diversity"), [0, 1])
    with pytest.raises(MeasureParamError, match="dataset"):
        evaluate_measure(MeasureSpec("richness"), [0, 1])
