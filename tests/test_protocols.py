import hashlib

import numpy as np
import pytest

from chemspace.circles import ARRIVAL, oracle_conflicts
from chemspace.distances import TanimotoOracle, gather_submatrix
from chemspace.errors import ProtocolError
from chemspace.fingerprints import Dataset, Fingerprint, MoleculeRecord
from chemspace.measures import (
    MEASURES,
    MeasureSpec,
    Selection,
    dataset_readers,
    evaluate_measure,
)
from chemspace.protocols import (
    BIAS_MODES,
    CurveSeries,
    protocol_fixed,
    protocol_growing,
    threshold_sweep,
)
from chemspace.synthetic import SyntheticConfig, generate_synthetic

SMALL_CONFIG = SyntheticConfig(classes=8, per_class=12, width=128, core_bits=20, flip_prob=0.05)


@pytest.fixture(scope="module")
def small_dataset():
    return generate_synthetic(SMALL_CONFIG, seed=42)


def test_gold_standard_self_correlation(small_dataset):
    result = protocol_fixed(
        small_dataset, n=30, measures=["gs", "diversity"], seed=1, repeats=40, runs=2
    )
    gs_stat = result.stat("gold_standard")
    assert gs_stat.per_run == [1.0, 1.0]
    assert gs_stat.degenerate_runs == 0


def test_constant_measure_reports_degenerate_zero(small_dataset):
    # richness of an n-point sample of distinct fingerprints is constant.
    result = protocol_fixed(
        small_dataset, n=30, measures=["richness"], seed=2, repeats=30, runs=2
    )
    stat = result.stat("richness")
    assert stat.per_run == [0.0, 0.0]
    assert stat.degenerate_runs == 2


def test_protocol_fixed_deterministic(small_dataset):
    kwargs = dict(n=25, measures=["diversity", "circles:t=0.7"], seed=9, repeats=25, runs=3)
    a = protocol_fixed(small_dataset, **kwargs)
    b = protocol_fixed(small_dataset, **kwargs)
    for sa, sb in zip(a.stats, b.stats):
        assert sa.to_dict() == sb.to_dict()


def test_protocol_fixed_sampling_independent_of_measures(small_dataset):
    # The same seed must draw the same subsets whatever measures run,
    # so a circles t=0 column equals a richness column exactly.
    rich = protocol_fixed(small_dataset, n=20, measures=["richness"], seed=5, repeats=30, runs=2)
    circ = protocol_fixed(
        small_dataset, n=20, measures=["circles:t=0.0", "diversity"], seed=5, repeats=30, runs=2
    )
    assert rich.stat("richness").per_run == circ.stat("circles:t=0.0").per_run


def test_protocol_fixed_rejects_bad_inputs(small_dataset):
    with pytest.raises(ProtocolError):
        protocol_fixed(small_dataset, n=10**6, measures=["diversity"], repeats=5, runs=1)


def test_protocol_fixed_size_larger_than_some_classes(small_dataset):
    # n close to the dataset size forces the label resampling path.
    result = protocol_fixed(small_dataset, n=90, measures=["diversity"], seed=3, repeats=10, runs=1)
    assert len(result.stat("diversity").per_run) == 1


def test_curve_series_incremental_round_trip():
    # The growing-size protocol compares first differences that keep the step-1 value.
    rng = np.random.default_rng(0)
    vals = {"a": rng.random(20), "b": np.cumsum(rng.random(20))}
    curve = CurveSeries(steps=np.arange(1, 21), values=vals)
    inc = {key: np.diff(v, prepend=0.0) for key, v in curve.values.items()}
    assert inc["a"][0] == vals["a"][0]
    for key in vals:
        assert np.array_equal(inc[key][1:], np.diff(vals[key]))
        assert np.allclose(np.cumsum(inc[key]), vals[key])


def growth_curves(ds, order, specs):
    """Each spec's growth curve over ``order``, read as ``protocol_growing``
    reads it: the prefix kernel on one ordered selection of the full matrix."""
    full = TanimotoOracle(ds).full_matrix()
    order = np.asarray(order, dtype=np.int64)
    sel = Selection(order, lambda: gather_submatrix(full, order), **dataset_readers(ds))
    return {spec.key(): MEASURES[spec.kind].prefix(sel, spec) for spec in specs}


def test_growth_trackers_match_direct_measures(small_dataset):
    ds = small_dataset
    oracle = TanimotoOracle(ds)
    full = oracle.full_matrix()
    rng = np.random.default_rng(7)
    order = rng.choice(len(ds), size=40, replace=False)
    specs = [
        MeasureSpec("gold_standard"),
        MeasureSpec("richness"),
        MeasureSpec("diversity"),
        MeasureSpec("sum_diversity"),
        MeasureSpec("diameter"),
        MeasureSpec("sum_diameter"),
        MeasureSpec("bottleneck"),
        MeasureSpec("sum_bottleneck"),
        MeasureSpec("dpp"),
        MeasureSpec("circles", {"t": 0.7}),
    ]
    curves = growth_curves(ds, order, specs)
    direct_kinds = ("diversity", "sum_diversity", "diameter", "sum_diameter", "bottleneck", "sum_bottleneck")
    for step in range(len(order)):
        values = {key: curve[step] for key, curve in curves.items()}
        prefix = [int(i) for i in order[: step + 1]]
        for kind in direct_kinds:
            direct = evaluate_measure(MeasureSpec(kind), prefix, oracle=oracle).value
            assert values[kind] == pytest.approx(direct, abs=1e-9), (kind, step)
        assert values["richness"] == evaluate_measure(MeasureSpec("richness"), prefix, dataset=ds).value
        assert values["gold_standard"] == len({ds.labels[i] for i in prefix})
        # The packing curve equals a single greedy pass in arrival order.
        assert values["circles:t=0.7"] == ARRIVAL.pack(oracle_conflicts(oracle, prefix, 0.7)).count
        if step < 12:
            direct = evaluate_measure(MeasureSpec("dpp"), prefix, oracle=oracle).value
            assert values["dpp"] == pytest.approx(direct, abs=1e-9)


def test_growth_tracker_dpp_freezes_on_duplicates():
    from chemspace.fingerprints import Dataset, Fingerprint, MoleculeRecord

    fp = Fingerprint.from_bits([1, 0, 1, 0])
    ds = Dataset(
        [
            MoleculeRecord("a", fp, "c1"),
            MoleculeRecord("b", fp, "c1"),
            MoleculeRecord("c", Fingerprint.from_bits([0, 1, 0, 1]), "c2"),
        ]
    )
    vals = growth_curves(ds, [0, 1, 2], [MeasureSpec("dpp")])["dpp"].tolist()
    assert vals == [0.0, 0.0, 0.0]  # singleton, exact duplicate, frozen


@pytest.mark.parametrize("seed", range(6))
def test_growth_tracker_dpp_matches_slogdet_of_every_prefix(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 151))
    bits = rng.random((n, 64)) < rng.uniform(0.2, 0.6)
    # Near-duplicates: some records copy an earlier one with one bit flipped.
    for i in range(1, n):
        if rng.random() < 0.15:
            bits[i] = bits[int(rng.integers(0, i))]
            bits[i, int(rng.integers(0, 64))] ^= True
    ds = Dataset(
        [MoleculeRecord(f"m{i}", Fingerprint.from_bits(row), "c") for i, row in enumerate(bits)]
    )
    full = TanimotoOracle(ds).full_matrix()
    curve = growth_curves(ds, range(n), [MeasureSpec("dpp")])["dpp"]
    for k, value in enumerate(curve):
        if k == 0:
            assert value == 0.0  # a singleton scores 0
            continue
        sims = 1.0 - full[: k + 1, : k + 1]
        sign, logdet = np.linalg.slogdet(sims)
        assert value == pytest.approx(sign * np.exp(logdet), rel=1e-10, abs=1e-12), (n, k)
        # A well-conditioned prefix has an accurate determinant at any scale,
        # so compare logs there, also where the determinant is far below 1.
        if np.linalg.cond(sims) < 1e8:
            assert np.log(value) == pytest.approx(logdet, abs=1e-9), (n, k)


def test_growth_tracker_sums_add_members_in_arrival_order(small_dataset):
    # sum_diameter / sum_bottleneck must add the per-member extrema left to
    # right, as Python's sum does; a pairwise (numpy) sum moves the last bits.
    full = TanimotoOracle(small_dataset).full_matrix()
    order = [int(i) for i in np.random.default_rng(12).permutation(len(small_dataset))[:60]]
    curves = growth_curves(
        small_dataset, order, [MeasureSpec("sum_diameter"), MeasureSpec("sum_bottleneck")]
    )
    for step in range(len(order)):
        values = {key: curve[step] for key, curve in curves.items()}
        if step == 0:
            continue
        prefix = order[: step + 1]
        others = [[full[i, j] for j in prefix if j != i] for i in prefix]
        assert values["sum_diameter"] == sum(max(row) for row in others), step
        assert values["sum_bottleneck"] == sum(min(row) for row in others), step


# per_run values recorded from the row-by-row DTW and list-based trackers;
# any change to the protocol loops must reproduce them bit for bit.
PINNED_GROWING = {
    "similar": {
        "diversity": [3.841061421923338, 3.949727591396906],
        "sum_diversity": [14.062957303547359, 14.040075453455245],
        "diameter": [3.3329219743390244, 3.5732078980926913],
        "sum_diameter": [18.09321715399689, 17.244444328821622],
        "bottleneck": [3.875, 3.8],
        "sum_bottleneck": [11.76901081923885, 12.410811955625633],
        "dpp": [3.9999999999998246, 3.9999999999997855],
        "richness": [36.0, 36.0],
        "circles:t=0.75": [0.0, 0.0],
    },
    "uniform": {
        "diversity": [2.3517848198782074, 2.8305712071077895],
        "sum_diversity": [29.440807907837304, 28.79225270638987],
        "diameter": [2.1430155210643016, 2.669377228647746],
        "sum_diameter": [35.835032623210104, 35.31051963845788],
        "bottleneck": [2.9671261930010604, 3.163636363636364],
        "sum_bottleneck": [11.785367144559006, 10.914340335527706],
        "dpp": [3.004759071980719, 3.0661157024787404],
        "richness": [35.0, 35.0],
        "circles:t=0.75": [0.0, 0.0],
    },
}
PINNED_FIXED = {
    "diversity": [0.914997177538969, 0.9505396826655217],
    "sum_diversity": [0.914997177538969, 0.9505396826655217],
    "diameter": [0.3367342428071287, 0.5421069013567033],
    "sum_diameter": [0.32735501116141125, 0.44270145836093183],
    "bottleneck": [0.3401383373786615, 0.5511095821667291],
    "sum_bottleneck": [0.6439882902499401, 0.774327589533731],
    "dpp": [0.7963737588602695, 0.9345411787495355],
    "richness": [0.0, 0.0],
    "circles:t=0.75": [1.0, 1.0],
}


@pytest.mark.parametrize("bias", sorted(PINNED_GROWING))
def test_protocol_growing_per_run_pinned(small_dataset, bias):
    result = protocol_growing(small_dataset, n=40, bias=bias, seed=3, runs=2)
    assert {s.measure: s.per_run for s in result.stats} == PINNED_GROWING[bias]


# sha256 over every curve's bytes (runs in order, keys sorted) of
# protocol_growing(n=40, seed=3, runs=2), recorded from the per-step trackers
# the prefix kernels replaced: a curve that moves fails here even where the
# DTW per_run values above stay equal.
PINNED_CURVE_DIGESTS = {
    "uniform": "59bb2a2b9d5d586e669ea593f3035165d0d12e41f4d16de37ad94ab1c609dc6e",
    "similar": "6158d2408093402b25b30bc89bcad612cb3bd9e41db25d318ead84c76fa9cd9e",
    "most-similar": "6d947e5e41440008c7abb51ad7d13b56cdb6cb7d499dc6ab204cde7d6e3eb5cf",
    # uniform, on a fragment-annotated copy, with coverage among the measures
    "coverage": "1ae23dbab71be5626231d13a396210b4f1f1d212bcf60878184177b755b9e6f5",
}


def curve_digest(result) -> str:
    h = hashlib.sha256()
    for curve in result.curves:
        for key in sorted(curve.values):
            h.update(curve.values[key].tobytes())
    return h.hexdigest()


def annotated_copy(ds: Dataset) -> Dataset:
    """The records of ``ds``, each with 1-3 fragments out of f0..f8."""
    rng = np.random.default_rng(3)
    return Dataset(
        MoleculeRecord(
            ds.ids[i], Fingerprint(ds.width, ds.words[i]), ds.labels[i],
            frozenset(f"f{k}" for k in rng.choice(9, size=int(rng.integers(1, 4)), replace=False)),
        )
        for i in range(len(ds))
    )


@pytest.mark.parametrize("case", list(PINNED_CURVE_DIGESTS))
def test_protocol_growing_curves_pinned(small_dataset, case):
    if case in BIAS_MODES:
        result = protocol_growing(small_dataset, n=40, bias=case, seed=3, runs=2)
    else:
        universe = frozenset({"f0", "f2", "f4", "f7"})
        measures = [
            "coverage", MeasureSpec("coverage", {"universe": universe}), "dpp", "diversity", "richness",
        ]
        result = protocol_growing(
            annotated_copy(small_dataset), n=40, measures=measures, bias="uniform", seed=3, runs=2
        )
    assert curve_digest(result) == PINNED_CURVE_DIGESTS[case]


def test_protocol_fixed_per_run_pinned(small_dataset):
    result = protocol_fixed(small_dataset, n=30, seed=3, repeats=30, runs=2)
    assert {s.measure: s.per_run for s in result.stats} == PINNED_FIXED


def test_protocol_growing_gs_dtw_zero(small_dataset):
    result = protocol_growing(
        small_dataset, n=40, measures=["gs", "richness"], bias="uniform", seed=4, runs=2
    )
    assert result.stat("gold_standard").per_run == [0.0, 0.0]


def test_protocol_growing_bias_labels(small_dataset):
    for bias, label in [
        ("uniform", "uniformly sampled"),
        ("similar", "needs to be similar (power=10)"),
        ("most-similar", "most similar"),
    ]:
        result = protocol_growing(
            small_dataset, n=10, measures=["richness"], bias=bias, seed=1, runs=1
        )
        assert result.config["bias_label"] == label


def test_protocol_growing_deterministic_and_curves(small_dataset):
    kwargs = dict(n=30, measures=["diversity", "circles:t=0.7"], bias="similar", seed=8, runs=2)
    a = protocol_growing(small_dataset, **kwargs)
    b = protocol_growing(small_dataset, **kwargs)
    for sa, sb in zip(a.stats, b.stats):
        assert sa.to_dict() == sb.to_dict()
    assert len(a.curves) == 2
    curve = a.curves[0]
    gold = curve.values["gold_standard"]
    assert len(gold) == 30
    # Curves are cumulative: the distinct-label count never drops as the set grows.
    assert (np.diff(gold, prepend=0.0) >= 0).all() and gold[0] == 1


def test_protocol_growing_rejects_bad_bias(small_dataset):
    with pytest.raises(ProtocolError, match="bias"):
        protocol_growing(small_dataset, n=10, measures=["richness"], bias="sideways")


def test_similar_bias_clusters_more_than_uniform(small_dataset):
    # Similarity-biased growth should cover classes more slowly than uniform.
    uni = protocol_growing(small_dataset, n=60, measures=["gs"], bias="uniform", seed=3, runs=3)
    sim = protocol_growing(small_dataset, n=60, measures=["gs"], bias="similar", seed=3, runs=3)

    def mean_gs_at_20(result):
        return np.mean([c.values["gold_standard"][19] for c in result.curves])

    assert mean_gs_at_20(sim) <= mean_gs_at_20(uni)


def test_threshold_sweep_fixed(small_dataset):
    sweep = threshold_sweep(
        small_dataset,
        protocol="fixed",
        t_grid=(0.0, 0.7),
        seed=6,
        n=20,
        repeats=30,
        runs=2,
    )
    assert len(sweep.rows) == 2
    assert sweep.best_t == 0.7  # t=0 is richness: constant, degenerate
    rich = protocol_fixed(small_dataset, n=20, measures=["richness"], seed=6, repeats=30, runs=2)
    t0_row = next(r for r in sweep.rows if r["t"] == 0.0)
    assert t0_row["per_run"] == rich.stat("richness").per_run


def test_threshold_sweep_broad_plateau(small_dataset):
    # On well-separated clusters the best threshold is not a spike: a band
    # of thresholds scores close to the maximum.
    sweep = threshold_sweep(
        small_dataset,
        protocol="fixed",
        t_grid=(0.5, 0.6, 0.7, 0.8),
        seed=1,
        n=30,
        repeats=40,
        runs=3,
    )
    best = max(r["mean"] for r in sweep.rows)
    near_best = [r["t"] for r in sweep.rows if r["mean"] >= best - 0.05]
    assert len(near_best) >= 2


def test_fixed_circles_value_independent_of_other_specs():
    # A circles spec packs from its repeat's seed, whatever specs precede it.
    rng = np.random.default_rng(0)
    bits = (rng.random((120, 48)) < 0.3).astype(int)
    ds = Dataset(
        [MoleculeRecord(f"m{i}", Fingerprint.from_bits(row), f"c{i % 6}") for i, row in enumerate(bits)]
    )
    kwargs = dict(n=40, seed=3, repeats=25, runs=2)
    both = protocol_fixed(ds, measures=["circles:t=0.6", "circles:t=0.7"], **kwargs)
    for key in ("circles:t=0.6", "circles:t=0.7"):
        alone = protocol_fixed(ds, measures=[key], **kwargs)
        assert both.stat(key).per_run == alone.stat(key).per_run


@pytest.mark.parametrize("protocol", ["fixed", "growing"])
def test_threshold_sweep_rows_equal_single_spec_runs(small_dataset, protocol):
    grid = (0.5, 0.6, 0.7, 0.8)
    common = dict(n=20, seed=4, runs=3)
    sweep = threshold_sweep(small_dataset, protocol=protocol, t_grid=grid, repeats=15, **common)
    assert [row["t"] for row in sweep.rows] == list(grid)
    for row in sweep.rows:
        spec = f"circles:t={row['t']}"
        if protocol == "fixed":
            single = protocol_fixed(small_dataset, measures=[spec], repeats=15, **common)
        else:
            single = protocol_growing(small_dataset, measures=[spec], **common)
        assert row["per_run"] == single.stats[0].per_run


def test_threshold_sweep_deterministic(small_dataset):
    kwargs = dict(protocol="fixed", t_grid=(0.3, 0.7), seed=2, n=15, repeats=20, runs=2)
    a = threshold_sweep(small_dataset, **kwargs)
    b = threshold_sweep(small_dataset, **kwargs)
    assert a.rows == b.rows and a.best_t == b.best_t


def test_unlabeled_dataset_rejected():
    from chemspace.fingerprints import Dataset, Fingerprint, MoleculeRecord

    ds = Dataset([MoleculeRecord("a", Fingerprint.from_bits([1, 0]), None)])
    with pytest.raises(ProtocolError, match="label"):
        protocol_fixed(ds, n=1, measures=["richness"], repeats=2, runs=1)
