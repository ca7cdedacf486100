"""Every entry point reaches a measure through the one table in ``measures``."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemspace.axioms import World, check_subadditivity, random_world, world_measure
from chemspace.circles import (
    ARRIVAL,
    EXACT,
    ConflictMasks,
    _clique_cover_bound,
    admits,
    packing_policy,
    threshold_adjacency,
)
from chemspace.cli import main
from chemspace.distances import TanimotoOracle, gather_submatrix
from chemspace.errors import MeasureParamError, MissingFragmentsError
from chemspace.fingerprints import (
    Dataset,
    Fingerprint,
    MoleculeRecord,
    load_dataset,
    tanimoto_distance,
    write_dataset,
)
from chemspace.measures import (
    MEASURES,
    MeasureSpec,
    Selection,
    dataset_readers,
    dataset_selection,
    evaluate_measure,
    evaluate_selection,
    parse_measure_spec,
)
from chemspace.novelty import NoveltyContext, novelty_circles
from chemspace.protocols import (
    DEFAULT_PROTOCOL_MEASURES,
    FIXED_READER,
    _fixed_selection,
    protocol_fixed,
    protocol_growing,
    threshold_sweep,
)
from chemspace.synthetic import SyntheticConfig, generate_synthetic

DISTANCE_KINDS = [k for k, m in MEASURES.items() if m.reads == "distances" and k != "circles"]


@pytest.fixture(scope="module")
def annotated():
    """Synthetic labeled records, each with 1-3 fragments out of f0..f8."""
    base = generate_synthetic(
        SyntheticConfig(classes=5, per_class=6, width=64, core_bits=12), seed=11
    )
    rng = np.random.default_rng(3)
    records = [
        MoleculeRecord(
            base.ids[i], Fingerprint(base.width, base.words[i]), base.labels[i],
            frozenset(f"f{k}" for k in rng.choice(9, size=int(rng.integers(1, 4)), replace=False)),
        )
        for i in range(len(base))
    ]
    return Dataset(records)


@st.composite
def growth_orders(draw):
    """A small labeled dataset (duplicate fingerprints allowed, fragments on
    some records) and an order of its records."""
    n = draw(st.integers(1, 12))
    width = draw(st.integers(1, 70))
    bits = st.lists(st.integers(0, 1), min_size=width, max_size=width)
    annotated = draw(st.booleans())
    records = []
    for i in range(n):
        copy = draw(st.integers(-1, i - 1)) if i else -1
        fp = records[copy].fp if copy >= 0 else Fingerprint.from_bits(draw(bits))
        fragments = draw(st.frozensets(st.sampled_from("abcdef"), max_size=3))
        if not annotated and draw(st.booleans()):
            fragments = None
        records.append(MoleculeRecord(f"m{i}", fp, f"c{draw(st.integers(0, 3))}", fragments))
    return Dataset(records), np.asarray(draw(st.permutations(range(n))), dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(growth_orders(), st.data())
def test_every_kind_agrees_across_entry_points(case, data):
    # One random set of n <= 12 records (widths 1-70, duplicates allowed) and
    # a subset of it in a random order: the library, the fixed-size protocol's
    # selection and the axiom world agree exactly on the same matrix, and the
    # growth curve's last value within 1e-9; a candidate is novel at t exactly
    # when it is admitted against every member, one member at a time.
    ds, order = case
    order = order[: data.draw(st.integers(1, len(ds)), label="size")]
    subset = sorted(order.tolist())
    t = data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.6, 0.75, 0.9]), label="t")
    full = TanimotoOracle(ds).full_matrix()
    keys = [ds.words[i].tobytes() for i in range(len(ds))]
    world = World(full, keys=keys, fragments=list(ds.fragments))
    readers = dataset_readers(ds)
    shared = [MeasureSpec(k) for k in ["richness", "gold_standard", *DISTANCE_KINDS]]
    if all(ds.fragments[i] is not None for i in subset):
        shared += [MeasureSpec("coverage"), MeasureSpec("coverage", {"universe": frozenset("ace")})]

    def library(spec, points=subset):
        # A fresh oracle, so the library path builds its own submatrix.
        return evaluate_measure(spec, points, dataset=ds, oracle=TanimotoOracle(ds)).value

    def fixed(spec, seed=0):
        policy = lambda s: replace(FIXED_READER.policy(s), seed=seed)
        return evaluate_selection(spec, _fixed_selection(full, np.asarray(subset), readers, policy)).value

    # The growth curve's last point: the growing-size protocol's path.
    grown_sel = Selection(order, lambda: gather_submatrix(full, order), **readers)
    circles = MeasureSpec("circles", {"t": t})
    for spec in shared:
        value = library(spec)
        assert fixed(spec) == value, spec.key()
        if spec.kind != "gold_standard":  # a world has no labels
            assert world_measure(spec, subset, world) == value, spec.key()
        last = MEASURES[spec.kind].prefix(grown_sel, spec)[-1]
        assert last == pytest.approx(value, abs=1e-9), spec.key()

    # Circles: each path has its own policy; compare like with like.
    exact = library(MeasureSpec("circles", {"t": t, "mode": "exact"}))
    assert world_measure(circles, subset, world) == exact
    drawn = data.draw(st.integers(0, 2**31 - 1), label="seed")
    best_of_k = library(MeasureSpec("circles", {"t": t, "mode": "greedy", "seed": drawn}))
    assert fixed(circles, seed=drawn) == best_of_k
    # One greedy pass in the curve's order.
    one_pass = library(MeasureSpec("circles", {"t": t, "mode": "greedy", "restarts": 1}), order)
    assert MEASURES["circles"].prefix(grown_sel, circles)[-1] == one_pass

    ctx = NoveltyContext.from_dataset(ds, members=subset, t=t)
    fps = [Fingerprint(ds.width, ds.words[i]) for i in range(len(ds))]
    for i, fp in enumerate(fps):
        novel = all(admits(np.array([tanimoto_distance(fp, fps[m])]), t) for m in subset)
        assert novelty_circles(i, ctx) == novelty_circles(fp, ctx) == int(novel), (i, t)


# Kinds whose prefix kernel adds or multiplies in another order than batch.
REORDERED_KINDS = {"diversity", "sum_diversity", "sum_diameter", "sum_bottleneck", "dpp"}


@settings(max_examples=80, deadline=None)
@given(growth_orders())
def test_prefix_equals_batch_on_every_prefix(case):
    # prefix(sel)[k-1] is the batch value on the first k points of the order:
    # exactly, except for the sums and the determinant (1e-9); circles packs
    # each prefix with one greedy pass in order.
    ds, order = case
    oracle = TanimotoOracle(ds)
    sel = Selection(order, lambda: oracle.submatrix(order), **dataset_readers(ds))
    specs = [MeasureSpec(kind) for kind in MEASURES if kind != "circles"]
    specs.append(MeasureSpec("coverage", {"universe": frozenset("ace")}))
    specs += [MeasureSpec("circles", {"t": t}) for t in (0.0, 0.4, 0.75)]
    missing = [ds.ids[i] for i in order if ds.fragments[i] is None]
    for spec in specs:
        if spec.kind == "coverage" and missing:
            with pytest.raises(MissingFragmentsError, match=f"^record {missing[0]!r} "):
                MEASURES[spec.kind].prefix(sel, spec)
            continue
        curve = MEASURES[spec.kind].prefix(sel, spec)
        assert curve.shape == (len(order),) and curve.dtype == np.float64
        batch_spec = spec
        if spec.kind == "circles":
            batch_spec = MeasureSpec("circles", {**spec.params, "mode": "greedy", "restarts": 1})
        for k in range(1, len(order) + 1):
            value = evaluate_selection(batch_spec, dataset_selection(order[:k], ds, oracle)).value
            if spec.kind in REORDERED_KINDS:
                value = pytest.approx(value, abs=1e-9)
            assert curve[k - 1] == value, (spec.key(), k)


@settings(max_examples=80, deadline=None)
@given(growth_orders(), st.data())
def test_packing_policies_are_ordered_and_agree_across_entry_points(case, data):
    # One set of n <= 12 records (widths 1-70, duplicates allowed) and a
    # subset of it: arrival <= best-of-k <= exact <= the clique-cover bound,
    # and each entry point's count is the policy's count on the same masks.
    ds, order = case
    t = data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.6, 0.75, 0.9]), label="t")
    restarts = data.draw(st.integers(1, 8), label="restarts")
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    subset = np.sort(order[: data.draw(st.integers(1, len(ds)), label="size")])
    full = TanimotoOracle(ds).full_matrix()
    masks = ConflictMasks.at_hand(threshold_adjacency(gather_submatrix(full, subset), t))
    arrival = ARRIVAL.pack(masks).count
    best_of_k = packing_policy("greedy", restarts, seed).pack(masks).count
    exact = EXACT.pack(masks).count
    assert arrival <= best_of_k <= exact <= _clique_cover_bound((1 << subset.size) - 1, masks.masks)

    def library(**params):
        spec = MeasureSpec("circles", {"t": t, **params})
        return evaluate_measure(spec, subset, oracle=TanimotoOracle(ds)).value

    world = World(full, keys=[str(i) for i in range(len(ds))], fragments=[frozenset()] * len(ds))
    assert library(mode="exact") == world_measure(MeasureSpec("circles", {"t": t}), subset, world) == exact
    policy = lambda spec: replace(FIXED_READER.policy(spec), seed=seed)
    sel = _fixed_selection(full, subset, dataset_readers(ds), policy)
    fixed = evaluate_selection(MeasureSpec("circles", {"t": t, "restarts": restarts}), sel).value
    assert library(mode="greedy", seed=seed, restarts=restarts) == fixed == best_of_k


@pytest.mark.parametrize(
    "spec, names",
    [
        ("circles:t=0.5,mode=greedy", "the axiom harness takes only circles t, mode=exact; drop mode"),
        ("circles:t=0.5,restarts=8", "drop restarts"),
        ("circles:t=0.5,seed=2", "drop seed"),
    ],
)
def test_axiom_harness_refuses_circles_params_exact_packing_does_not_read(spec, names):
    # Every world is packed exactly; restarts, seed and another mode were ignored.
    world = random_world(np.random.default_rng(0), 5)
    for check in (lambda s: world_measure(s, [0, 1, 2], world), lambda s: check_subadditivity(s, trials=5)):
        with pytest.raises(MeasureParamError, match=names):
            check(parse_measure_spec(spec))
        check(parse_measure_spec("circles:t=0.5,mode=exact"))


def test_evaluate_measure_honours_exact_cap_env(monkeypatch):
    rng = np.random.default_rng(4)
    bits = (rng.random((100, 48)) < 0.3).astype(np.uint8)
    ds = Dataset([MoleculeRecord(f"m{i}", Fingerprint.from_bits(b)) for i, b in enumerate(bits)])
    oracle = TanimotoOracle(ds)
    spec = MeasureSpec("circles", {"t": 0.9})
    assert evaluate_measure(spec, range(100), oracle=oracle).metadata["mode"] == "greedy"
    monkeypatch.setenv("CHEMSPACE_EXACT_CAP", "200")
    assert evaluate_measure(spec, range(100), oracle=oracle).metadata["mode"] == "exact"


def _coverage_dataset(missing_at=None):
    frags = [{"f0", "f2"}, {"f1", "f3"}, {"f4", "f5"}, {"f6"}] + [{"f0"}] * 8
    return Dataset(
        [
            MoleculeRecord(
                f"m{i}",
                Fingerprint.from_bits([(i >> b) & 1 for b in range(4)] + [1]),
                "c1",
                None if i == missing_at else frozenset(f),
            )
            for i, f in enumerate(frags)
        ]
    )


def test_growing_coverage_intersects_universe():
    ds = _coverage_dataset()
    spec = MeasureSpec("coverage", {"universe": frozenset({"f0", "f1"})})
    full = TanimotoOracle(ds).full_matrix()
    idx = np.arange(4)
    sel = Selection(idx, lambda: gather_submatrix(full, idx), **dataset_readers(ds))
    assert MEASURES["coverage"].prefix(sel, spec).tolist() == [1.0, 2.0, 2.0, 2.0]
    assert evaluate_measure(spec, range(4), dataset=ds).value == 2.0


def test_growing_coverage_rejects_record_without_fragments():
    ds = _coverage_dataset(missing_at=5)
    with pytest.raises(MissingFragmentsError, match="^record 'm5' has no fragment annotations$"):
        protocol_growing(ds, n=12, measures=["coverage"], bias="uniform", runs=1)


@pytest.mark.parametrize("protocol", [protocol_fixed, protocol_growing])
@pytest.mark.parametrize("mode", ["exact", "auto"])
def test_protocols_refuse_non_greedy_circles(annotated, protocol, mode):
    with pytest.raises(MeasureParamError, match="greedy"):
        protocol(annotated, n=10, measures=[f"circles:t=0.5,mode={mode}"], runs=1)
    greedy = protocol(annotated, n=10, measures=["circles:t=0.5,mode=greedy"], runs=1)
    assert len(greedy.stats[0].per_run) == 1


@pytest.mark.parametrize("protocol", [protocol_fixed, protocol_growing])
def test_protocols_refuse_circles_seed(annotated, protocol):
    # Each repeat's packing seed comes from the run seed; a spec seed was ignored.
    with pytest.raises(MeasureParamError, match="seed"):
        protocol(annotated, n=10, measures=["circles:t=0.5,seed=1"], runs=1)


def test_growing_protocol_refuses_circles_restarts(annotated):
    # The growing-size protocol packs once in arrival order; restarts was ignored.
    with pytest.raises(MeasureParamError, match="restarts"):
        protocol_growing(annotated, n=10, measures=["circles:t=0.5,restarts=1"], runs=1)
    with pytest.raises(MeasureParamError, match="restarts"):
        threshold_sweep(annotated, protocol="growing", t_grid=(0.5,), n=10, runs=1, restarts=8)
    sweep = threshold_sweep(annotated, protocol="growing", t_grid=(0.5,), n=10, runs=1)
    assert sweep.rows[0]["measure"] == "circles:t=0.5"
    fixed = protocol_fixed(annotated, n=10, measures=["circles:t=0.5,restarts=1"], repeats=3, runs=1)
    assert fixed.stats[0].measure == "circles:restarts=1,t=0.5"


def test_circles_seed_must_be_an_integer():
    with pytest.raises(MeasureParamError, match="seed"):
        parse_measure_spec("circles:t=0.5,seed=x")


def test_cli_bad_seed_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "d.tsv"
    write_dataset(_coverage_dataset(), path)
    code = main(["measure", "--in", str(path), "--measures", "circles:t=0.5,seed=x"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_measure_refuses_large_dpp_before_any_work(tmp_path, capsys, monkeypatch):
    import chemspace.measures

    def must_not_run(dmatrix):
        raise AssertionError("an earlier measure ran before the dpp refusal")

    monkeypatch.setattr(chemspace.measures, "diversity_from_dmatrix", must_not_run)
    rng = np.random.default_rng(0)
    bits = (rng.random((2049, 32)) < 0.5).astype(np.uint8)
    ds = Dataset([MoleculeRecord(f"m{i}", Fingerprint.from_bits(b)) for i, b in enumerate(bits)])
    path = tmp_path / "big.tsv"
    write_dataset(ds, path)
    code = main(["measure", "--in", str(path), "--measures", "diversity,dpp"])
    captured = capsys.readouterr()
    assert code == 1
    assert "dpp determinant refused for n=2049 > 2048" in captured.err
    assert captured.out == ""


def test_measure_refuses_large_exact_packing_before_any_work(tmp_path, capsys, monkeypatch):
    import chemspace.measures

    def must_not_run(dmatrix):
        raise AssertionError("an earlier measure ran before the exact-cap refusal")

    monkeypatch.setattr(chemspace.measures, "diversity_from_dmatrix", must_not_run)
    monkeypatch.delenv("CHEMSPACE_EXACT_CAP", raising=False)
    rng = np.random.default_rng(0)
    bits = (rng.random((65, 32)) < 0.5).astype(np.uint8)
    ds = Dataset([MoleculeRecord(f"m{i}", Fingerprint.from_bits(b)) for i, b in enumerate(bits)])
    path = tmp_path / "over_cap.tsv"
    write_dataset(ds, path)
    code = main(["measure", "--in", str(path), "--measures", "diversity,circles:t=0.5,mode=exact"])
    captured = capsys.readouterr()
    assert code == 1
    assert "exact packing refused for n=65 > cap 64" in captured.err
    assert captured.out == ""


def _duplicated(ds: Dataset, unlabeled=()) -> Dataset:
    """The records of ``ds`` with every third one repeated under a new id,
    the labels of the ids in ``unlabeled`` dropped."""
    records = []
    for i in range(len(ds)):
        fp = Fingerprint(ds.width, ds.words[i])
        records.append(MoleculeRecord(ds.ids[i], fp, ds.labels[i]))
        if i % 3 == 0:
            records.append(MoleculeRecord(f"dup{i}", fp, ds.labels[(i + 7) % len(ds)]))
    return Dataset(
        MoleculeRecord(r.id, r.fp, None if r.id in unlabeled else r.label) for r in records
    )


def test_distinct_counts_equal_set_counts(annotated):
    ds = _duplicated(annotated)
    full = TanimotoOracle(ds).full_matrix()
    readers = dataset_readers(ds)
    assert len({row.tobytes() for row in ds.words}) < len(ds)
    rng = np.random.default_rng(21)
    for size in (1, 2, 5, 20, len(ds)):
        subset = rng.choice(len(ds), size=size, replace=False)
        keys = len({ds.words[i].tobytes() for i in subset})
        labels = len({ds.labels[i] for i in subset})
        sel = _fixed_selection(full, subset, readers, 0)
        assert evaluate_selection(MeasureSpec("richness"), sel).value == keys
        assert evaluate_selection(MeasureSpec("gold_standard"), sel).value == labels
        assert evaluate_measure(MeasureSpec("richness"), subset, dataset=ds).value == keys
        assert evaluate_measure(MeasureSpec("gold_standard"), subset, dataset=ds).value == labels
    for seed in range(20):
        world = random_world(np.random.default_rng(seed), 12, dup_prob=0.5)
        subset = sorted(np.random.default_rng(seed).choice(12, size=8, replace=False).tolist())
        expected = len({world.keys[i] for i in subset})
        assert world_measure(MeasureSpec("richness"), subset, world) == expected


def test_key_codes_are_built_on_first_use(annotated, tmp_path):
    path = tmp_path / "dups.tsv"
    write_dataset(_duplicated(annotated), path)
    ds = load_dataset(path)
    assert "key_codes" not in vars(ds)
    richness = evaluate_measure(MeasureSpec("richness"), range(len(ds)), dataset=ds).value
    assert richness == len(set(ds.key_codes.tolist())) == len(annotated)


def test_gold_standard_names_the_first_unlabeled_record(annotated, tmp_path, capsys):
    name = annotated.ids[10]
    ds = _duplicated(annotated, unlabeled={name, "dup3"})
    subset = [0, ds.ids.index(name), ds.ids.index("dup3")]
    with pytest.raises(MeasureParamError, match=f"^record '{name}' has no class label$"):
        evaluate_measure(MeasureSpec("gold_standard"), subset, dataset=ds)
    with pytest.raises(MeasureParamError, match="^record 'dup3' has no class label$"):
        evaluate_measure(MeasureSpec("gold_standard"), subset[::-1], dataset=ds)
    path = tmp_path / "unlabeled.tsv"
    write_dataset(ds, path)
    assert main(["measure", "--in", str(path), "--measures", "richness,gs"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "has no class label" in err and "Traceback" not in err


def test_one_upper_triangle_per_selection(annotated, monkeypatch):
    # The fixed-size selection gathers its triangle from the full matrix
    # once and mirrors the submatrix from it; nothing re-reads the triangle
    # out of the submatrix.
    import chemspace.measures
    import chemspace.protocols

    sliced, gathered = [], []
    offdiag, gather = chemspace.measures._offdiag, chemspace.protocols.gather_upper

    def counted_offdiag(dmatrix):
        sliced.append(dmatrix.shape)
        return offdiag(dmatrix)

    def counted_gather(matrix, idx):
        gathered.append(idx.size)
        return gather(matrix, idx)

    monkeypatch.setattr(chemspace.measures, "_offdiag", counted_offdiag)
    monkeypatch.setattr(chemspace.protocols, "gather_upper", counted_gather)
    full = TanimotoOracle(annotated).full_matrix()
    subset = np.arange(0, len(annotated), 2)
    sel = _fixed_selection(full, subset, dataset_readers(annotated), FIXED_READER.policy)
    for spec in [*DEFAULT_PROTOCOL_MEASURES, "gold_standard"]:
        evaluate_selection(parse_measure_spec(spec), sel)
    assert gathered == [subset.size] and sliced == []
    whole = gather_submatrix(full, subset)
    assert sel.dmatrix.tobytes() == whole.tobytes()
    assert sel.offdiag.tobytes() == offdiag(whole).tobytes()
    assert sel.pair_sum == offdiag(whole).sum(dtype=np.longdouble)
