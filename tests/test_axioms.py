import hashlib
import json
from itertools import combinations

import numpy as np
import pytest

from chemspace import axioms
from chemspace.axioms import (
    DEFAULT_TABLE_SPECS,
    EXPECTED_CLASSIFICATION,
    GeodesicConfig,
    World,
    check_dissimilarity,
    check_subadditivity,
    quadrant_table,
    random_world,
    replay_counterexample,
    world_measure,
)
from chemspace.circles import max_independent_set, threshold_adjacency
from chemspace.distances import gather_submatrix
from chemspace.errors import MeasureParamError
from chemspace.measures import MeasureSpec, validate_spec

SUBADDITIVE_SPECS = [
    MeasureSpec("richness"),
    MeasureSpec("coverage"),
    MeasureSpec("circles", {"t": 0.5}),
]
NON_SUBADDITIVE_SPECS = [
    MeasureSpec("diversity"),
    MeasureSpec("sum_diversity"),
    MeasureSpec("diameter"),
    MeasureSpec("sum_diameter"),
    MeasureSpec("bottleneck"),
    MeasureSpec("sum_bottleneck"),
    MeasureSpec("dpp"),
]


@pytest.mark.parametrize("spec", SUBADDITIVE_SPECS, ids=lambda s: s.key())
def test_subadditive_measures_survive_search(spec):
    result = check_subadditivity(spec, trials=300, seed=7)
    assert result.holds
    assert result.trials == 300


@pytest.mark.parametrize("spec", NON_SUBADDITIVE_SPECS, ids=lambda s: s.key())
def test_non_subadditive_measures_fail_fast(spec):
    result = check_subadditivity(spec, trials=100, seed=7)
    assert not result.holds
    assert result.trials < 100
    assert result.counterexample is not None
    assert replay_counterexample(result.counterexample)


@pytest.mark.parametrize(
    "kind", ["diversity", "bottleneck", "sum_bottleneck", "dpp"]
)
def test_monotonicity_violations_are_single_point_insertions(kind):
    # These counterexamples insert one molecule and watch the value drop:
    # a lower-side violation with a singleton second set.
    result = check_subadditivity(MeasureSpec(kind), trials=100, seed=0)
    ce = result.counterexample
    assert ce.side == "lower"
    assert len(ce.s2) == 1
    assert ce.values["mu_union"] < ce.values["mu_s1"]


@pytest.mark.parametrize("kind", ["diameter", "sum_diameter", "sum_diversity"])
def test_cluster_pair_violations_hit_upper_side(kind):
    result = check_subadditivity(MeasureSpec(kind), trials=100, seed=0)
    ce = result.counterexample
    assert ce.side == "upper"
    assert ce.values["mu_union"] > ce.values["mu_s1"] + ce.values["mu_s2"]


def test_counterexamples_deterministic_across_calls():
    a = check_subadditivity(MeasureSpec("diversity"), trials=50, seed=3)
    b = check_subadditivity(MeasureSpec("diversity"), trials=50, seed=3)
    assert a.counterexample.to_dict() == b.counterexample.to_dict()


def test_dissimilarity_diversity_constant_two_thirds():
    result = check_dissimilarity(MeasureSpec("diversity"))
    assert result.holds
    # Equality across the grid: value is 2a/3 regardless of delta.
    for a in (0.3, 0.6, 1.0):
        for frac in (0.1, 0.5, 0.9):
            world = GeodesicConfig(a, a * frac).world()
            assert world_measure(MeasureSpec("diversity"), [0, 1, 2], world) == pytest.approx(
                2 * a / 3, abs=1e-12
            )


def test_dissimilarity_sum_diameter_violated_off_center():
    result = check_dissimilarity(MeasureSpec("sum_diameter"))
    assert not result.holds
    ce = result.counterexample
    assert ce.values["mu_candidate"] > ce.values["mu_midpoint"]
    assert replay_counterexample(ce)
    # The canonical violation: a=1, delta=0.9 scores above the midpoint.
    world = GeodesicConfig(1.0, 0.9).world()
    mid = GeodesicConfig(1.0, 0.5).world()
    assert world_measure(MeasureSpec("sum_diameter"), [0, 1, 2], world) > world_measure(
        MeasureSpec("sum_diameter"), [0, 1, 2], mid
    )


def test_dissimilarity_dpp_closed_form_and_argmax():
    # det of the geodesic similarity matrix is (2a-4)(delta^2 - a*delta),
    # maximized at delta = a/2.
    spec = MeasureSpec("dpp")
    for a in (0.4, 0.8, 1.0):
        values = {}
        for frac in np.arange(1, 20) / 20:
            delta = a * float(frac)
            world = GeodesicConfig(a, delta).world()
            got = world_measure(spec, [0, 1, 2], world)
            expected = (2 * a - 4) * (delta**2 - a * delta)
            assert got == pytest.approx(expected, abs=1e-9)
            values[frac] = got
        assert max(values, key=values.get) == 0.5
    assert check_dissimilarity(spec).holds


def test_dissimilarity_remaining_measures():
    for kind in ("sum_diversity", "diameter", "bottleneck", "sum_bottleneck", "richness"):
        assert check_dissimilarity(MeasureSpec(kind)).holds, kind
    assert check_dissimilarity(MeasureSpec("circles", {"t": 0.5})).holds


def test_dissimilarity_coverage_fails_by_construction():
    result = check_dissimilarity(MeasureSpec("coverage"))
    assert not result.holds
    assert "not applicable" in result.note
    assert result.counterexample.values["mu_candidate"] == 3.0
    assert result.counterexample.values["mu_midpoint"] == 2.0


def test_geodesic_config_validation():
    with pytest.raises(ValueError):
        GeodesicConfig(0.5, 0.5)
    with pytest.raises(ValueError):
        GeodesicConfig(1.5, 0.2)


def test_quadrant_table_matches_expected():
    table = quadrant_table(trials=200, seed=11)
    assert table["matches_expected"]
    by_measure = {row["measure"].split(":")[0]: row for row in table["reports"]}
    for kind, (sub, dis) in EXPECTED_CLASSIFICATION.items():
        assert by_measure[kind]["subadditive"] == sub, kind
        assert by_measure[kind]["dissimilar"] == dis, kind


def test_random_world_matrices_are_valid_metrics():
    rng = np.random.default_rng(0)
    for _ in range(10):
        world = random_world(rng, size=int(rng.integers(2, 13)))
        m = world.matrix
        assert (m >= 0).all() and (m <= 1).all()
        assert np.allclose(m, m.T)
        n = m.shape[0]
        for via in range(n):
            assert (m <= m[:, via][:, None] + m[via][None, :] + 1e-12).all()


def test_random_world_invariants():
    pool = {f"f{k}" for k in range(8)}
    rng = np.random.default_rng(21)
    duplicates = points = 0
    for _ in range(3000):
        world = random_world(rng, size=int(rng.integers(2, 13)))
        assert world.keys[0] == "p0"
        for i, key in enumerate(world.keys):
            root = int(key[1:])
            assert world.keys[root] == key == f"p{root}"
            if root == i:
                assert 1 <= len(world.fragments[i]) <= 3 and world.fragments[i] <= pool
                continue
            assert root < i
            assert world.fragments[i] == world.fragments[root]
            assert world.matrix[i].tobytes() == world.matrix[root].tobytes()
            assert world.matrix[i, root] == 0.0
        duplicates += sum(key != f"p{i}" for i, key in enumerate(world.keys))
        points += world.n - 1
    assert abs(duplicates / points - 0.15) <= 0.02


def test_random_world_is_a_function_of_the_generator_state():
    a, b = (random_world(np.random.default_rng(8), 12, dup_prob=0.4) for _ in range(2))
    assert a.matrix.tobytes() == b.matrix.tobytes()
    assert a.keys == b.keys and a.fragments == b.fragments


@pytest.mark.parametrize("size", [9, 8, 6, 4])
def test_world_circles_equals_the_solver_on_each_thresholded_submatrix(size):
    world = random_world(np.random.default_rng(size), size, dup_prob=0.3)
    for t in (0.2, 0.5, 0.8):
        spec = MeasureSpec("circles", {"t": t})
        for k in range(1, size + 1):
            for subset in combinations(range(size), k):
                sub = gather_submatrix(world.matrix, np.array(subset))
                expected = max_independent_set(threshold_adjacency(sub, t))[0]
                assert world_measure(spec, subset, world) == expected, (t, subset)


# sha256 of the three seeds' ``json.dumps(quadrant_table(trials, seed),
# sort_keys=True)``, one per line, recorded when worlds were still drawn point
# by point. Every refuted default spec is refuted by its construction, before
# any random world, so how worlds are drawn does not reach these tables.
QUADRANT_TABLE_DIGESTS = {
    300: "dd950a50b97bd36cd89c20d9b654c3943bcca46e4d5f90fd9c305b3c649abce7",
    1000: "bd9c0a61fd926a7947276e98e6e4fdd0979fd99719851176f09be142adce0262",
}


@pytest.mark.parametrize("trials", sorted(QUADRANT_TABLE_DIGESTS))
def test_quadrant_table_pinned(trials):
    blob = "\n".join(
        json.dumps(quadrant_table(trials, seed), sort_keys=True) for seed in range(3)
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == QUADRANT_TABLE_DIGESTS[trials]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quadrant_counterexamples_replay_and_nudges_do_not(seed):
    table = quadrant_table(trials=300, seed=seed)
    found = []
    for row in table["reports"]:
        for check in ("subadditivity_check", "dissimilarity_check"):
            ce = row[check].get("counterexample")
            if ce is not None:
                found.append((row["measure"], ce["check"]))
                assert replay_counterexample(ce), (row["measure"], check)
                for key in (k for k in ce["values"] if k.startswith("mu_")):
                    nudged = {**ce, "values": {**ce["values"], key: ce["values"][key] + 1e-6}}
                    assert not replay_counterexample(nudged), (row["measure"], check, key)
    assert ("coverage", "dissimilarity") in found
    assert ("sum_diameter", "dissimilarity") in found


def test_replay_circles_reads_the_grid_threshold():
    # The stored pair swaps the roles: the "midpoint" world is off-center. At
    # t=0.3 it packs 2 against 3, a violation; at the key's t=0.5 both pack 2.
    off_center = GeodesicConfig(1.0, 0.1).world().to_payload()
    centered = GeodesicConfig(1.0, 0.5).world().to_payload()
    ce = {
        "measure": "circles:t=0.5",
        "check": "dissimilarity",
        "side": "midpoint",
        "world": {"midpoint": off_center, "candidate": centered},
        "s1": [0, 1, 2],
        "s2": [0, 1, 2],
        "values": {"mu_midpoint": 2.0, "mu_candidate": 3.0, "a": 1.0, "delta": 0.1, "t": 0.3},
    }
    assert replay_counterexample(ce)
    assert not replay_counterexample({**ce, "values": {**ce["values"], "t": 0.5}})


def _table_subadditivity(trials, seed, specs=DEFAULT_TABLE_SPECS):
    table = quadrant_table(trials=trials, seed=seed, specs=specs)
    return [row["subadditivity_check"] for row in table["reports"]]


def _harmless_constructions(kind):
    """0, 1 or 2 constructions, by kind, that break nothing (S1 = S2), so
    each kind starts its random search at a different trial number."""
    world = axioms._seed_world([[0.0, 0.4], [0.4, 0.0]])
    k = sorted(EXPECTED_CLASSIFICATION).index(kind) % 3
    return [("the same pair as both sets", world, [0, 1], [0, 1])] * k


CONSTRUCTIONS = {
    "default": axioms._seed_worlds,
    "none": lambda kind: [],
    "harmless": _harmless_constructions,
}


@pytest.mark.parametrize("constructions", list(CONSTRUCTIONS))
@pytest.mark.parametrize("trials", [1, 2, 50])
def test_table_search_equals_one_search_per_spec(constructions, trials, monkeypatch):
    # The table tests each random world against every open spec; each spec
    # must still see exactly what a search of its own sees.
    seeded = CONSTRUCTIONS[constructions]
    monkeypatch.setattr(axioms, "_seed_worlds", seeded)
    for seed in (0, 1, 2):
        rows = _table_subadditivity(trials, seed)
        for spec, row in zip(DEFAULT_TABLE_SPECS, rows):
            assert row == check_subadditivity(spec, trials, seed).to_dict(), (spec.key(), seed)
            k = len(seeded(spec.kind))
            if row["holds"]:
                assert row["trials"] == max(trials, k)
                assert row["note"] == f"no counterexample in {max(trials, k)} trials"
            else:
                assert row["trials"] == row["counterexample"]["found_at_trial"] <= max(trials, k)
    if constructions != "default" and trials == 50:
        # Constructions hit nothing, so the random search refutes the
        # non-subadditive kinds, at trial numbers past their constructions.
        refuted = [row for row in rows if not row["holds"]]
        assert {row["measure"] for row in refuted} == {
            kind for kind, (sub, _) in EXPECTED_CLASSIFICATION.items() if not sub
        }
        for row in refuted:
            assert row["counterexample"]["description"] == "random world search"
            assert row["trials"] > len(seeded(row["measure"]))


def test_two_circles_thresholds_share_each_world(monkeypatch):
    monkeypatch.setattr(axioms, "_seed_worlds", lambda kind: [])
    specs = (
        MeasureSpec("circles", {"t": 0.3}),
        MeasureSpec("circles", {"t": 0.6}),
        MeasureSpec("diversity"),
    )
    for seed in (0, 1, 2):
        rows = _table_subadditivity(50, seed, specs)
        assert [row["measure"] for row in rows] == ["circles:t=0.3", "circles:t=0.6", "diversity"]
        assert rows[0]["holds"] and rows[1]["holds"]
        for spec, row in zip(specs, rows):
            assert row == check_subadditivity(spec, 50, seed).to_dict(), (spec.key(), seed)


def test_table_draws_each_random_world_once(monkeypatch):
    sizes = []
    build = axioms._build_worlds

    def counted(draws, *args):
        sizes.extend(size for size, _ in draws)
        return build(draws, *args)

    monkeypatch.setattr(axioms, "_build_worlds", counted)
    block = axioms._BLOCK
    for trials in (1, 50, block + 1):
        sizes.clear()
        quadrant_table(trials=trials, seed=0)
        # richness has no constructions and holds, so it alone sees all
        # ``trials`` worlds; coverage and circles share them. No block draws
        # past what the open specs still need.
        assert len(sizes) == trials
    # With one construction each, every spec stops after trials - 1 worlds.
    one_each = _harmless_constructions("circles")
    monkeypatch.setattr(axioms, "_seed_worlds", lambda kind: one_each)
    for trials in (1, 2, 50, block + 2):
        sizes.clear()
        quadrant_table(trials=trials, seed=0)
        assert len(sizes) == trials - 1


def _reference_world(u, size, dup_prob=0.15):
    """The matrix, keys and fragments of a world read point by point from its
    ``14 * size`` uniforms, as ``random_world`` describes."""
    flags, sources = u[:size].tolist(), u[size : 2 * size].tolist()
    root = list(range(size))
    for i in range(1, size):
        if flags[i] < dup_prob:
            root[i] = root[int(sources[i] * i)]
    pts = u[2 * size : 5 * size].reshape(size, 3)[root]
    order = np.argsort(u[6 * size :].reshape(size, 8), axis=1).tolist()
    fragments = [
        frozenset(f"f{k}" for k in row[: int(3 * x) + 1])
        for row, x in zip(order, u[5 * size : 6 * size].tolist())
    ]
    diff = pts[:, None, :] - pts[None, :, :]
    matrix = np.sqrt((diff**2).sum(axis=2)) / np.sqrt(3.0)
    return matrix, [f"p{r}" for r in root], [fragments[r] for r in root]


def _one_world_at_a_time(seed, count):
    """The first ``count`` worlds of a seed's search stream and their splits,
    drawn one world at a time and built by ``_reference_world``."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        size = int(rng.integers(2, 13))
        world = _reference_world(rng.random(14 * size), size)
        roles = (4 * rng.random(size)).astype(np.int64).tolist()
        s1 = [i for i, role in enumerate(roles) if role & 1]
        s2 = [i for i, role in enumerate(roles) if role & 2]
        out.append((world, s1, s2))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_block_draws_equal_one_world_at_a_time(seed, monkeypatch):
    splits = []
    draw = axioms._random_splits

    def recorded(rng, count):
        for split in draw(rng, count):
            splits.append(split)
            yield split

    monkeypatch.setattr(axioms, "_random_splits", recorded)
    reference = _one_world_at_a_time(seed, 3000)
    block = axioms._BLOCK
    for count in (1, block - 1, block, block + 1, 3000):
        splits.clear()
        # richness has no constructions and holds: the search draws ``count``
        # worlds, in blocks, from the seed's stream.
        assert check_subadditivity(MeasureSpec("richness"), count, seed).holds
        assert len(splits) == count
        for (world, s1, s2), ((matrix, keys, fragments), r1, r2) in zip(splits, reference):
            assert world.matrix.tobytes() == matrix.tobytes()
            assert world.keys == keys and world.fragments == fragments
            assert world.key_codes.tolist() == [int(key[1:]) for key in keys]
            assert (s1, s2) == (r1, r2)
    # random_world, the one-world case of the same builder, reads the same.
    rng, again = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in (0, 1, 12, 30):
        world = random_world(rng, size, dup_prob=0.4)
        matrix, keys, fragments = _reference_world(again.random(14 * size), size, dup_prob=0.4)
        assert world.matrix.tobytes() == matrix.tobytes()
        assert world.keys == keys and world.fragments == fragments


@pytest.mark.parametrize(
    "spec, message",
    [
        (MeasureSpec("circles"), "circles requires parameter t"),
        (MeasureSpec("nosuch"), "unknown measure kind: 'nosuch'"),
        (MeasureSpec("circles", {"t": 1.5}), "circles threshold t must be in [0,1), got 1.5"),
        (MeasureSpec("diversity", {"foo": 1}), "diversity has no parameter 'foo'; it takes none"),
    ],
    ids=["circles-without-t", "unknown-kind", "circles-t-out-of-range", "unknown-parameter"],
)
def test_axiom_harness_refuses_specs_the_measure_table_refuses(spec, message):
    with pytest.raises(MeasureParamError) as refused:
        validate_spec(spec)
    assert str(refused.value) == message
    world = random_world(np.random.default_rng(0), 4)
    checks = (
        lambda: check_subadditivity(spec, trials=5),
        lambda: check_dissimilarity(spec),
        lambda: quadrant_table(trials=5, specs=(MeasureSpec("richness"), spec)),
        lambda: world_measure(spec, [0, 1], world),
    )
    for check in checks:
        with pytest.raises(MeasureParamError) as raised:
            check()
        assert str(raised.value) == message


def test_circles_dissimilarity_refuses_a_grid_threshold_out_of_range():
    spec = MeasureSpec("circles", {"t": 0.5})
    with pytest.raises(MeasureParamError, match=r"circles threshold t must be in \[0,1\), got 1.5"):
        check_dissimilarity(spec, t_grid=[0.2, 1.5])
    assert check_dissimilarity(spec, t_grid=[0.0, 0.2]).holds


def test_world_zeroes_a_nonzero_diagonal():
    world = random_world(np.random.default_rng(4), 7, dup_prob=0.3)
    payload = world.to_payload()
    for i, row in enumerate(payload["matrix"]):
        row[i] = 0.4 + 0.05 * i
    dirty = World.from_payload(payload)
    assert (np.diag(dirty.matrix) == 0.0).all()
    assert dirty.matrix.tobytes() == world.matrix.tobytes()
    for mask in range(1, 1 << world.n):
        subset = [i for i in range(world.n) if mask >> i & 1]
        for spec in DEFAULT_TABLE_SPECS:
            assert world_measure(spec, subset, dirty) == world_measure(spec, subset, world), (
                spec.key(), subset,
            )


def test_random_world_reads_one_uniform_draw_per_world():
    class Recording:
        """A generator that logs each call before passing it on."""

        def __init__(self, seed):
            self.rng, self.calls = np.random.default_rng(seed), []

        def __getattr__(self, name):
            def call(*args, **kwargs):
                self.calls.append(name)
                return getattr(self.rng, name)(*args, **kwargs)

            return call

    rng = Recording(3)
    for size in (1, 2, 7, 12):
        rng.calls.clear()
        assert random_world(rng, size).n == size
        assert rng.calls == ["random"]
    rng.calls.clear()
    next(axioms._random_splits(rng, 1))
    assert rng.calls == ["integers", "random", "random"]


ONE_DEFINITION_SPECS = (
    *DEFAULT_TABLE_SPECS,
    MeasureSpec("circles", {"t": 0.3}),
    MeasureSpec("circles", {"t": 0.6}),
)


def test_search_values_equal_world_measure():
    # The search reads every open spec from one selection per side of the
    # split; each value must be the one world_measure gives on that side.
    rng = np.random.default_rng(13)
    empty_sides = 0
    for _ in range(500):
        world, s1, s2 = next(axioms._random_splits(rng, 1))
        union = sorted(set(s1) | set(s2))
        sides = axioms._pair_selections(world, s1, s2)
        empty_sides += sum(sel is None for sel in sides)
        for spec in ONE_DEFINITION_SPECS:
            expected = [world_measure(spec, side, world) for side in (s1, s2, union)]
            assert axioms._pair_values(spec, sides) == expected, (spec.key(), s1, s2)
    assert empty_sides > 0
    world = random_world(np.random.default_rng(2), 4)
    for spec in ONE_DEFINITION_SPECS:
        assert axioms._pair_values(spec, axioms._pair_selections(world, [], [])) == [0.0] * 3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_search_counterexamples_replay(seed, monkeypatch):
    monkeypatch.setattr(axioms, "_seed_worlds", lambda kind: [])
    results = axioms._search_subadditivity(ONE_DEFINITION_SPECS, 100, seed, axioms.TOLERANCE)
    refuted = [r for r in results if not r.holds]
    assert {r.measure for r in refuted} == {
        kind for kind, (sub, _) in EXPECTED_CLASSIFICATION.items() if not sub
    }
    for result in refuted:
        assert result.counterexample.description == "random world search"
        assert replay_counterexample(result.counterexample), result.measure


# sha256 of ``json.dumps`` (sorted keys) of the dissimilarity results below,
# recorded while each candidate world was still built afresh.
DISSIMILARITY_DIGEST = "142f02c17770460dd9e28005138ddf2f2a11fa897f2023b948fa4345c4afad24"


def test_dissimilarity_results_unchanged_by_shared_geodesic_worlds(monkeypatch):
    built = []
    build = GeodesicConfig.world

    def counted(config, *args, **kwargs):
        built.append((config.a, config.delta))
        return build(config, *args, **kwargs)

    monkeypatch.setattr(GeodesicConfig, "world", counted)
    circles = MeasureSpec("circles", {"t": 0.5})
    results = [check_dissimilarity(spec).to_dict() for spec in DEFAULT_TABLE_SPECS]
    results.append(check_dissimilarity(circles, t_grid=[0.05, 0.3, 0.55, 0.8]).to_dict())
    results.append(
        check_dissimilarity(
            circles, a_grid=[0.2, 0.5, 0.8], delta_fracs=[0.1, 0.25, 0.5, 0.75], t_grid=[0.2, 0.45]
        ).to_dict()
    )
    blob = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == DISSIMILARITY_DIGEST
    # Each call builds every distinct (a, delta) world once, whatever the
    # number of thresholds: the default circles grid has 190 of them.
    built.clear()
    assert check_dissimilarity(circles).trials == 1900
    assert len(built) == len(set(built)) == 190
