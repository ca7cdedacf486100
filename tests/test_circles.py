from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemspace import circles
from chemspace.circles import (
    DEFAULT_RESTARTS,
    EXACT,
    ConflictMasks,
    PackingPolicy,
    _best_of_k,
    _clique_cover_bound,
    circles_exact,
    greedy_pack_positions,
    max_independent_set,
    oracle_conflicts,
    packing_policy,
    threshold_adjacency,
)
from chemspace.distances import MatrixOracle, TanimotoOracle
from chemspace.errors import MeasureParamError, MeasureSizeError
from chemspace.fingerprints import Dataset, Fingerprint, MoleculeRecord
from chemspace.measures import MEASURES, MeasureSpec, Selection, evaluate_measure


def pack(subset, oracle, t, mode="greedy", restarts=DEFAULT_RESTARTS, seed=0):
    """The packing of the points ``subset``, read one oracle row at a time,
    by the policy of a circles mode on their number; centers are positions."""
    idx = list(subset)
    return packing_policy(mode, restarts, seed, len(idx)).pack(oracle_conflicts(oracle, idx, t))


def pack_matrix(dmatrix, t, restarts=DEFAULT_RESTARTS, seed=0):
    """Best-of-k packing count of a distance matrix, every mask at hand."""
    policy = packing_policy("greedy", restarts, seed)
    return policy.pack(ConflictMasks.at_hand(threshold_adjacency(dmatrix, t))).count


def random_metric_oracle(rng, n):
    pts = rng.random((n, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    m = np.sqrt((diff**2).sum(axis=2)) / np.sqrt(3.0)
    return MatrixOracle(m)


def exhaustive_packing(dmatrix, t):
    """Max packing size by checking every subset (test oracle, n <= 15)."""
    n = dmatrix.shape[0]
    adj = threshold_adjacency(dmatrix, t)
    valid = np.zeros(1 << n, dtype=bool)
    valid[0] = True
    best = 0
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        valid[mask] = valid[rest] and (adj[low] & rest) == 0
        if valid[mask]:
            best = max(best, mask.bit_count())
    return best


def fingerprint_dataset(rng, n, width=24, dup_prob=0.25):
    rows = []
    for i in range(n):
        if rows and rng.random() < dup_prob:
            rows.append(rows[rng.integers(0, len(rows))])
        else:
            rows.append((rng.random(width) < 0.4).astype(np.uint8))
    return Dataset([MoleculeRecord(f"m{i}", Fingerprint.from_bits(r)) for i, r in enumerate(rows)])


def test_exact_t_zero_equals_richness():
    rng = np.random.default_rng(0)
    for trial in range(20):
        ds = fingerprint_dataset(rng, int(rng.integers(1, 20)))
        oracle = TanimotoOracle(ds)
        idx = range(len(ds))
        richness = evaluate_measure(MeasureSpec("richness"), idx, dataset=ds).value
        assert circles_exact(idx, oracle, t=0.0).count == richness


def test_exact_all_pairs_beyond_threshold():
    m = np.full((3, 3), 0.8)
    np.fill_diagonal(m, 0.0)
    oracle = MatrixOracle(m)
    result = circles_exact([0, 1, 2], oracle, t=0.75)
    assert result.count == 3
    assert result.optimal


def test_exact_matches_exhaustive_search():
    rng = np.random.default_rng(1)
    for trial in range(60):
        n = int(rng.integers(2, 13))
        oracle = random_metric_oracle(rng, n)
        t = float(rng.choice([0.25, 0.5, 0.75]))
        expected = exhaustive_packing(oracle.submatrix(range(n)), t)
        assert circles_exact(range(n), oracle, t).count == expected


def test_exact_centers_witness_packing():
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = int(rng.integers(2, 13))
        oracle = random_metric_oracle(rng, n)
        result = circles_exact(range(n), oracle, t=0.4)
        centers = result.centers
        assert result.count == len(centers)
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                assert oracle.row(centers[i])[centers[j]] > 0.4


def test_exact_cap_refusal():
    rng = np.random.default_rng(3)
    oracle = random_metric_oracle(rng, 70)
    with pytest.raises(MeasureSizeError, match="greedy"):
        circles_exact(range(70), oracle, t=0.5)


def test_greedy_never_exceeds_exact_and_is_maximal():
    rng = np.random.default_rng(4)
    for trial in range(40):
        n = int(rng.integers(2, 13))
        oracle = random_metric_oracle(rng, n)
        t = 0.5
        exact = circles_exact(range(n), oracle, t).count
        greedy = pack(range(n), oracle, t, restarts=4, seed=trial)
        assert greedy.count <= exact
        assert not greedy.optimal
        # Centers witness the packing: pairwise strictly beyond t.
        for a in range(len(greedy.centers)):
            for b in range(a + 1, len(greedy.centers)):
                assert oracle.row(greedy.centers[a])[greedy.centers[b]] > t
        # Maximality: no remaining point can join the packing.
        for p in range(n):
            if p in greedy.centers:
                continue
            dmin = min(oracle.row(p)[c] for c in greedy.centers)
            assert dmin <= t


def test_greedy_t_zero_equals_richness():
    rng = np.random.default_rng(5)
    for trial in range(20):
        ds = fingerprint_dataset(rng, int(rng.integers(1, 100)))
        oracle = TanimotoOracle(ds)
        idx = range(len(ds))
        richness = evaluate_measure(MeasureSpec("richness"), idx, dataset=ds).value
        assert pack(idx, oracle, t=0.0, restarts=2, seed=trial).count == richness


def test_greedy_deterministic_given_seed():
    rng = np.random.default_rng(6)
    oracle = random_metric_oracle(rng, 30)
    a = pack(range(30), oracle, t=0.45, restarts=8, seed=123)
    b = pack(range(30), oracle, t=0.45, restarts=8, seed=123)
    assert a == b


def test_greedy_pack_count_matches_oracle_variant():
    rng = np.random.default_rng(7)
    oracle = random_metric_oracle(rng, 25)
    d = oracle.submatrix(range(25))
    assert pack_matrix(d, 0.4, restarts=8, seed=9) == pack(
        range(25), oracle, t=0.4, restarts=8, seed=9
    ).count


def test_auto_dispatch_modes():
    rng = np.random.default_rng(8)
    oracle_small = random_metric_oracle(rng, 10)
    assert pack(range(10), oracle_small, t=0.5, mode="auto").mode == "exact"
    oracle_cap = random_metric_oracle(rng, 64)
    assert pack(range(64), oracle_cap, t=0.9, mode="auto").mode == "exact"
    oracle_big = random_metric_oracle(rng, 65)
    assert pack(range(65), oracle_big, t=0.5, mode="auto").mode == "greedy"


def test_exact_cap_env_override(monkeypatch):
    rng = np.random.default_rng(9)
    oracle = random_metric_oracle(rng, 70)
    monkeypatch.setenv("CHEMSPACE_EXACT_CAP", "80")
    assert pack(range(70), oracle, t=0.5, mode="auto").mode == "exact"


def test_count_non_increasing_in_t():
    rng = np.random.default_rng(10)
    for trial in range(10):
        n = int(rng.integers(3, 12))
        oracle = random_metric_oracle(rng, n)
        counts = [circles_exact(range(n), oracle, t).count for t in np.linspace(0.0, 0.9, 10)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_strict_inequality_at_threshold():
    # A pair exactly at distance t conflicts (d > t required to coexist).
    m = np.array([[0.0, 0.5], [0.5, 0.0]])
    oracle = MatrixOracle(m)
    assert circles_exact([0, 1], oracle, t=0.5).count == 1
    assert circles_exact([0, 1], oracle, t=0.49).count == 2


def test_incremental_packing_matches_single_pass_greedy():
    # The circles growth curve: a count per prefix, each a single greedy pass
    # over that prefix in point order.
    rng = np.random.default_rng(11)
    for trial in range(15):
        n = int(rng.integers(1, 40))
        oracle = random_metric_oracle(rng, n)
        d = oracle.submatrix(range(n))
        t = float(rng.choice([0.2, 0.4, 0.6]))
        spec = MeasureSpec("circles", {"t": t})
        curve = MEASURES["circles"].prefix(Selection(np.arange(n), lambda: d), spec)
        for i in range(n):
            count = curve[i]
            expected = pack(range(i + 1), oracle, t, restarts=1).count
            assert count == expected


def test_empty_set():
    rng = np.random.default_rng(12)
    oracle = random_metric_oracle(rng, 5)
    assert circles_exact([], oracle, t=0.5).count == 0
    assert pack([], oracle, t=0.5).count == 0


def test_mis_small_graphs():
    # Path graph 0-1-2: independence number 2.
    assert max_independent_set([0b010, 0b101, 0b010])[0] == 2
    # Triangle: 1.
    assert max_independent_set([0b110, 0b101, 0b011])[0] == 1
    # Empty graph on 4 vertices: 4.
    assert max_independent_set([0, 0, 0, 0])[0] == 4


def bit_loop_adjacency(dmatrix, t):
    """Conflict masks built one bit at a time (reference construction)."""
    close = dmatrix <= t
    np.fill_diagonal(close, False)
    masks = []
    for i in range(dmatrix.shape[0]):
        mask = 0
        for j in np.nonzero(close[i])[0]:
            mask |= 1 << int(j)
        masks.append(mask)
    return masks


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65])
def test_threshold_adjacency_matches_bit_loop(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        m = rng.random((n, n))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        for t in (0.0, 0.3, 0.5, 1.0):
            assert threshold_adjacency(m, t) == bit_loop_adjacency(m, t)


def running_min_pass(dmatrix, t, order):
    """Sphere exclusion kept as a float running minimum of each point's
    distance to the centers so far (reference construction)."""
    min_dist = np.full(dmatrix.shape[0], np.inf)
    centers = []
    for pos in order:
        pos = int(pos)
        if min_dist[pos] > t:
            centers.append(pos)
            np.minimum(min_dist, dmatrix[pos], out=min_dist)
    return centers


def recorded_passes(monkeypatch):
    """Wrap ``circles.greedy_pack_positions``; each call appends its order,
    read the way the benchmark's tracer reads it, and its centers."""
    import chemspace.circles as circles

    passes = []
    original = circles.greedy_pack_positions

    def recorder(*args, **kwargs):
        centers = original(*args, **kwargs)
        order = args[3] if len(args) > 3 else kwargs["order"]
        passes.append((list(order), centers))
        return centers

    monkeypatch.setattr(circles, "greedy_pack_positions", recorder)
    return passes


@given(
    n=st.sampled_from([0, 1, 2, 5, 63, 64, 65]) | st.integers(0, 80),
    t=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
    restarts=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
@example(n=0, t=0.5, restarts=2, seed=0)
@example(n=1, t=0.5, restarts=2, seed=1)
@example(n=63, t=0.5, restarts=3, seed=2)
@example(n=64, t=0.75, restarts=3, seed=3)
@example(n=65, t=0.25, restarts=3, seed=4)
def test_bitmask_pass_matches_running_minimum(n, t, restarts, seed):
    # Distances on a quarter grid, so many lie exactly at t.
    rng = np.random.default_rng(seed)
    big = rng.integers(0, 5, size=(n + 3, n + 3)) / 4.0
    big = np.minimum(big, big.T)
    np.fill_diagonal(big, 0.0)
    subset = rng.permutation(n + 3)[:n]
    d = big[np.ix_(subset, subset)]
    oracle = MatrixOracle(big, validate=False)
    with pytest.MonkeyPatch.context() as mp:
        passes = recorded_passes(mp)
        count = pack_matrix(d, t, restarts=restarts, seed=seed)
        matrix_passes = list(passes)
        passes.clear()
        result = pack(subset, oracle, t, restarts=restarts, seed=seed)
        oracle_passes = list(passes)
    # The oracle path runs every pass. The matrix path runs the same passes
    # up to the first that reaches the clique-cover bound, all of them while
    # its best count stays below it.
    bound = _clique_cover_bound((1 << n) - 1, threshold_adjacency(d, t))
    expected = restarts
    if restarts > 1:
        reached = (i + 1 for i, (_, c) in enumerate(matrix_passes) if len(c) >= bound)
        expected = next(reached, restarts)
    assert len(matrix_passes) == (expected if n else 0)
    assert len(oracle_passes) == (restarts if n else 0)
    assert matrix_passes == oracle_passes[: len(matrix_passes)]
    for order, centers in oracle_passes:
        assert sorted(order) == list(range(n))
        assert centers == running_min_pass(d, t, order)
        assert len(centers) <= bound
    best = max((c for _, c in matrix_passes), key=len, default=[])
    assert best == max((c for _, c in oracle_passes), key=len, default=[])
    assert count == len(best)
    assert result.centers == tuple(best)


def quarter_grid(rng, n, clusters):
    """A symmetric matrix on the quarter grid with a zero diagonal. With
    clusters, points in one cluster are at most 0.25 apart and points in
    different ones at least 0.75, so at t = 0.5 the conflict graph is a union
    of cliques and the first greedy pass is optimal."""
    d = rng.integers(0, 5, size=(n, n)) / 4.0
    if clusters:
        label = rng.integers(0, clusters, size=n)
        same = label[:, None] == label[None, :]
        d = np.where(same, d % 0.5, 0.75 + d % 0.5)
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return d


@given(
    n=st.integers(0, 80),
    clusters=st.sampled_from([0, 1, 3, 10]),
    t=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
    restarts=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=80, deadline=None)
@example(n=40, clusters=5, t=0.5, restarts=8, seed=0)
@example(n=40, clusters=0, t=0.5, restarts=8, seed=1)
def test_stopping_at_the_bound_keeps_the_best_of_k(n, clusters, t, restarts, seed):
    d = quarter_grid(np.random.default_rng(seed), n, clusters)
    adj = threshold_adjacency(d, t)
    bound = _clique_cover_bound((1 << n) - 1, adj)
    stopped = _best_of_k(ConflictMasks.at_hand(adj), restarts, seed)
    # Masks read one at a time are not all at hand: no bound, every pass.
    assert stopped == _best_of_k(ConflictMasks(n, adj.__getitem__), restarts, seed)
    assert pack_matrix(d, t, restarts=restarts, seed=seed) == len(stopped) <= bound


@given(n=st.integers(1, 60), restarts=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_passes_stop_at_the_first_that_reaches_the_bound(n, restarts, seed):
    # Any number serves as the stopping bound here: the passes run up to the
    # first whose best count so far reaches it, and the best of those is kept.
    import chemspace.circles as circles

    d = quarter_grid(np.random.default_rng(seed), n, clusters=0)
    adj = threshold_adjacency(d, 0.5)
    with pytest.MonkeyPatch.context() as mp:
        passes = recorded_passes(mp)
        _best_of_k(ConflictMasks(n, adj.__getitem__), restarts, seed)
        every = [centers for _, centers in passes]
        for bound in range(max(map(len, every)) + 2):
            passes.clear()
            mp.setattr(circles, "_clique_cover_bound", lambda avail, masks, bound=bound: bound)
            got = _best_of_k(ConflictMasks.at_hand(adj), restarts, seed)
            ran = [centers for _, centers in passes]
            reached = (i + 1 for i in range(restarts) if max(map(len, every[: i + 1])) >= bound)
            assert ran == every[: next(reached, restarts)]
            assert got == max(ran, key=len)


def test_clustered_matrix_packs_once(monkeypatch):
    d = quarter_grid(np.random.default_rng(5), 60, clusters=6)
    passes = recorded_passes(monkeypatch)
    count = pack_matrix(d, 0.5, restarts=8, seed=3)
    assert len(passes) == 1
    assert count == _clique_cover_bound((1 << 60) - 1, threshold_adjacency(d, 0.5))


def test_unmet_bound_runs_every_pass(monkeypatch):
    # A 5-cycle of conflicts: every maximal independent set has 2 points,
    # and the greedy clique cover takes 3 cliques, so no pass reaches it.
    d = np.ones((5, 5))
    for i in range(5):
        d[i, (i + 1) % 5] = d[(i + 1) % 5, i] = 0.25
    np.fill_diagonal(d, 0.0)
    adj = threshold_adjacency(d, 0.5)
    assert _clique_cover_bound((1 << 5) - 1, adj) == 3
    passes = recorded_passes(monkeypatch)
    assert pack_matrix(d, 0.5, restarts=7, seed=1) == 2
    assert len(passes) == 7


def test_every_pass_goes_through_the_module_function(monkeypatch):
    rng = np.random.default_rng(13)
    oracle = random_metric_oracle(rng, 30)
    passes = recorded_passes(monkeypatch)
    pack_matrix(oracle.submatrix(range(30)), 0.4, restarts=5, seed=2)
    assert len(passes) == 5
    pack(range(30), oracle, 0.4, restarts=3, seed=2)
    assert len(passes) == 8
    assert all(len(order) == 30 for order, _ in passes)
    assert passes[0][0] == list(range(30)) == passes[5][0]


def brute_force_mis(adj, avail):
    """Largest independent subset of ``avail``, by trying every submask."""
    best = 0
    sub = avail
    while True:
        members = [v for v in range(len(adj)) if sub >> v & 1]
        if all(adj[v] & sub == 0 for v in members):
            best = max(best, len(members))
        if sub == 0:
            return best
        sub = (sub - 1) & avail


def induced_adjacency(adj, avail):
    """The conflict masks of the subgraph ``avail`` induces, re-indexed 0..k-1."""
    keep = [v for v in range(len(adj)) if avail >> v & 1]
    return [sum(1 << b for b, u in enumerate(keep) if adj[v] >> u & 1) for v in keep]


@pytest.mark.parametrize("n", range(10))
def test_masked_mis_matches_brute_force_and_reindexed_graph(n):
    rng = np.random.default_rng(300 + n)
    for density in (0.2, 0.5, 0.8):
        m = rng.random((n, n))
        adj = threshold_adjacency(np.minimum(m, m.T), density)
        assert max_independent_set(adj, (1 << n) - 1) == max_independent_set(adj)
        for avail in range(1 << n):
            size, mask = max_independent_set(adj, avail)
            assert mask & ~avail == 0
            assert mask.bit_count() == size
            assert all(adj[v] & mask == 0 for v in range(n) if mask >> v & 1)
            assert size == brute_force_mis(adj, avail)
            assert size == max_independent_set(induced_adjacency(adj, avail))[0]


def graphs(max_n=14):
    """A conflict graph on at most ``max_n`` points, as (n, edges, avail):
    one flag per point pair, in ``combinations`` order, and the points to
    solve on as a bitmask."""
    return st.integers(0, max_n).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
        st.integers(0, (1 << n) - 1),
    ))


def conflict_graph(n, edges):
    """The conflict masks of n points with one edge flag per point pair."""
    adj = [0] * n
    for (i, j), edge in zip(combinations(range(n), 2), edges):
        if edge:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


STAR = (4, [True, True, True, False, False, False], 0b1111)  # greedy takes the center
FIVE_CYCLE = (5, [True, False, False, True, True, False, False, True, False, True], 0b11111)


@settings(max_examples=300, deadline=None)
@given(graphs())
@example(STAR)
@example(FIVE_CYCLE)
def test_greedy_seeded_solver_is_exact_and_searches_only_below_the_bound(case):
    n, edges, avail = case
    adj = conflict_graph(n, edges)
    searches = []
    search = circles._branch_and_bound
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circles, "_branch_and_bound", lambda *args: searches.append(args) or search(*args))
        size, mask = max_independent_set(adj, avail)
    assert size == brute_force_mis(adj, avail)
    assert mask & ~avail == 0 and mask.bit_count() == size
    assert all(adj[v] & mask == 0 for v in range(n) if mask >> v & 1)
    # The seed is one sphere-exclusion pass over avail in index order; branch
    # and bound runs, once and from that packing, only when it is below the
    # clique-cover bound, and otherwise the packing is the answer.
    greedy = greedy_pack_positions(adj.__getitem__, order=[v for v in range(n) if avail >> v & 1])
    seed = (len(greedy), sum(1 << v for v in greedy))
    if len(greedy) < _clique_cover_bound(avail, adj):
        assert searches == [(adj, avail, *seed)]
    else:
        assert searches == [] and (size, mask) == seed


def test_greedy_seed_examples_take_both_paths():
    # The star's greedy pass takes its center (1 < bound 3); the five-cycle's
    # greedy pass is optimal (2) but its clique cover is not (3).
    for (n, edges, avail), (greedy, bound, best) in ((STAR, (1, 3, 3)), (FIVE_CYCLE, (2, 3, 2))):
        adj = conflict_graph(n, edges)
        order = [v for v in range(n) if avail >> v & 1]
        assert len(greedy_pack_positions(adj.__getitem__, order=order)) == greedy
        assert _clique_cover_bound(avail, adj) == bound
        assert max_independent_set(adj, avail)[0] == best


def test_packing_policy_kinds(monkeypatch):
    monkeypatch.delenv("CHEMSPACE_EXACT_CAP", raising=False)
    assert packing_policy("greedy", restarts=1, seed=5) == PackingPolicy("arrival", 1, 5)
    assert not packing_policy("greedy", restarts=1).seeded and not EXACT.seeded
    assert packing_policy("greedy", seed=3) == PackingPolicy("best_of_k", DEFAULT_RESTARTS, 3)
    assert packing_policy("greedy").seeded
    assert packing_policy("auto", size=64) == packing_policy("exact", size=64) == EXACT
    assert packing_policy("auto", size=65).kind == "best_of_k"
    with pytest.raises(MeasureSizeError, match="exact packing refused for n=65 > cap 64"):
        packing_policy("exact", size=65)
    with pytest.raises(MeasureParamError, match="circles seed must be a non-negative integer"):
        packing_policy("exact", seed=-1, size=3)
    with pytest.raises(ValueError, match="unknown packing policy kind"):
        PackingPolicy("greedy")


@pytest.mark.parametrize("restarts", [0, -3])
def test_greedy_refuses_fewer_than_one_restart(restarts):
    d = np.array([[0.0, 0.9, 0.2], [0.9, 0.0, 0.8], [0.2, 0.8, 0.0]])
    message = f"circles restarts must be a positive integer, got {restarts}"
    with pytest.raises(MeasureParamError, match=message):
        pack_matrix(d, 0.5, restarts=restarts)
    with pytest.raises(MeasureParamError, match=message):
        pack(range(3), MatrixOracle(d), 0.5, restarts=restarts)
    # An empty set is no exception to the check.
    with pytest.raises(MeasureParamError, match=message):
        pack_matrix(np.zeros((0, 0)), 0.5, restarts=restarts)
    with pytest.raises(MeasureParamError, match=message):
        pack([], MatrixOracle(d), 0.5, restarts=restarts)
    with pytest.raises(MeasureParamError, match=message):
        PackingPolicy("best_of_k", restarts)
    assert pack_matrix(d, 0.5, restarts=1) == 2
