import numpy as np
import pytest

from chemspace.circles import oracle_conflicts, packing_policy
from chemspace.distances import TanimotoOracle
from chemspace.errors import DimensionMismatchError
from chemspace.fingerprints import Dataset, Fingerprint, MoleculeRecord, tanimoto_distance
from chemspace.novelty import (
    NoveltyContext,
    novelty_circles,
    novelty_diversity,
    novelty_sum_bottleneck,
)


def random_dataset(rng, n, width=32):
    rows = (rng.random((n, width)) < 0.4).astype(np.uint8)
    return Dataset([MoleculeRecord(f"m{i}", Fingerprint.from_bits(r)) for i, r in enumerate(rows)])


def member_fp(ds, i):
    return Fingerprint(ds.width, ds.words[i])


def test_duplicate_member_scores_zero():
    ds = random_dataset(np.random.default_rng(0), 1)
    ctx = NoveltyContext.from_dataset(ds)
    assert novelty_diversity(member_fp(ds, 0), ctx) == 0.0
    assert novelty_sum_bottleneck(member_fp(ds, 0), ctx) == 0.0


def test_mean_and_min_of_known_distances():
    from chemspace.distances import MatrixOracle

    m = np.array(
        [
            [0.0, 0.2, 0.4, 0.6],
            [0.2, 0.0, 0.4, 0.6],
            [0.4, 0.4, 0.0, 0.6],
            [0.6, 0.6, 0.6, 0.0],
        ]
    )
    ctx = NoveltyContext(members=[1, 2, 3], oracle=MatrixOracle(m), t=0.5)
    assert novelty_diversity(0, ctx) == pytest.approx((0.2 + 0.4 + 0.6) / 3)
    assert novelty_sum_bottleneck(0, ctx) == pytest.approx(0.2)
    assert novelty_circles(0, ctx) == 0


def test_matches_brute_force_over_random_candidates():
    rng = np.random.default_rng(1)
    ds = random_dataset(rng, 20)
    ctx = NoveltyContext.from_dataset(ds, t=0.5)
    for _ in range(20):
        cand = Fingerprint.from_bits((rng.random(32) < 0.4).astype(np.uint8))
        dists = [tanimoto_distance(cand, member_fp(ds, i)) for i in range(len(ds))]
        assert novelty_diversity(cand, ctx) == pytest.approx(np.mean(dists), abs=1e-12)
        assert novelty_sum_bottleneck(cand, ctx) == pytest.approx(min(dists), abs=1e-12)
        assert novelty_circles(cand, ctx) == int(min(dists) > 0.5)


def test_circles_indicator_trivial_cases():
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, 5)
    ctx0 = NoveltyContext.from_dataset(ds, t=0.0)
    fresh = Fingerprint.from_bits(np.ones(32, dtype=np.uint8))
    if all(tanimoto_distance(fresh, member_fp(ds, i)) > 0 for i in range(len(ds))):
        assert novelty_circles(fresh, ctx0) == 1
    member = member_fp(ds, 2)
    assert novelty_circles(member, ctx0) == 0


def test_empty_members():
    ds = random_dataset(np.random.default_rng(3), 4)
    ctx = NoveltyContext(members=[], dataset=ds, t=0.4)
    cand = member_fp(ds, 0)
    assert novelty_circles(cand, ctx) == 1
    with pytest.raises(ValueError):
        novelty_diversity(cand, ctx)


def test_admitted_candidate_preserves_packing_invariant():
    rng = np.random.default_rng(4)
    ds = random_dataset(rng, 30)
    oracle = TanimotoOracle(ds)
    t = 0.45
    packing = packing_policy("greedy", restarts=4, seed=0).pack(oracle_conflicts(oracle, range(30), t))
    ctx = NoveltyContext(members=np.asarray(packing.centers), dataset=ds, oracle=oracle, t=t)
    admitted = 0
    for _ in range(50):
        cand = Fingerprint.from_bits((rng.random(32) < 0.4).astype(np.uint8))
        if novelty_circles(cand, ctx) == 1:
            admitted += 1
            for c in packing.centers:
                assert tanimoto_distance(cand, member_fp(ds, c)) > t
    # With t=0.45 on sparse random fingerprints some candidates are admitted.
    assert admitted > 0


def test_against_centers_reduces_members():
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, 40)
    full_ctx = NoveltyContext.from_dataset(ds, t=0.4)
    centers_ctx = NoveltyContext.from_dataset(ds, t=0.4, against_centers=True)
    assert len(centers_ctx.members) <= len(full_ctx.members)
    # Scoring against centers can only raise the nearest-neighbor distance.
    cand = Fingerprint.from_bits((rng.random(32) < 0.4).astype(np.uint8))
    assert novelty_sum_bottleneck(cand, centers_ctx) >= novelty_sum_bottleneck(cand, full_ctx)


def test_width_mismatch_rejected():
    ds = random_dataset(np.random.default_rng(6), 3)
    ctx = NoveltyContext.from_dataset(ds)
    with pytest.raises(DimensionMismatchError):
        novelty_diversity(Fingerprint.from_bits([1, 0, 1]), ctx)
