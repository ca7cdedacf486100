"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values come from independent oracles computed inside this module
(exhaustive subset search, brute-force path enumeration, closed forms) or
from hand-verified constants; they are never read back from the code under
test.
"""

import json
import math
import time

import numpy as np
import pytest

from chemspace.axioms import (
    EXPECTED_CLASSIFICATION,
    check_subadditivity,
    quadrant_table,
    replay_counterexample,
)
from chemspace.circles import circles_exact, oracle_conflicts, packing_policy, threshold_adjacency
from chemspace.cli import main as cli_main, strip_volatile
from chemspace.distances import MatrixOracle, TanimotoOracle
from chemspace.fingerprints import Dataset, Fingerprint, MoleculeRecord, write_dataset
from chemspace.measures import MeasureSpec, evaluate_measure
from chemspace.protocols import (
    DEFAULT_PROTOCOL_MEASURES,
    protocol_fixed,
    protocol_growing,
    threshold_sweep,
)
from chemspace.stats import dtw, spearman
from chemspace.synthetic import SyntheticConfig, generate_synthetic


def criterion(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def default_synthetic():
    return generate_synthetic(SyntheticConfig(), seed=2026)


def random_metric_matrix(rng, n):
    pts = rng.random((n, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff**2).sum(axis=2)) / np.sqrt(3.0)


def geodesic_oracle(a, delta):
    return MatrixOracle(
        np.array(
            [
                [0.0, a, delta],
                [a, 0.0, a - delta],
                [delta, a - delta, 0.0],
            ]
        )
    )


def test_criterion_1_quadrant_reproduction():
    start = time.perf_counter()
    table = quadrant_table(trials=1000, seed=2026)
    elapsed = time.perf_counter() - start
    got = {
        row["measure"].split(":")[0]: (row["subadditive"], row["dissimilar"])
        for row in table["reports"]
    }
    mismatches = [k for k, v in EXPECTED_CLASSIFICATION.items() if got.get(k) != v]
    ok = table["matches_expected"] and not mismatches and elapsed < 60.0
    criterion(
        1,
        "axiom classification reproduced for all 10 measures at 1000 trials",
        ok,
        f"elapsed {elapsed:.1f}s" + (f", mismatches {mismatches}" if mismatches else ""),
    )


def test_criterion_2_seeded_counterexamples():
    failures = []
    for kind in ("diversity", "bottleneck", "sum_bottleneck", "dpp"):
        result = check_subadditivity(MeasureSpec(kind), trials=100, seed=0)
        ce = result.counterexample
        ok = (
            not result.holds
            and ce is not None
            and result.trials < 100
            and ce.side == "lower"
            and len(ce.s2) == 1
            and ce.values["mu_union"] < ce.values["mu_s1"]
            and replay_counterexample(ce)
        )
        if not ok:
            failures.append(f"{kind}: no monotonicity violation")
    for kind in ("diameter", "sum_diameter", "sum_diversity"):
        result = check_subadditivity(MeasureSpec(kind), trials=100, seed=0)
        ce = result.counterexample
        ok = (
            not result.holds
            and ce is not None
            and result.trials < 100
            and ce.side == "upper"
            and replay_counterexample(ce)
        )
        if not ok:
            failures.append(f"{kind}: no upper-bound violation")
    criterion(
        2,
        "seeded constructions violate monotonicity / upper subadditivity and replay",
        not failures,
        "; ".join(failures) if failures else "7 measures, all found at trial 1",
    )


def test_criterion_3_packing_exact_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    instances = 500
    thresholds = (0.25, 0.5, 0.75)
    exact_mismatches = 0
    greedy_exceeds = 0
    greedy_equal = 0
    comparisons = 0
    for inst in range(instances):
        n = int(rng.integers(2, 13))
        matrix = random_metric_matrix(rng, n)
        oracle = MatrixOracle(matrix, validate=False)
        for t in thresholds:
            adj = threshold_adjacency(matrix, t)
            best = 0
            valid = np.zeros(1 << n, dtype=bool)
            valid[0] = True
            for mask in range(1, 1 << n):
                low = (mask & -mask).bit_length() - 1
                rest = mask & (mask - 1)
                valid[mask] = valid[rest] and (adj[low] & rest) == 0
                if valid[mask]:
                    best = max(best, mask.bit_count())
            exact = circles_exact(range(n), oracle, t).count
            greedy_policy = packing_policy("greedy", restarts=8, seed=inst)
            greedy = greedy_policy.pack(oracle_conflicts(oracle, range(n), t)).count
            comparisons += 1
            if exact != best:
                exact_mismatches += 1
            if greedy > exact:
                greedy_exceeds += 1
            if greedy == exact:
                greedy_equal += 1
    elapsed = time.perf_counter() - start
    equal_frac = greedy_equal / comparisons
    ok = (
        exact_mismatches == 0
        and greedy_exceeds == 0
        and equal_frac >= 0.60
        and elapsed < 120.0
    )
    criterion(
        3,
        "exact packing equals exhaustive search; greedy bounded and >=60% optimal",
        ok,
        f"{instances} instances x {len(thresholds)} thresholds, greedy optimal "
        f"{equal_frac:.1%}, elapsed {elapsed:.1f}s",
    )


def test_criterion_4_closed_form_anchors():
    worst = 0.0
    for b in np.linspace(0.0, 0.99, 50):
        oracle = MatrixOracle(np.array([[0.0, 1 - b], [1 - b, 0.0]]))
        value = evaluate_measure(MeasureSpec("dpp"), [0, 1], oracle=oracle).value
        worst = max(worst, abs(value - (1 - b * b)))
    count = 0
    for a in np.linspace(0.1, 1.0, 10):
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            oracle = geodesic_oracle(a, a * frac)
            value = evaluate_measure(MeasureSpec("diversity"), [0, 1, 2], oracle=oracle).value
            worst = max(worst, abs(value - 2 * a / 3))
            count += 1
    assert count == 50
    for a in np.linspace(0.1, 1.0, 10):
        oracle = geodesic_oracle(a, a / 2)
        value = evaluate_measure(MeasureSpec("sum_bottleneck"), [0, 1, 2], oracle=oracle).value
        worst = max(worst, abs(value - 1.5 * a))
    ok = worst <= 1e-9
    criterion(
        4,
        "closed-form anchors: pair determinant 1-b^2, segment mean 2a/3, midpoint sum 3a/2",
        ok,
        f"worst absolute error {worst:.2e}",
    )


def test_criterion_5_richness_identity():
    rng = np.random.default_rng(5)
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(1, 81))
        rows = []
        for i in range(n):
            if rows and rng.random() < 0.3:
                rows.append(rows[int(rng.integers(0, len(rows)))])
            else:
                rows.append((rng.random(32) < 0.4).astype(np.uint8))
        ds = Dataset(
            [MoleculeRecord(f"m{i}", Fingerprint.from_bits(r)) for i, r in enumerate(rows)]
        )
        oracle = TanimotoOracle(ds)
        policy = packing_policy("auto", seed=trial, size=n)
        packing = policy.pack(oracle_conflicts(oracle, range(n), t=0.0))
        if packing.count != evaluate_measure(MeasureSpec("richness"), range(n), dataset=ds).value:
            mismatches += 1
    criterion(
        5,
        "packing count at t=0 equals unique-fingerprint count on 200 duplicate-laden sets",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_6_dtw_and_spearman_oracles():
    def brute_force_dtw(a, b):
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

    rng = np.random.default_rng(6)
    dtw_mismatches = 0
    for _ in range(200):
        a = rng.integers(0, 10, size=int(rng.integers(1, 7))).astype(float)
        b = rng.integers(0, 10, size=int(rng.integers(1, 7))).astype(float)
        if dtw(a, b) != brute_force_dtw(list(a), list(b)):
            dtw_mismatches += 1

    worst_rho = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 30))
        xs = rng.permutation(n).astype(float)
        ys = rng.permutation(n).astype(float)
        rx = np.argsort(np.argsort(xs)) + 1
        ry = np.argsort(np.argsort(ys)) + 1
        formula = 1.0 - 6.0 * float(((rx - ry) ** 2).sum()) / (n * (n**2 - 1))
        worst_rho = max(worst_rho, abs(spearman(xs, ys) - formula))

    ok = dtw_mismatches == 0 and worst_rho <= 1e-12
    criterion(
        6,
        "warping distance matches path enumeration; rank correlation matches the "
        "rank-difference formula",
        ok,
        f"dtw mismatches {dtw_mismatches}, worst spearman error {worst_rho:.2e}",
    )


def test_criterion_7_fixed_size_pattern(default_synthetic):
    dataset = default_synthetic
    start = time.perf_counter()
    sweep = threshold_sweep(
        dataset,
        protocol="fixed",
        t_grid=(0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
        seed=11,
        n=200,
        repeats=40,
        runs=3,
    )
    result = protocol_fixed(
        dataset,
        n=200,
        measures=[f"circles:t={sweep.best_t}", "diversity", "richness"],
        seed=77,
        repeats=100,
        runs=10,
    )
    elapsed = time.perf_counter() - start
    circ = result.stats[0].per_run
    div = result.stat("diversity").per_run
    rich = result.stat("richness").per_run
    wins = sum(1 for c, d, r in zip(circ, div, rich) if c > d and c > r)
    ok = wins >= 8 and elapsed < 600.0
    criterion(
        7,
        "fixed-size: packing at swept t out-correlates diversity and richness",
        ok,
        f"best t {sweep.best_t}, wins {wins}/10, elapsed {elapsed:.1f}s",
    )


def test_criterion_8_growing_size_pattern(default_synthetic):
    dataset = default_synthetic
    result = protocol_growing(
        dataset,
        n=500,
        measures=list(DEFAULT_PROTOCOL_MEASURES),
        bias="similar",
        seed=99,
        runs=10,
    )
    per_run = {s.measure: s.per_run for s in result.stats}
    circ_key = next(k for k in per_run if k.startswith("circles"))
    wins = 0
    for r in range(10):
        values = {k: v[r] for k, v in per_run.items()}
        if min(values, key=values.get) == circ_key:
            wins += 1
    criterion(
        8,
        "growing-size under similar bias: packing has the smallest DTW to the gold standard",
        wins >= 8,
        f"wins {wins}/10",
    )


def test_criterion_9_cli_determinism(tmp_path):
    data_path = tmp_path / "syn.tsv"
    ds = generate_synthetic(SyntheticConfig(classes=6, per_class=10, width=128, core_bits=20), seed=4)
    write_dataset(ds, data_path)
    diffs = []
    for args in (
        ["measure", "--in", str(data_path), "--measures", "richness,circles:t=0.7,diversity"],
        [
            "corr-fixed", "--in", str(data_path), "--n", "15", "--repeats", "10",
            "--runs", "2", "--measures", "diversity,circles:t=0.7", "--seed", "123",
        ],
    ):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        doc1 = strip_volatile(json.loads(out1.read_text()))
        doc2 = strip_volatile(json.loads(out2.read_text()))
        b1 = json.dumps(doc1, sort_keys=True).encode()
        b2 = json.dumps(doc2, sort_keys=True).encode()
        if b1 != b2:
            diffs.append(args[0])
    criterion(
        9,
        "identical config+seed reproduces byte-identical JSON apart from timing fields",
        not diffs,
        f"commands differing: {diffs}" if diffs else "measure and corr-fixed replayed",
    )
