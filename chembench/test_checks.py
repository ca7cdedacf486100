"""Each independent check accepts a correct output and rejects a wrong one.

Run from the root of a checkout: ``python3 -m pytest chembench``.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
from workloads import T, WORKLOADS, DataSpec, generate, write_tsv

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SMALL = DataSpec(classes=6, per_class=5, width=256, core_bits=(28, 36), drop_max=3, add_max=4)


@pytest.fixture(scope="module")
def small_data():
    hexes, labels = generate(SMALL, seed=5)
    return hexes, labels, oracles.tanimoto_matrix(hexes)


def test_generator_is_seeded_and_separated(small_data):
    hexes, labels, dist = small_data
    assert generate(SMALL, seed=5) == (hexes, labels)
    assert generate(SMALL, seed=6) != (hexes, labels)
    assert oracles.check_separated(dist, hexes, labels, T) == []


def test_separation_check_rejects_duplicates_and_merged_classes(small_data):
    hexes, labels, dist = small_data
    assert oracles.check_separated(dist, hexes[:-1] + hexes[:1], labels, T)
    merged = [labels[0]] * len(labels)
    assert oracles.check_separated(dist, hexes, merged, T)


def test_tanimoto_matrix_by_hand():
    # 0xc0 = bits {0, 1}; 0xe0 = bits {0, 1, 2}; 0x01 = bit {7}.
    dist = oracles.tanimoto_matrix(["c0", "e0", "01"])
    assert dist[0, 1] == 1.0 - 2.0 / 3.0
    assert dist[0, 2] == 1.0 and dist[1, 2] == 1.0
    assert (np.diag(dist) == 0.0).all()


def test_tanimoto_matrix_matches_program(small_data):
    from chemspace.distances import TanimotoOracle
    from chemspace.fingerprints import Dataset, Fingerprint, MoleculeRecord

    hexes, _, dist = small_data
    ds = Dataset([MoleculeRecord(id=str(i), fp=Fingerprint.from_hex(h)) for i, h in enumerate(hexes)])
    assert np.allclose(TanimotoOracle(ds).full_matrix(), dist, rtol=0.0, atol=1e-15)


@pytest.fixture(scope="module")
def measure_doc(small_data, tmp_path_factory):
    from chemspace.cli import main

    hexes, labels, _ = small_data
    path = tmp_path_factory.mktemp("db") / "db.tsv"
    write_tsv(path, hexes, labels)
    out = path.with_suffix(".json")
    measures = WORKLOADS["db-coverage"].args[2]
    assert main(["measure", "--in", str(path), "--measures", measures, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _set_value(doc, kind, change):
    doc = copy.deepcopy(doc)
    for row in doc["results"]:
        if row["measure"].split(":")[0] == kind:
            row["value"] = change(row["value"])
    return doc


def test_db_coverage_check(small_data, measure_doc):
    hexes, labels, dist = small_data
    assert oracles.check_db_coverage(measure_doc, hexes, labels, dist) == []
    for kind in ("diversity", "sum_bottleneck"):
        wrong = _set_value(measure_doc, kind, lambda v: v * (1 + 1e-6))
        assert oracles.check_db_coverage(wrong, hexes, labels, dist)
    for kind in ("richness", "circles"):
        wrong = _set_value(measure_doc, kind, lambda v: v - 1)
        assert oracles.check_db_coverage(wrong, hexes, labels, dist)


def _protocol_doc(per_run, degenerate=0):
    return {
        "results": [
            {"measure": "circles:t=0.75", "per_run": list(per_run["circles"]), "degenerate_runs": 0},
            {"measure": "richness", "per_run": list(per_run["richness"]), "degenerate_runs": degenerate},
            {"measure": "diversity", "per_run": list(per_run["diversity"]), "degenerate_runs": 0},
        ]
    }


def test_corr_fixed_check():
    good = {"circles": [1.0, 1.0], "richness": [0.0, 0.0], "diversity": [0.4, -0.2]}
    assert oracles.check_corr_fixed(_protocol_doc(good, degenerate=2), runs=2) == []
    assert oracles.check_corr_fixed(_protocol_doc({**good, "circles": [1.0, 1.0 - 1e-6]}, 2), runs=2)
    assert oracles.check_corr_fixed(_protocol_doc(good, degenerate=1), runs=2)
    assert oracles.check_corr_fixed(_protocol_doc({**good, "diversity": [0.4, 1.5]}, 2), runs=2)
    assert oracles.check_corr_fixed(_protocol_doc(good, degenerate=2), runs=3)


def test_corr_growing_check():
    good = {"circles": [0.0, 0.0], "richness": [3.0, 4.0], "diversity": [1.5, 2.0]}
    assert oracles.check_corr_growing(_protocol_doc(good), runs=2) == []
    assert oracles.check_corr_growing(_protocol_doc({**good, "circles": [0.0, 1e-6]}), runs=2)
    assert oracles.check_corr_growing(_protocol_doc({**good, "diversity": [1.5, -1e-6]}), runs=2)
    assert oracles.check_corr_growing(_protocol_doc({**good, "richness": [3.0, float("nan")]}), runs=2)


@pytest.fixture(scope="module")
def axiom_doc():
    from chemspace.axioms import quadrant_table

    return {"results": quadrant_table(trials=20, seed=0)["reports"]}


def _row(doc, kind):
    return next(r for r in doc["results"] if r["measure"].split(":")[0] == kind)


def test_axiom_check_accepts_the_program_table(axiom_doc):
    assert oracles.check_axioms(axiom_doc) == []


def test_axiom_check_rejects_a_flipped_classification(axiom_doc):
    wrong = copy.deepcopy(axiom_doc)
    _row(wrong, "circles")["subadditive"] = False
    assert oracles.check_axioms(wrong)


def test_replay_rejects_nudged_values(axiom_doc):
    for kind, check, name in (
        ("diversity", "subadditivity_check", "mu_union"),
        ("dpp", "subadditivity_check", "mu_s1"),
        ("sum_diameter", "dissimilarity_check", "mu_candidate"),
        ("coverage", "dissimilarity_check", "mu_midpoint"),
    ):
        ce = _row(axiom_doc, kind)[check]["counterexample"]
        assert oracles.replay(ce) == []
        wrong = copy.deepcopy(ce)
        wrong["values"][name] += 1e-6
        assert oracles.replay(wrong), (kind, name)


def test_replay_rejects_an_inequality_that_does_not_hold(axiom_doc):
    ce = copy.deepcopy(_row(axiom_doc, "diversity")["subadditivity_check"]["counterexample"])
    ce["side"] = "upper" if ce["side"] == "lower" else "lower"
    assert oracles.replay(ce)
    missing = copy.deepcopy(axiom_doc)
    del _row(missing, "bottleneck")["subadditivity_check"]["counterexample"]
    assert oracles.check_axioms(missing)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
