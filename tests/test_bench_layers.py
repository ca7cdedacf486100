import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from chemspace.distances import pairwise_tanimoto, tanimoto_from_row
from chemspace.fingerprints import Dataset, Fingerprint, MoleculeRecord, load_dataset

CHEMBENCH = Path(__file__).resolve().parents[1] / "chembench"


def load_bench_module(name):
    """A module of the benchmark, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location(f"chembench_{name}", CHEMBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer", load_bench_module("spans").LAYERS, ids=lambda layer: layer[2])
def test_every_traced_layer_names_a_chemspace_function(layer):
    # The benchmark's tracer replaces these names; one that no longer
    # resolves makes a traced run fail with an AttributeError.
    module_name, attr = layer[0], layer[1]
    owner = importlib.import_module(f"chemspace.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_benchmark_data_loads_and_builds_the_kernel_matrix(tmp_path):
    # The benchmark's own generator and file writer, at the db-coverage
    # record shape (sparse 2048-bit hex) but 50 records.
    workloads = load_bench_module("workloads")
    spec = workloads.DataSpec(classes=10, per_class=5, width=2048, core_bits=(44, 90), drop_max=4, add_max=8)
    hexes, labels = workloads.generate(spec, seed=0)
    path = tmp_path / "bench.tsv"
    workloads.write_tsv(path, hexes, labels)
    loaded = load_dataset(path)
    built = Dataset(
        MoleculeRecord(f"m{i:05d}", Fingerprint.parse(text), label)
        for i, (text, label) in enumerate(zip(hexes, labels))
    )
    assert loaded.ids == built.ids and loaded.width == built.width == 2048
    assert loaded.words.tobytes() == built.words.tobytes()
    assert loaded.popcounts.tobytes() == built.popcounts.tobytes()
    assert loaded.labels == built.labels and loaded.fragments == built.fragments
    assert loaded.label_codes.tobytes() == built.label_codes.tobytes()
    full = pairwise_tanimoto(loaded.words, loaded.popcounts, block_rows=16)
    rows = np.stack(
        [tanimoto_from_row(w, p, loaded.words, loaded.popcounts) for w, p in zip(loaded.words, loaded.popcounts)]
    )
    assert full.tobytes() == rows.tobytes()
    assert full.tobytes() == full.T.tobytes()
