import numpy as np
import pytest

from chemspace.distances import TanimotoOracle
from chemspace.errors import SyntheticConfigError
from chemspace.fingerprints import load_dataset, write_dataset
from chemspace.synthetic import SyntheticConfig, generate_synthetic


def test_zero_noise_gives_identical_class_members():
    ds = generate_synthetic(SyntheticConfig(classes=3, per_class=5, width=64, core_bits=10, flip_prob=0.0), seed=1)
    oracle = TanimotoOracle(ds)
    for c in range(3):
        idx = ds.indices_for_labels([ds.classes.index(f"class{c:03d}")])
        assert oracle.submatrix(idx).max() == 0.0


def test_disjoint_cores_zero_noise_distance_one():
    # With zero noise and tiny dense cores in a wide space, distinct class
    # cores rarely overlap; find a disjoint pair and check distance 1.
    ds = generate_synthetic(SyntheticConfig(classes=2, per_class=1, width=512, core_bits=8, flip_prob=0.0), seed=3)
    oracle = TanimotoOracle(ds)
    a = ds.words[0]
    b = ds.words[1]
    if int(np.bitwise_count(a & b).sum()) == 0:
        assert oracle.row(0)[1] == 1.0
    else:
        assert oracle.row(0)[1] < 1.0


def test_default_config_separates_classes():
    ds = generate_synthetic(SyntheticConfig(classes=8, per_class=10), seed=7)
    oracle = TanimotoOracle(ds)
    full = oracle.full_matrix()
    labels = np.array(ds.labels)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    off = ~np.eye(len(ds), dtype=bool)
    intra = full[same & off]
    inter = full[~same & off]
    assert intra.mean() < inter.mean()
    # Clear margin: the clusters should be separable by a mid threshold.
    assert intra.max() < inter.min()


def test_generation_deterministic():
    cfg = SyntheticConfig(classes=4, per_class=3)
    a = generate_synthetic(cfg, seed=11)
    b = generate_synthetic(cfg, seed=11)
    assert (a.words == b.words).all()
    c = generate_synthetic(cfg, seed=12)
    assert (a.words != c.words).any()


def test_round_trip_through_tsv(tmp_path):
    ds = generate_synthetic(SyntheticConfig(classes=3, per_class=4), seed=5)
    path = tmp_path / "syn.tsv"
    write_dataset(ds, path)
    back = load_dataset(path)
    assert len(back) == 12
    assert (back.words == ds.words).all()
    assert back.labels == ds.labels


def test_config_validation():
    bad = [{"classes": 0}, {"per_class": 0}, {"core_bits": 0}, {"core_bits": 300}, {"flip_prob": 0.7}]
    for params in bad:
        with pytest.raises(SyntheticConfigError):
            SyntheticConfig(**params)
    assert issubclass(SyntheticConfigError, ValueError)
