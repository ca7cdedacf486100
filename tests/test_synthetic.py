import hashlib

import numpy as np
import pytest

from chemspace.distances import TanimotoOracle
from chemspace.errors import SyntheticConfigError
from chemspace.fingerprints import Dataset, Fingerprint, MoleculeRecord, load_dataset, write_dataset
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


def record_built_synthetic(config: SyntheticConfig, seed: int) -> Dataset:
    """The generator as one record per member: per class the core's bits,
    then one ``rng.random(width)`` of flips per member."""
    rng = np.random.default_rng(seed)
    records = []
    for c in range(config.classes):
        core = np.zeros(config.width, dtype=np.uint8)
        on = rng.choice(config.width, size=config.core_bits, replace=False)
        core[on] = 1
        label = f"class{c:03d}"
        for s in range(config.per_class):
            bits = core.copy()
            if config.flip_prob > 0:
                flips = rng.random(config.width) < config.flip_prob
                bits ^= flips.astype(np.uint8)
            records.append(
                MoleculeRecord(id=f"syn-{c:03d}-{s:03d}", fp=Fingerprint.from_bits(bits), label=label)
            )
    return Dataset(records)


SYNTHETIC_CONFIGS = {
    "default": SyntheticConfig(),
    "w70": SyntheticConfig(width=70, flip_prob=0.0),
    "w2048": SyntheticConfig(width=2048, classes=10),
}

# sha256 of the gen-synthetic file, recorded when each member was its own record.
PINNED_TSV_DIGESTS = {
    ("default", 0): "89920a102bb3b89790f050e9b9354de2064828226ac704451016f8a865ccbeb6",
    ("default", 1): "9246750f588bb07af467e90176622b8ed8f29f32ee3b2dc4dabb30c92071f142",
    ("default", 2): "e0669d976f20a6ecf77e743eccf2982f469cc820f563aaa1e492721c93d4370f",
    ("w70", 0): "1aa7d3ec6ac9aa82d63b8c397854e712b053ec2a62922cc419a7d57759f80da5",
    ("w70", 1): "314e771675ae060497355077238623478d0565fedcd4647e4f10ac575d6dc3b9",
    ("w70", 2): "8097952630278bc149555cf7dc823c6666ba906146f250de2050d7bb7ba9de1f",
    ("w2048", 0): "62c2b165f857c003f67f62d65d62d68329be858f23784996864d6db2990a02ae",
    ("w2048", 1): "5b0af81f830c838e71f848dd92f3bf966b5bcc6ba1ec54354010de0104c66871",
    ("w2048", 2): "a879cf5dc159c93930ce8a4d1ffa8fb9fadd1a5ac24b673cf80037fba6e92332",
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_TSV_DIGESTS))
def test_generate_synthetic_equals_record_built_reference(tmp_path, name, seed):
    config = SYNTHETIC_CONFIGS[name]
    got, want = generate_synthetic(config, seed=seed), record_built_synthetic(config, seed)
    assert got.ids == want.ids
    assert got.width == want.width
    assert got.words.tobytes() == want.words.tobytes()
    assert got.labels == want.labels and got.fragments == want.fragments
    write_dataset(got, tmp_path / "got.tsv")
    write_dataset(want, tmp_path / "want.tsv")
    written = (tmp_path / "got.tsv").read_bytes()
    assert written == (tmp_path / "want.tsv").read_bytes()
    assert hashlib.sha256(written).hexdigest() == PINNED_TSV_DIGESTS[name, seed]
