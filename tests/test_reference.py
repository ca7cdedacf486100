import numpy as np
import pytest

from chemspace.errors import MissingFragmentsError
from chemspace.fingerprints import Dataset, Fingerprint, MoleculeRecord, load_universe
from chemspace.measures import MeasureSpec, evaluate_measure


def annotated_dataset(frag_sets, labels=None):
    records = []
    for i, frags in enumerate(frag_sets):
        records.append(
            MoleculeRecord(
                f"m{i}",
                Fingerprint.from_bits([1, 0, (i >> 0) & 1, (i >> 1) & 1, (i >> 2) & 1]),
                label=None if labels is None else labels[i],
                fragments=None if frags is None else frozenset(frags),
            )
        )
    return Dataset(records)


def test_coverage_union_size():
    ds = annotated_dataset([{"a", "b"}, {"b", "c"}])
    assert evaluate_measure(MeasureSpec("coverage"), [0, 1], dataset=ds).value == 3


def test_coverage_empty_set():
    ds = annotated_dataset([{"a"}])
    assert evaluate_measure(MeasureSpec("coverage"), [], dataset=ds).value == 0


def test_coverage_missing_annotation_names_record():
    ds = annotated_dataset([{"a"}, None])
    with pytest.raises(MissingFragmentsError, match="m1"):
        evaluate_measure(MeasureSpec("coverage"), [0, 1], dataset=ds)


def test_coverage_explicit_universe_caps_count():
    ds = annotated_dataset([{"a", "b", "z"}, {"c", "z"}])
    ref = MeasureSpec("coverage", {"kind": "FG", "universe": frozenset({"a", "c"})})
    assert evaluate_measure(ref, [0, 1], dataset=ds).value == 2
    rng = np.random.default_rng(0)
    for _ in range(20):
        sub = [i for i in range(2) if rng.random() < 0.5]
        assert evaluate_measure(ref, sub, dataset=ds).value <= 2


def test_coverage_union_monotone_and_subadditive():
    rng = np.random.default_rng(9)
    pool = [f"f{k}" for k in range(12)]
    for _ in range(50):
        frag_sets = [set(rng.choice(pool, size=rng.integers(1, 4), replace=False)) for _ in range(10)]
        ds = annotated_dataset(frag_sets)
        s1 = [i for i in range(10) if rng.random() < 0.5]
        s2 = [i for i in range(10) if rng.random() < 0.5]
        union = sorted(set(s1) | set(s2))
        c1, c2, cu = (
            evaluate_measure(MeasureSpec("coverage"), side, dataset=ds).value for side in (s1, s2, union)
        )
        assert max(c1, c2) <= cu <= c1 + c2


def test_load_universe(tmp_path):
    p = tmp_path / "universe.txt"
    p.write_text("fragA\nfragB\n\nfragC\n")
    assert load_universe(p) == frozenset({"fragA", "fragB", "fragC"})
