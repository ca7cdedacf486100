import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemspace.errors import DatasetFormatError
from chemspace.fingerprints import (
    Dataset,
    Fingerprint,
    MoleculeRecord,
    load_dataset,
    write_dataset,
)


def test_from_bits_round_trip():
    bits = [1, 0, 1, 1, 0, 0, 0, 1, 1, 0]
    fp = Fingerprint.from_bits(bits)
    assert fp.width == 10
    assert fp.to_bits().tolist() == bits
    assert fp.popcount() == 5


def test_hex_parse_msb_first():
    fp = Fingerprint.from_hex("8")
    assert fp.to_bits().tolist() == [1, 0, 0, 0]
    fp = Fingerprint.from_hex("f0")
    assert fp.width == 8
    assert fp.to_bits().tolist() == [1, 1, 1, 1, 0, 0, 0, 0]
    assert fp.to_hex() == "f0"


@pytest.mark.parametrize("digits", [1, 2, 3, 16, 17, 33])
def test_hex_matches_spelled_out_bits(digits):
    rng = np.random.default_rng(digits)
    text = "".join(rng.choice(list("0123456789abcdef"), size=digits))
    bits = [int(b) for digit in text for b in format(int(digit, 16), "04b")]
    fp = Fingerprint.from_hex(text)
    assert fp.width == 4 * digits
    assert fp == Fingerprint.from_bits(bits)


def test_bitstring_parse():
    fp = Fingerprint.from_bitstring("0110")
    assert fp.width == 4
    assert fp.to_bitstring() == "0110"


def test_parse_prefers_bitstring_for_01_text():
    # "10" is a valid hex string too, but all-0/1 text reads as raw bits.
    fp = Fingerprint.parse("10")
    assert fp.width == 2


def test_parse_rejects_garbage():
    with pytest.raises(DatasetFormatError):
        Fingerprint.parse("xyz")
    with pytest.raises(DatasetFormatError):
        Fingerprint.parse("ABCD")  # hex must be lowercase


def test_equality_and_key():
    a = Fingerprint.from_bitstring("1010")
    b = Fingerprint.from_hex("a")
    assert a == b
    assert a.key() == b.key()
    assert hash(a) == hash(b)
    assert a != Fingerprint.from_bitstring("1011")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_pack_unpack_round_trip(bits):
    fp = Fingerprint.from_bits(bits)
    assert fp.to_bits().tolist() == bits
    assert fp.popcount() == sum(bits)


def test_hex_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        bits = rng.integers(0, 2, size=64).astype(np.uint8)
        fp = Fingerprint.from_bits(bits)
        assert Fingerprint.from_hex(fp.to_hex()) == fp


def test_load_dataset_basic(tmp_path):
    p = tmp_path / "db.tsv"
    p.write_text(
        "# comment line\n"
        "m1\tf0f0\n"
        "m2\t0ff0\tkinase\n"
        "m3\tffff\tkinase\tfragA,fragB\n"
        "\n"
    )
    ds = load_dataset(p)
    assert len(ds) == 2 + 1
    assert ds.ids == ("m1", "m2", "m3")
    assert ds.labels == (None, "kinase", "kinase")
    assert ds.fragments == (None, None, frozenset({"fragA", "fragB"}))
    assert ds.width == 16


def test_load_dataset_duplicate_id(tmp_path):
    p = tmp_path / "dup.tsv"
    p.write_text("m1\tff\nm1\t0f\n")
    with pytest.raises(DatasetFormatError, match="m1"):
        load_dataset(p)


def test_load_dataset_inconsistent_width(tmp_path):
    p = tmp_path / "w.tsv"
    p.write_text("m1\tff\nm2\tffff\n")
    with pytest.raises(DatasetFormatError, match="width"):
        load_dataset(p)


def test_load_dataset_malformed_fingerprint(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("m1\tnothex!\n")
    with pytest.raises(DatasetFormatError):
        load_dataset(p)


def test_empty_label_field_with_fragments(tmp_path):
    p = tmp_path / "f.tsv"
    p.write_text("m1\tff\t\tfragA\n")
    ds = load_dataset(p)
    assert ds.labels[0] is None
    assert ds.fragments[0] == frozenset({"fragA"})


def test_write_then_load_round_trip(tmp_path):
    records = [
        MoleculeRecord("a", Fingerprint.from_hex("f0f0"), "c1", frozenset({"x", "y"})),
        MoleculeRecord("b", Fingerprint.from_hex("0001"), "c2", None),
        MoleculeRecord("c", Fingerprint.from_hex("ffff"), None, None),
    ]
    ds = Dataset(records)
    path = tmp_path / "out.tsv"
    write_dataset(ds, path)
    back = load_dataset(path)
    assert back.ids == ds.ids == ("a", "b", "c")
    assert back.labels == ds.labels == ("c1", "c2", None)
    assert back.fragments == ds.fragments == (frozenset({"x", "y"}), None, None)
    assert (back.words == ds.words).all()


def test_label_helpers():
    records = [
        MoleculeRecord("a", Fingerprint.from_hex("f0"), "c2"),
        MoleculeRecord("b", Fingerprint.from_hex("0f"), "c1"),
        MoleculeRecord("c", Fingerprint.from_hex("ff"), "c2"),
        MoleculeRecord("d", Fingerprint.from_hex("11"), None),
    ]
    ds = Dataset(records)
    assert ds.classes == ("c2", "c1")
    assert ds.label_codes.tolist() == [0, 1, 0, -1]
    assert ds.indices_for_labels([0]).tolist() == [0, 2]
    assert ds.indices_for_labels([1, 0]).tolist() == [0, 1, 2]
    assert ds.indices_for_labels([]).tolist() == []


def test_dataset_keeps_columns_only():
    records = [
        MoleculeRecord("a", Fingerprint.from_hex("f0f0"), "c1", frozenset({"x"})),
        MoleculeRecord("b", Fingerprint.from_hex("0ff1"), None, None),
    ]
    ds = Dataset(iter(records))
    held = [v for col in vars(ds).values() for v in (col if isinstance(col, tuple) else [col])]
    assert not any(isinstance(v, (MoleculeRecord, Fingerprint)) for v in held)
    assert Fingerprint(ds.width, ds.words[1]) == records[1].fp
    assert ds.popcounts.tolist() == [8, 9]
    assert not ds.words.flags.writeable and not ds.label_codes.flags.writeable
