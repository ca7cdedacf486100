from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemspace import fingerprints
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


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(st.one_of(st.none(), st.sampled_from("abcde")), min_size=1, max_size=40),
    picks=st.lists(st.integers(0, 4), max_size=8),
    as_array=st.booleans(),
)
def test_indices_for_labels_equals_isin(labels, picks, as_array):
    # Unlabeled records, repeated codes and empty code lists all occur.
    records = [MoleculeRecord(f"m{i}", Fingerprint.from_hex("f0"), c) for i, c in enumerate(labels)]
    ds = Dataset(records)
    codes = [c for c in picks if c < len(ds.classes)]
    got = ds.indices_for_labels(np.array(codes, dtype=np.int64) if as_array else codes)
    assert got.tolist() == np.flatnonzero(np.isin(ds.label_codes, codes)).tolist()


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


HEX_DIGITS = "0123456789abcdef"
# Field text: no tab, newline or carriage return; includes non-ASCII letters.
FIELD_ALPHABET = "abcXYZ09_-. é中"


def expected_label(field):
    return field if field else None


def expected_fragments(field):
    return frozenset(f for f in field.split(",") if f) if field else None


@st.composite
def tsv_files(draw):
    """A well-formed dataset file as text, and the records it must load as."""
    width = draw(st.integers(1, 80))
    kinds = ["bits", "hex"] if width % 4 == 0 else ["bits"]
    hex_text = st.text(HEX_DIGITS, min_size=width // 4, max_size=width // 4).filter(
        lambda t: set(t) - {"0", "1"}  # all-0/1 text would read as a bit string
    )
    bit_text = st.text("01", min_size=width, max_size=width)
    ids = draw(
        st.lists(st.text(FIELD_ALPHABET, min_size=1, max_size=6), max_size=12, unique=True)
    )
    lines, records = [], []
    for rec_id in ids:
        lines += draw(
            st.lists(
                st.sampled_from(["", "   ", " \t ", "# comment", "#\tx\t" + "f" * 3]), max_size=2
            )
        )
        kind = draw(st.sampled_from(kinds))
        fp_text = draw(hex_text if kind == "hex" else bit_text)
        fields = [rec_id, fp_text]
        label = draw(st.none() | st.text(FIELD_ALPHABET + ",", max_size=5))
        fragments = draw(st.none() | st.lists(st.sampled_from(["", "fa", "fb", "é"]), max_size=3))
        if label is not None or fragments is not None:
            fields.append(label or "")
        if fragments is not None:
            fields.append(",".join(fragments))
        lines.append("\t".join(fields))
        records.append(
            MoleculeRecord(
                rec_id,
                Fingerprint.parse(fp_text),
                expected_label(label),
                expected_fragments(",".join(fragments) if fragments is not None else None),
            )
        )
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # the last line without a line end
    return text, records


def assert_same_columns(got, want):
    assert got.width == want.width
    assert got.ids == want.ids
    assert got.words.shape == want.words.shape and got.words.dtype == want.words.dtype == np.uint64
    assert got.words.tobytes() == want.words.tobytes()
    assert got.popcounts.dtype == want.popcounts.dtype
    assert got.popcounts.tobytes() == want.popcounts.tobytes()
    assert got.labels == want.labels
    assert got.fragments == want.fragments
    assert got.classes == want.classes
    assert got.label_codes.tobytes() == want.label_codes.tobytes()
    for col in (got.words, got.popcounts, got.label_codes):
        assert not col.flags.writeable


@settings(max_examples=150, deadline=None)
@given(tsv_files(), st.integers(1, 5))
def test_load_dataset_columns_equal_record_built_dataset(tmp_path_factory, file, block_rows):
    # Small decode blocks put block boundaries inside these short files.
    text, records = file
    path = tmp_path_factory.mktemp("tsv") / "db.tsv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(fingerprints, "_DECODE_ROWS", block_rows):
        assert_same_columns(load_dataset(path), Dataset(records))


def test_from_columns_equals_record_built_dataset():
    records = [
        MoleculeRecord("a", Fingerprint.from_hex("f0f"), "c1", frozenset({"x"})),
        MoleculeRecord("b", Fingerprint.from_bitstring("0110" * 3), None, None),
    ]
    want = Dataset(records)
    got = Dataset.from_columns(want.ids, want.width, want.words.copy(), want.labels, want.fragments)
    assert_same_columns(got, want)
    with pytest.raises(DatasetFormatError, match="duplicate record id: 'a'"):
        Dataset.from_columns(("a", "a"), want.width, want.words.copy(), want.labels, want.fragments)


# Each message as the per-line loader worded it; {path} is the file.
INGESTION_ERRORS = {
    "bad-hex-character": (
        "m1\tff\tc\nm2\tfg\tc\n",
        "{path}:2: not a lowercase hex fingerprint: 'fg'",
    ),
    "upper-case-hex-after-comment": ("# c\nm1\tff\nm2\tFF\n", "{path}:3: not a lowercase hex fingerprint: 'FF'"),
    "non-ascii-fingerprint": ("m1\tff\nm2\tfé\n", "{path}:2: not a lowercase hex fingerprint: 'fé'"),
    "empty-fingerprint": ("m1\tff\nm2\t\tc\n", "{path}:2: not a 0/1 fingerprint string: ''"),
    "only-empty-fingerprints": ("m1\t\tc\nm2\t\n", "{path}:1: not a 0/1 fingerprint string: ''"),
    "hex-width-mismatch": (
        "m1\tff\n\nm2\tfff\n",
        "{path}:3: width 12 differs from width 8 of the first record, line 1",
    ),
    "bit-string-before-hex": (
        "a\t0110\tc1\nb\tff01\tc1\n",
        "{path}:2: width 16 differs from width 4 of the first record, line 1; "
        "text of only 0/1 digits ('0110') is read as a bit string, not hex",
    ),
    "hex-before-bit-string": (
        "a\tff01\tc1\nb\t0110\tc1\n",
        "{path}:2: width 4 differs from width 16 of the first record, line 1; "
        "text of only 0/1 digits ('0110') is read as a bit string, not hex",
    ),
    "first-bad-line-wins": ("m1\tff\nm2\tfff\nm3\n", "{path}:2: width 12 differs from width 8 of the first record, line 1"),
    "short-line": ("m1\tff\nm2\n", "{path}:2: expected at least id and fingerprint"),
    "duplicate-id": ("m1\tff\nm2\t0f\nm1\tf0\n", "{path}: duplicate record id: 'm1'"),
    "non-utf8": (b"m1\tff\tcaf\xe9\n", "{path}: not UTF-8 text (invalid continuation byte)"),
}


@pytest.mark.parametrize("case", list(INGESTION_ERRORS))
def test_ingestion_error_messages(case, tmp_path):
    content, message = INGESTION_ERRORS[case]
    path = tmp_path / "db.tsv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    for block_rows in (1, fingerprints._DECODE_ROWS):
        with mock.patch.object(fingerprints, "_DECODE_ROWS", block_rows):
            with pytest.raises(DatasetFormatError) as err:
                load_dataset(path)
        assert str(err.value) == message.format(path=path)
