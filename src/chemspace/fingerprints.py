"""Binary molecular fingerprints, molecule records, and columnar datasets.

Fingerprints are stored packed into 64-bit machine words. Distance rows are
popcounts of ANDed words (``np.bitwise_count``); full distance blocks unpack
the words once and count intersections as a BLAS product. Bit index 0 is
the most significant bit of the first hex digit / the first character of a
0/1 string.

This module is the one codec of the text format, each rule written once for
a block of rows: ``is_bit_string`` (text of only 0/1 digits is a bit string,
not hex), ``pack_bits``, ``decode_bit_strings``, ``decode_hex`` and
``encode_rows``. A loaded ``Dataset`` is columns: ``ids``, ``words``,
``popcounts``, ``labels``, ``fragments``, ``classes`` and ``label_codes``,
plus ``key_codes``, built on first use. It keeps no ``MoleculeRecord``.
``load_dataset`` splits a file into those columns in one pass, checks and
decodes the fingerprint column in bulk, a block of rows at a time, and hands
it to ``Dataset.from_columns``; ``write_dataset`` encodes ``words`` the same
way. ``load_universe`` reads the explicit fragment universe of a coverage
measure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DatasetFormatError, DimensionMismatchError

_HEX_DIGITS = b"0123456789abcdef"
_DECODE_ROWS = 256  # rows per block when a column is decoded or encoded


def words_per_fingerprint(width: int) -> int:
    return (width + 63) // 64


def is_bit_string(text: str) -> bool:
    """The format's one ambiguity rule: a text of only 0/1 digits is read as
    a bit string, never as hex."""
    return not text.strip("01")


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 values (n, width), bit 0 first, as zero-padded (n, words)
    uint64 rows."""
    packed = np.packbits(bits, axis=1)
    words = np.zeros((len(bits), words_per_fingerprint(bits.shape[1])), dtype=np.uint64)
    words.view(np.uint8)[:, : packed.shape[1]] = packed
    return words


def decode_bit_strings(texts: Sequence[str]) -> np.ndarray:
    """Bit strings of one length as (n, words) uint64 rows."""
    digits = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8) - ord("0")
    return pack_bits(digits.reshape(len(texts), -1))


def decode_hex(texts: Sequence[str]) -> np.ndarray:
    """Lowercase hex texts of one length as (n, words) uint64 rows. Each text
    is zero-padded to whole words, so an odd digit count ends in a zero nibble."""
    pad = "0" * (-len(texts[0]) % 16)
    words = np.frombuffer(bytes.fromhex(pad.join(texts) + pad), dtype=np.uint64)
    return words.reshape(len(texts), -1)


def encode_rows(words: np.ndarray, width: int, as_hex: bool) -> Iterator[str]:
    """The text of each (n, words) uint64 row, a block of rows at a time:
    ``width // 4`` hex digits (width divisible by 4), or ``width`` 0/1 digits."""
    for start in range(0, len(words), _DECODE_ROWS):
        block = np.ascontiguousarray(words[start : start + _DECODE_ROWS]).view(np.uint8)
        if as_hex:
            size, text = width // 4, block.tobytes().hex()
        else:
            size = width
            text = (np.unpackbits(block, axis=1) + ord("0")).tobytes().decode("ascii")
        step = len(text) // len(block)
        yield from (text[i : i + size] for i in range(0, len(text), step))


@dataclass(frozen=True, eq=False)
class Fingerprint:
    """Fixed-width binary vector packed into 64-bit words."""

    width: int
    words: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("fingerprint width must be positive")
        if self.words.dtype != np.uint64 or self.words.size != words_per_fingerprint(self.width):
            raise ValueError("words array does not match fingerprint width")
        self.words.setflags(write=False)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Fingerprint":
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1 or arr.size == 0 or not np.isin(arr, (0, 1)).all():
            raise ValueError("bits must be a nonempty 0/1 vector")
        return cls(width=int(arr.size), words=pack_bits(arr[None])[0])

    @classmethod
    def from_bitstring(cls, text: str) -> "Fingerprint":
        if not text or not is_bit_string(text):
            raise DatasetFormatError(f"not a 0/1 fingerprint string: {text!r}")
        return cls(width=len(text), words=decode_bit_strings([text])[0])

    @classmethod
    def from_hex(cls, text: str) -> "Fingerprint":
        if not text or text.encode().translate(None, _HEX_DIGITS):
            raise DatasetFormatError(f"not a lowercase hex fingerprint: {text!r}")
        return cls(width=4 * len(text), words=decode_hex([text])[0])

    @classmethod
    def parse(cls, text: str) -> "Fingerprint":
        """Parse either serialized form: a bit string when ``is_bit_string``
        holds, else lowercase hex."""
        return cls.from_bitstring(text) if is_bit_string(text) else cls.from_hex(text)

    def to_bits(self) -> np.ndarray:
        return np.unpackbits(self.words.view(np.uint8))[: self.width]

    def to_bitstring(self) -> str:
        return next(encode_rows(self.words[None], self.width, as_hex=False))

    def to_hex(self) -> str:
        if self.width % 4 != 0:
            raise ValueError("hex form requires width divisible by 4")
        return next(encode_rows(self.words[None], self.width, as_hex=True))

    def popcount(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def key(self) -> bytes:
        """Hashable identity of the bit pattern (used by uniqueness counts)."""
        return self.words.tobytes()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Fingerprint)
            and self.width == other.width
            and self.key() == other.key()
        )

    def __hash__(self) -> int:
        return hash((self.width, self.key()))


def tanimoto_distance(a: Fingerprint, b: Fingerprint) -> float:
    """Jaccard/Tanimoto distance between two fingerprints: 1 - |a&b| / |a|b|.

    Two all-zero fingerprints are treated as identical (distance 0), which
    keeps d(x, x) = 0 without dividing by zero.
    """
    if a.width != b.width:
        raise DimensionMismatchError(f"fingerprint widths differ: {a.width} != {b.width}")
    inter = int(np.bitwise_count(a.words & b.words).sum())
    union = int(np.bitwise_count(a.words | b.words).sum())
    if union == 0:
        return 0.0
    return 1.0 - inter / union


@dataclass(frozen=True)
class MoleculeRecord:
    """One molecule: id, fingerprint, optional class label and fragment ids."""

    id: str
    fp: Fingerprint
    label: str | None = None
    fragments: frozenset[str] | None = None


class Dataset:
    """Molecules as columns, all of one fingerprint width.

    ``words`` is the packed (n, words) uint64 matrix and ``popcounts`` its row
    popcounts; ``labels`` and ``fragments`` hold None where a record has none;
    ``classes`` lists the distinct labels in order of first appearance, and
    ``label_codes`` indexes into it (-1 when unlabeled).
    """

    def __init__(self, records: Iterable[MoleculeRecord]):
        records = list(records)
        widths = {rec.fp.width for rec in records}
        if len(widths) > 1:
            raise DatasetFormatError(f"inconsistent fingerprint widths: {sorted(widths)}")
        width = widths.pop() if widths else 0
        words = np.array([rec.fp.words for rec in records], dtype=np.uint64)
        self._set_columns(
            tuple(rec.id for rec in records),
            width,
            words.reshape(len(records), words_per_fingerprint(width)),
            tuple(rec.label for rec in records),
            tuple(rec.fragments for rec in records),
        )

    @classmethod
    def from_columns(
        cls,
        ids: Sequence[str],
        width: int,
        words: np.ndarray,
        labels: Sequence[str | None],
        fragments: Sequence[frozenset[str] | None],
    ) -> "Dataset":
        """A dataset from its columns: ``words`` is the packed (n, words) uint64
        matrix of fingerprints ``width`` bits wide, one row per id. Refuses a
        repeated id, as ``Dataset(records)`` does."""
        dataset = cls.__new__(cls)
        dataset._set_columns(tuple(ids), width, words, tuple(labels), tuple(fragments))
        return dataset

    def _set_columns(self, ids, width, words, labels, fragments) -> None:
        if words.dtype != np.uint64 or words.shape != (len(ids), words_per_fingerprint(width)):
            raise ValueError("words array does not match ids and fingerprint width")
        seen: set[str] = set()
        for rec_id in ids:
            if rec_id in seen:
                raise DatasetFormatError(f"duplicate record id: {rec_id!r}")
            seen.add(rec_id)
        self.width: int = width
        self.ids = ids
        self.words = words
        self.words.setflags(write=False)
        self.popcounts = np.bitwise_count(self.words).sum(axis=1).astype(np.int64)
        self.popcounts.setflags(write=False)
        self.labels = labels
        self.fragments = fragments
        self.classes = tuple(dict.fromkeys(label for label in self.labels if label is not None))
        codes = {label: c for c, label in enumerate(self.classes)}
        self.label_codes = np.array([codes.get(label, -1) for label in self.labels], dtype=np.int64)
        self.label_codes.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ids)

    @functools.cached_property
    def key_codes(self) -> np.ndarray:
        """Per record, a code that records share exactly when their
        fingerprints are equal; built on first use."""
        codes = np.unique(self.words, axis=0, return_inverse=True)[1].ravel()
        codes.setflags(write=False)
        return codes

    def indices_for_labels(self, codes) -> np.ndarray:
        """Ascending indices of the records whose label code is in ``codes``,
        each an index into ``classes`` (0 to ``len(classes) - 1``)."""
        # Code -1 (unlabeled) reads the last slot, which no class index sets.
        member = np.zeros(len(self.classes) + 1, dtype=bool)
        member[np.asarray(codes, dtype=np.int64)] = True
        return np.flatnonzero(member[self.label_codes])


def _decode_column(texts: list[str]) -> tuple[int, np.ndarray] | None:
    """Width and packed (n, words) uint64 rows of a fingerprint column, read
    as ``Fingerprint.parse`` reads each text; None when a text is not a
    fingerprint or its width differs from the first text's.

    The column is checked and decoded in blocks of rows, so the temporaries
    stay small beside the column: per block, one alphabet test over the
    joined text, ``is_bit_string`` per row and one width, then one
    ``decode_hex`` for its hex rows and one ``decode_bit_strings`` for its
    bit-string rows.
    """
    first = texts[0] if texts else ""
    width = len(first) if is_bit_string(first) else 4 * len(first)
    words = np.zeros((len(texts), words_per_fingerprint(width)), dtype=np.uint64)
    for start in range(0, len(texts), _DECODE_ROWS):
        block = texts[start : start + _DECODE_ROWS]
        if not all(block) or "".join(block).encode().translate(None, _HEX_DIGITS):
            return None
        is_bits = np.array([is_bit_string(text) for text in block])
        lengths = np.array([len(text) for text in block])
        if (np.where(is_bits, lengths, 4 * lengths) != width).any():
            return None
        rows = words[start : start + len(block)]
        hexes = [text for text, bits in zip(block, is_bits) if not bits]
        if hexes:
            rows[~is_bits] = decode_hex(hexes)
        if len(hexes) < len(block):
            rows[is_bits] = decode_bit_strings([text for text, bits in zip(block, is_bits) if bits])
    return width, words


def _lines(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Line number and fields of each record line: not blank, not a comment."""
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip() and not line.startswith("#"):
                yield lineno, line.rstrip("\n").split("\t")


def _first_bad_line(path: Path) -> DatasetFormatError:
    """The error of the first line, in file order, whose fields or fingerprint
    break the format. A width that differs from the first record's names the
    ambiguity rule when either text falls under it."""
    first: tuple[int, str, int] | None = None  # line, text and width of the first record
    for lineno, fields in _lines(path):
        if len(fields) < 2:
            return DatasetFormatError(f"{path}:{lineno}: expected at least id and fingerprint")
        try:
            fp = Fingerprint.parse(fields[1])
        except (DatasetFormatError, ValueError) as exc:
            return DatasetFormatError(f"{path}:{lineno}: {exc}")
        first = first or (lineno, fields[1], fp.width)
        if fp.width != first[2]:
            message = (f"{path}:{lineno}: width {fp.width} differs from width {first[2]} "
                       f"of the first record, line {first[0]}")
            bits = ", ".join(repr(text) for text in (first[1], fields[1]) if is_bit_string(text))
            rule = f"; text of only 0/1 digits ({bits}) is read as a bit string, not hex"
            return DatasetFormatError(message + rule if bits else message)
    raise AssertionError("every line is well formed")


def load_dataset(path: str | Path) -> Dataset:
    """Load a TSV dataset: ``id<TAB>fingerprint<TAB>[label]<TAB>[fragments]``.

    Fingerprints are lowercase hex or 0/1 strings; fragments are a
    comma-separated list; lines starting with ``#`` are comments. Empty label
    or fragment fields are treated as absent.

    One pass over the file splits the record lines into columns; the
    fingerprint column is then checked and decoded in bulk, and
    ``Dataset.from_columns`` takes the result, so no per-line object is
    kept. Only when a check fails is the file scanned again for its first
    bad line, so each error names ``path:lineno``.
    """
    path = Path(path)
    ids, texts, labels, fragments = [], [], [], []
    try:
        for _, fields in _lines(path):
            if len(fields) < 2:
                raise _first_bad_line(path)
            ids.append(fields[0])
            texts.append(fields[1])
            labels.append(fields[2] if len(fields) > 2 and fields[2] != "" else None)
            fragments.append(
                frozenset(f for f in fields[3].split(",") if f)
                if len(fields) > 3 and fields[3] != ""
                else None
            )
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    decoded = _decode_column(texts)
    if decoded is None:
        raise _first_bad_line(path)
    try:
        return Dataset.from_columns(ids, *decoded, labels, fragments)
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def load_universe(path: str | Path) -> frozenset[str]:
    """Read an explicit fragment universe: one fragment id per line."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return frozenset(line.strip() for line in lines if line.strip())


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to TSV, its ``words`` encoded a block of rows at
    a time by ``encode_rows``.

    Fingerprints go out as hex when the width allows it, unless some row's
    hex form passes ``is_bit_string`` and would read back as a bit string;
    then the whole file is bit strings, so a round trip is always faithful.
    """
    path = Path(path)
    words, width = dataset.words, dataset.width
    as_hex = width % 4 == 0 and not any(map(is_bit_string, encode_rows(words, width, True)))
    columns = zip(dataset.ids, encode_rows(words, width, as_hex), dataset.labels, dataset.fragments)
    with path.open("w", encoding="utf-8") as fh:
        for rec_id, text, label, fragments in columns:
            fields = [rec_id, text]
            if label is not None or fragments is not None:
                fields.append(label or "")
            if fragments is not None:
                fields.append(",".join(sorted(fragments)))
            fh.write("\t".join(fields) + "\n")
