"""Binary molecular fingerprints, molecule records, and columnar datasets.

Fingerprints are stored packed into 64-bit machine words. Distance rows are
popcounts of ANDed words (``np.bitwise_count``); full distance blocks unpack
the words once and count intersections as a BLAS product. Bit index 0 is
the most significant bit of the first hex digit / the first character of a
0/1 string.

A loaded ``Dataset`` is columns: ``ids``, ``words``, ``popcounts``, ``labels``,
``fragments``, ``classes`` and ``label_codes``, plus ``key_codes``, built on
first use. It keeps no ``MoleculeRecord``. ``load_dataset`` splits a file
into those columns in one pass, checks and decodes the fingerprint column in
bulk, a block of rows at a time, and hands it to ``Dataset.from_columns``;
no per-line object is kept. ``load_universe`` reads the explicit fragment
universe of a coverage measure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DatasetFormatError, DimensionMismatchError

_HEX_DIGITS = "0123456789abcdef"
_HEX_CHARS = frozenset(_HEX_DIGITS)
_DECODE_ROWS = 256  # rows per block when a loaded column is checked and decoded


def _as_words(packed: np.ndarray) -> np.ndarray:
    """Zero-pad packed bytes, most significant bit first, to whole 64-bit words."""
    n_words = (packed.size + 7) // 8
    buf = np.zeros(n_words * 8, dtype=np.uint8)
    buf[: packed.size] = packed
    return buf.view(np.uint64)


def _unpack_bits(words: np.ndarray, width: int) -> np.ndarray:
    return np.unpackbits(words.view(np.uint8))[:width]


def words_per_fingerprint(width: int) -> int:
    return (width + 63) // 64


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
        return cls(width=int(arr.size), words=_as_words(np.packbits(arr)))

    @classmethod
    def from_bitstring(cls, text: str) -> "Fingerprint":
        if not text or set(text) - {"0", "1"}:
            raise DatasetFormatError(f"not a 0/1 fingerprint string: {text!r}")
        arr = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
        return cls(width=len(text), words=_as_words(np.packbits(arr)))

    @classmethod
    def from_hex(cls, text: str) -> "Fingerprint":
        if not text or set(text) - _HEX_CHARS:
            raise DatasetFormatError(f"not a lowercase hex fingerprint: {text!r}")
        packed = bytes.fromhex(text + "0" * (len(text) % 2))
        return cls(width=4 * len(text), words=_as_words(np.frombuffer(packed, dtype=np.uint8)))

    @classmethod
    def parse(cls, text: str) -> "Fingerprint":
        """Parse either serialized form. Strings of only 0/1 characters are
        read as raw bit strings; anything else must be lowercase hex."""
        if not set(text) - {"0", "1"}:
            return cls.from_bitstring(text)
        return cls.from_hex(text)

    def to_bits(self) -> np.ndarray:
        return _unpack_bits(self.words, self.width)

    def to_bitstring(self) -> str:
        return "".join("01"[b] for b in self.to_bits())

    def to_hex(self) -> str:
        if self.width % 4 != 0:
            raise ValueError("hex form requires width divisible by 4")
        value = int.from_bytes(self.words.view(np.uint8).tobytes(), "big")
        value >>= self.words.size * 64 - self.width
        return format(value, f"0{self.width // 4}x")

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


def _width_mismatch(
    text: str, width: int, first_line: int, first_text: str, first_width: int
) -> str:
    """Why a fingerprint's width differs from the first record's, naming the
    0/1-digit rule of ``Fingerprint.parse`` when either text falls under it."""
    message = (
        f"width {width} differs from width {first_width} of the first record, line {first_line}"
    )
    bit_strings = [repr(t) for t in (first_text, text) if not set(t) - {"0", "1"}]
    if bit_strings:
        message += (
            f"; text of only 0/1 digits ({', '.join(bit_strings)}) is read as a bit string, not hex"
        )
    return message


def _decode_column(texts: list[str]) -> tuple[int, np.ndarray] | None:
    """Width and packed (n, words) uint64 rows of a fingerprint column, read
    as ``Fingerprint.parse`` reads each text; None when a text is not a
    fingerprint or its width differs from the first text's.

    The column is checked and decoded in blocks of rows, so the temporaries
    stay small beside the column: per block, one alphabet test over the
    joined text, the 0/1 rule per row and one width, then one
    ``bytes.fromhex`` for its hex rows and one ``packbits`` for its
    bit-string rows.
    """
    first = texts[0] if texts else ""
    width = len(first) if not first.strip("01") else 4 * len(first)
    n_bytes = (width + 7) // 8
    pad = "0" * (width // 4 % 2)  # an odd digit count ends in a zero nibble
    buf = np.zeros((len(texts), words_per_fingerprint(width) * 8), dtype=np.uint8)
    for start in range(0, len(texts), _DECODE_ROWS):
        block = texts[start : start + _DECODE_ROWS]
        if not all(block) or "".join(block).encode().translate(None, _HEX_DIGITS.encode()):
            return None
        is_bits = np.array([not text.strip("01") for text in block])
        lengths = np.array([len(text) for text in block])
        if (np.where(is_bits, lengths, 4 * lengths) != width).any():
            return None
        rows = buf[start : start + len(block), :n_bytes]
        hexes = [text for text, bits in zip(block, is_bits) if not bits]
        if hexes:
            packed = np.frombuffer(bytes.fromhex(pad.join(hexes) + pad), dtype=np.uint8)
            rows[~is_bits] = packed.reshape(len(hexes), n_bytes)
        if len(hexes) < len(block):
            joined = "".join(text for text, bits in zip(block, is_bits) if bits).encode()
            digits = np.frombuffer(joined, dtype=np.uint8).reshape(-1, width) - ord("0")
            rows[is_bits] = np.packbits(digits, axis=1)
    return width, buf.view(np.uint64)


def _lines(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Line number and fields of each record line: not blank, not a comment."""
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip() and not line.startswith("#"):
                yield lineno, line.rstrip("\n").split("\t")


def _first_bad_line(path: Path) -> DatasetFormatError:
    """The error of the first line, in file order, whose fields or fingerprint
    break the format."""
    first: tuple[int, str, int] | None = None  # line, text and width of the first record
    for lineno, fields in _lines(path):
        if len(fields) < 2:
            return DatasetFormatError(f"{path}:{lineno}: expected at least id and fingerprint")
        try:
            fp = Fingerprint.parse(fields[1])
        except (DatasetFormatError, ValueError) as exc:
            return DatasetFormatError(f"{path}:{lineno}: {exc}")
        if first is None:
            first = (lineno, fields[1], fp.width)
        elif fp.width != first[2]:
            return DatasetFormatError(f"{path}:{lineno}: {_width_mismatch(fields[1], fp.width, *first)}")
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
    """Write a dataset back to TSV.

    Fingerprints go out as hex when the width allows it, except that a hex
    form consisting only of 0/1 characters would read back as a raw bit
    string; if any record hits that case the whole file falls back to bit
    strings so a round trip is always faithful.
    """
    path = Path(path)
    fps = [Fingerprint(dataset.width, row) for row in dataset.words]
    use_hex = dataset.width % 4 == 0 and all(set(fp.to_hex()) - {"0", "1"} for fp in fps)
    columns = zip(dataset.ids, fps, dataset.labels, dataset.fragments)
    with path.open("w", encoding="utf-8") as fh:
        for rec_id, fp, label, fragments in columns:
            fields = [rec_id, fp.to_hex() if use_hex else fp.to_bitstring()]
            if label is not None or fragments is not None:
                fields.append(label or "")
            if fragments is not None:
                fields.append(",".join(sorted(fragments)))
            fh.write("\t".join(fields) + "\n")
