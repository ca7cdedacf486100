"""Binary molecular fingerprints, molecule records, and columnar datasets.

Fingerprints are stored packed into 64-bit machine words. Distance rows are
popcounts of ANDed words (``np.bitwise_count``); full distance blocks unpack
the words once and count intersections as a BLAS product. Bit index 0 is
the most significant bit of the first hex digit / the first character of a
0/1 string.

A loaded ``Dataset`` is columns: ``ids``, ``words``, ``popcounts``, ``labels``,
``fragments``, ``classes`` and ``label_codes``, plus ``key_codes``, built on
first use. It keeps no ``MoleculeRecord``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DatasetFormatError, DimensionMismatchError

_HEX_CHARS = frozenset("0123456789abcdef")


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
        seen: set[str] = set()
        for rec in records:
            if rec.id in seen:
                raise DatasetFormatError(f"duplicate record id: {rec.id!r}")
            seen.add(rec.id)
        widths = {rec.fp.width for rec in records}
        if len(widths) > 1:
            raise DatasetFormatError(f"inconsistent fingerprint widths: {sorted(widths)}")
        self.width: int = widths.pop() if widths else 0
        n_words = words_per_fingerprint(self.width) if records else 0
        self.ids = tuple(rec.id for rec in records)
        self.words = np.array([rec.fp.words for rec in records], dtype=np.uint64)
        self.words = self.words.reshape(len(records), n_words)
        self.words.setflags(write=False)
        self.popcounts = np.bitwise_count(self.words).sum(axis=1).astype(np.int64)
        self.popcounts.setflags(write=False)
        self.labels = tuple(rec.label for rec in records)
        self.fragments = tuple(rec.fragments for rec in records)
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
        """Ascending indices of the records whose label code is in ``codes``."""
        return np.flatnonzero(np.isin(self.label_codes, codes))


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


def load_dataset(path: str | Path) -> Dataset:
    """Load a TSV dataset: ``id<TAB>fingerprint<TAB>[label]<TAB>[fragments]``.

    Fingerprints are lowercase hex or 0/1 strings; fragments are a
    comma-separated list; lines starting with ``#`` are comments. Empty label
    or fragment fields are treated as absent.
    """
    path = Path(path)
    records: list[MoleculeRecord] = []
    first: tuple[int, str] = (0, "")  # line and fingerprint text of the first record
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if not line.strip() or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) < 2:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: expected at least id and fingerprint"
                    )
                rec_id, fp_text = fields[0], fields[1]
                try:
                    fp = Fingerprint.parse(fp_text)
                except (DatasetFormatError, ValueError) as exc:
                    raise DatasetFormatError(f"{path}:{lineno}: {exc}") from exc
                if not records:
                    first = (lineno, fp_text)
                elif fp.width != records[0].fp.width:
                    why = _width_mismatch(fp_text, fp.width, *first, records[0].fp.width)
                    raise DatasetFormatError(f"{path}:{lineno}: {why}")
                label = fields[2] if len(fields) > 2 and fields[2] != "" else None
                fragments = None
                if len(fields) > 3 and fields[3] != "":
                    fragments = frozenset(f for f in fields[3].split(",") if f)
                records.append(MoleculeRecord(id=rec_id, fp=fp, label=label, fragments=fragments))
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    try:
        return Dataset(records)
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


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
