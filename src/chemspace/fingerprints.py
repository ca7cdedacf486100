"""Binary molecular fingerprints, molecule records, and dataset ingestion.

Fingerprints are stored packed into 64-bit machine words so that distance
kernels can run on hardware popcounts (``np.bitwise_count``). Bit index 0 is
the most significant bit of the first hex digit / the first character of a
0/1 string.
"""

from __future__ import annotations

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
    """An ordered collection of molecule records with uniform fingerprint width.

    Fingerprints are stored as one packed (n, words) uint64 matrix; per-record
    popcounts are precomputed for the distance kernels.
    """

    def __init__(self, records: Sequence[MoleculeRecord]):
        records = list(records)
        seen: set[str] = set()
        for rec in records:
            if rec.id in seen:
                raise DatasetFormatError(f"duplicate record id: {rec.id!r}")
            seen.add(rec.id)
        widths = {rec.fp.width for rec in records}
        if len(widths) > 1:
            raise DatasetFormatError(f"inconsistent fingerprint widths: {sorted(widths)}")
        self.records: tuple[MoleculeRecord, ...] = tuple(records)
        self.width: int = widths.pop() if widths else 0
        n_words = words_per_fingerprint(self.width) if records else 0
        self.words = np.zeros((len(records), n_words), dtype=np.uint64)
        for i, rec in enumerate(records):
            self.words[i] = rec.fp.words
        self.words.setflags(write=False)
        self.popcounts = np.bitwise_count(self.words).sum(axis=1).astype(np.int64)
        self.popcounts.setflags(write=False)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i: int) -> MoleculeRecord:
        return self.records[i]

    @property
    def labels(self) -> list[str | None]:
        return [rec.label for rec in self.records]

    def fingerprint_key(self, i: int) -> bytes:
        return self.words[i].tobytes()

    def label_classes(self) -> list[str]:
        """Distinct labels in record order of first appearance."""
        out: list[str] = []
        seen: set[str] = set()
        for rec in self.records:
            if rec.label is not None and rec.label not in seen:
                seen.add(rec.label)
                out.append(rec.label)
        return out

    def indices_for_labels(self, labels: Iterable[str]) -> np.ndarray:
        wanted = set(labels)
        return np.array(
            [i for i, rec in enumerate(self.records) if rec.label in wanted], dtype=np.int64
        )


def load_dataset(path: str | Path) -> Dataset:
    """Load a TSV dataset: ``id<TAB>fingerprint<TAB>[label]<TAB>[fragments]``.

    Fingerprints are lowercase hex or 0/1 strings; fragments are a
    comma-separated list; lines starting with ``#`` are comments. Empty label
    or fragment fields are treated as absent.
    """
    path = Path(path)
    records: list[MoleculeRecord] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) < 2:
                raise DatasetFormatError(f"{path}:{lineno}: expected at least id and fingerprint")
            rec_id, fp_text = fields[0], fields[1]
            try:
                fp = Fingerprint.parse(fp_text)
            except (DatasetFormatError, ValueError) as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}") from exc
            label = fields[2] if len(fields) > 2 and fields[2] != "" else None
            fragments = None
            if len(fields) > 3 and fields[3] != "":
                fragments = frozenset(f for f in fields[3].split(",") if f)
            records.append(MoleculeRecord(id=rec_id, fp=fp, label=label, fragments=fragments))
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
    use_hex = dataset.width % 4 == 0
    if use_hex:
        for rec in dataset.records:
            if not set(rec.fp.to_hex()) - {"0", "1"}:
                use_hex = False
                break
    with path.open("w", encoding="utf-8") as fh:
        for rec in dataset.records:
            fp_text = rec.fp.to_hex() if use_hex else rec.fp.to_bitstring()
            fields = [rec.id, fp_text]
            if rec.label is not None or rec.fragments is not None:
                fields.append(rec.label or "")
            if rec.fragments is not None:
                fields.append(",".join(sorted(rec.fragments)))
            fh.write("\t".join(fields) + "\n")
