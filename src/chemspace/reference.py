"""Reference-based coverage over fragment annotations.

A molecule covers a reference fragment when the fragment id appears in the
record's annotation set; the measure counts distinct covered references.
Fragment extraction itself (functional groups, ring systems, scaffolds)
happens upstream; this module only consumes the annotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import DatasetFormatError
from .fingerprints import Dataset
from .measures import MeasureSpec, evaluate_measure


@dataclass(frozen=True)
class ReferenceSet:
    """A reference fragment collection.

    ``kind`` is descriptive metadata (FG, RS, BM, or custom). When ``universe``
    is None, the universe is implicitly every fragment id observed in the
    dataset, so the measure reduces to "count distinct fragments present".
    """

    kind: str = "custom"
    universe: frozenset[str] | None = None


def coverage(subset, dataset: Dataset, ref: ReferenceSet | None = None) -> int:
    """Count distinct reference fragments covered by the selected records."""
    ref = ref or ReferenceSet()
    spec = MeasureSpec("coverage", {"universe": ref.universe})
    return int(evaluate_measure(spec, subset, dataset=dataset).value)


def load_universe(path: str | Path) -> frozenset[str]:
    """Read an explicit fragment universe: one fragment id per line."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return frozenset(line.strip() for line in lines if line.strip())
