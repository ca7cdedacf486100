"""Synthetic labeled fingerprint datasets for desk-scale protocol runs.

Each class gets a random core bit pattern; samples copy the core and flip
every bit independently with a small probability. The defaults give tight
intra-class clusters (Tanimoto distance around 0.45) that sit far away from
other classes (around 0.9), so class structure is recoverable from distances.

The dataset is built as columns: each class's bits are one block, packed by
``fingerprints.pack_bits`` into its rows of ``Dataset.from_columns``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SyntheticConfigError
from .fingerprints import Dataset, pack_bits, words_per_fingerprint


@dataclass(frozen=True)
class SyntheticConfig:
    classes: int = 50
    per_class: int = 40
    width: int = 256
    core_bits: int = 32
    flip_prob: float = 0.05

    def __post_init__(self):
        if self.classes < 1 or self.per_class < 1:
            raise SyntheticConfigError("classes and per_class must be positive")
        if not 0 < self.core_bits <= self.width:
            raise SyntheticConfigError("core_bits must be in (0, width]")
        if not 0.0 <= self.flip_prob < 0.5:
            raise SyntheticConfigError("flip_prob must be in [0, 0.5)")


def generate_synthetic(config: SyntheticConfig | None = None, seed: int = 0) -> Dataset:
    """Generate a labeled dataset of noisy per-class fingerprint clusters.

    Per class the stream gives the core's bits, then every member's flips as
    one ``(per_class, width)`` block, member after member."""
    config = config or SyntheticConfig()
    rng = np.random.default_rng(seed)
    per_class, width = config.per_class, config.width
    words = np.empty((config.classes * per_class, words_per_fingerprint(width)), dtype=np.uint64)
    for c in range(config.classes):
        core = np.zeros(width, dtype=bool)
        core[rng.choice(width, size=config.core_bits, replace=False)] = True
        bits = np.broadcast_to(core, (per_class, width))
        if config.flip_prob > 0:
            bits = bits ^ (rng.random((per_class, width)) < config.flip_prob)
        words[c * per_class : (c + 1) * per_class] = pack_bits(bits)
    ids = [f"syn-{c:03d}-{s:03d}" for c in range(config.classes) for s in range(per_class)]
    labels = [f"class{c:03d}" for c in range(config.classes) for _ in range(per_class)]
    return Dataset.from_columns(ids, width, words, labels, [None] * len(ids))
