"""Seeded inputs and CLI commands for the four benchmark workloads.

The generator is the benchmark's own: a change to ``chemspace.synthetic``
cannot change a workload. Each class gets a random core bit pattern and every
member is a noisy copy of it (some core bits dropped, a few outside bits
added). Classes are built one at a time and a class is redrawn while any of
its members lies within ``t`` of an earlier class, so the classes are
separated at ``t``; the noise is small enough that every distance inside a
class is at most ``t`` (the smallest possible within-class similarity,
``(core - 2 * drop) / (core + 2 * add)``, stays above ``1 - t``).
``oracles.check_separated`` verifies both conditions and uniqueness apart
from this code, and the run refuses the seed if it finds a breach.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

T = 0.75
MAX_CLASS_REDRAWS = 1000


@dataclass(frozen=True)
class DataSpec:
    """Shape of a generated labelled fingerprint file."""

    classes: int
    per_class: int
    width: int
    core_bits: tuple[int, int]  # inclusive range of core sizes
    drop_max: int  # core bits a member may lose
    add_max: int  # outside bits a member gains (at least one)

    @property
    def records(self) -> int:
        return self.classes * self.per_class

    def min_within_similarity(self) -> float:
        lo = self.core_bits[0]
        return (lo - 2 * self.drop_max) / (lo + 2 * self.add_max)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data: DataSpec | None
    args: tuple[str, ...]  # CLI arguments after the input and before the seed
    needs_full_matrix: bool


# 2048-bit records with about 2-5% of bits set, as sparse as real
# substructure fingerprints; 2000 records keep one CLI process near 3 s.
DB_DATA = DataSpec(classes=100, per_class=20, width=2048, core_bits=(44, 90), drop_max=4, add_max=8)
# 256-bit records for the protocols: the full matrix is small, so protocol
# work, not ingestion or the distance kernel, dominates.
PROTOCOL_DATA = DataSpec(classes=100, per_class=20, width=256, core_bits=(28, 36), drop_max=3, add_max=4)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "db-coverage",
            "measure on 2000 sparse 2048-bit hex records: ingestion, greedy packing rows, and two full-matrix distance measures",
            DB_DATA,
            ("measure", "--measures", "richness,circles:t=0.75,diversity,sum_bottleneck"),
            False,
        ),
        Workload(
            "corr-fixed",
            "fixed-size protocol, n=200: batch measure kernels on submatrices, dpp determinant, label pools, Spearman",
            PROTOCOL_DATA,
            ("corr-fixed", "--n", "200", "--repeats", "100", "--runs", "3"),
            True,
        ),
        Workload(
            "corr-growing",
            "growing-size protocol, n=500, biased growth: incremental trackers and the pure-Python DTW",
            PROTOCOL_DATA,
            ("corr-growing", "--n", "500", "--runs", "2", "--bias", "similar"),
            True,
        ),
        Workload(
            "axiom-check",
            "axiom harness: random explicit-matrix worlds, MatrixOracle and the exact branch-and-bound packing solver",
            None,
            ("axiom-check", "--trials", "3000"),
            False,
        ),
    )
}


def _draw_member(rng: np.random.Generator, core: np.ndarray, outside: np.ndarray, spec: DataSpec) -> np.ndarray:
    bits = np.zeros(spec.width, dtype=bool)
    bits[core] = True
    drop = int(rng.integers(0, spec.drop_max + 1))
    if drop:
        bits[rng.choice(core, size=drop, replace=False)] = False
    add = int(rng.integers(1, spec.add_max + 1))
    bits[rng.choice(outside, size=add, replace=False)] = True
    return bits


def to_hex(bits: np.ndarray) -> str:
    """Bit 0 is the most significant bit of the first hex digit."""
    return np.packbits(bits.astype(np.uint8)).tobytes().hex()


def _too_close(new: np.ndarray, old: np.ndarray, t: float) -> bool:
    if old.shape[0] == 0:
        return False
    a = new.astype(np.float32)
    b = old.astype(np.float32)
    inter = a @ b.T
    union = a.sum(axis=1)[:, None] + b.sum(axis=1)[None, :] - inter
    return bool((1.0 - inter / union <= t).any())


def generate(spec: DataSpec, seed: int, t: float = T) -> tuple[list[str], list[str]]:
    """Hex fingerprints and labels, shuffled into one record order."""
    if spec.min_within_similarity() <= 1.0 - t:
        raise ValueError("noise too large: a class could spread wider than t")
    rng = np.random.default_rng(seed)
    accepted = np.zeros((0, spec.width), dtype=bool)
    hexes: list[str] = []
    labels: list[str] = []
    seen: set[str] = set()
    for c in range(spec.classes):
        for _ in range(MAX_CLASS_REDRAWS):
            size = int(rng.integers(spec.core_bits[0], spec.core_bits[1] + 1))
            core = rng.choice(spec.width, size=size, replace=False)
            outside = np.setdiff1d(np.arange(spec.width), core)
            members: list[np.ndarray] = []
            texts: list[str] = []
            while len(members) < spec.per_class:
                bits = _draw_member(rng, core, outside, spec)
                text = to_hex(bits)
                # A hex string of only 0/1 digits would be read as raw bits.
                if text in seen or text in texts or not set(text) - {"0", "1"}:
                    continue
                members.append(bits)
                texts.append(text)
            block = np.array(members)
            if not _too_close(block, accepted, t):
                break
        else:
            raise RuntimeError(f"class {c}: no core separated at t={t} after {MAX_CLASS_REDRAWS} draws")
        accepted = np.vstack([accepted, block])
        seen.update(texts)
        hexes.extend(texts)
        labels.extend([f"c{c:03d}"] * spec.per_class)
    order = rng.permutation(len(hexes))
    return [hexes[i] for i in order], [labels[i] for i in order]


def write_tsv(path: Path, hexes: list[str], labels: list[str]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for i, (text, label) in enumerate(zip(hexes, labels)):
            fh.write(f"m{i:05d}\t{text}\t{label}\n")
