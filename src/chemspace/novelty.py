"""Streaming novelty scores for candidate molecules against a fixed set.

These are the cheap O(|S|) surrogates for the gain a candidate would add to
a coverage measure: mean distance to the set, nearest-neighbor distance, and
the admit-if-novel indicator used by sphere packing. They are designed to be
dropped into an external sampling or generation loop as reward terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circles import DEFAULT_RESTARTS, admits, oracle_conflicts, packing_policy
from .distances import DistanceOracle, TanimotoOracle, tanimoto_from_row
from .errors import DimensionMismatchError
from .fingerprints import Dataset, Fingerprint
from .measures import MeasureSpec, validate_spec


@dataclass
class NoveltyContext:
    """The reference set S candidates are scored against.

    Built either from a dataset (candidates may then be raw fingerprints or
    record indices) or from any distance oracle (candidates must be indices).
    ``t`` is only needed by the packing indicator. With ``against_centers``
    the reference set is reduced to a greedy packing of itself first, so
    scores are relative to the covered regions instead of every member.
    ``from_dataset`` holds a given ``t``, ``restarts`` and ``seed`` to the
    circles measure's parameter rules.
    """

    members: np.ndarray
    oracle: DistanceOracle | None = None
    dataset: Dataset | None = None
    t: float | None = None
    _member_words: np.ndarray | None = field(default=None, repr=False)
    _member_pops: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.members = np.asarray(self.members, dtype=np.int64)
        if self.dataset is not None:
            self._member_words = self.dataset.words[self.members]
            self._member_pops = self.dataset.popcounts[self.members]

    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        members=None,
        t: float | None = None,
        against_centers: bool = False,
        restarts: int = DEFAULT_RESTARTS,
        seed: int = 0,
    ) -> "NoveltyContext":
        if t is not None:
            validate_spec(MeasureSpec("circles", {"t": t, "restarts": restarts, "seed": seed}))
        members = np.arange(len(dataset)) if members is None else np.asarray(members)
        oracle = TanimotoOracle(dataset)
        if against_centers:
            if t is None:
                raise ValueError("against_centers requires a threshold t")
            policy = packing_policy("greedy", restarts, seed)
            packing = policy.pack(oracle_conflicts(oracle, members, t))
            members = members[list(packing.centers)]
        return cls(members=members, oracle=oracle, dataset=dataset, t=t)

    def distances(self, candidate: Fingerprint | int) -> np.ndarray:
        """Distances from the candidate to every member of S."""
        if isinstance(candidate, Fingerprint):
            if self.dataset is None:
                raise ValueError("fingerprint candidates need a dataset-backed context")
            if candidate.width != self.dataset.width:
                raise DimensionMismatchError(
                    f"candidate width {candidate.width} != dataset width {self.dataset.width}"
                )
            return tanimoto_from_row(
                candidate.words, candidate.popcount(), self._member_words, self._member_pops
            )
        if self.oracle is None:
            raise ValueError("index candidates need an oracle-backed context")
        return self.oracle.row(int(candidate), targets=self.members)


def novelty_diversity(candidate: Fingerprint | int, ctx: NoveltyContext) -> float:
    """Mean distance of the candidate to the set."""
    if len(ctx.members) == 0:
        raise ValueError("novelty against an empty set is undefined")
    return float(ctx.distances(candidate).mean())


def novelty_sum_bottleneck(candidate: Fingerprint | int, ctx: NoveltyContext) -> float:
    """Nearest-neighbor distance of the candidate to the set."""
    if len(ctx.members) == 0:
        raise ValueError("novelty against an empty set is undefined")
    return float(ctx.distances(candidate).min())


def novelty_circles(candidate: Fingerprint | int, ctx: NoveltyContext) -> int:
    """1 when the candidate is farther than t from every member, else 0.

    Against an empty set every candidate is novel. This is exactly the
    admission rule of greedy sphere exclusion, so a candidate scoring 1 can
    join a packing's center set without breaking the pairwise constraint.
    """
    if ctx.t is None:
        raise ValueError("novelty_circles requires the context threshold t")
    return int(admits(ctx.distances(candidate), ctx.t))


NOVELTY_KINDS = {
    "diversity": novelty_diversity,
    "sum_bottleneck": novelty_sum_bottleneck,
    "circles": novelty_circles,
}

