"""Sphere-packing count of a molecule set: largest subset with all pairwise
distances strictly above a threshold t.

The count equals the maximum independent set of the conflict graph (edge
where d <= t), read as Python-int bitmasks, bit j of point i's mask set when
d(i, j) <= t. Every count is decided by a ``PackingPolicy``: exact branch and
bound, or best-of-k greedy sphere exclusion, each pass OR-ing the masks of
its centers into one covered mask, or one greedy pass in arrival order.
Where all the masks are at hand (the fixed-size protocol's packer), the
greedy clique cover of the conflict graph bounds every packing from above,
and best-of-k stops at the first pass that reaches that bound. The exact
solver starts from the same two: one greedy pass in index order is returned
as it stands when it reaches the bound, and is otherwise the incumbent that
branch and bound has to beat.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import MeasureParamError, MeasureSizeError

DEFAULT_EXACT_CAP = 64
DEFAULT_RESTARTS = 8
EXACT_CAP_ENV = "CHEMSPACE_EXACT_CAP"


class PackingResult(NamedTuple):
    """A witnessed packing: the centers, positions among the packed points,
    are pairwise farther than t apart. ``mode`` is "exact" or "greedy"."""

    count: int
    centers: tuple[int, ...]
    mode: str
    optimal: bool


def _bitmasks(close: np.ndarray) -> list[int]:
    """One Python int per row of a boolean matrix, bit j set for column j."""
    packed = np.packbits(close, axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width or 1)]


def threshold_adjacency(dmatrix: np.ndarray, t: float) -> list[int]:
    """Conflict bitmasks: bit j set in mask i when d(i,j) <= t (i != j)."""
    close = dmatrix <= t
    np.fill_diagonal(close, False)
    return _bitmasks(close)


def _clique_cover_bound(avail: int, adj: list[int]) -> int:
    """Greedy clique cover of the conflict graph restricted to ``avail``.

    An independent set takes at most one vertex per clique, so the number of
    cliques bounds the packing size from above.
    """
    count = 0
    rest = avail
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        cand = rest & adj[v]
        while cand:
            u = (cand & -cand).bit_length() - 1
            rest &= ~(1 << u)
            cand &= cand - 1
            cand &= adj[u]
        count += 1
    return count


def max_independent_set(adj: list[int], avail: int | None = None) -> tuple[int, int]:
    """Exact maximum independent set of a conflict graph given as bitmasks.

    ``avail`` is the bitmask of the vertices to solve on, all of them when
    None: the result is the maximum independent set of the subgraph they
    induce, so one graph serves every subset of its points. One
    sphere-exclusion pass over ``avail`` in index order comes first; when it
    reaches the greedy clique-cover bound of ``avail`` it is optimal and is
    returned as it stands. Otherwise it is the incumbent of a branch and
    bound (Tomita & Kameda, J. Global Optim. 37, 2007). Returns (size,
    chosen-vertices bitmask), the mask a subset of ``avail``.
    """
    if avail is None:
        avail = (1 << len(adj)) - 1
    # ``greedy_pack_positions`` over avail in index order, stepping from one
    # center to the next uncovered point instead of testing every point.
    size = chosen = 0
    rest = avail
    while rest:
        bit = rest & -rest
        chosen |= bit
        size += 1
        rest &= ~(adj[bit.bit_length() - 1] | bit)
    if size < _clique_cover_bound(avail, adj):
        return _branch_and_bound(adj, avail, size, chosen)
    return size, chosen


def _branch_and_bound(
    adj: list[int], avail: int, best_size: int, best_mask: int
) -> tuple[int, int]:
    """The maximum independent set within ``avail``, or the incumbent
    (``best_size``, ``best_mask``) when no larger set exists. Branches on the
    max-degree vertex and prunes with the greedy clique-cover bound."""

    def expand(avail: int, count: int, chosen: int) -> None:
        nonlocal best_size, best_mask
        # Vertices isolated within avail always belong to some optimum.
        while True:
            pick_v = -1
            pick_deg = -1
            rest = avail
            isolated = 0
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                deg = (adj[v] & avail).bit_count()
                if deg == 0:
                    isolated |= 1 << v
                elif deg > pick_deg:
                    pick_deg = deg
                    pick_v = v
            if isolated:
                chosen |= isolated
                count += isolated.bit_count()
                avail &= ~isolated
            if pick_v < 0:
                if count > best_size:
                    best_size = count
                    best_mask = chosen
                return
            if count + _clique_cover_bound(avail, adj) <= best_size:
                return
            bit = 1 << pick_v
            expand(avail & ~(adj[pick_v] | bit), count + 1, chosen | bit)
            avail &= ~bit
            # Loop continues as the exclude branch.

    expand(avail, 0, 0)
    return best_size, best_mask


def admits(dists_to_centers: np.ndarray, t: float) -> bool:
    """The admission rule of sphere exclusion: a point joins the centers when
    it is farther than t from every one of them, so always when there are
    none."""
    return bool(np.all(dists_to_centers > t))


def greedy_pack_positions(conflict, *, order) -> list[int]:
    """One sphere-exclusion pass over the positions in ``order``.

    ``conflict(pos)`` is the bitmask of the points within t of ``pos``. A
    point is admitted under ``admits`` exactly when no earlier center's mask
    covers its bit, so the pass keeps the union of those masks.
    """
    covered = 0
    centers: list[int] = []
    for pos in order:
        if not covered >> pos & 1:
            centers.append(pos)
            covered |= conflict(pos)
    return centers


@dataclass(slots=True)
class ConflictMasks:
    """The conflict graph of points 0..n-1 at one threshold: bit j of
    ``mask(i)`` is set when points i and j are within t. ``masks`` lists
    every mask where they are all at hand; ``avail`` is the bitmask of the
    points to pack, all of them when None."""

    n: int
    mask: Callable[[int], int]
    masks: list[int] | None = None
    avail: int | None = None

    @classmethod
    def at_hand(cls, masks: list[int], avail: int | None = None) -> ConflictMasks:
        return cls(len(masks), masks.__getitem__, masks, avail)


def oracle_conflicts(oracle, subset, t: float) -> ConflictMasks:
    """The conflict graph of the points ``subset``, each mask computed from
    one oracle row when it is read: a greedy pass reads only its centers'
    rows, so memory stays O(centers * n) unless the oracle has cached its
    full matrix, whose rows are bit for bit the same."""
    idx = np.asarray(subset, dtype=np.int64)
    return ConflictMasks(
        idx.size, lambda pos: _bitmasks(oracle.row(int(idx[pos]), targets=idx)[None, :] <= t)[0]
    )


def _best_of_k(conflicts: ConflictMasks, restarts: int, seed: int) -> list[int]:
    """Best of ``restarts`` sphere-exclusion passes over the points to pack:
    the first in index order, the rest over seeded random permutations; ties
    keep the earliest pass.

    Where every mask is at hand their greedy clique cover bounds any packing,
    and the passes stop at the first that reaches it: no later pass can beat
    it and a tie would keep it, so the result is that of all k passes.
    """
    n, avail = conflicts.n, conflicts.avail
    points = range(n) if avail is None else [p for p in range(n) if avail >> p & 1]
    if not points:
        return []
    best = greedy_pack_positions(conflicts.mask, order=points)
    if restarts == 1:
        return best
    bound = math.inf
    if conflicts.masks is not None:
        bound = _clique_cover_bound((1 << n) - 1 if avail is None else avail, conflicts.masks)
    if len(best) >= bound:
        return best
    rng = np.random.default_rng(seed)
    for _ in range(1, restarts):
        order = [points[i] for i in rng.permutation(len(points)).tolist()]
        centers = greedy_pack_positions(conflicts.mask, order=order)
        if len(centers) > len(best):
            best = centers
            if len(best) >= bound:
                break
    return best


@dataclass(frozen=True)
class PackingPolicy:
    """How a circles count is computed: "exact" (branch and bound),
    "best_of_k" (the best of ``restarts`` greedy passes, all but the first
    over permutations drawn from ``seed``) or "arrival" (one greedy pass in
    arrival order). Only best-of-k reads its seed."""

    kind: str
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("exact", "best_of_k", "arrival"):
            raise ValueError(f"unknown packing policy kind: {self.kind!r}")
        # A bool is refused: its spec key ("True") does not parse back.
        if type(self.restarts) is not int or self.restarts < 1:
            raise MeasureParamError(
                f"circles restarts must be a positive integer, got {self.restarts!r}"
            )
        if type(self.seed) is not int or self.seed < 0:
            raise MeasureParamError(
                f"circles seed must be a non-negative integer, got {self.seed!r}"
            )

    @property
    def seeded(self) -> bool:
        return self.kind == "best_of_k"

    def pack(self, conflicts: ConflictMasks) -> PackingResult:
        """The packing of the points ``conflicts.avail``; centers are positions."""
        if self.kind != "exact":
            centers = _best_of_k(conflicts, self.restarts if self.seeded else 1, self.seed)
            return PackingResult(len(centers), tuple(centers), "greedy", False)
        masks = conflicts.masks or [conflicts.mask(p) for p in range(conflicts.n)]
        size, chosen = max_independent_set(masks, conflicts.avail)
        centers = tuple([p for p in range(conflicts.n) if chosen >> p & 1])
        return PackingResult(size, centers, "exact", True)


EXACT = PackingPolicy("exact")
ARRIVAL = PackingPolicy("arrival")


def packing_policy(
    mode: str = "auto", restarts: int = DEFAULT_RESTARTS, seed: int = 0, size: int | None = None
) -> PackingPolicy:
    """The policy of a circles mode on ``size`` points, and the one place that
    applies the exact cap (``CHEMSPACE_EXACT_CAP``, else 64): greedy is best
    of ``restarts`` passes (one pass in arrival order when restarts is 1),
    exact is refused above the cap, and auto is exact up to it. Without a
    size the cap is not read, and auto reads as greedy."""
    if mode not in ("auto", "exact", "greedy"):
        raise MeasureParamError(f"circles mode must be auto|exact|greedy, got {mode!r}")
    greedy = PackingPolicy("arrival" if restarts == 1 else "best_of_k", restarts, seed)
    if mode == "greedy" or size is None:
        return EXACT if mode == "exact" else greedy
    env = os.environ.get(EXACT_CAP_ENV) or str(DEFAULT_EXACT_CAP)
    if not env.strip().isdigit():
        raise MeasureParamError(f"{EXACT_CAP_ENV} must be a non-negative integer, got {env!r}")
    if size <= int(env):
        return EXACT
    if mode == "exact":
        raise MeasureSizeError(
            f"exact packing refused for n={size} > cap {int(env)}; use greedy mode "
            f"(or raise {EXACT_CAP_ENV})"
        )
    return greedy


def circles_exact(subset, oracle, t: float) -> PackingResult:
    """Optimal packing of the points ``subset``, refused above the exact cap;
    its centers are positions in ``subset``."""
    idx = np.asarray(list(subset), dtype=np.int64)
    return packing_policy("exact", size=idx.size).pack(oracle_conflicts(oracle, idx, t))
