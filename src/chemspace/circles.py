"""Sphere-packing count of a molecule set: largest subset with all pairwise
distances strictly above a threshold t.

The count equals the maximum independent set of the conflict graph (edge
where d <= t). Both solvers read that graph as Python-int bitmasks, bit j of
point i's mask set when d(i, j) <= t. Small sets are solved exactly by branch
and bound; larger sets fall back to best-of-k greedy sphere exclusion, each
pass OR-ing the masks of its centers into one covered mask. Where all the
masks are at hand (``greedy_pack_count``, the fixed-size protocol's packer),
the greedy clique cover of the conflict graph bounds every packing from
above, and best-of-k stops at the first pass that reaches that bound.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import MeasureParamError, MeasureSizeError

DEFAULT_EXACT_CAP = 64
DEFAULT_RESTARTS = 8
EXACT_CAP_ENV = "CHEMSPACE_EXACT_CAP"


def resolve_exact_cap() -> int:
    """Exact-solver size cap: the env override, else 64."""
    env = os.environ.get(EXACT_CAP_ENV)
    if not env:
        return DEFAULT_EXACT_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise MeasureParamError(f"{EXACT_CAP_ENV} must be a non-negative integer, got {env!r}")
    return cap


def refuse_exact_over_cap(size: int) -> None:
    """Refuse an exact solve on more points than the exact-solver cap."""
    cap = resolve_exact_cap()
    if size > cap:
        raise MeasureSizeError(
            f"exact packing refused for n={size} > cap {cap}; use greedy mode "
            f"(or raise {EXACT_CAP_ENV})"
        )


@dataclass(frozen=True)
class PackingResult:
    """A witnessed packing: centers are pairwise farther than t apart."""

    count: int
    centers: tuple[int, ...]
    t: float
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
    induce, so one graph serves every subset of its points. Branch and bound:
    branch on the max-degree vertex, prune with the greedy clique-cover bound.
    Returns (size, chosen-vertices bitmask), the mask a subset of ``avail``.
    """
    best_size = 0
    best_mask = 0

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

    expand((1 << len(adj)) - 1 if avail is None else avail, 0, 0)
    return best_size, best_mask


def circles_exact(subset, oracle, t: float) -> PackingResult:
    """Optimal packing count via branch-and-bound maximum independent set."""
    idx = np.asarray(list(subset), dtype=np.int64)
    refuse_exact_over_cap(idx.size)
    if idx.size == 0:
        return PackingResult(count=0, centers=(), t=t, mode="exact", optimal=True)
    adj = threshold_adjacency(oracle.submatrix(idx), t)
    size, mask = max_independent_set(adj)
    centers = tuple(int(idx[i]) for i in range(idx.size) if mask >> i & 1)
    return PackingResult(count=size, centers=centers, t=t, mode="exact", optimal=True)


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


def _best_of_k(
    conflict, n: int, restarts: int = DEFAULT_RESTARTS, seed: int = 0, bound: int | None = None
) -> list[int]:
    """Best of k sphere-exclusion passes: the first in input order, the rest
    over seeded random permutations; ties keep the earliest pass. Fewer than
    one pass is refused, also when there are no points to pass over.

    ``bound`` is an upper bound on any packing of the n points. The passes
    stop at the first one that reaches it: no later pass can beat it, and a
    tie would keep it, so the result is that of all k passes. The permutation
    generator is only made when a second pass runs.
    """
    if restarts < 1:
        raise MeasureParamError(f"circles restarts must be a positive integer, got {restarts!r}")
    if not n:
        return []
    best = greedy_pack_positions(conflict, order=range(n))
    if restarts == 1 or (bound is not None and len(best) >= bound):
        return best
    rng = np.random.default_rng(seed)
    for _ in range(1, restarts):
        centers = greedy_pack_positions(conflict, order=rng.permutation(n).tolist())
        if len(centers) > len(best):
            best = centers
            if bound is not None and len(best) >= bound:
                break
    return best


def circles_greedy(
    subset,
    oracle,
    t: float,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> PackingResult:
    """Best-of-k greedy sphere exclusion over oracle rows.

    Only the rows of centers are read. A Tanimoto oracle computes each with
    the popcount kernel, so memory stays O(centers * n), unless it has cached
    its full matrix (``measure`` builds it when another distance measure needs
    it); then the rows are read from that matrix, bit for bit the same.
    """
    idx = np.asarray(list(subset), dtype=np.int64)

    def conflict(pos: int) -> int:
        return _bitmasks(oracle.row(int(idx[pos]), targets=idx)[None, :] <= t)[0]

    best = _best_of_k(conflict, int(idx.size), restarts, seed)
    centers_idx = tuple(int(idx[p]) for p in best)
    return PackingResult(
        count=len(best), centers=centers_idx, t=t, mode="greedy", optimal=False
    )


def greedy_pack_count(
    dmatrix: np.ndarray, t: float, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> int:
    """Greedy packing count straight from a precomputed distance matrix; the
    conflict masks are built once and shared by every pass. Their greedy
    clique cover bounds every packing, so the passes stop at the first one
    that reaches it, a certified optimum; the count is that of all k passes."""
    adj = threshold_adjacency(dmatrix, t)
    bound = _clique_cover_bound((1 << len(adj)) - 1, adj) if restarts > 1 else None
    return len(_best_of_k(adj.__getitem__, len(adj), restarts, seed, bound))


def circles_auto(
    subset,
    oracle,
    t: float,
    mode: str = "auto",
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> PackingResult:
    """Dispatch to the exact solver under the size cap, greedy above it.

    This is the one place that chooses between the two for a spec's mode.
    """
    idx = np.asarray(list(subset), dtype=np.int64)
    cap = resolve_exact_cap()
    if mode == "exact" or (mode != "greedy" and idx.size <= cap):
        return circles_exact(idx, oracle, t)
    return circles_greedy(idx, oracle, t, restarts=restarts, seed=seed)

