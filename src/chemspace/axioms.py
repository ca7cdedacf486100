"""Property-test harness for the two measure validity axioms.

Verdicts come from bounded random search plus hand-built counterexample
seeds, not proofs: "holds" means "no counterexample in N trials". Every
reported counterexample carries enough payload to be replayed exactly, and the
replay applies the same violation test as the search that found it.

Checks run on explicit-matrix worlds (random points embedded in the unit
cube, distances scaled to [0, 1]) so that exact geodesic configurations can
be constructed, which binary fingerprints cannot realize. A world is its
distance matrix, and ``world_selection`` reads it directly; circles reads the
world's conflict bitmasks instead, built once per threshold and shared by
every subset the search packs on that world. A random world of n points is
read from one draw of 14·n uniforms, and its split from one draw of n.

A table runs one subadditivity search for all its measures: each random world
is drawn once and tested against every measure still open. Worlds are drawn
in blocks: the stream is read world by world, as one world at a time would
read it, and ``_build_worlds`` then builds the block's matrices, fragment
sets and key codes in one numpy pass per world size (``random_world`` is its
one-world case). The search builds one selection for each of S1, S2 and
S1 | S2 and reads every open measure from those three; ``world_measure``
builds the same selection for one subset. Each measure still sees ``trials``
candidates, its own constructions first, exactly as a search of its own
would. The dissimilarity checks of a table likewise build each geodesic
world, and the selection of its three points, once, and read every measure
there, circles at every threshold of the grid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Iterator

import numpy as np

from .circles import EXACT, ConflictMasks, threshold_adjacency
from .distances import gather_submatrix
from .errors import AxiomCheckError
from .measures import (
    MEASURES,
    MeasureSpec,
    PolicyReader,
    Selection,
    parse_measure_spec,
    validate_spec,
)

TOLERANCE = 1e-9

# Expected classification (subadditive, dissimilarity-preferring) per measure.
EXPECTED_CLASSIFICATION: dict[str, tuple[bool, bool]] = {
    "richness": (True, True),
    "circles": (True, True),
    "coverage": (True, False),
    "diversity": (False, True),
    "sum_diversity": (False, True),
    "diameter": (False, True),
    "sum_diameter": (False, False),
    "bottleneck": (False, True),
    "sum_bottleneck": (False, True),
    "dpp": (False, True),
}

DEFAULT_TABLE_SPECS: tuple[MeasureSpec, ...] = (
    MeasureSpec("richness"),
    MeasureSpec("diversity"),
    MeasureSpec("sum_diversity"),
    MeasureSpec("diameter"),
    MeasureSpec("sum_diameter"),
    MeasureSpec("bottleneck"),
    MeasureSpec("sum_bottleneck"),
    MeasureSpec("dpp"),
    MeasureSpec("coverage"),
    MeasureSpec("circles", {"t": 0.5}),
)


@dataclass
class World:
    """A small explicit-metric universe the checks evaluate measures on.

    ``matrix`` is kept as a float64 copy with its diagonal zeroed.
    ``key_codes`` holds per point a code that points share exactly when their
    keys are equal; it is numbered from ``keys`` when not given.
    """

    matrix: np.ndarray
    keys: list[str]
    fragments: list[frozenset[str]]
    key_codes: np.ndarray | None = field(default=None, repr=False, compare=False)
    _conflicts: dict[float, list[int]] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.matrix = np.array(self.matrix, dtype=np.float64)
        self.matrix.flat[:: self.n + 1] = 0.0
        if self.key_codes is None:
            codes: dict[str, int] = {}
            self.key_codes = np.array(
                [codes.setdefault(k, len(codes)) for k in self.keys], dtype=np.int64
            )

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def conflicts(self, t: float) -> list[int]:
        """The conflict bitmasks of all points at threshold t, built on first use."""
        if t not in self._conflicts:
            self._conflicts[t] = threshold_adjacency(self.matrix, t)
        return self._conflicts[t]

    def to_payload(self) -> dict[str, Any]:
        return {
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "keys": list(self.keys),
            "fragments": [sorted(f) for f in self.fragments],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "World":
        return cls(
            matrix=payload["matrix"],
            keys=list(payload["keys"]),
            fragments=[frozenset(f) for f in payload["fragments"]],
        )


WORLD_READER = PolicyReader("the axiom harness", (), "exact")


def _check_spec(spec: MeasureSpec) -> None:
    """Refuse a spec the measure table refuses, or a circles parameter that
    exact packing would not read."""
    validate_spec(spec)
    WORLD_READER.check(spec)


def world_selection(world: World, idx: list[int]) -> Selection:
    """The selection of a world's points ``idx`` (sorted, without repeats).

    Its submatrix is gathered on first use and shared by every distance
    measure read from it. Circles is always solved exactly here, on the
    subgraph of the world's conflict bitmasks at t that the points induce.
    """
    avail = sum(1 << i for i in idx)
    return Selection(idx, lambda: gather_submatrix(world.matrix, np.array(idx)), lambda spec: EXACT,
                     lambda t: ConflictMasks.at_hand(world.conflicts(t), avail),
                     key_codes=lambda i: world.key_codes[i], fragments=world.fragments.__getitem__)


def world_measure(spec: MeasureSpec, subset, world: World) -> float:
    """Evaluate one measure on a subset of a world's points, taken sorted and
    without repeats; 0.0 on the empty subset."""
    _check_spec(spec)
    idx = sorted(int(i) for i in set(subset))
    return MEASURES[spec.kind].batch(world_selection(world, idx), spec)[0] if idx else 0.0


_FRAGMENT_POOL = 8
# Every fragment set a random world can hold, indexed by its bitmask over f0..f7.
_FRAGMENT_SETS = tuple(
    frozenset(f"f{k}" for k in range(_FRAGMENT_POOL) if mask >> k & 1)
    for mask in range(1 << _FRAGMENT_POOL)
)


def _build_worlds(draws: list[tuple[int, np.ndarray]], dup_prob: float = 0.15) -> Iterator[World]:
    """The world of each ``(size, uniforms)`` draw, read as ``random_world``
    reads its one draw of ``14 * size`` uniforms, in draw order. The draws of
    each size are read in one numpy pass, all before the first world is
    made; each world is then made when the iterator reaches it."""
    by_size: dict[int, list[np.ndarray]] = {}
    for size, draw in draws:
        by_size.setdefault(size, []).append(draw)
    built = {}
    for size, group in by_size.items():
        u = np.array(group).reshape(len(group), 14 * size)
        rows = np.arange(len(group))[:, None]
        # A copy points at a uniformly chosen earlier point (point 0 can only
        # point at itself); following the pointers to a fresh point gives its root.
        point = np.arange(size)
        sources = (u[:, size : 2 * size] * point).astype(np.int64)
        root = np.where(u[:, :size] < dup_prob, sources, point)
        while (root[rows, root] != root).any():
            root = root[rows, root]
        pts = u[:, 2 * size : 5 * size].reshape(len(group), size, 3)[rows, root]
        diff = pts[:, :, None, :] - pts[:, None, :, :]
        matrices = np.sqrt((diff**2).sum(axis=3)) / np.sqrt(3.0)
        # The first k entries of a uniform random permutation are a uniform
        # k-subset, drawn without replacement; k is 1 + floor(3u).
        order = np.argsort(u[:, 6 * size :].reshape(len(group), size, _FRAGMENT_POOL), axis=2)
        taken = np.arange(_FRAGMENT_POOL) <= (3 * u[:, 5 * size : 6 * size, None]).astype(np.int64)
        masks = np.where(taken, np.left_shift(1, order), 0).sum(axis=2)[rows, root]
        built[size] = iter(zip(matrices, root, root.tolist(), masks.tolist()))
    for size, _ in draws:
        matrix, codes, roots, masks = next(built[size])
        yield World(
            matrix, [f"p{r}" for r in roots], list(map(_FRAGMENT_SETS.__getitem__, masks)), codes
        )


def random_world(rng: np.random.Generator, size: int, dup_prob: float = 0.15) -> World:
    """Random points in the unit cube (distances scaled into [0, 1]); some
    points are exact duplicates so uniqueness-sensitive measures get exercised.

    Point 0 is fresh; each later point is, with probability ``dup_prob``, a
    copy of a uniformly chosen earlier point (its key ``p{root}``, position
    and fragments, where root is the fresh point it copies through any chain of
    copies). Fresh point i has key ``p{i}`` and 1 to 3 distinct fragments drawn
    uniformly from f0..f7. The whole world is read from one draw of
    ``14 * size`` uniforms: per point a duplicate flag, a source, three
    coordinates, a fragment count and eight keys that order the fragments.
    Its key codes are the roots. It is the one-world case of ``_build_worlds``.
    """
    return next(_build_worlds([(size, rng.random(14 * size))], dup_prob))


@dataclass
class Counterexample:
    """A replayable axiom violation."""

    measure: str
    check: str  # "subadditivity" or "dissimilarity"
    side: str  # lower / upper / midpoint
    description: str
    world: dict[str, Any]
    s1: list[int]
    s2: list[int]
    values: dict[str, float]
    found_at_trial: int
    tolerance: float = TOLERANCE

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class CheckResult:
    """Outcome of one bounded-search axiom check."""

    measure: str
    check: str
    holds: bool
    trials: int
    seed: int | None = None
    counterexample: Counterexample | None = None
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        """Every field, leaving out an unset seed, note or counterexample."""
        return {k: v for k, v in asdict(self).items() if v is not None and v != ""}


def _refuted(
    spec: MeasureSpec,
    check: str,
    trial_no: int,
    hit: tuple[str, dict[str, float]],
    description: str,
    world: dict[str, Any],
    s1,
    s2,
    tol: float,
    seed: int | None = None,
    note: str = "",
) -> CheckResult:
    """The result of a search whose candidate number ``trial_no`` violated the axiom."""
    side, values = hit
    ce = Counterexample(
        spec.key(), check, side, description, world, list(s1), list(s2), values, trial_no, tol
    )
    return CheckResult(spec.key(), check, False, trial_no, seed, ce, note)


def _subadditivity_side(
    v1: float, v2: float, vu: float, tol: float
) -> tuple[str, dict[str, float]] | None:
    """The side of max(mu(S1), mu(S2)) <= mu(S1 | S2) <= mu(S1) + mu(S2) that
    the values break by more than tol, with the three values; None if neither."""
    if vu < max(v1, v2) - tol:
        side = "lower"
    elif vu > v1 + v2 + tol:
        side = "upper"
    else:
        return None
    return side, {"mu_s1": v1, "mu_s2": v2, "mu_union": vu}


def _dissimilarity_violation(
    spec: MeasureSpec, v_mid: float, v_alt: float, tol: float = TOLERANCE
) -> tuple[str, dict[str, float]] | None:
    """A "midpoint" hit with the two values when the off-center candidate
    scores above the midpoint; None if not. Packing counts and richness are
    integers and compare exactly; the other kinds allow tol. It takes values,
    not worlds, so each world of the grid is evaluated once for all the pairs
    that read it."""
    exact = spec.kind in ("circles", "richness")
    if v_mid < v_alt if exact else v_mid < v_alt - tol:
        return "midpoint", {"mu_midpoint": v_mid, "mu_candidate": v_alt}
    return None


def _seed_world(rows: list[list[float]]) -> World:
    keys = [f"p{i}" for i in range(len(rows))]
    return World(np.array(rows), keys, [frozenset({c}) for c in "abcd"[: len(rows)]])


def _seed_worlds(kind: str) -> list[tuple[str, World, list[int], list[int]]]:
    """Hand-built violation instances tried before random search.

    Near-duplicate insertion breaks the min-flavored measures and the
    determinant; two tight, far-apart clusters break the max/sum-flavored
    ones on the upper inequality.
    """
    inlier = (
        "add a point with below-average distances",
        _seed_world([[0.0, 0.9, 0.1], [0.9, 0.0, 0.8], [0.1, 0.8, 0.0]]),
        [0, 1],
        [2],
    )
    near_duplicate = (
        "insert a near-duplicate of one member",
        _seed_world([[0.0, 0.9, 0.05], [0.9, 0.0, 0.85], [0.05, 0.85, 0.0]]),
        [0, 1],
        [2],
    )
    near_duplicate_dpp = (
        "insert a near-duplicate of one member",
        _seed_world([[0.0, 0.5, 0.01], [0.5, 0.0, 0.5], [0.01, 0.5, 0.0]]),
        [0, 1],
        [2],
    )
    clusters = (
        "merge two tight, far-apart clusters",
        _seed_world(
            [[0.0, 0.1, 0.9, 0.9], [0.1, 0.0, 0.9, 0.9], [0.9, 0.9, 0.0, 0.1], [0.9, 0.9, 0.1, 0.0]]
        ),
        [0, 1],
        [2, 3],
    )
    seeds = {
        "diversity": inlier,
        "bottleneck": near_duplicate,
        "sum_bottleneck": near_duplicate,
        "dpp": near_duplicate_dpp,
        "diameter": clusters,
        "sum_diameter": clusters,
        "sum_diversity": clusters,
    }
    return [seeds[kind]] if kind in seeds else []


# Worlds drawn and built at once. Larger blocks save little more time per
# world and hold more of the stream in memory at once.
_BLOCK = 64

_Split = tuple[World, list[int], list[int]]


def _random_splits(rng: np.random.Generator, count: int) -> Iterator[_Split]:
    """``count`` random worlds of 2 to 12 points, each with two random,
    possibly overlapping sets.

    The stream is read at the call, per world as one at a time would read it:
    a size, the world's ``14 * size`` uniforms, then ``size`` more for the
    roles. The worlds are built by ``_build_worlds``, and the roles of all of
    them are read in one pass.
    """
    draws, roles = [], []
    for _ in range(count):
        size = int(rng.integers(2, 13))
        draws.append((size, rng.random(14 * size)))
        roles.append(rng.random(size))
    # Role bit 0 puts a point in S1 and bit 1 in S2: neither, S1, S2 or both.
    codes = (4 * np.concatenate(roles)).astype(np.int64).tolist()
    return _splits(_build_worlds(draws), codes)


def _splits(worlds: Iterator[World], codes: list[int]) -> Iterator[_Split]:
    """Each world with S1 and S2 read from its points' run of role ``codes``."""
    start = 0
    for world in worlds:
        roles = list(enumerate(codes[start : start + world.n]))
        start += world.n
        yield world, [i for i, role in roles if role & 1], [i for i, role in roles if role & 2]


def _pair_selections(world: World, s1: list[int], s2: list[int]) -> list[Selection | None]:
    """The selections of S1, S2 and S1 | S2 (each sorted, without repeats)
    that every open spec reads; None stands for an empty side."""
    sides = (s1, s2, sorted(set(s1) | set(s2)))
    return [world_selection(world, idx) if idx else None for idx in sides]


def _pair_values(spec: MeasureSpec, sides: list[Selection | None]) -> list[float]:
    """mu(S1), mu(S2) and mu(S1 | S2) read from ``_pair_selections``: the
    values ``world_measure`` gives on the three sides."""
    batch = MEASURES[spec.kind].batch
    return [0.0 if sel is None else batch(sel, spec)[0] for sel in sides]


def _search_subadditivity(
    specs: tuple[MeasureSpec, ...], trials: int, seed: int, tol: float
) -> list[CheckResult]:
    """One subadditivity search over every spec, in spec order.

    Each spec first tries its own k constructions (trials 1..k). Random world
    j is then drawn once from the seeded stream and tested against every spec
    still open, as that spec's trial k + j; a spec closes at its first hit or
    once it has seen ``trials`` candidates (all its constructions, at least).
    Worlds are drawn in blocks of up to ``_BLOCK``, never more than the open
    specs still need; each is tested with one selection per side of its split
    that every open spec reads.
    """
    if trials < 1:
        raise AxiomCheckError(f"trials must be at least 1, got {trials}")
    for spec in specs:
        _check_spec(spec)
    seeded = [_seed_worlds(spec.kind) for spec in specs]
    budget = [max(trials, len(constructions)) for constructions in seeded]
    found: list[CheckResult | None] = [None] * len(specs)

    def refuted(pos, trial_no, hit, description, world, s1, s2) -> CheckResult:
        return _refuted(specs[pos], "subadditivity", trial_no, hit, description,
                        world.to_payload(), s1, s2, tol, seed)

    for pos, spec in enumerate(specs):
        for trial_no, (description, world, s1, s2) in enumerate(seeded[pos], 1):
            hit = _subadditivity_side(*_pair_values(spec, _pair_selections(world, s1, s2)), tol)
            if hit is not None:
                found[pos] = refuted(pos, trial_no, hit, description, world, s1, s2)
                break
    # The random worlds each spec may still see once its constructions are tried.
    left = [n - len(constructions) for n, constructions in zip(budget, seeded)]
    open_ = [pos for pos, n in enumerate(left) if found[pos] is None and n > 0]
    rng = np.random.default_rng(seed)
    drawn = 0
    while open_:
        for world, s1, s2 in _random_splits(rng, min(_BLOCK, max(left[p] for p in open_) - drawn)):
            drawn += 1
            sides = _pair_selections(world, s1, s2)
            for pos in open_:
                hit = _subadditivity_side(*_pair_values(specs[pos], sides), tol)
                if hit is not None:
                    found[pos] = refuted(
                        pos, len(seeded[pos]) + drawn, hit, "random world search", world, s1, s2
                    )
            open_ = [p for p in open_ if found[p] is None and drawn < left[p]]
            if not open_:
                break
    note = "no counterexample in {} trials"
    return [
        CheckResult(spec.key(), "subadditivity", True, n, seed, note=note.format(n))
        if result is None else result
        for spec, n, result in zip(specs, budget, found)
    ]


def check_subadditivity(
    spec: MeasureSpec, trials: int = 1000, seed: int = 0, tol: float = TOLERANCE
) -> CheckResult:
    """Search for a set pair violating either subadditivity inequality.

    Known constructions for the measure (if any) are tried first, then random
    worlds of 2 to 12 points with random overlapping splits, up to ``trials``
    candidates in all (every construction is tried even when trials is smaller).
    """
    return _search_subadditivity((spec,), trials, seed, tol)[0]


def replay_counterexample(ce: Counterexample | dict[str, Any]) -> bool:
    """Re-evaluate a stored counterexample with the violation test of its
    check; True when it still violates, on the same side, with the same values."""
    data = ce.to_dict() if isinstance(ce, Counterexample) else ce
    spec = parse_measure_spec(data["measure"])
    tol = float(data.get("tolerance", TOLERANCE))
    stored, world = data["values"], data["world"]
    if data["check"] == "subadditivity":
        _check_spec(spec)
        s1, s2 = (sorted(set(data[side])) for side in ("s1", "s2"))
        hit = _subadditivity_side(
            *_pair_values(spec, _pair_selections(World.from_payload(world), s1, s2)), tol
        )
    elif data["check"] == "dissimilarity":
        if spec.kind == "circles":  # found at one threshold of the grid
            spec = MeasureSpec("circles", {"t": float(stored["t"])})
        v_mid = world_measure(spec, data["s1"], World.from_payload(world["midpoint"]))
        v_alt = world_measure(spec, data["s2"], World.from_payload(world["candidate"]))
        hit = _dissimilarity_violation(spec, v_mid, v_alt, tol)
    else:
        raise ValueError(f"unknown check kind: {data['check']!r}")
    return (
        hit is not None
        and hit[0] == data["side"]
        and all(abs(v - stored[k]) <= 1e-12 for k, v in hit[1].items())
    )


@dataclass(frozen=True)
class GeodesicConfig:
    """Three points on a segment: endpoints at distance a, candidate at
    distance delta from one end and a - delta from the other."""

    a: float
    delta: float

    def __post_init__(self):
        if not 0 < self.a <= 1:
            raise ValueError("a must be in (0, 1]")
        if not 0 < self.delta < self.a:
            raise ValueError("delta must be in (0, a)")

    def matrix(self) -> np.ndarray:
        a, d = self.a, self.delta
        return np.array(
            [
                [0.0, a, d],
                [a, 0.0, a - d],
                [d, a - d, 0.0],
            ]
        )

    def world(self, keys=("x1", "x2", "x"), fragments=None) -> World:
        frags = fragments or [frozenset({"a"}), frozenset({"b"}), frozenset({"c"})]
        return World(matrix=self.matrix(), keys=list(keys), fragments=frags)


_TRIPLE = (0, 1, 2)

# Binary fragment coverage ignores geometry: the midpoint repeats an endpoint
# fragment while the off-center candidate brings a new one.
_COVERAGE_NOTE = "not applicable: depends on the fragment assignment, not on distances"
_COVERAGE_DESCRIPTION = (
    "fails by construction: binary fragment coverage is independent of "
    "distances; midpoint carries a repeated fragment while the off-center "
    "candidate carries a new one"
)
_GEODESIC_DESCRIPTION = "off-center geodesic candidate beats the midpoint"
_COVERAGE_MID_FRAGMENTS = [frozenset({"f1"}), frozenset({"f2"}), frozenset({"f1"})]
_COVERAGE_ALT_FRAGMENTS = [frozenset({"f1"}), frozenset({"f2"}), frozenset({"f3"})]


def _grid_specs(spec: MeasureSpec, t_values) -> list[tuple[MeasureSpec, dict[str, float]]]:
    """Circles at each threshold of the grid, with the grid point's t, or any
    other spec alone, with no t; each spec checked."""
    _check_spec(spec)
    if spec.kind != "circles":
        return [(spec, {})]
    at_t = [(MeasureSpec("circles", {"t": float(t)}), {"t": float(t)}) for t in t_values]
    for grid_spec, _ in at_t:
        _check_spec(grid_spec)
    return at_t


def _geodesic_values(columns: list[MeasureSpec], points: list[tuple[float, float]]) -> np.ndarray:
    """``values[i, j]``: spec ``columns[j]`` on the three points of geodesic
    world ``points[i]`` = (a, delta). Each world and its selection are built
    once and read by every column, then dropped."""
    values = np.empty((len(points), len(columns)))
    for row, (a, delta) in enumerate(points):
        sel = world_selection(GeodesicConfig(a, delta).world(), list(_TRIPLE))
        values[row] = [MEASURES[spec.kind].batch(sel, spec)[0] for spec in columns]
    return values


def _coverage_dissimilarity(spec: MeasureSpec, tol: float) -> CheckResult:
    """Coverage's one midpoint/candidate pair: its construction."""
    mid = GeodesicConfig(1.0, 0.5).world(fragments=_COVERAGE_MID_FRAGMENTS)
    alt = GeodesicConfig(1.0, 0.25).world(fragments=_COVERAGE_ALT_FRAGMENTS)
    v_mid, v_alt = world_measure(spec, _TRIPLE, mid), world_measure(spec, _TRIPLE, alt)
    hit = _dissimilarity_violation(spec, v_mid, v_alt, tol)
    if hit is None:
        return CheckResult(spec.key(), "dissimilarity", True, 1, note=_COVERAGE_NOTE)
    side, values = hit
    world = {"midpoint": mid.to_payload(), "candidate": alt.to_payload()}
    return _refuted(
        spec, "dissimilarity", 1, (side, values | {"a": 1.0, "delta": 0.25}),
        _COVERAGE_DESCRIPTION, world, _TRIPLE, _TRIPLE, tol, note=_COVERAGE_NOTE,
    )


def _search_dissimilarity(
    specs: tuple[MeasureSpec, ...], a_grid, delta_fracs, t_grid, tol: float
) -> list[CheckResult]:
    """Every spec's dissimilarity check, in spec order, from one pass over the
    geodesic worlds.

    Each distinct (a, delta) world of the grid is built once, and every spec
    (circles at every grid threshold) reads its value there
    (``_geodesic_values``). Each spec then scans its midpoint/candidate pairs
    in search order, threshold by threshold, and stops at its first hit,
    whose two worlds are built again for the payload. Coverage does not read
    distances, so its one construction is its only pair.
    """
    a_values = np.linspace(0.1, 1.0, 10) if a_grid is None else np.asarray(a_grid, dtype=float)
    fracs = np.arange(1, 20) / 20.0 if delta_fracs is None else np.asarray(delta_fracs, dtype=float)
    t_values = np.linspace(0.0, 0.9, 10) if t_grid is None else np.asarray(t_grid, dtype=float)
    grids = [_grid_specs(spec, t_values) for spec in specs]
    pairs = [
        (a, delta)
        for a in map(float, a_values)
        for delta in (a * float(frac) for frac in fracs)
        if 0 < delta < a
    ]
    # Every a has its midpoint world, so an a outside (0, 1] is refused even
    # when no fraction gives it a candidate.
    points = list(dict.fromkeys([(a, a / 2) for a in map(float, a_values)] + pairs))
    row = {point: i for i, point in enumerate(points)}
    geodesic = [grid for spec, grid in zip(specs, grids) if spec.kind != "coverage"]
    columns = [at_t for grid in geodesic for at_t, _ in grid]
    values = _geodesic_values(columns, points)
    # Per pair (row) and column: the midpoint's value and the candidate's.
    mids, alts = values[[row[a, a / 2] for a, _ in pairs]], values[[row[pair] for pair in pairs]]
    results, start = [], 0
    for spec, grid in zip(specs, grids):
        if spec.kind == "coverage":
            results.append(_coverage_dissimilarity(spec, tol))
            continue
        cols = slice(start, start + len(grid))
        results.append(_scan_geodesic(spec, grid, pairs, mids[:, cols], alts[:, cols], tol))
        start += len(grid)
    return results


def _scan_geodesic(
    spec: MeasureSpec, grid, pairs, mids: np.ndarray, alts: np.ndarray, tol: float
) -> CheckResult:
    """One spec's scan in search order: for each point of its ``grid`` (a
    column of ``mids`` and ``alts``), every (a, delta) of ``pairs`` (a row)."""
    trial_no = 0
    for col, (at_t, grid_t) in enumerate(grid):
        for (a, delta), v_mid, v_alt in zip(pairs, mids[:, col].tolist(), alts[:, col].tolist()):
            trial_no += 1
            hit = _dissimilarity_violation(at_t, v_mid, v_alt, tol)
            if hit is not None:
                side, found = hit
                world = {
                    "midpoint": GeodesicConfig(a, a / 2).world().to_payload(),
                    "candidate": GeodesicConfig(a, delta).world().to_payload(),
                }
                values = found | {"a": a, "delta": delta, **grid_t}
                return _refuted(spec, "dissimilarity", trial_no, (side, values),
                                _GEODESIC_DESCRIPTION, world, _TRIPLE, _TRIPLE, tol)
    note = f"midpoint optimal across {trial_no} grid configurations"
    return CheckResult(spec.key(), "dissimilarity", True, trial_no, note=note)


def check_dissimilarity(
    spec: MeasureSpec,
    a_grid=None,
    delta_fracs=None,
    t_grid=None,
    tol: float = TOLERANCE,
) -> CheckResult:
    """Verify the three-point geodesic preference for the midpoint.

    For every (a, delta) on the grid the midpoint configuration must score at
    least as high as the off-center one (ties allowed). Packing counts are
    compared as integers; for the packing measure the scan also sweeps the
    threshold grid. Each distinct (a, delta) world is built once per call,
    whatever the number of thresholds.
    """
    return _search_dissimilarity((spec,), a_grid, delta_fracs, t_grid, tol)[0]


@dataclass
class AxiomReport:
    """Both axiom verdicts for one measure."""

    measure: str
    subadditive: CheckResult
    dissimilar: CheckResult
    trials: int
    seed: int

    def classification(self) -> tuple[bool, bool]:
        return self.subadditive.holds, self.dissimilar.holds

    def to_dict(self) -> dict[str, Any]:
        return {
            "measure": self.measure,
            "subadditive": self.subadditive.holds,
            "dissimilar": self.dissimilar.holds,
            "trials": self.trials,
            "seed": self.seed,
            "subadditivity_check": self.subadditive.to_dict(),
            "dissimilarity_check": self.dissimilar.to_dict(),
        }


def quadrant_table(
    trials: int = 1000, seed: int = 0, specs: tuple[MeasureSpec, ...] = DEFAULT_TABLE_SPECS
) -> dict[str, Any]:
    """Run both axiom checks for every measure and compare the resulting
    classification against the expected one. One subadditivity search and
    one pass over the geodesic worlds serve every spec."""
    rows = []
    matches = True
    subadditive = _search_subadditivity(specs, trials, seed, TOLERANCE)
    dissimilar = _search_dissimilarity(specs, None, None, None, TOLERANCE)
    for spec, sub, dis in zip(specs, subadditive, dissimilar):
        report = AxiomReport(
            measure=spec.key(),
            subadditive=sub,
            dissimilar=dis,
            trials=trials,
            seed=seed,
        )
        row = report.to_dict()
        expected = EXPECTED_CLASSIFICATION.get(spec.kind)
        if expected is not None:
            row["expected_subadditive"], row["expected_dissimilar"] = expected
            matches = matches and report.classification() == expected
        rows.append(row)
    return {"reports": rows, "matches_expected": matches, "trials": trials, "seed": seed}
