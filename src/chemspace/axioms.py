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
is drawn once and tested against every measure still open. The search builds
one selection for each of S1, S2 and S1 | S2 and reads every open measure
from those three; ``world_measure`` builds the same selection for one subset.
Each measure still sees ``trials`` candidates, its own constructions first,
exactly as a search of its own would.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .circles import EXACT, ConflictMasks, threshold_adjacency
from .distances import gather_submatrix
from .errors import AxiomCheckError
from .measures import MEASURES, MeasureSpec, PolicyReader, Selection, parse_measure_spec

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
    """

    matrix: np.ndarray
    keys: list[str]
    fragments: list[frozenset[str]]
    _conflicts: dict[float, list[int]] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.matrix = np.array(self.matrix, dtype=np.float64)
        np.fill_diagonal(self.matrix, 0.0)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def key_codes(self) -> np.ndarray:
        """Per point, a code that points share exactly when their keys are equal."""
        codes: dict[str, int] = {}
        return np.array([codes.setdefault(k, len(codes)) for k in self.keys], dtype=np.int64)

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
    WORLD_READER.check(spec)
    idx = sorted(int(i) for i in set(subset))
    return MEASURES[spec.kind].batch(world_selection(world, idx), spec)[0] if idx else 0.0


_FRAGMENT_POOL = 8
_FRAGMENT_BITS = tuple(1 << k for k in range(_FRAGMENT_POOL))
# Every fragment set a random world can hold, indexed by its bitmask over f0..f7.
_FRAGMENT_SETS = tuple(
    frozenset(f"f{k}" for k in range(_FRAGMENT_POOL) if mask >> k & 1)
    for mask in range(1 << _FRAGMENT_POOL)
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
    """
    u = rng.random(14 * size)
    flags, sources = u[:size].tolist(), u[size : 2 * size].tolist()
    # Point 0 is fresh whatever its flag.
    root = list(range(size))
    for i in range(1, size):
        if flags[i] < dup_prob:
            root[i] = root[int(sources[i] * i)]
    pts = u[2 * size : 5 * size].reshape(size, 3)[root]
    # The first k entries of a uniform random permutation are a uniform
    # k-subset, drawn without replacement; k is 1 + floor(3u).
    order = np.argsort(u[6 * size :].reshape(size, _FRAGMENT_POOL), axis=1).tolist()
    masks = [
        sum(map(_FRAGMENT_BITS.__getitem__, row[: int(3 * x) + 1]))
        for row, x in zip(order, u[5 * size : 6 * size].tolist())
    ]
    diff = pts[:, None, :] - pts[None, :, :]
    matrix = np.sqrt((diff**2).sum(axis=2)) / np.sqrt(3.0)
    return World(
        matrix=matrix,
        keys=[f"p{r}" for r in root],
        fragments=[_FRAGMENT_SETS[masks[r]] for r in root],
    )


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


def _subadditivity_violation(
    spec: MeasureSpec, world: World, s1, s2, tol: float = TOLERANCE
) -> tuple[str, dict[str, float]] | None:
    """``_subadditivity_side`` of the pair's three values on the world."""
    union = sorted(set(s1) | set(s2))
    return _subadditivity_side(
        world_measure(spec, s1, world), world_measure(spec, s2, world),
        world_measure(spec, union, world), tol,
    )


def _dissimilarity_violation(
    spec: MeasureSpec, v_mid: float, v_alt: float, tol: float = TOLERANCE
) -> tuple[str, dict[str, float]] | None:
    """A "midpoint" hit with the two values when the off-center candidate
    scores above the midpoint; None if not. Packing counts and richness are
    integers and compare exactly; the other kinds allow tol. It takes values,
    not worlds, so the grid evaluates a midpoint once for all its candidates."""
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


def _random_split(rng: np.random.Generator) -> tuple[World, list[int], list[int]]:
    """A random world of 2 to 12 points and two random, possibly overlapping sets."""
    world = random_world(rng, size=int(rng.integers(2, 13)))
    # Role bit 0 puts a point in S1 and bit 1 in S2: neither, S1, S2 or both.
    roles = (4 * rng.random(world.n)).astype(np.int64).tolist()
    s1 = [i for i, role in enumerate(roles) if role & 1]
    s2 = [i for i, role in enumerate(roles) if role & 2]
    return world, s1, s2


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
    Only the current random world is kept, with one selection per side of its
    split that every open spec reads.
    """
    if trials < 1:
        raise AxiomCheckError(f"trials must be at least 1, got {trials}")
    for spec in specs:
        WORLD_READER.check(spec)
    seeded = [_seed_worlds(spec.kind) for spec in specs]
    budget = [max(trials, len(constructions)) for constructions in seeded]
    found: list[CheckResult | None] = [None] * len(specs)

    def refuted(pos, trial_no, hit, description, world, s1, s2) -> CheckResult:
        return _refuted(specs[pos], "subadditivity", trial_no, hit, description,
                        world.to_payload(), s1, s2, tol, seed)

    for pos, spec in enumerate(specs):
        for trial_no, (description, world, s1, s2) in enumerate(seeded[pos], 1):
            hit = _subadditivity_violation(spec, world, s1, s2, tol)
            if hit is not None:
                found[pos] = refuted(pos, trial_no, hit, description, world, s1, s2)
                break
    open_ = [pos for pos, n in enumerate(budget) if found[pos] is None and len(seeded[pos]) < n]
    rng = np.random.default_rng(seed)
    drawn = 0
    while open_:
        drawn += 1
        world, s1, s2 = _random_split(rng)
        sides = _pair_selections(world, s1, s2)
        for pos in open_:
            hit = _subadditivity_side(*_pair_values(specs[pos], sides), tol)
            if hit is not None:
                found[pos] = refuted(
                    pos, len(seeded[pos]) + drawn, hit, "random world search", world, s1, s2
                )
        open_ = [p for p in open_ if found[p] is None and len(seeded[p]) + drawn < budget[p]]
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
        hit = _subadditivity_violation(spec, World.from_payload(world), data["s1"], data["s2"], tol)
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
_COVERAGE_MID_FRAGMENTS = [frozenset({"f1"}), frozenset({"f2"}), frozenset({"f1"})]
_COVERAGE_ALT_FRAGMENTS = [frozenset({"f1"}), frozenset({"f2"}), frozenset({"f3"})]


def _geodesic_candidates(spec: MeasureSpec, a_values, fracs, thresholds):
    """Midpoint/candidate pairs in search order, each as (description, spec at
    the grid threshold, midpoint world, its value, candidate world, grid point);
    each midpoint is evaluated once for all its candidates, and each distinct
    (a, delta) world is built once for every threshold. Coverage does not
    read distances, so its one construction is the only pair."""
    if spec.kind == "coverage":
        mid = GeodesicConfig(1.0, 0.5).world(fragments=_COVERAGE_MID_FRAGMENTS)
        alt = GeodesicConfig(1.0, 0.25).world(fragments=_COVERAGE_ALT_FRAGMENTS)
        v_mid = world_measure(spec, _TRIPLE, mid)
        yield _COVERAGE_DESCRIPTION, spec, mid, v_mid, alt, {"a": 1.0, "delta": 0.25}
        return
    geodesic = functools.cache(lambda a, delta: GeodesicConfig(a, delta).world())
    for t in thresholds:
        at_t = spec if t is None else MeasureSpec("circles", {"t": float(t)})
        grid_t = {} if t is None else {"t": float(t)}
        for a in map(float, a_values):
            mid = geodesic(a, a / 2)
            v_mid = world_measure(at_t, _TRIPLE, mid)
            for frac in fracs:
                delta = a * float(frac)
                if 0 < delta < a:
                    yield (
                        "off-center geodesic candidate beats the midpoint", at_t, mid, v_mid,
                        geodesic(a, delta), {"a": a, "delta": delta, **grid_t},
                    )


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
    threshold grid.
    """
    a_values = np.linspace(0.1, 1.0, 10) if a_grid is None else np.asarray(a_grid, dtype=float)
    fracs = np.arange(1, 20) / 20.0 if delta_fracs is None else np.asarray(delta_fracs, dtype=float)
    thresholds = [None]
    if spec.kind == "circles":
        t_values = np.linspace(0.0, 0.9, 10) if t_grid is None else np.asarray(t_grid, dtype=float)
        thresholds = list(t_values)
    note = _COVERAGE_NOTE if spec.kind == "coverage" else ""
    candidates = _geodesic_candidates(spec, a_values, fracs, thresholds)
    trial_no = 0
    for trial_no, (description, at_t, mid, v_mid, alt, grid) in enumerate(candidates, 1):
        hit = _dissimilarity_violation(at_t, v_mid, world_measure(at_t, _TRIPLE, alt), tol)
        if hit is not None:
            side, values = hit
            world = {"midpoint": mid.to_payload(), "candidate": alt.to_payload()}
            return _refuted(
                spec, "dissimilarity", trial_no, (side, values | grid), description, world,
                _TRIPLE, _TRIPLE, tol, note=note,
            )
    note = note or f"midpoint optimal across {trial_no} grid configurations"
    return CheckResult(spec.key(), "dissimilarity", True, trial_no, note=note)


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
    classification against the expected one."""
    rows = []
    matches = True
    subadditive = _search_subadditivity(specs, trials, seed, TOLERANCE)
    for spec, sub in zip(specs, subadditive):
        report = AxiomReport(
            measure=spec.key(),
            subadditive=sub,
            dissimilar=check_dissimilarity(spec),
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
