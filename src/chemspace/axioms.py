"""Property-test harness for the two measure validity axioms.

Verdicts come from bounded random search plus hand-built counterexample
seeds, not proofs: "holds" means "no counterexample in N trials". Every
reported counterexample carries enough payload to be replayed exactly.

Checks run on explicit-matrix worlds (random points embedded in the unit
cube, distances scaled to [0, 1]) so that exact geodesic configurations can
be constructed, which binary fingerprints cannot realize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .circles import circles_exact
from .distances import MatrixOracle
from .measures import MEASURES, MeasureSpec, Selection

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
    """A small explicit-metric universe the checks evaluate measures on."""

    matrix: np.ndarray
    keys: list[str]
    fragments: list[frozenset[str]]

    def __post_init__(self):
        self.oracle = MatrixOracle(self.matrix, validate=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def to_payload(self) -> dict[str, Any]:
        return {
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "keys": list(self.keys),
            "fragments": [sorted(f) for f in self.fragments],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "World":
        return cls(
            matrix=np.asarray(payload["matrix"], dtype=np.float64),
            keys=list(payload["keys"]),
            fragments=[frozenset(f) for f in payload["fragments"]],
        )


def world_measure(spec: MeasureSpec, subset, world: World) -> float:
    """Evaluate one measure on a subset of a world's points, taken sorted and
    without repeats. Circles is always solved exactly here."""
    idx = sorted(int(i) for i in set(subset))
    if not idx:
        return 0.0
    oracle = world.oracle

    def pack(sel: Selection, spec: MeasureSpec) -> tuple[float, dict]:
        return float(circles_exact(idx, oracle, t=float(spec.param("t"))).count), {}

    sel = Selection(idx, lambda: oracle.submatrix(idx), pack,
                    key=world.keys.__getitem__, fragments=world.fragments.__getitem__)
    return MEASURES[spec.kind].batch(sel, spec)[0]


def random_world(rng: np.random.Generator, size: int, dup_prob: float = 0.15) -> World:
    """Random points in the unit cube (distances scaled into [0, 1]); some
    points are exact duplicates so uniqueness-sensitive measures get exercised."""
    pts = np.empty((size, 3))
    keys: list[str] = []
    frag_pool = [f"f{k}" for k in range(8)]
    fragments: list[frozenset[str]] = []
    for i in range(size):
        if i > 0 and rng.random() < dup_prob:
            src = int(rng.integers(0, i))
            pts[i] = pts[src]
            keys.append(keys[src])
            fragments.append(fragments[src])
        else:
            pts[i] = rng.random(3)
            keys.append(f"p{i}")
            n_frags = int(rng.integers(1, 4))
            fragments.append(frozenset(rng.choice(frag_pool, size=n_frags, replace=False)))
    diff = pts[:, None, :] - pts[None, :, :]
    matrix = np.sqrt((diff**2).sum(axis=2)) / np.sqrt(3.0)
    return World(matrix=matrix, keys=keys, fragments=fragments)


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
        return {
            "measure": self.measure,
            "check": self.check,
            "side": self.side,
            "description": self.description,
            "world": self.world,
            "s1": self.s1,
            "s2": self.s2,
            "values": self.values,
            "found_at_trial": self.found_at_trial,
            "tolerance": self.tolerance,
        }


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
        out: dict[str, Any] = {
            "measure": self.measure,
            "check": self.check,
            "holds": self.holds,
            "trials": self.trials,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.note:
            out["note"] = self.note
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_dict()
        return out


def _subadditivity_violation(
    spec: MeasureSpec, world: World, s1, s2, tol: float = TOLERANCE
) -> tuple[str, dict[str, float]] | None:
    union = sorted(set(s1) | set(s2))
    v1 = world_measure(spec, s1, world)
    v2 = world_measure(spec, s2, world)
    vu = world_measure(spec, union, world)
    values = {"mu_s1": v1, "mu_s2": v2, "mu_union": vu}
    if vu < max(v1, v2) - tol:
        return "lower", values
    if vu > v1 + v2 + tol:
        return "upper", values
    return None


def _seed_worlds(kind: str) -> list[tuple[str, World, list[int], list[int]]]:
    """Hand-built violation instances tried before random search.

    Near-duplicate insertion breaks the min-flavored measures and the
    determinant; two tight, far-apart clusters break the max/sum-flavored
    ones on the upper inequality.
    """
    far_pair_plus_inlier = World(
        matrix=np.array(
            [
                [0.0, 0.9, 0.1],
                [0.9, 0.0, 0.8],
                [0.1, 0.8, 0.0],
            ]
        ),
        keys=["p0", "p1", "p2"],
        fragments=[frozenset({"a"}), frozenset({"b"}), frozenset({"c"})],
    )
    near_duplicate = World(
        matrix=np.array(
            [
                [0.0, 0.9, 0.05],
                [0.9, 0.0, 0.85],
                [0.05, 0.85, 0.0],
            ]
        ),
        keys=["p0", "p1", "p2"],
        fragments=[frozenset({"a"}), frozenset({"b"}), frozenset({"c"})],
    )
    near_duplicate_dpp = World(
        matrix=np.array(
            [
                [0.0, 0.5, 0.01],
                [0.5, 0.0, 0.5],
                [0.01, 0.5, 0.0],
            ]
        ),
        keys=["p0", "p1", "p2"],
        fragments=[frozenset({"a"}), frozenset({"b"}), frozenset({"c"})],
    )
    two_far_clusters = World(
        matrix=np.array(
            [
                [0.0, 0.1, 0.9, 0.9],
                [0.1, 0.0, 0.9, 0.9],
                [0.9, 0.9, 0.0, 0.1],
                [0.9, 0.9, 0.1, 0.0],
            ]
        ),
        keys=["p0", "p1", "p2", "p3"],
        fragments=[frozenset({"a"}), frozenset({"b"}), frozenset({"c"}), frozenset({"d"})],
    )
    seeds = {
        "diversity": [
            ("add a point with below-average distances", far_pair_plus_inlier, [0, 1], [2])
        ],
        "bottleneck": [
            ("insert a near-duplicate of one member", near_duplicate, [0, 1], [2])
        ],
        "sum_bottleneck": [
            ("insert a near-duplicate of one member", near_duplicate, [0, 1], [2])
        ],
        "dpp": [
            ("insert a near-duplicate of one member", near_duplicate_dpp, [0, 1], [2])
        ],
        "diameter": [
            ("merge two tight, far-apart clusters", two_far_clusters, [0, 1], [2, 3])
        ],
        "sum_diameter": [
            ("merge two tight, far-apart clusters", two_far_clusters, [0, 1], [2, 3])
        ],
        "sum_diversity": [
            ("merge two tight, far-apart clusters", two_far_clusters, [0, 1], [2, 3])
        ],
    }
    return seeds.get(kind, [])


def check_subadditivity(
    spec: MeasureSpec, trials: int = 1000, seed: int = 0, tol: float = TOLERANCE
) -> CheckResult:
    """Search for a set pair violating either subadditivity inequality.

    Known constructions for the measure (if any) are tried first, then random
    worlds of 2 to 12 points with random overlapping splits.
    """
    trial_no = 0
    for description, world, s1, s2 in _seed_worlds(spec.kind):
        trial_no += 1
        hit = _subadditivity_violation(spec, world, s1, s2, tol)
        if hit is not None:
            side, values = hit
            ce = Counterexample(
                measure=spec.key(),
                check="subadditivity",
                side=side,
                description=description,
                world=world.to_payload(),
                s1=list(s1),
                s2=list(s2),
                values=values,
                found_at_trial=trial_no,
                tolerance=tol,
            )
            return CheckResult(
                measure=spec.key(),
                check="subadditivity",
                holds=False,
                trials=trial_no,
                seed=seed,
                counterexample=ce,
            )
    rng = np.random.default_rng(seed)
    while trial_no < trials:
        trial_no += 1
        world = random_world(rng, size=int(rng.integers(2, 13)))
        roles = rng.integers(0, 4, size=world.n)  # 0: neither, 1: s1, 2: s2, 3: both
        s1 = [i for i in range(world.n) if roles[i] in (1, 3)]
        s2 = [i for i in range(world.n) if roles[i] in (2, 3)]
        hit = _subadditivity_violation(spec, world, s1, s2, tol)
        if hit is not None:
            side, values = hit
            ce = Counterexample(
                measure=spec.key(),
                check="subadditivity",
                side=side,
                description="random world search",
                world=world.to_payload(),
                s1=s1,
                s2=s2,
                values=values,
                found_at_trial=trial_no,
                tolerance=tol,
            )
            return CheckResult(
                measure=spec.key(),
                check="subadditivity",
                holds=False,
                trials=trial_no,
                seed=seed,
                counterexample=ce,
            )
    return CheckResult(
        measure=spec.key(),
        check="subadditivity",
        holds=True,
        trials=trial_no,
        seed=seed,
        note=f"no counterexample in {trial_no} trials",
    )


def replay_counterexample(ce: Counterexample | dict[str, Any]) -> bool:
    """Re-evaluate a stored counterexample; True when it still violates."""
    data = ce.to_dict() if isinstance(ce, Counterexample) else ce
    spec = _spec_from_key(data["measure"])
    tol = float(data.get("tolerance", TOLERANCE))
    if data["check"] == "subadditivity":
        world = World.from_payload(data["world"])
        hit = _subadditivity_violation(spec, world, data["s1"], data["s2"], tol)
        if hit is None:
            return False
        side, values = hit
        return side == data["side"] and all(
            abs(values[k] - data["values"][k]) <= 1e-12 for k in values
        )
    if data["check"] == "dissimilarity":
        mid_world = World.from_payload(data["world"]["midpoint"])
        alt_world = World.from_payload(data["world"]["candidate"])
        values = data["values"]
        eff_spec = spec
        if spec.kind == "circles" and "t" in values:
            eff_spec = MeasureSpec("circles", {"t": float(values["t"])})
        v_mid = world_measure(eff_spec, data["s1"], mid_world)
        v_alt = world_measure(eff_spec, data["s2"], alt_world)
        return (
            v_mid < v_alt - tol
            and abs(v_mid - values["mu_midpoint"]) <= 1e-12
            and abs(v_alt - values["mu_candidate"]) <= 1e-12
        )
    raise ValueError(f"unknown check kind: {data['check']!r}")


def _spec_from_key(key: str) -> MeasureSpec:
    from .measures import parse_measure_spec

    return parse_measure_spec(key)


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


# Fragment assignment demonstrating that binary fragment coverage ignores
# geometry: the midpoint repeats an endpoint fragment while the off-center
# candidate brings a new one.
_COVERAGE_MID_FRAGMENTS = [frozenset({"f1"}), frozenset({"f2"}), frozenset({"f1"})]
_COVERAGE_ALT_FRAGMENTS = [frozenset({"f1"}), frozenset({"f2"}), frozenset({"f3"})]


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
    fracs = (np.arange(1, 20) / 20.0) if delta_fracs is None else np.asarray(delta_fracs, dtype=float)

    if spec.kind == "coverage":
        a = 1.0
        mid_world = GeodesicConfig(a, a / 2).world(fragments=_COVERAGE_MID_FRAGMENTS)
        alt_delta = 0.25
        alt_world = GeodesicConfig(a, alt_delta).world(fragments=_COVERAGE_ALT_FRAGMENTS)
        v_mid = world_measure(spec, [0, 1, 2], mid_world)
        v_alt = world_measure(spec, [0, 1, 2], alt_world)
        ce = Counterexample(
            measure=spec.key(),
            check="dissimilarity",
            side="midpoint",
            description=(
                "fails by construction: binary fragment coverage is independent of "
                "distances; midpoint carries a repeated fragment while the off-center "
                "candidate carries a new one"
            ),
            world={"midpoint": mid_world.to_payload(), "candidate": alt_world.to_payload()},
            s1=[0, 1, 2],
            s2=[0, 1, 2],
            values={"mu_midpoint": v_mid, "mu_candidate": v_alt, "a": a, "delta": alt_delta},
            found_at_trial=1,
            tolerance=tol,
        )
        holds = v_mid >= v_alt - tol
        return CheckResult(
            measure=spec.key(),
            check="dissimilarity",
            holds=holds,
            trials=1,
            counterexample=None if holds else ce,
            note="not applicable: depends on the fragment assignment, not on distances",
        )

    thresholds = [None]
    if spec.kind == "circles":
        thresholds = list(np.linspace(0.0, 0.9, 10) if t_grid is None else np.asarray(t_grid, dtype=float))

    trials = 0
    for t in thresholds:
        eff_spec = spec if t is None else MeasureSpec("circles", {"t": float(t)})
        for a in a_values:
            mid_world = GeodesicConfig(float(a), float(a) / 2).world()
            v_mid = world_measure(eff_spec, [0, 1, 2], mid_world)
            for frac in fracs:
                delta = float(a) * float(frac)
                if not 0 < delta < a:
                    continue
                trials += 1
                alt_world = GeodesicConfig(float(a), delta).world()
                v_alt = world_measure(eff_spec, [0, 1, 2], alt_world)
                exact_kinds = ("circles", "richness")
                violated = (
                    v_mid < v_alt if eff_spec.kind in exact_kinds else v_mid < v_alt - tol
                )
                if violated:
                    values = {"mu_midpoint": v_mid, "mu_candidate": v_alt, "a": float(a), "delta": delta}
                    if t is not None:
                        values["t"] = float(t)
                    ce = Counterexample(
                        measure=spec.key(),
                        check="dissimilarity",
                        side="midpoint",
                        description="off-center geodesic candidate beats the midpoint",
                        world={
                            "midpoint": mid_world.to_payload(),
                            "candidate": alt_world.to_payload(),
                        },
                        s1=[0, 1, 2],
                        s2=[0, 1, 2],
                        values=values,
                        found_at_trial=trials,
                        tolerance=tol,
                    )
                    return CheckResult(
                        measure=spec.key(),
                        check="dissimilarity",
                        holds=False,
                        trials=trials,
                        counterexample=ce,
                    )
    return CheckResult(
        measure=spec.key(),
        check="dissimilarity",
        holds=True,
        trials=trials,
        note=f"midpoint optimal across {trials} grid configurations",
    )


def check_corollaries(
    spec: MeasureSpec, trials: int = 300, seed: int = 0, tol: float = TOLERANCE
) -> dict[str, Any]:
    """Spot-check the three consequences of subadditivity on random worlds:
    subtraction bounds, monotonicity under insert/remove, and dominance of
    supersets. Meaningful only for measures that passed the subadditivity
    search."""
    rng = np.random.default_rng(seed)
    failures: dict[str, dict[str, Any]] = {}
    for trial in range(trials):
        world = random_world(rng, size=int(rng.integers(2, 13)))
        roles = rng.integers(0, 4, size=world.n)
        s1 = [i for i in range(world.n) if roles[i] in (1, 3)]
        s2 = [i for i in range(world.n) if roles[i] in (2, 3)]
        diff = [i for i in s1 if i not in s2]
        v1 = world_measure(spec, s1, world)
        v2 = world_measure(spec, s2, world)
        vdiff = world_measure(spec, diff, world)
        if not (v1 + tol >= vdiff >= v1 - v2 - tol):
            failures.setdefault("subtraction", {"trial": trial, "s1": s1, "s2": s2})
        x = int(rng.integers(0, world.n))
        with_x = sorted(set(s1) | {x})
        without_x = [i for i in s1 if i != x]
        vx = world_measure(spec, with_x, world)
        vwo = world_measure(spec, without_x, world)
        if not (vx + tol >= v1 >= vwo - tol):
            failures.setdefault("monotonicity", {"trial": trial, "s1": s1, "x": x})
        nested = [i for i in s1 if rng.random() < 0.6]
        if not world_measure(spec, nested, world) <= v1 + tol:
            failures.setdefault("dominance", {"trial": trial, "s1": s1, "nested": nested})
    return {
        "measure": spec.key(),
        "trials": trials,
        "seed": seed,
        "subtraction": "holds" if "subtraction" not in failures else failures["subtraction"],
        "monotonicity": "holds" if "monotonicity" not in failures else failures["monotonicity"],
        "dominance": "holds" if "dominance" not in failures else failures["dominance"],
        "all_hold": not failures,
    }


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
    reports: list[AxiomReport] = []
    for spec in specs:
        sub = check_subadditivity(spec, trials=trials, seed=seed)
        dis = check_dissimilarity(spec)
        reports.append(
            AxiomReport(
                measure=spec.key(), subadditive=sub, dissimilar=dis, trials=trials, seed=seed
            )
        )
    matches = True
    rows = []
    for spec, report in zip(specs, reports):
        expected = EXPECTED_CLASSIFICATION.get(spec.kind)
        row = report.to_dict()
        if expected is not None:
            row["expected_subadditive"], row["expected_dissimilar"] = expected
            if report.classification() != expected:
                matches = False
        rows.append(row)
    return {"reports": rows, "matches_expected": matches, "trials": trials, "seed": seed}
