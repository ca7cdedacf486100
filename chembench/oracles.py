"""Checks of the CLI's outputs made apart from the program.

Nothing here imports ``chemspace``: distances are recomputed from unpacked
bits, the axiom table is the benchmark's own copy of the paper's, and
counterexamples are replayed with the benchmark's own measure kernels. Each
``check_*`` function returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

REL_TOL = 1e-9
AXIOM_TOL = 1e-9  # the slack the program allows in the axiom inequalities
REPLAY_TOL = 1e-9  # reported vs recomputed measure values

# The paper's quadrant table: (subadditive, dissimilarity-preferring).
PAPER_TABLE: dict[str, tuple[bool, bool]] = {
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


# ---------------------------------------------------------------------------
# Fingerprint data.

def unpack_hex(hexes: list[str]) -> np.ndarray:
    """(n, width) 0/1 matrix; bit 0 is the top bit of the first hex digit."""
    raw = np.frombuffer(bytes.fromhex("".join(hexes)), dtype=np.uint8)
    return np.unpackbits(raw).reshape(len(hexes), -1)


def tanimoto_matrix(hexes: list[str]) -> np.ndarray:
    """Tanimoto distances from unpacked bits. Counts up to 2**24 are exact in
    float32, so the intersections are exact integers."""
    bits = unpack_hex(hexes).astype(np.float32)
    inter = (bits @ bits.T).astype(np.float64)
    pops = bits.sum(axis=1, dtype=np.float64)
    union = pops[:, None] + pops[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        dist = np.where(union > 0, 1.0 - inter / union, 0.0)
    np.fill_diagonal(dist, 0.0)
    return dist


def check_separated(dist: np.ndarray, hexes: list[str], labels: list[str], t: float) -> list[str]:
    """Unique fingerprints, classes no wider than t, and classes more than t apart."""
    problems = []
    if len(set(hexes)) != len(hexes):
        problems.append(f"{len(hexes) - len(set(hexes))} duplicate fingerprints")
    codes = np.unique(np.asarray(labels), return_inverse=True)[1]
    same = codes[:, None] == codes[None, :]
    if same.any() and dist[same].max() > t:
        problems.append(f"a class is wider than t: max within-class distance {dist[same].max()!r}")
    if (~same).any() and dist[~same].min() <= t:
        problems.append(f"classes not separated at t: min between-class distance {dist[~same].min()!r}")
    return problems


def _rel_close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def diversity_of(dist: np.ndarray) -> float:
    n = dist.shape[0]
    return 2.0 * math.fsum(dist[np.triu_indices(n, k=1)].tolist()) / (n * (n - 1))


def sum_bottleneck_of(dist: np.ndarray) -> float:
    masked = dist.copy()
    np.fill_diagonal(masked, np.inf)
    return math.fsum(masked.min(axis=1).tolist())


# ---------------------------------------------------------------------------
# Per-workload output checks.

def check_db_coverage(doc: dict, hexes: list[str], labels: list[str], dist: np.ndarray) -> list[str]:
    got = {row["measure"].split(":")[0]: row["value"] for row in doc.get("results", [])}
    want = {
        "richness": float(len(set(hexes))),
        "circles": float(len(set(labels))),
        "diversity": diversity_of(dist),
        "sum_bottleneck": sum_bottleneck_of(dist),
    }
    if sorted(got) != sorted(want):
        return [f"measures reported {sorted(got)}, expected {sorted(want)}"]
    problems = []
    for kind in ("richness", "circles"):
        if got[kind] != want[kind]:
            problems.append(f"{kind} = {got[kind]!r}, expected {want[kind]!r}")
    for kind in ("diversity", "sum_bottleneck"):
        if not _rel_close(got[kind], want[kind]):
            problems.append(f"{kind} = {got[kind]!r}, independent value {want[kind]!r}")
    return problems


def _stats_by_kind(doc: dict, runs: int) -> tuple[dict[str, dict], list[str]]:
    rows = {row["measure"].split(":")[0]: row for row in doc.get("results", [])}
    problems = []
    for kind, row in rows.items():
        per_run = row["per_run"]
        if len(per_run) != runs:
            problems.append(f"{kind}: {len(per_run)} values for {runs} runs")
    return rows, problems


def check_corr_fixed(doc: dict, runs: int) -> list[str]:
    rows, problems = _stats_by_kind(doc, runs)
    if "circles" not in rows or "richness" not in rows:
        return problems + ["circles or richness missing from the results"]
    for kind, row in rows.items():
        if not all(-1.0 <= rho <= 1.0 for rho in row["per_run"]):
            problems.append(f"{kind}: rho outside [-1, 1]: {row['per_run']}")
    # Classes are separated at t, so every packing count is the class count.
    if any(rho != 1.0 for rho in rows["circles"]["per_run"]):
        problems.append(f"circles rho not exactly 1.0: {rows['circles']['per_run']}")
    # Fingerprints are unique, so richness is n in every repeat.
    if rows["richness"]["degenerate_runs"] != runs:
        problems.append(f"richness degenerate in {rows['richness']['degenerate_runs']} of {runs} runs")
    return problems


def check_corr_growing(doc: dict, runs: int) -> list[str]:
    rows, problems = _stats_by_kind(doc, runs)
    if "circles" not in rows:
        return problems + ["circles missing from the results"]
    for kind, row in rows.items():
        if not all(math.isfinite(v) and v >= 0.0 for v in row["per_run"]):
            problems.append(f"{kind}: DTW not finite and >= 0: {row['per_run']}")
    # Arrival-order packing admits a point exactly when its class is new.
    if any(v != 0.0 for v in rows["circles"]["per_run"]):
        problems.append(f"circles DTW not exactly 0.0: {rows['circles']['per_run']}")
    return problems


# ---------------------------------------------------------------------------
# Axiom harness: the benchmark's own measures on explicit distance matrices.

def _packing(dmat: np.ndarray, t: float) -> int:
    """Largest subset with all pairwise distances strictly above t (brute force)."""
    n = dmat.shape[0]
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(n), size):
            if all(dmat[i, j] > t for i, j in itertools.combinations(combo, 2)):
                return size
    return 0


def world_value(kind: str, params: dict, world: dict, subset: list[int]) -> float:
    idx = sorted(set(int(i) for i in subset))
    if not idx:
        return 0.0
    if kind == "richness":
        return float(len({world["keys"][i] for i in idx}))
    if kind == "coverage":
        return float(len(set().union(*(world["fragments"][i] for i in idx))))
    dmat = np.asarray(world["matrix"], dtype=np.float64)[np.ix_(idx, idx)]
    np.fill_diagonal(dmat, 0.0)
    if kind == "circles":
        return float(_packing(dmat, float(params["t"])))
    n = len(idx)
    if n < 2:
        return 0.0
    off = [dmat[i, j] for i, j in itertools.combinations(range(n), 2)]
    others = [[dmat[i, j] for j in range(n) if j != i] for i in range(n)]
    if kind == "diversity":
        return 2.0 * math.fsum(off) / (n * (n - 1))
    if kind == "sum_diversity":
        return 2.0 * math.fsum(off) / (n - 1)
    if kind == "diameter":
        return max(off)
    if kind == "sum_diameter":
        return math.fsum(max(row) for row in others)
    if kind == "bottleneck":
        return min(off)
    if kind == "sum_bottleneck":
        return math.fsum(min(row) for row in others)
    if kind == "dpp":
        sim = 1.0 - dmat
        np.fill_diagonal(sim, 1.0)
        return max(float(np.linalg.det(sim)), 0.0)
    raise ValueError(f"no replay for measure {kind!r}")


def _parse_key(key: str) -> tuple[str, dict]:
    kind, _, rest = key.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        name, _, value = item.partition("=")
        params[name] = float(value)
    return kind, params


def replay(ce: dict) -> list[str]:
    """Recompute a counterexample's values from its payload and test its inequality."""
    kind, params = _parse_key(ce["measure"])
    reported = ce["values"]
    tol = AXIOM_TOL
    if ce["check"] == "subadditivity":
        union = sorted(set(ce["s1"]) | set(ce["s2"]))
        got = {
            "mu_s1": world_value(kind, params, ce["world"], ce["s1"]),
            "mu_s2": world_value(kind, params, ce["world"], ce["s2"]),
            "mu_union": world_value(kind, params, ce["world"], union),
        }
        if ce["side"] == "lower":
            holds = got["mu_union"] < max(got["mu_s1"], got["mu_s2"]) - tol
        elif ce["side"] == "upper":
            holds = got["mu_union"] > got["mu_s1"] + got["mu_s2"] + tol
        else:
            return [f"{ce['measure']}: unknown side {ce['side']!r}"]
    elif ce["check"] == "dissimilarity":
        if "t" in reported:
            params = {**params, "t": reported["t"]}
        got = {
            "mu_midpoint": world_value(kind, params, ce["world"]["midpoint"], ce["s1"]),
            "mu_candidate": world_value(kind, params, ce["world"]["candidate"], ce["s2"]),
        }
        slack = 0.0 if kind in ("circles", "richness") else tol
        holds = got["mu_midpoint"] < got["mu_candidate"] - slack
    else:
        return [f"{ce['measure']}: unknown check {ce['check']!r}"]
    problems = []
    if not holds:
        problems.append(f"{ce['measure']} {ce['check']}: inequality does not hold on replay {got}")
    for name, value in got.items():
        if abs(value - reported[name]) > REPLAY_TOL:
            problems.append(f"{ce['measure']} {ce['check']}: {name} reported {reported[name]!r}, replayed {value!r}")
    return problems


def check_axioms(doc: dict) -> list[str]:
    problems = []
    rows = {row["measure"].split(":")[0]: row for row in doc.get("results", [])}
    if sorted(rows) != sorted(PAPER_TABLE):
        return problems + [f"measures classified {sorted(rows)}, expected {sorted(PAPER_TABLE)}"]
    for kind, (sub, dis) in PAPER_TABLE.items():
        row = rows[kind]
        if (row["subadditive"], row["dissimilar"]) != (sub, dis):
            problems.append(f"{kind}: classified ({row['subadditive']}, {row['dissimilar']}), paper ({sub}, {dis})")
        for check in ("subadditivity_check", "dissimilarity_check"):
            result = row[check]
            ce = result.get("counterexample")
            if result["holds"] and ce is not None:
                problems.append(f"{kind} {check}: holds but reports a counterexample")
            elif not result["holds"]:
                problems.extend([f"{kind} {check}: fails without a counterexample"] if ce is None else replay(ce))
    return problems
