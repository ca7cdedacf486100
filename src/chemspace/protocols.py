"""Empirical validity protocols: correlate measures against the number of
distinct bioactivity classes covered by a sampled molecule set.

Two settings. Fixed-size draws many random subsets (biased toward a random
label sub-universe) and rank-correlates each measure with the label-count
gold standard. Growing-size orders a set's molecules as they would be added
one at a time under a sampling bias, reads each measure's per-step curve from
the measure table's prefix kernel on that ordered selection, and compares
incremental curves by dynamic time warping. Everything is a deterministic
function of (dataset, parameters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from .circles import DEFAULT_RESTARTS
from .errors import ProtocolError
from .fingerprints import Dataset
from .distances import TanimotoOracle, gather_submatrix, gather_upper
from .measures import (
    MEASURES,
    MeasureSpec,
    PolicyReader,
    Selection,
    dataset_readers,
    parse_measure_spec,
    validate_spec,
)
from .stats import dtw, is_degenerate, spearman

BIAS_MODES = ("uniform", "similar", "most-similar")
BIAS_LABELS = {
    "uniform": "uniformly sampled",
    "similar": "needs to be similar (power=10)",
    "most-similar": "most similar",
}
DEFAULT_SIMILAR_POWER = 10.0
MAX_SAMPLING_RETRIES = 100

DEFAULT_PROTOCOL_MEASURES: tuple[str, ...] = (
    "diversity",
    "sum_diversity",
    "diameter",
    "sum_diameter",
    "bottleneck",
    "sum_bottleneck",
    "dpp",
    "richness",
    "circles:t=0.75",
)


@dataclass
class CurveSeries:
    """Per-step cumulative values of several measures over a growing set."""

    steps: np.ndarray
    values: dict[str, np.ndarray]


@dataclass
class MeasureStat:
    """One (measure, statistic) row aggregated over independent runs."""

    measure: str
    statistic: str
    per_run: list[float]
    degenerate_runs: int = 0

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_run))

    @property
    def dev(self) -> float:
        if len(self.per_run) < 2:
            return 0.0
        return float(np.std(self.per_run, ddof=1))

    def to_dict(self) -> dict[str, Any]:
        return {
            "measure": self.measure,
            "statistic": self.statistic,
            "mean": self.mean,
            "dev": self.dev,
            "per_run": [float(v) for v in self.per_run],
            "degenerate_runs": self.degenerate_runs,
        }


@dataclass
class ProtocolResult:
    stats: list[MeasureStat]
    config: dict[str, Any]
    curves: list[CurveSeries] = field(default_factory=list)

    def stat(self, measure_key: str) -> MeasureStat:
        for s in self.stats:
            if s.measure == measure_key:
                return s
        raise KeyError(measure_key)


def _check_sample(dataset: Dataset, n: int) -> None:
    """Protocols draw n-molecule sets from a fully labeled dataset."""
    if None in dataset.labels:
        missing = dataset.ids[dataset.labels.index(None)]
        raise ProtocolError(f"protocols need a fully labeled dataset; {missing!r} has no label")
    if not 1 <= n <= len(dataset):
        raise ProtocolError(f"subset size n={n} not in [1, {len(dataset)}]")


# Each fixed-size packing draws its seed from the run seed, and each growth
# curve is one greedy pass in arrival order.
FIXED_READER = PolicyReader("the fixed-size protocol", ("restarts",), "greedy")
GROWING_READER = PolicyReader("the growing-size protocol", (), "greedy")


def _resolve_specs(
    measures: Sequence[MeasureSpec | str],
    n: int,
    counts: dict[str, int],
    reader: PolicyReader,
) -> list[MeasureSpec]:
    """Check a protocol's run counts, then parse and check every spec for it
    on n-point sets, before any work; ``reader`` refuses a circles parameter
    the protocol would not read."""
    for name, count in counts.items():
        if count < 1:
            raise ProtocolError(f"{name} must be at least 1, got {count}")
    out = []
    for m in measures:
        spec = parse_measure_spec(m) if isinstance(m, str) else m
        validate_spec(spec, size=n)
        reader.check(spec)
        out.append(spec)
    return out


def _sample_label_pool(rng: np.random.Generator, dataset: Dataset, n: int) -> np.ndarray:
    """Pick a uniform label-count m, then m label codes, then return the pooled
    record indices; retries when the pool cannot supply n molecules."""
    n_classes = len(dataset.classes)
    for _ in range(MAX_SAMPLING_RETRIES):
        m = int(rng.integers(1, n_classes + 1))
        pool = dataset.indices_for_labels(rng.choice(n_classes, size=m, replace=False))
        if len(pool) >= n:
            return pool
    raise ProtocolError(
        f"could not sample {n} molecules from a random label subset after "
        f"{MAX_SAMPLING_RETRIES} attempts"
    )


# ---------------------------------------------------------------------------
# Fixed-size setting.

def _fixed_selection(full: np.ndarray, subset: np.ndarray, readers: dict, policy) -> Selection:
    """One repeat's subset. Distances come from the precomputed matrix, which
    is exactly symmetric with a zero diagonal: only the subset's upper
    triangle is gathered, and the submatrix is mirrored from it. ``policy``
    maps a circles spec to its packing policy, which packs the conflict masks
    of the submatrix, all at hand."""
    return Selection(subset, policy=policy, triangle=lambda: gather_upper(full, subset), **readers)


def protocol_fixed(
    dataset: Dataset,
    n: int,
    measures: Sequence[MeasureSpec | str] = DEFAULT_PROTOCOL_MEASURES,
    seed: int = 0,
    repeats: int = 200,
    runs: int = 10,
) -> ProtocolResult:
    """Fixed-size setting: rank correlation of each measure with the gold
    standard over repeated random subsets, aggregated over independent runs.

    Each repeat draws a label sub-universe, then n molecules from it, and
    evaluates every measure on the same subset; every circles spec packs
    best-of-k from one seed drawn per repeat, and stops at the first pass
    that reaches the clique-cover bound, which no pass can beat. Degenerate
    correlations (constant measure) are reported as 0 and counted per
    measure.
    """
    _check_sample(dataset, n)
    specs = _resolve_specs(measures, n, {"repeats": repeats, "runs": runs}, FIXED_READER)
    policies = {spec.key(): FIXED_READER.policy(spec) for spec in specs if spec.kind == "circles"}
    full = TanimotoOracle(dataset).full_matrix()
    readers = dataset_readers(dataset)
    gs_spec = MeasureSpec("gold_standard")
    run_seeds = np.random.SeedSequence(seed).spawn(runs)

    def one_run(run_idx: int) -> dict[str, tuple[float, bool]]:
        gs_vals = np.empty(repeats)
        meas_vals = {spec.key(): np.empty(repeats) for spec in specs}
        columns = [(spec, meas_vals[spec.key()]) for spec in specs]
        repeat_seqs = run_seeds[run_idx].spawn(repeats)
        for rep in range(repeats):
            sample_ss, measure_ss = repeat_seqs[rep].spawn(2)
            rng_sample = np.random.default_rng(sample_ss)
            pool = _sample_label_pool(rng_sample, dataset, n)
            subset = rng_sample.choice(pool, size=n, replace=False)
            pack_seed = int(np.random.default_rng(measure_ss).integers(0, 2**31))
            sel = _fixed_selection(
                full, subset, readers, lambda spec: replace(policies[spec.key()], seed=pack_seed)
            )
            gs_vals[rep] = MEASURES["gold_standard"].batch(sel, gs_spec)[0]
            for spec, vals in columns:
                vals[rep] = MEASURES[spec.kind].batch(sel, spec)[0]
        out: dict[str, tuple[float, bool]] = {}
        for key, vals in meas_vals.items():
            degenerate = is_degenerate(vals) or is_degenerate(gs_vals)
            rho = 0.0 if degenerate else spearman(vals, gs_vals)
            out[key] = (rho, degenerate)
        return out

    per_run = [one_run(r) for r in range(runs)]
    stats = []
    for spec in specs:
        key = spec.key()
        values = [per_run[r][key][0] for r in range(runs)]
        degenerate = sum(1 for r in range(runs) if per_run[r][key][1])
        stats.append(
            MeasureStat(
                measure=key,
                statistic="spearman_vs_gold",
                per_run=values,
                degenerate_runs=degenerate,
            )
        )
    config = {
        "protocol": "fixed",
        "n": n,
        "repeats": repeats,
        "runs": runs,
        "seed": seed,
        "measures": [s.key() for s in specs],
    }
    return ProtocolResult(stats=stats, config=config)


# ---------------------------------------------------------------------------
# Growing-size setting.

def _grow_order(
    rng: np.random.Generator,
    pool: np.ndarray,
    n: int,
    bias: str,
    full: np.ndarray,
    power: float,
) -> np.ndarray:
    """Order in which pool molecules enter the growing set under a bias.

    similar: pick with probability proportional to (max similarity to the
    current set) ** power. most-similar: always pick the argmax. uniform:
    ignore distances entirely.
    """
    pool = np.asarray(pool)
    m = len(pool)
    if bias == "uniform":
        return pool[rng.permutation(m)[:n]]
    chosen = np.zeros(m, dtype=bool)
    best_sim = np.zeros(m)
    order = np.empty(n, dtype=np.int64)
    first = int(rng.integers(0, m))
    order[0] = pool[first]
    chosen[first] = True
    np.maximum(best_sim, 1.0 - full[pool[first], pool], out=best_sim)
    for step in range(1, n):
        avail = np.nonzero(~chosen)[0]
        sims = best_sim[avail]
        if bias == "most-similar":
            pick = avail[int(np.argmax(sims))]
        else:
            weights = np.power(np.maximum(sims, 0.0), power)
            total = weights.sum()
            if total <= 0.0:
                pick = avail[int(rng.integers(0, len(avail)))]
            else:
                pick = avail[int(rng.choice(len(avail), p=weights / total))]
        order[step] = pool[pick]
        chosen[pick] = True
        np.maximum(best_sim, 1.0 - full[pool[pick], pool], out=best_sim)
    return order


def protocol_growing(
    dataset: Dataset,
    n: int,
    measures: Sequence[MeasureSpec | str] = DEFAULT_PROTOCOL_MEASURES,
    bias: str = "similar",
    power: float = DEFAULT_SIMILAR_POWER,
    seed: int = 0,
    runs: int = 10,
    normalize_dtw: bool = False,
) -> ProtocolResult:
    """Growing-size setting: per-step measure curves under a sampling bias,
    compared with the gold-standard curve by DTW on incremental series.

    Each run draws a label pool and a growth order from it. The order is one
    ``Selection`` over the precomputed matrix, and every tracked measure's
    curve is ``MEASURES[kind].prefix`` on it: the value after each of the
    first 1..n molecules, with circles packed by one greedy pass in arrival
    order.
    """
    _check_sample(dataset, n)
    if bias not in BIAS_MODES:
        raise ProtocolError(f"bias must be one of {BIAS_MODES}, got {bias!r}")
    specs = _resolve_specs(measures, n, {"runs": runs}, GROWING_READER)
    gs_spec = MeasureSpec("gold_standard")
    tracked = [gs_spec] + [s for s in specs if s.kind != "gold_standard"]
    full = TanimotoOracle(dataset).full_matrix()
    readers = dataset_readers(dataset)
    run_seeds = np.random.SeedSequence(seed).spawn(runs)

    def one_run(run_idx: int) -> tuple[CurveSeries, dict[str, float]]:
        sample_ss, growth_ss = run_seeds[run_idx].spawn(2)
        rng_sample = np.random.default_rng(sample_ss)
        rng_growth = np.random.default_rng(growth_ss)
        pool = _sample_label_pool(rng_sample, dataset, n)
        order = _grow_order(rng_growth, pool, n, bias, full, power)
        sel = Selection(order, lambda: gather_submatrix(full, order), **readers)
        series = {spec.key(): MEASURES[spec.kind].prefix(sel, spec) for spec in tracked}
        # First differences, the step-1 value kept as-is (v[0] - 0.0 == v[0]).
        inc = {key: np.diff(v, prepend=0.0) for key, v in series.items()}
        keys = [spec.key() for spec in specs]
        dtws = dtw(np.stack([inc[key] for key in keys]), inc[gs_spec.key()], normalize=normalize_dtw)
        return CurveSeries(steps=np.arange(1, n + 1), values=series), dict(zip(keys, dtws.tolist()))

    results = [one_run(r) for r in range(runs)]
    curves = [r[0] for r in results]
    stats = []
    for spec in specs:
        key = spec.key()
        values = [results[r][1][key] for r in range(runs)]
        stats.append(MeasureStat(measure=key, statistic="dtw_vs_gold", per_run=values))
    config = {
        "protocol": "growing",
        "n": n,
        "runs": runs,
        "seed": seed,
        "bias": bias,
        "bias_label": BIAS_LABELS[bias],
        "power": power if bias == "similar" else None,
        "normalize_dtw": normalize_dtw,
        "measures": [s.key() for s in specs],
    }
    return ProtocolResult(stats=stats, config=config, curves=curves)


# ---------------------------------------------------------------------------
# Threshold sweep.

@dataclass
class SweepResult:
    rows: list[dict[str, Any]]
    best_t: float
    config: dict[str, Any]


def threshold_sweep(
    dataset: Dataset,
    protocol: str = "fixed",
    t_grid: Sequence[float] = (0.0, 0.25, 0.5, 0.75),
    seed: int = 0,
    n: int = 200,
    repeats: int = 100,
    runs: int = 10,
    bias: str = "similar",
    restarts: int | None = None,
) -> SweepResult:
    """Score the packing measure at every grid threshold in one run of the
    chosen protocol: one circles spec per t, all measured on the same subsets
    or growth orders against one gold standard, so each row equals a
    single-spec protocol run at that t. Best t maximizes the fixed-size
    correlation (ties to the smallest t) or minimizes the growing-size DTW
    distance. The fixed-size protocol packs best-of-``restarts`` (default
    ``DEFAULT_RESTARTS``); the growing-size protocol packs once and refuses
    ``restarts``."""
    if protocol not in ("fixed", "growing"):
        raise ProtocolError(f"protocol must be fixed|growing, got {protocol!r}")
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ProtocolError("the threshold grid is empty")
    if protocol == "fixed" and restarts is None:
        restarts = DEFAULT_RESTARTS
    specs = [
        MeasureSpec("circles", {"t": t} if restarts is None else {"t": t, "restarts": restarts})
        for t in t_grid
    ]
    if protocol == "fixed":
        result = protocol_fixed(dataset, n=n, measures=specs, seed=seed, repeats=repeats, runs=runs)
    else:
        result = protocol_growing(dataset, n=n, measures=specs, bias=bias, seed=seed, runs=runs)
    rows = [{"t": t, **stat.to_dict()} for t, stat in zip(t_grid, result.stats)]
    scores = np.array([stat.mean for stat in result.stats])
    best_idx = int(np.argmax(scores)) if protocol == "fixed" else int(np.argmin(scores))
    config = {
        "protocol": protocol,
        "t_grid": t_grid,
        "n": n,
        "seed": seed,
        "repeats": repeats if protocol == "fixed" else None,
        "runs": runs,
        "bias": bias if protocol == "growing" else None,
    }
    return SweepResult(rows=rows, best_t=t_grid[best_idx], config=config)
