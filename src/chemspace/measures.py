"""The measure table: every measure kind, defined once.

Every measure maps a set of molecules to a non-negative real and returns 0 on
the empty set. Distance-based measures also return 0 for singletons, so the
value never depends on an arbitrary single-point weight.

``MEASURES`` maps each kind to what it reads, its parameter checks, its value
on a whole ``Selection`` and its growth curve, the value on each of the
selection's prefixes in point order. ``evaluate_measure`` (library and CLI),
the fixed-size protocol and the axiom worlds read the whole-set value, and the
growing-size protocol reads the curve; they differ only in how they build the
selection, and in the ``PolicyReader`` that makes each circles spec a packing
policy. The kernels (``*_from_dmatrix`` and ``*_prefix``) operate on a
precomputed pairwise distance submatrix. A
``Selection`` caches that submatrix, its upper triangle and the triangle's
sum, so the distance measures on one selection build each once; richness
and the gold standard count distinct codes in a column of fingerprint or
label codes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from .circles import (
    ARRIVAL,
    DEFAULT_RESTARTS,
    ConflictMasks,
    PackingPolicy,
    oracle_conflicts,
    packing_policy,
    threshold_adjacency,
)
from .errors import MeasureParamError, MeasureSizeError, MissingFragmentsError
from .fingerprints import Dataset

DPP_EXACT_CAP = 2048
DPP_NEGATIVE_CLAMP = 1e-12


@dataclass(frozen=True)
class MeasureSpec:
    """Which measure to run and with which parameters."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)

    def key(self) -> str:
        """Canonical spec string, e.g. ``circles:t=0.75``."""
        if not self.params:
            return self.kind
        parts = ",".join(f"{k}={_format_param(v)}" for k, v in sorted(self.params.items()))
        return f"{self.kind}:{parts}"

    def __str__(self) -> str:
        return self.key()


def _format_param(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, frozenset):
        return ",".join(sorted(value))
    return str(value)


@dataclass
class MeasureResult:
    """Scalar outcome of one measure evaluation."""

    spec: MeasureSpec
    value: float
    set_size: int
    metadata: dict[str, Any] = field(default_factory=dict)


def _coerce_param(text: str) -> Any:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_measure_spec(text: str) -> MeasureSpec:
    """Parse the ``name[:key=value,...]`` measure mini-grammar."""
    name, _, rest = text.strip().partition(":")
    name = name.strip()
    if name == "gs":
        name = "gold_standard"
    params: dict[str, Any] = {}
    if rest:
        for item in rest.split(","):
            if not item.strip():
                continue
            key, sep, value = (part.strip() for part in item.partition("="))
            if not sep or not value:
                raise MeasureParamError(f"bad parameter {item!r} in measure spec {text!r}")
            if key in params:
                raise MeasureParamError(f"parameter {key!r} given twice in measure spec {text!r}")
            params[key] = _coerce_param(value)
    spec = MeasureSpec(kind=name, params=params)
    validate_spec(spec)
    return spec


def validate_spec(spec: MeasureSpec, size: int | None = None) -> None:
    """Check a spec against the table; ``size`` is the set size it will run on."""
    entry = MEASURES.get(spec.kind)
    if entry is None:
        raise MeasureParamError(f"unknown measure kind: {spec.kind!r}")
    for key in spec.params:
        if key not in entry.params:
            takes = f"it takes {', '.join(entry.params)}" if entry.params else "it takes none"
            raise MeasureParamError(f"{spec.kind} has no parameter {key!r}; {takes}")
    if entry.check is not None:
        entry.check(spec, size)


def _check_circles(spec: MeasureSpec, size: int | None) -> None:
    t = spec.param("t")
    if t is None:
        raise MeasureParamError("circles requires parameter t")
    if not isinstance(t, (int, float)) or not 0.0 <= float(t) < 1.0:
        raise MeasureParamError(f"circles threshold t must be in [0,1), got {t!r}")
    MEASURE_READER.policy(spec, size if spec.param("mode") == "exact" else None)


@dataclass(frozen=True)
class PolicyReader:
    """How one entry point reads a circles spec into its packing policy: t,
    the parameters in ``reads``, and ``mode`` when it does not read mode."""

    who: str
    reads: tuple[str, ...] = ("mode", "restarts", "seed")
    mode: str = "auto"

    def check(self, spec: MeasureSpec) -> None:
        """Refuse a circles parameter the reader would not read, bar its mode."""
        takes = ["t", *self.reads] + ([] if "mode" in self.reads else [f"mode={self.mode}"])
        for name, value in spec.params.items() if spec.kind == "circles" else ():
            if name not in takes and f"{name}={value}" not in takes:
                raise MeasureParamError(
                    f"{spec.key()}: {self.who} takes only circles {', '.join(takes)}; drop {name}"
                )

    def policy(self, spec: MeasureSpec, size: int | None = None) -> PackingPolicy:
        """The policy of ``spec`` on ``size`` points."""
        read = {name: value for name, value in spec.params.items() if name in self.reads}
        mode, restarts = read.get("mode", self.mode), read.get("restarts", DEFAULT_RESTARTS)
        return packing_policy(mode, restarts, read.get("seed", 0), size)


MEASURE_READER = PolicyReader("measure")


def _refuse_large_dpp(size: int | None) -> None:
    if size is not None and size > DPP_EXACT_CAP:
        raise MeasureSizeError(
            f"dpp determinant refused for n={size} > {DPP_EXACT_CAP}: the value underflows "
            "at this size; evaluate on a smaller set"
        )


# ---------------------------------------------------------------------------
# Kernels over a pairwise distance submatrix (square, zero diagonal).

@functools.lru_cache(maxsize=16)
def _upper_mask(n: int) -> np.ndarray:
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


def _offdiag(dmatrix: np.ndarray) -> np.ndarray:
    # A boolean mask selects in row-major order, the order of np.triu_indices,
    # at a fraction of the cost and an eighth of the memory of an index pair.
    return dmatrix[_upper_mask(dmatrix.shape[0])]


def _mirror(offdiag: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n matrix with a zero diagonal whose upper triangle,
    row by row, is ``offdiag``: the inverse of ``_offdiag``, copied entry for
    entry with no arithmetic."""
    dmatrix = np.zeros((n, n))
    mask = _upper_mask(n)
    dmatrix[mask] = offdiag
    dmatrix.T[mask] = offdiag
    return dmatrix


# Kernels that read the pairs above the diagonal take them as ``offdiag``,
# gathered once per selection; the two pair-sum kernels take its long-double
# sum, summed once for both.

def diversity_from_dmatrix(dmatrix: np.ndarray, pair_sum: np.longdouble) -> float:
    n = dmatrix.shape[0]
    if n < 2:
        return 0.0
    return float(2.0 * pair_sum / (n * (n - 1)))


def sum_diversity_from_dmatrix(dmatrix: np.ndarray, pair_sum: np.longdouble) -> float:
    n = dmatrix.shape[0]
    if n < 2:
        return 0.0
    return float(2.0 * pair_sum / (n - 1))


def diameter_from_dmatrix(dmatrix: np.ndarray, offdiag: np.ndarray) -> float:
    if dmatrix.shape[0] < 2:
        return 0.0
    return float(offdiag.max())


_STRIP_ROWS = 256


def _sum_of_row_extrema(dmatrix: np.ndarray, reduce, diagonal: float) -> float:
    """Sum over the rows of each row's farthest (np.maximum) or nearest
    (np.minimum) other point, accumulated in long double; 0.0 below two points.

    Rows are reduced in strips: each strip is copied with ``diagonal`` on the
    diagonal of its square block, so the extra memory is O(strip · n), not a
    copy of the whole matrix, and every row is reduced exactly as a full copy's
    row would be.
    """
    if dmatrix.shape[0] < 2:
        return 0.0
    extrema = np.empty(dmatrix.shape[0])
    for start in range(0, dmatrix.shape[0], _STRIP_ROWS):
        stop = start + _STRIP_ROWS
        strip = dmatrix[start:stop].copy()
        np.fill_diagonal(strip[:, start:stop], diagonal)
        reduce.reduce(strip, axis=1, out=extrema[start:stop])
    return float(extrema.sum(dtype=np.longdouble))


def sum_diameter_from_dmatrix(dmatrix: np.ndarray) -> float:
    return _sum_of_row_extrema(dmatrix, np.maximum, -np.inf)


def bottleneck_from_dmatrix(dmatrix: np.ndarray, offdiag: np.ndarray) -> float:
    if dmatrix.shape[0] < 2:
        return 0.0
    return float(offdiag.min())


def sum_bottleneck_from_dmatrix(dmatrix: np.ndarray) -> float:
    return _sum_of_row_extrema(dmatrix, np.minimum, np.inf)


def dpp_from_dmatrix(dmatrix: np.ndarray) -> tuple[float, float | None]:
    """Determinant of the similarity matrix 1 - d (unit diagonal).

    Returns (value, raw determinant). The reported value is clamped at 0 so
    the measure stays non-negative; the raw determinant (which is tiny and
    negative under roundoff, or genuinely negative for non-PSD explicit
    matrices) is preserved for diagnostics.
    """
    n = dmatrix.shape[0]
    if n < 2:
        return 0.0, None
    _refuse_large_dpp(n)
    sim = 1.0 - dmatrix
    np.fill_diagonal(sim, 1.0)
    raw = float(np.linalg.det(sim))
    value = raw
    if -DPP_NEGATIVE_CLAMP <= raw < 0.0:
        value = 0.0
    return max(value, 0.0), raw


# ---------------------------------------------------------------------------
# Prefix kernels: the value on each prefix of the point order (points 0..k),
# read from the whole submatrix, which must be symmetric. Index 0 is the
# singleton, 0.0 for every distance kind.

def _zero_first(values: np.ndarray) -> np.ndarray:
    values[:1] = 0.0
    return values


def _pair_sum_prefix(dmatrix: np.ndarray, divisor) -> np.ndarray:
    """Twice the sum of the distances among points 0..k over ``divisor(k)``.

    Each point's distances to the points before it are summed as one row, and
    the rows are then added in order; a whole-triangle reduction would group
    the additions differently and move the last bits.
    """
    k = np.arange(dmatrix.shape[0])
    sums = np.cumsum([dmatrix[i, :i].sum() for i in k])
    return np.divide(2.0 * sums, divisor(k), out=np.zeros(k.size), where=k > 0)


def _extremum_prefix(dmatrix: np.ndarray, reduce, fill: float) -> np.ndarray:
    """Running ``reduce`` (np.maximum or np.minimum) over the pairs of each
    prefix: each point's extremum to the points before it, accumulated."""
    lower = np.where(_upper_mask(dmatrix.shape[0]).T, dmatrix, fill)
    return _zero_first(reduce.accumulate(reduce.reduce(lower, axis=1)))


def _sum_of_extrema_prefix(dmatrix: np.ndarray, reduce, diagonal: float) -> np.ndarray:
    """For each prefix 0..k, the sum over its members of their farthest
    (np.maximum) or nearest (np.minimum) other member.

    Row k of the column-wise running ``reduce`` holds every member's extremum
    within the prefix; the members are added left to right.
    """
    acc = dmatrix.copy()
    np.fill_diagonal(acc, diagonal)
    reduce.accumulate(acc, axis=0, out=acc)
    acc[_upper_mask(acc.shape[0])] = 0.0
    return _zero_first(np.cumsum(acc, axis=1).diagonal().copy())


def _dpp_prefix(dmatrix: np.ndarray) -> np.ndarray:
    """Determinant of the similarity matrix 1 - d of every prefix.

    Keeps ``M = L^-1``, the inverse of the Cholesky factor of the prefix's
    similarity matrix. With ``l = M @ (1 - d)`` for point k's distances ``d``
    to the points before it, the pivot is ``s = 1 - l.l``, the log
    determinant grows by ``log s`` and ``M`` gains the row
    ``[-(l @ M) / sqrt(s), 1 / sqrt(s)]``. The value freezes at zero once the
    matrix goes singular (``s <= 1e-300``), which for a PSD kernel is
    permanent, and reads 0.0 where ``exp`` of the log determinant underflows.
    """
    n = dmatrix.shape[0]
    values = np.zeros(n)
    inv = np.zeros((n, n))
    inv[:1, :1] = 1.0
    logdet = 0.0
    for k in range(1, n):
        l = inv[:k, :k] @ (1.0 - dmatrix[k, :k])
        s = 1.0 - float(l @ l)
        if s <= 1e-300:
            break
        root = np.sqrt(s)
        inv[k, :k] = -(l @ inv[:k, :k]) / root
        inv[k, k] = 1.0 / root
        logdet += np.log(s)
        if logdet >= -745.0:  # below, exp underflows to 0.0
            values[k] = np.exp(logdet)
    return values


def _distinct_prefix(codes: np.ndarray) -> np.ndarray:
    """Number of distinct codes among the first 1..n."""
    first = np.zeros(codes.size)
    first[np.unique(codes, return_index=True)[1]] = 1.0
    return np.cumsum(first)


def _covered_prefix(sel: Selection, spec: MeasureSpec) -> np.ndarray:
    covered: set[str] = set()
    values = np.empty(len(sel.indices))
    for k, i in enumerate(sel.indices):
        covered |= sel.fragments(i)
        values[k] = _covered([covered], spec)
    return values


def _circles_prefix(sel: Selection, spec: MeasureSpec) -> np.ndarray:
    """Greedy packing count of every prefix: one sphere-exclusion pass in
    point order admits each center when it arrives."""
    centers = np.zeros(len(sel.indices))
    centers[list(ARRIVAL.pack(sel.conflict_masks(float(spec.param("t")))).centers)] = 1.0
    return np.cumsum(centers)


def _circles_batch(sel: Selection, spec: MeasureSpec) -> tuple[float, dict]:
    packing = sel.policy(spec).pack(sel.conflict_masks(float(spec.param("t"))))
    return float(packing.count), {"mode": packing.mode, "optimal": packing.optimal}


# ---------------------------------------------------------------------------
# Selections and their builder for dataset records.

@dataclass(eq=False)
class Selection:
    """One molecule set as the measure table reads it.

    ``indices`` fixes the point order. ``dmatrix`` is the pairwise distance
    submatrix in that order and ``offdiag`` its upper triangle, row by row;
    the distance measures on the selection share both, and ``pair_sum``, the
    long-double sum of ``offdiag`` that diversity and sum_diversity read.
    Each is built on first use: ``dmatrix`` by ``submatrix()`` and
    ``offdiag`` taken from it, or, for a symmetric source with a zero
    diagonal, ``offdiag`` gathered by ``triangle()`` and ``dmatrix`` mirrored
    from it. One of the two builders must be given. ``key_codes`` and
    ``label_codes`` map an index array to the points' fingerprint and
    class-label codes, equal exactly where the fingerprints or labels are;
    ``fragments`` reads one point's fragment set.
    ``policy(spec)`` is a circles spec's packing policy, and ``conflicts(t)``
    the conflict masks at t, taken from ``dmatrix`` when not given.
    """

    indices: Any
    submatrix: Callable[[], np.ndarray] | None = None
    policy: Callable[[MeasureSpec], PackingPolicy] | None = None
    conflicts: Callable[[float], ConflictMasks] | None = None
    key_codes: Callable[[Any], np.ndarray] | None = None
    label_codes: Callable[[Any], np.ndarray] | None = None
    fragments: Callable[[int], Any] | None = None
    triangle: Callable[[], np.ndarray] | None = None
    _dmatrix: np.ndarray | None = field(default=None, init=False, repr=False)
    _upper: np.ndarray | None = field(default=None, init=False, repr=False)
    _pair_sum: np.longdouble | None = field(default=None, init=False, repr=False)

    @property
    def dmatrix(self) -> np.ndarray:
        if self._dmatrix is None:
            if self.submatrix is None:
                self._dmatrix = _mirror(self.offdiag, len(self.indices))
            else:
                self._dmatrix = self.submatrix()
            self._dmatrix.setflags(write=False)
        return self._dmatrix

    @property
    def offdiag(self) -> np.ndarray:
        """The distances above the diagonal of ``dmatrix``, row by row."""
        if self._upper is None:
            self._upper = self.triangle() if self.triangle is not None else _offdiag(self.dmatrix)
        return self._upper

    @property
    def pair_sum(self) -> np.longdouble:
        """The sum of ``offdiag`` in long double."""
        if self._pair_sum is None:
            self._pair_sum = self.offdiag.sum(dtype=np.longdouble)
        return self._pair_sum

    def conflict_masks(self, t: float) -> ConflictMasks:
        if self.conflicts is not None:
            return self.conflicts(t)
        return ConflictMasks.at_hand(threshold_adjacency(self.dmatrix, t))


def dataset_readers(dataset: Dataset) -> dict[str, Callable[[Any], Any]]:
    """The ``key_codes``, ``label_codes`` and ``fragments`` readers of a
    dataset's records."""
    ids, fragment_sets = dataset.ids, dataset.fragments

    def key_codes(idx) -> np.ndarray:
        return dataset.key_codes[idx]

    def label_codes(idx) -> np.ndarray:
        codes = dataset.label_codes[idx]
        unlabeled = np.flatnonzero(codes < 0)
        if unlabeled.size:
            raise MeasureParamError(f"record {ids[idx[unlabeled[0]]]!r} has no class label")
        return codes

    def fragments(i: int) -> frozenset[str]:
        if fragment_sets[i] is None:
            raise MissingFragmentsError(f"record {ids[i]!r} has no fragment annotations")
        return fragment_sets[i]

    return {"key_codes": key_codes, "label_codes": label_codes, "fragments": fragments}


def _as_indices(subset) -> np.ndarray:
    idx = np.asarray(list(subset), dtype=np.int64)
    if idx.size != len(set(idx.tolist())):
        raise ValueError("molecule sets cannot repeat indices")
    return idx


def dataset_selection(subset, dataset: Dataset | None = None, oracle=None) -> Selection:
    """Selection of dataset records. Circles packs by ``MEASURE_READER``'s
    policy on the subset's size, over masks read one oracle row at a time."""
    idx = _as_indices(subset)
    readers = dataset_readers(dataset) if dataset is not None else {}
    policy = lambda spec: MEASURE_READER.policy(spec, idx.size)
    return Selection(idx, lambda: oracle.submatrix(idx), policy,
                     lambda t: oracle_conflicts(oracle, idx, t), **readers)


# ---------------------------------------------------------------------------
# The table.

@dataclass(frozen=True)
class Measure:
    """One measure kind.

    ``reads`` names its input: "distances", "keys", "labels" or "fragments".
    ``params`` names the parameters it takes; a spec giving any other is
    refused. Coverage's ``kind`` only labels the reference collection (FG,
    RS, BM or custom) and is carried in the spec key. ``check(spec, size)``
    rejects bad values of them (None: nothing to check).
    ``batch(selection, spec)`` returns the value on a whole selection and its
    metadata. ``prefix(selection, spec)`` returns the growth curve: the value
    on the selection's first 1..n points, in its point order. Circles packs
    each prefix with one greedy pass in that order.
    """

    reads: str
    batch: Callable[[Selection, MeasureSpec], tuple[float, dict]]
    prefix: Callable[[Selection, MeasureSpec], np.ndarray]
    check: Callable[[MeasureSpec, int | None], None] | None = None
    params: tuple[str, ...] = ()


def _covered(fragment_sets, spec: MeasureSpec) -> float:
    covered = set().union(*fragment_sets)
    universe = spec.param("universe")
    return float(len(covered if universe is None else covered & universe))


def _distinct(codes: np.ndarray) -> float:
    # A set of Python ints: np.unique costs several times more per call on
    # the 200-point protocol subsets and the few-point axiom worlds alike.
    return float(len(set(codes.tolist())))


def _dpp_batch(sel: Selection, spec: MeasureSpec) -> tuple[float, dict]:
    value, raw = dpp_from_dmatrix(sel.dmatrix)
    return value, {"convention": "size<=1"} if raw is None else {"raw_determinant": raw}


# Entries call their kernel inside a lambda, so the module-level name is
# looked up at call time and a replaced kernel (a tracer, a test) takes effect.
MEASURES: dict[str, Measure] = {
    "richness": Measure(
        "keys", lambda s, spec: (_distinct(s.key_codes(s.indices)), {}),
        lambda s, spec: _distinct_prefix(s.key_codes(s.indices))),
    "gold_standard": Measure(
        "labels", lambda s, spec: (_distinct(s.label_codes(s.indices)), {}),
        lambda s, spec: _distinct_prefix(s.label_codes(s.indices))),
    "coverage": Measure(
        "fragments", lambda s, spec: (_covered(map(s.fragments, s.indices), spec), {}),
        _covered_prefix, params=("kind", "universe")),
    "diversity": Measure(
        "distances", lambda s, spec: (diversity_from_dmatrix(s.dmatrix, s.pair_sum), {}),
        lambda s, spec: _pair_sum_prefix(s.dmatrix, lambda k: (k + 1) * k)),
    "sum_diversity": Measure(
        "distances", lambda s, spec: (sum_diversity_from_dmatrix(s.dmatrix, s.pair_sum), {}),
        lambda s, spec: _pair_sum_prefix(s.dmatrix, lambda k: k)),
    "diameter": Measure(
        "distances", lambda s, spec: (diameter_from_dmatrix(s.dmatrix, s.offdiag), {}),
        lambda s, spec: _extremum_prefix(s.dmatrix, np.maximum, -np.inf)),
    "sum_diameter": Measure(
        "distances", lambda s, spec: (sum_diameter_from_dmatrix(s.dmatrix), {}),
        lambda s, spec: _sum_of_extrema_prefix(s.dmatrix, np.maximum, -np.inf)),
    "bottleneck": Measure(
        "distances", lambda s, spec: (bottleneck_from_dmatrix(s.dmatrix, s.offdiag), {}),
        lambda s, spec: _extremum_prefix(s.dmatrix, np.minimum, np.inf)),
    "sum_bottleneck": Measure(
        "distances", lambda s, spec: (sum_bottleneck_from_dmatrix(s.dmatrix), {}),
        lambda s, spec: _sum_of_extrema_prefix(s.dmatrix, np.minimum, np.inf)),
    "dpp": Measure(
        "distances", _dpp_batch, lambda s, spec: _dpp_prefix(s.dmatrix),
        check=lambda spec, size: _refuse_large_dpp(size)),
    "circles": Measure(
        "distances", _circles_batch, _circles_prefix, check=_check_circles,
        params=("t", "mode", "restarts", "seed")),
}


def evaluate_selection(spec: MeasureSpec, sel: Selection) -> MeasureResult:
    """Evaluate one (already validated) spec on a selection."""
    size = len(sel.indices)
    if size == 0:
        return MeasureResult(spec=spec, value=0.0, set_size=0, metadata={"empty": True})
    value, meta = MEASURES[spec.kind].batch(sel, spec)
    return MeasureResult(spec=spec, value=value, set_size=size, metadata=meta)


def evaluate_measure(
    spec: MeasureSpec,
    subset,
    dataset: Dataset | None = None,
    oracle=None,
) -> MeasureResult:
    """Evaluate one measure spec on a molecule set.

    ``oracle`` is required for distance-based kinds and circles; ``dataset``
    for richness, coverage, and the gold standard. Circles follows the spec's
    mode; auto is exact up to ``CHEMSPACE_EXACT_CAP`` (default 64) points.
    """
    validate_spec(spec)
    if MEASURES[spec.kind].reads == "distances":
        if oracle is None:
            raise MeasureParamError(f"{spec.kind} requires a distance oracle")
    elif dataset is None:
        raise MeasureParamError(f"{spec.kind} requires a dataset")
    return evaluate_selection(spec, dataset_selection(subset, dataset, oracle))
