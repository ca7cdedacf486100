"""Command-line front end.

Subcommands: measure, compare, axiom-check, corr-fixed, corr-growing,
sweep-t, gen-synthetic, novelty. Reports go to --out (or stdout) as JSON or
CSV carrying the same values. Every run takes a seed (default 0); identical
config + seed reproduces identical output apart from the volatile timing
fields (``timestamp``, ``wall_time_s``).

Only the modules every command shares are imported here; each command
imports the protocol, axiom, novelty and synthetic code it runs,
so a process loads no more of the package than its command needs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .circles import DEFAULT_RESTARTS
from .distances import TanimotoOracle
from .errors import ChemSpaceError, DatasetFormatError, MeasureParamError, ProtocolError
from .fingerprints import Fingerprint, load_dataset, load_universe, write_dataset
from .measures import (
    MEASURES,
    MeasureSpec,
    PolicyReader,
    Selection,
    dataset_selection,
    evaluate_selection,
    parse_measure_spec,
    validate_spec,
)

VOLATILE_KEYS = ("timestamp", "wall_time_s")
# The parser's choices, spelled out so that building it imports neither
# ``protocols`` nor ``novelty``; tests hold them equal to ``BIAS_MODES`` and
# the keys of ``NOVELTY_KINDS``.
BIAS_CHOICES = ("uniform", "similar", "most-similar")
NOVELTY_CHOICES = ("diversity", "sum_bottleneck", "circles")
# The commands that hand --seed to numpy's generators, which refuse a
# negative seed. measure, compare and novelty hand it only to a circles
# packing, whose rules refuse it.
RNG_SEEDED = ("axiom-check", "corr-fixed", "corr-growing", "sweep-t", "gen-synthetic")
# Each repeat packs from --seed plus its number.
COMPARE_READER = PolicyReader("compare", ("mode", "restarts"))


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def render_json(doc: dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"


def strip_volatile(doc: Any) -> Any:
    """Drop timing fields so reruns can be compared byte for byte."""
    if isinstance(doc, dict):
        return {k: strip_volatile(v) for k, v in doc.items() if k not in VOLATILE_KEYS}
    if isinstance(doc, list):
        return [strip_volatile(v) for v in doc]
    return doc


def _flatten(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_flatten(v) for v in value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True, default=_json_default)
    return "" if value is None else str(value)


def render_csv(rows: list[dict[str, Any]]) -> str:
    if not rows:
        return "\n"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_flatten(row.get(col)) for col in columns])
    return buf.getvalue()


def emit(doc: dict[str, Any], rows: list[dict[str, Any]], args) -> None:
    text = render_csv(rows) if args.format == "csv" else render_json(doc)
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _base_doc(command: str, config: dict[str, Any]) -> dict[str, Any]:
    return {
        "command": command,
        "version": __version__,
        "config": config,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _parse_measures(text: str) -> list[MeasureSpec]:
    specs = []
    for item in text.split(","):
        # Commas also separate params inside one spec; re-join chunks that
        # lack a measure name (contain '=' before any ':').
        if specs and "=" in item and ":" not in item:
            prev = specs.pop()
            specs.append(f"{prev},{item}")
        else:
            specs.append(item)
    out = []
    for raw in specs:
        spec = parse_measure_spec(raw)
        if spec.kind == "coverage" and isinstance(spec.param("universe"), str):
            universe = load_universe(spec.param("universe"))
            params = dict(spec.params)
            params["universe"] = universe
            spec = MeasureSpec("coverage", params)
        out.append(spec)
    return out


# ---------------------------------------------------------------------------
# Subcommands.

def _checked(specs: list[MeasureSpec], dataset) -> Selection:
    """Check every spec against the dataset size before any work, then return
    the selection of all its records that the specs share.

    Every distance kind but circles reads the whole n x n matrix, so when one
    is listed the matrix is built here, before the first measure runs. It is
    then the selection's ``dmatrix`` and the source of every packing row;
    circles alone reads only the rows of its centers.
    """
    for spec in specs:
        validate_spec(spec, size=len(dataset))
    if not len(dataset):
        return dataset_selection([], dataset)
    oracle = TanimotoOracle(dataset)
    if any(MEASURES[s.kind].reads == "distances" and s.kind != "circles" for s in specs):
        oracle.full_matrix()
    # Every record in order: the selection's submatrix is the full matrix itself.
    sel = dataset_selection(np.arange(len(dataset)), dataset, oracle)
    return replace(sel, submatrix=oracle.full_matrix)


def cmd_measure(args) -> int:
    dataset = load_dataset(args.input)
    specs = [
        MeasureSpec("circles", {**spec.params, "seed": args.seed})
        if spec.kind == "circles" and "seed" not in spec.params
        else spec
        for spec in _parse_measures(args.measures)
    ]
    sel = _checked(specs, dataset)
    if len(dataset) == 0:
        print(f"warning: {args.input} holds no records; all measures are 0", file=sys.stderr)
    rows = []
    for spec in specs:
        start = time.perf_counter()
        result = evaluate_selection(spec, sel)
        rows.append(
            {
                "measure": result.spec.key(),
                "value": result.value,
                "set_size": result.set_size,
                "metadata": result.metadata,
                "wall_time_s": round(time.perf_counter() - start, 6),
            }
        )
    config = {"input": str(args.input), "measures": args.measures, "seed": args.seed}
    doc = _base_doc("measure", config)
    doc["results"] = rows
    emit(doc, rows, args)
    return 0


def _compare_rows(ds_path, specs: list[MeasureSpec], args) -> list[dict[str, Any]]:
    """The rows of one ``compare`` input. Its dataset and selection live only
    in this call, so they are freed before the next input is loaded."""
    sel = _checked(specs, load_dataset(ds_path))
    n = len(sel.indices)
    rows = []
    for spec in specs:
        # Only a packing whose policy reads its seed, on a nonempty set, varies with it.
        stochastic = spec.kind == "circles" and n > 0 and COMPARE_READER.policy(spec, n).seeded
        reps = [MeasureSpec("circles", {**spec.params, "seed": args.seed + rep})
                for rep in range(args.repeats)] if stochastic else [spec]
        values = [evaluate_selection(rep, sel).value for rep in reps]
        mean = float(np.mean(values))
        rel_dev = 0.0
        if stochastic and mean != 0.0 and len(values) > 1:
            rel_dev = float(np.std(values, ddof=1) / abs(mean) * 100.0)
        rows.append(
            {
                "dataset": str(ds_path),
                "measure": spec.key(),
                "mean": mean,
                "rel_dev_pct": rel_dev,
                "values": values,
                "stochastic": stochastic,
            }
        )
    return rows


def cmd_compare(args) -> int:
    if args.repeats < 1:
        raise MeasureParamError(f"repeats must be at least 1, got {args.repeats}")
    specs = _parse_measures(args.measures)
    for spec in specs:
        COMPARE_READER.check(spec)
    rows = [row for ds_path in args.inputs for row in _compare_rows(ds_path, specs, args)]
    config = {
        "inputs": [str(p) for p in args.inputs],
        "measures": args.measures,
        "seed": args.seed,
        "repeats": args.repeats,
    }
    doc = _base_doc("compare", config)
    doc["results"] = rows
    emit(doc, rows, args)
    return 0


def _protocol_measures(args) -> list[MeasureSpec]:
    """The ``--measures`` of a protocol command, the paper's list by default."""
    text = args.measures
    if text is None:
        from .protocols import DEFAULT_PROTOCOL_MEASURES

        text = ",".join(DEFAULT_PROTOCOL_MEASURES)
    return _parse_measures(text)


def cmd_axiom_check(args) -> int:
    from .axioms import quadrant_table

    table = quadrant_table(trials=args.trials, seed=args.seed)
    rows = [
        {
            "measure": r["measure"],
            "subadditive": r["subadditive"],
            "dissimilar": r["dissimilar"],
            "expected_subadditive": r.get("expected_subadditive"),
            "expected_dissimilar": r.get("expected_dissimilar"),
            "subadditivity_note": r["subadditivity_check"].get("note", ""),
            "dissimilarity_note": r["dissimilarity_check"].get("note", ""),
        }
        for r in table["reports"]
    ]
    doc = _base_doc("axiom-check", {"trials": args.trials, "seed": args.seed})
    doc["results"] = table["reports"]
    doc["matches_expected"] = table["matches_expected"]
    emit(doc, rows, args)
    if not table["matches_expected"]:
        print("axiom-check: classification deviates from the expected table", file=sys.stderr)
        return 1
    return 0


def cmd_corr_fixed(args) -> int:
    from .protocols import protocol_fixed

    dataset = load_dataset(args.input)
    result = protocol_fixed(
        dataset,
        n=args.n,
        measures=_protocol_measures(args),
        seed=args.seed,
        repeats=args.repeats,
        runs=args.runs,
    )
    rows = [s.to_dict() for s in result.stats]
    doc = _base_doc("corr-fixed", {**result.config, "input": str(args.input)})
    doc["results"] = rows
    emit(doc, rows, args)
    return 0


def cmd_corr_growing(args) -> int:
    from .protocols import protocol_growing

    dataset = load_dataset(args.input)
    result = protocol_growing(
        dataset,
        n=args.n,
        measures=_protocol_measures(args),
        bias=args.bias,
        seed=args.seed,
        runs=args.runs,
        normalize_dtw=args.normalize_dtw,
    )
    rows = [s.to_dict() for s in result.stats]
    doc = _base_doc("corr-growing", {**result.config, "input": str(args.input)})
    doc["results"] = rows
    emit(doc, rows, args)
    return 0


def cmd_sweep_t(args) -> int:
    from .protocols import threshold_sweep

    try:
        t_grid = [float(v) for v in args.t_grid.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ProtocolError(f"--t-grid: {exc}") from exc
    dataset = load_dataset(args.input)
    sweep = threshold_sweep(
        dataset,
        protocol=args.protocol,
        t_grid=t_grid,
        seed=args.seed,
        n=args.n,
        repeats=args.repeats,
        runs=args.runs,
        bias=args.bias,
    )
    doc = _base_doc("sweep-t", {**sweep.config, "input": str(args.input)})
    doc["results"] = sweep.rows
    doc["best_t"] = sweep.best_t
    emit(doc, sweep.rows, args)
    return 0


def cmd_gen_synthetic(args) -> int:
    from .synthetic import SyntheticConfig, generate_synthetic

    config = SyntheticConfig(
        classes=args.classes,
        per_class=args.per_class,
        width=args.width,
        core_bits=args.core_bits,
        flip_prob=args.flip_prob,
    )
    dataset = generate_synthetic(config, seed=args.seed)
    write_dataset(dataset, args.out)
    doc = _base_doc(
        "gen-synthetic",
        {
            "classes": args.classes,
            "per_class": args.per_class,
            "width": args.width,
            "core_bits": args.core_bits,
            "flip_prob": args.flip_prob,
            "seed": args.seed,
            "out": str(args.out),
        },
    )
    doc["records"] = len(dataset)
    sys.stdout.write(render_json(doc))
    return 0


def cmd_novelty(args) -> int:
    from .novelty import NOVELTY_KINDS, NoveltyContext

    if args.t is None and (args.kind == "circles" or args.against_centers):
        raise MeasureParamError("novelty --kind circles and --against-centers need a threshold --t")
    dataset = load_dataset(args.input)
    if len(dataset) == 0:
        raise DatasetFormatError(f"{args.input} holds no records to score candidates against")
    ctx = NoveltyContext.from_dataset(
        dataset,
        t=args.t,
        against_centers=args.against_centers,
        restarts=args.restarts,
        seed=args.seed,
    )
    score = NOVELTY_KINDS[args.kind]
    for line in sys.stdin:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        value = score(Fingerprint.parse(line), ctx)
        sys.stdout.write(f"{float(value):.12g}\n")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring.

def _add_common(parser, out=True):
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    if out:
        parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        parser.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemspace",
        description="Coverage measures of chemical space over binary molecular fingerprints",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate measures on one dataset")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--measures", required=True, help="e.g. richness,circles:t=0.75")
    _add_common(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("compare", help="measure grid over several datasets")
    p.add_argument("--in", dest="inputs", required=True, nargs="+")
    p.add_argument("--measures", required=True)
    p.add_argument("--repeats", type=int, default=5, help="seeds per stochastic measure")
    _add_common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("axiom-check", help="classify measures by the two validity axioms")
    p.add_argument("--trials", type=int, default=1000)
    _add_common(p)
    p.set_defaults(fn=cmd_axiom_check)

    p = sub.add_parser("corr-fixed", help="fixed-size correlation against the gold standard")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--repeats", type=int, default=200)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--measures", default=None, help="default: the paper's nine measures")
    _add_common(p)
    p.set_defaults(fn=cmd_corr_fixed)

    p = sub.add_parser("corr-growing", help="growing-size DTW against the gold standard")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--bias", choices=BIAS_CHOICES, default="similar")
    p.add_argument("--normalize-dtw", action="store_true")
    p.add_argument("--measures", default=None, help="default: the paper's nine measures")
    _add_common(p)
    p.set_defaults(fn=cmd_corr_growing)

    p = sub.add_parser("sweep-t", help="packing threshold sweep")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--protocol", choices=("fixed", "growing"), default="fixed")
    p.add_argument("--t-grid", default="0.0,0.25,0.5,0.75")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--repeats", type=int, default=100)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--bias", choices=BIAS_CHOICES, default="similar")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep_t)

    p = sub.add_parser("gen-synthetic", help="generate a labeled synthetic dataset TSV")
    p.add_argument("--classes", type=int, default=50)
    p.add_argument("--per-class", type=int, default=40)
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--core-bits", type=int, default=32)
    p.add_argument("--flip-prob", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen_synthetic)

    p = sub.add_parser(
        "novelty", help="score candidate fingerprints from stdin against a dataset"
    )
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--kind", choices=NOVELTY_CHOICES, required=True)
    p.add_argument("--t", type=float, default=None, help="threshold for the circles indicator")
    p.add_argument("--against-centers", action="store_true")
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_novelty)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in RNG_SEEDED and args.seed < 0:
            raise ChemSpaceError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.fn(args)
    except (ChemSpaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
