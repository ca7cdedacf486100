"""Benchmark of the chemspace CLI: one workload per invocation.

    python3 chembench/run.py --workload db-coverage --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The workload's inputs are generated from
``--seed`` by ``workloads.py``; then, for ``--seconds``, whole rounds of the
workload's CLI command run and every output is checked by ``oracles.py``.

``--trace 0`` runs each command in a fresh ``python -m chemspace.cli``
process with no wrapper installed and reports the end-to-end metrics:
``wall_s`` and ``peak_rss_mb`` (medians over rounds, the memory from the
child's own rusage) and ``setup_s`` (one cold process doing what the command
does before its first measure). ``--trace 1`` runs the same command in this
process, alternating a plain round with a round under ``spans.installed``,
and reports the per-layer metrics plus ``trace.overhead_s`` (median traced
minus median plain wall time).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The same record, with the seed,
git sha, nproc and library versions, goes to ``chembench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads so that the in-process traced run
# and every child inherit it: the commands run serially at --jobs 1, and idle
# BLAS workers spinning on the second core only add noise to wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
from workloads import T, WORKLOADS, generate, write_tsv  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "chembench" / "results"

PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("fingerprints.load_dataset.s", "s", "lower"),
    ("fingerprints.load_dataset.records", "count", "lower"),
    ("fingerprints.indices_for_labels.s", "s", "lower"),
    ("fingerprints.indices_for_labels.calls", "count", "lower"),
    ("distances.pairwise_tanimoto.s", "s", "lower"),
    ("distances.pairwise_tanimoto.calls", "count", "lower"),
    ("distances.pairwise_tanimoto.pairs", "count", "lower"),
    ("distances.pairwise_tanimoto.bytes_computed", "bytes", "lower"),
    ("distances.tanimoto_row.s", "s", "lower"),
    ("distances.tanimoto_row.calls", "count", "lower"),
    ("distances.tanimoto_row.entries", "count", "lower"),
    *((f"measures.{k}.{m}", u, "lower") for k in spans.KERNELS for m, u in (("s", "s"), ("calls", "count"))),
    ("circles.greedy_pack_positions.s", "s", "lower"),
    ("circles.greedy_pack_positions.calls", "count", "lower"),
    ("circles.greedy_pack_positions.admitted_per_scanned", "ratio", "higher"),
    ("circles.circles_exact.s", "s", "lower"),
    ("circles.circles_exact.calls", "count", "lower"),
    ("circles.max_independent_set.s", "s", "lower"),
    ("stats.dtw.s", "s", "lower"),
    ("stats.dtw.calls", "count", "lower"),
    ("stats.dtw.cells", "count", "lower"),
    ("stats.spearman.s", "s", "lower"),
    ("stats.spearman.calls", "count", "lower"),
    ("protocols.protocol_fixed.self_s", "s", "lower"),
    ("protocols.protocol_growing.self_s", "s", "lower"),
    ("axioms.random_world.s", "s", "lower"),
    ("axioms.random_world.calls", "count", "lower"),
    ("axioms.world_measure.s", "s", "lower"),
    ("axioms.world_measure.calls", "count", "lower"),
    ("cli.render_json.s", "s", "lower"),
    ("cli.render_json.bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stderr_path: Path) -> tuple[float, int, float, float]:
    """Run a child to exit: (wall seconds from spawn, exit code, peak RSS in MB, CPU seconds)."""
    with stderr_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6, usage.ru_utime + usage.ru_stime


def setup_seconds(workload, tsv: Path | None, stderr_path: Path) -> float:
    """One cold process: import the CLI, then load and build the full matrix as the command would."""
    code = ["import chemspace.cli"]
    if tsv is not None:
        code += ["from chemspace.fingerprints import load_dataset", f"ds = load_dataset({str(tsv)!r})"]
    if workload.needs_full_matrix:
        code += ["from chemspace.distances import TanimotoOracle", "TanimotoOracle(ds).full_matrix()"]
    wall, exit_code, _, _ = spawn([sys.executable, "-c", "\n".join(code)], stderr_path)
    if exit_code != 0:
        raise RuntimeError(f"set-up process exited with {exit_code}: {stderr_path.read_text()[-500:]}")
    return wall


class Checker:
    """Checks one CLI output document against the workload's own oracle."""

    def __init__(self, workload, hexes, labels):
        self.workload = workload
        self.hexes, self.labels = hexes, labels
        self.dist = oracles.tanimoto_matrix(hexes) if hexes is not None else None
        self.runs = int(workload.args[workload.args.index("--runs") + 1]) if "--runs" in workload.args else None

    def refused(self) -> list[str]:
        if self.dist is None:
            return []
        return oracles.check_separated(self.dist, self.hexes, self.labels, T)

    def __call__(self, doc: dict) -> list[str]:
        name = self.workload.name
        if name == "db-coverage":
            return oracles.check_db_coverage(doc, self.hexes, self.labels, self.dist)
        if name == "corr-fixed":
            return oracles.check_corr_fixed(doc, self.runs)
        if name == "corr-growing":
            return oracles.check_corr_growing(doc, self.runs)
        return oracles.check_axioms(doc)


def layer_metrics(tracer: spans.Tracer) -> dict[str, float]:
    self_s, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts
    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if span == "trace":
            continue  # set from the plain and traced wall times
        if field in ("s", "self_s"):
            out[name] = self_s.get(span, 0.0)
        elif field == "calls":
            out[name] = calls.get(span, 0)
        elif field == "admitted_per_scanned":
            scanned = counts[span]["scanned"]
            out[name] = counts[span]["admitted"] / scanned if scanned else 0.0
        else:
            out[name] = counts[span][field]
    return out


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "chemspace" / "__init__.py").is_file():
        print(f"error: no chemspace sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = RESULTS / "work"
    work.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    hexes = labels = tsv = None
    if workload.data is not None:
        hexes, labels = generate(workload.data, args.seed)
        tsv = work / f"{workload.name}_seed{args.seed}.tsv"
        write_tsv(tsv, hexes, labels)
    check = Checker(workload, hexes, labels)
    refused = check.refused()
    if refused:
        print(f"error: seed {args.seed} refused: {'; '.join(refused)}", file=sys.stderr)
        return 3

    out_json = work / f"{stem}.out.json"
    stderr_path = work / f"{stem}.stderr"
    cli_args = list(workload.args) + (["--in", str(tsv)] if tsv else []) + ["--seed", str(args.seed), "--out", str(out_json)]
    problems: list[str] = []
    attempted = failed = 0
    rounds: list[dict] = []

    def run_op(op, round_no: int):
        """One CLI execution: ``op()`` returns (exit code, extra); checks its output."""
        nonlocal attempted, failed
        out_json.unlink(missing_ok=True)
        exit_code, extra = op()
        attempted += 1
        if exit_code != 0:
            failed += 1
            problems.append(f"round {round_no}: exit code {exit_code}")
        else:
            doc = json.loads(out_json.read_text(encoding="utf-8"))
            problems.extend(f"round {round_no}: {p}" for p in check(doc))
        return extra

    if args.trace == 0:
        setup_s = setup_seconds(workload, tsv, stderr_path)
        argv_cli = [sys.executable, "-m", "chemspace.cli", *cli_args]

        def spawn_cli():
            wall, exit_code, rss, cpu = spawn(argv_cli, stderr_path)
            return exit_code, {"wall_s": wall, "peak_rss_mb": rss, "cpu_s": cpu}

        def one_round(round_no: int) -> dict:
            return run_op(spawn_cli, round_no)
    else:
        sys.path.insert(0, str(SRC))
        from chemspace.cli import main as cli_main

        trace_path = RESULTS / f"trace_{workload.name}.tsv"

        def timed_cli():
            start = time.perf_counter()
            try:
                exit_code = cli_main(cli_args)
            except Exception:  # a crash counts as a failed operation, as in a child
                traceback.print_exc()
                exit_code = 1
            return exit_code, time.perf_counter() - start

        # The first in-process call pays lazy imports and cold caches, which
        # would otherwise land on the first plain round alone.
        run_op(timed_cli, -1)

        def one_round(round_no: int) -> dict:
            plain_wall = run_op(timed_cli, round_no)
            tracer = spans.Tracer()
            with spans.installed(tracer):
                traced_wall = run_op(timed_cli, round_no)
            tracer.write(trace_path, round_no, append=round_no > 0)
            return {"plain_s": plain_wall, "traced_s": traced_wall, **layer_metrics(tracer)}

    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(one_round(len(rounds)))
        now = time.perf_counter()
        # Start another round only if it should end within the window.
        if now - start + (now - round_start) > args.seconds:
            break

    def median(key: str) -> float:
        return statistics.median(r[key] for r in rounds)

    if args.trace == 0:
        metrics = {"wall_s": median("wall_s"), "setup_s": setup_s, "peak_rss_mb": median("peak_rss_mb")}
        units = dict(END_TO_END)
    else:
        metrics = {name: median(name) for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = median("traced_s") - median("plain_s")
        units = {name: unit for name, unit, _ in PER_LAYER}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        **result,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": ["chemspace", *cli_args],
        "rounds": rounds,
        "problems": problems,
        **environment(),
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
