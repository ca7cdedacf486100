import gc
import json
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from chemspace.cli import main, render_csv, strip_volatile
from chemspace.fingerprints import write_dataset
from chemspace.synthetic import SyntheticConfig, generate_synthetic


@pytest.fixture(scope="module")
def synthetic_tsv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "syn.tsv"
    ds = generate_synthetic(SyntheticConfig(classes=6, per_class=10, width=128, core_bits=20), seed=3)
    write_dataset(ds, path)
    return path


@pytest.fixture(scope="module")
def greedy_tsv(tmp_path_factory):
    """100 records: above the exact cap of 64, so circles packs greedily."""
    path = tmp_path_factory.mktemp("data") / "greedy.tsv"
    ds = generate_synthetic(SyntheticConfig(classes=10, per_class=10, width=64, core_bits=12), seed=1)
    write_dataset(ds, path)
    return path


def run_cli(args):
    return main([str(a) for a in args])


def read_json(path):
    return json.loads(Path(path).read_text())


def test_measure_two_rows(synthetic_tsv, tmp_path):
    out = tmp_path / "m.json"
    code = run_cli(["measure", "--in", synthetic_tsv, "--measures", "richness,circles:t=0.75", "--out", out])
    assert code == 0
    doc = read_json(out)
    assert len(doc["results"]) == 2
    assert doc["results"][0]["measure"] == "richness"
    assert doc["results"][0]["value"] == 60.0
    circles_row = doc["results"][1]
    assert circles_row["measure"].startswith("circles:")
    assert circles_row["metadata"]["mode"] == "exact"  # 60 <= cap 64
    assert "wall_time_s" in circles_row


def test_measure_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# nothing here\n")
    out = tmp_path / "e.json"
    code = run_cli(["measure", "--in", empty, "--measures", "richness,diversity", "--out", out])
    assert code == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    doc = read_json(out)
    assert all(r["value"] == 0.0 for r in doc["results"])


def test_measure_greedy_mode_flag(tmp_path):
    ds = generate_synthetic(SyntheticConfig(classes=10, per_class=10, width=64, core_bits=12), seed=1)
    path = tmp_path / "big.tsv"
    write_dataset(ds, path)
    out = tmp_path / "g.json"
    run_cli(["measure", "--in", path, "--measures", "circles:t=0.6", "--out", out])
    doc = read_json(out)
    assert doc["results"][0]["metadata"]["mode"] == "greedy"  # 100 > cap 64
    assert doc["results"][0]["metadata"]["optimal"] is False


def test_measure_unknown_flag_exits_nonzero(synthetic_tsv):
    with pytest.raises(SystemExit):
        run_cli(["measure", "--in", synthetic_tsv, "--bogus"])


def test_measure_missing_file_errors(tmp_path):
    code = run_cli(["measure", "--in", tmp_path / "nope.tsv", "--measures", "richness"])
    assert code == 1


def test_compare_matrix_and_determinism(synthetic_tsv, tmp_path):
    out = tmp_path / "c.json"
    code = run_cli(
        [
            "compare",
            "--in", synthetic_tsv, synthetic_tsv,
            "--measures", "richness,circles:t=0.6,circles:t=0.75",
            "--repeats", "3",
            "--out", out,
        ]
    )
    assert code == 0
    doc = read_json(out)
    assert len(doc["results"]) == 6  # 2 datasets x 3 measures
    rich_rows = [r for r in doc["results"] if r["measure"] == "richness"]
    assert rich_rows[0]["rel_dev_pct"] == 0.0
    assert rich_rows[0]["mean"] == rich_rows[1]["mean"]
    # Identical dataset passed twice: identical rows.
    first = [r for r in doc["results"] if r["dataset"] == rich_rows[0]["dataset"]]
    assert first[:3] == doc["results"][3:]


def test_compare_frees_previous_input_before_next_load(synthetic_tsv, tmp_path, monkeypatch):
    import chemspace.cli
    import chemspace.distances

    matrices = []
    build = chemspace.distances.pairwise_tanimoto

    def tracked_build(*args, **kwargs):
        out = build(*args, **kwargs)
        matrices.append(weakref.ref(out))
        return out

    alive_at_load = []
    load = chemspace.cli.load_dataset

    def tracked_load(path):
        gc.collect()
        alive_at_load.append([ref() is not None for ref in matrices])
        return load(path)

    monkeypatch.setattr(chemspace.distances, "pairwise_tanimoto", tracked_build)
    monkeypatch.setattr(chemspace.cli, "load_dataset", tracked_load)
    code = run_cli(
        ["compare", "--in", synthetic_tsv, synthetic_tsv, synthetic_tsv,
         "--measures", "diversity", "--repeats", "1", "--out", tmp_path / "c.json"]
    )
    assert code == 0
    assert alive_at_load == [[], [False], [False, False]]


def _count_distance_calls(monkeypatch):
    import chemspace.distances

    calls = {"pairwise_tanimoto": 0, "tanimoto_row": 0}
    for name in calls:
        original = getattr(chemspace.distances, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(chemspace.distances, name, counted)
    return calls


@pytest.mark.parametrize(
    "measures, matrix_built",
    [("diversity,circles:t=0.6", True), ("circles:t=0.6,sum_bottleneck", True), ("circles:t=0.6", False)],
)
def test_one_distance_source_per_measure_call(measures, matrix_built, greedy_tsv, tmp_path, monkeypatch):
    calls = _count_distance_calls(monkeypatch)
    assert run_cli(["measure", "--in", greedy_tsv, "--measures", measures, "--out", tmp_path / "m.json"]) == 0
    assert calls["pairwise_tanimoto"] == int(matrix_built)
    assert (calls["tanimoto_row"] == 0) == matrix_built


def _circles_rows(doc):
    return [strip_volatile(r) for r in doc["results"] if r["measure"].startswith("circles:")]


@pytest.mark.parametrize("data", ["synthetic_tsv", "greedy_tsv"])
def test_circles_rows_same_alone_or_beside_diversity(data, request, tmp_path):
    path = request.getfixturevalue(data)
    docs = {}
    for measures in ("circles:t=0.6", "diversity,circles:t=0.6"):
        for command in (["measure"], ["compare", "--repeats", "3"]):
            out = tmp_path / f"{command[0]}-{len(docs)}.json"
            assert run_cli([*command, "--in", path, "--measures", measures, "--out", out]) == 0
            docs[measures, command[0]] = _circles_rows(read_json(out))
    for command in ("measure", "compare"):
        alone, beside = docs["circles:t=0.6", command], docs["diversity,circles:t=0.6", command]
        assert len(alone) == 1 and alone == beside


def test_compare_single_pass_is_one_value(greedy_tsv, tmp_path):
    # One greedy pass runs in input order and reads no seed: one value, not
    # stochastic. Best of 8 reads it, and repeats.
    out = tmp_path / "c.json"
    measures = "circles:t=0.5,mode=greedy,restarts=1,circles:t=0.5,mode=greedy"
    assert run_cli(["compare", "--in", greedy_tsv, "--measures", measures, "--repeats", "3",
                    "--out", out]) == 0
    one_pass, best_of_k = read_json(out)["results"]
    assert one_pass["stochastic"] is False and len(one_pass["values"]) == 1
    assert one_pass["rel_dev_pct"] == 0.0
    assert best_of_k["stochastic"] is True and len(best_of_k["values"]) == 3
    assert run_cli(["measure", "--in", greedy_tsv, "--measures", "circles:t=0.5,mode=greedy,restarts=1",
                    "--seed", "9", "--out", out]) == 0
    assert read_json(out)["results"][0]["value"] == one_pass["values"][0]


def test_axiom_check_json_and_exit_code(tmp_path):
    out = tmp_path / "ax.json"
    code = run_cli(["axiom-check", "--trials", "150", "--seed", "7", "--out", out])
    assert code == 0
    doc = read_json(out)
    assert doc["matches_expected"] is True
    assert len(doc["results"]) == 10


def test_corr_fixed_rows(synthetic_tsv, tmp_path):
    out = tmp_path / "cf.json"
    code = run_cli(
        [
            "corr-fixed",
            "--in", synthetic_tsv,
            "--n", "20",
            "--repeats", "20",
            "--runs", "2",
            "--measures", "diversity,circles:t=0.7",
            "--out", out,
        ]
    )
    assert code == 0
    doc = read_json(out)
    assert {r["measure"] for r in doc["results"]} == {"diversity", "circles:t=0.7"}
    assert all(r["statistic"] == "spearman_vs_gold" for r in doc["results"])
    assert all(len(r["per_run"]) == 2 for r in doc["results"])


def test_corr_growing_rows(synthetic_tsv, tmp_path):
    out = tmp_path / "cg.json"
    code = run_cli(
        [
            "corr-growing",
            "--in", synthetic_tsv,
            "--n", "25",
            "--runs", "2",
            "--bias", "similar",
            "--measures", "richness,circles:t=0.7",
            "--out", out,
        ]
    )
    assert code == 0
    doc = read_json(out)
    assert all(r["statistic"] == "dtw_vs_gold" for r in doc["results"])
    assert doc["config"]["bias_label"] == "needs to be similar (power=10)"


def test_sweep_t(synthetic_tsv, tmp_path):
    out = tmp_path / "sw.json"
    code = run_cli(
        [
            "sweep-t",
            "--in", synthetic_tsv,
            "--t-grid", "0.0,0.7",
            "--n", "20",
            "--repeats", "15",
            "--runs", "2",
            "--out", out,
        ]
    )
    assert code == 0
    doc = read_json(out)
    assert doc["best_t"] == 0.7
    assert [r["t"] for r in doc["results"]] == [0.0, 0.7]


def test_gen_synthetic_writes_tsv(tmp_path, capsys):
    out = tmp_path / "gen.tsv"
    code = run_cli(
        ["gen-synthetic", "--classes", "10", "--per-class", "20", "--out", out, "--seed", "5"]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 200
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"] == 200


def test_novelty_stream(synthetic_tsv, tmp_path, monkeypatch, capsys):
    import io

    ds_lines = Path(synthetic_tsv).read_text().splitlines()
    candidates = "\n".join(line.split("\t")[1] for line in ds_lines[:3]) + "\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(candidates))
    code = run_cli(["novelty", "--in", synthetic_tsv, "--kind", "circles", "--t", "0.6"])
    assert code == 0
    scores = capsys.readouterr().out.strip().splitlines()
    assert scores == ["0", "0", "0"]  # members of the set are never novel
    monkeypatch.setattr(sys, "stdin", io.StringIO(candidates))
    code = run_cli(["novelty", "--in", synthetic_tsv, "--kind", "diversity"])
    assert code == 0
    vals = [float(v) for v in capsys.readouterr().out.strip().splitlines()]
    assert len(vals) == 3 and all(0.0 <= v <= 1.0 for v in vals)


class _UnreadStdin:
    def __iter__(self):
        raise AssertionError("stdin was read before the refusal")


def _one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


def test_novelty_circles_without_threshold_refused(synthetic_tsv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", _UnreadStdin())
    assert run_cli(["novelty", "--in", synthetic_tsv, "--kind", "circles"]) == 1
    assert _one_line_error(capsys)


def test_novelty_on_empty_dataset_refused(tmp_path, monkeypatch, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# nothing here\n")
    monkeypatch.setattr(sys, "stdin", _UnreadStdin())
    assert run_cli(["novelty", "--in", empty, "--kind", "diversity"]) == 1
    assert _one_line_error(capsys)


def test_no_command_takes_jobs(synthetic_tsv, tmp_path, capsys):
    commands = (
        ["measure", "--in", synthetic_tsv, "--measures", "richness"],
        ["compare", "--in", synthetic_tsv, "--measures", "richness"],
        ["axiom-check", "--trials", "1"],
        ["corr-fixed", "--in", synthetic_tsv, "--n", "10", "--runs", "1"],
        ["corr-growing", "--in", synthetic_tsv, "--n", "10", "--runs", "1"],
        ["sweep-t", "--in", synthetic_tsv, "--n", "10", "--runs", "1"],
        ["gen-synthetic", "--out", tmp_path / "g.tsv"],
        ["novelty", "--in", synthetic_tsv, "--kind", "diversity"],
    )
    for command in commands:
        with pytest.raises(SystemExit) as exc:
            run_cli([*command, "--jobs", "2"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_zero_run_counts_refused(synthetic_tsv, capsys):
    for command in ("corr-fixed", "corr-growing", "sweep-t"):
        code = run_cli([command, "--in", synthetic_tsv, "--n", "10", "--runs", "0"])
        assert code == 1
        assert _one_line_error(capsys)
    for command in ("corr-fixed", "sweep-t"):
        code = run_cli([command, "--in", synthetic_tsv, "--n", "10", "--runs", "1", "--repeats", "0"])
        assert code == 1
        assert _one_line_error(capsys)


# case id -> (command line over the shared TSV and a scratch dir, text the error names)
ONE_LINE_ERRORS = {
    "gen-classes-0": ("gen-synthetic --classes 0 --out {tmp}/g.tsv", "classes"),
    "gen-per-class-0": ("gen-synthetic --per-class 0 --out {tmp}/g.tsv", "per_class"),
    "gen-core-bits-above-width": ("gen-synthetic --width 64 --core-bits 65 --out {tmp}/g.tsv", "core_bits"),
    "gen-flip-prob-0.7": ("gen-synthetic --flip-prob 0.7 --out {tmp}/g.tsv", "flip_prob"),
    # The repeat count is refused before the (missing) input is read.
    "compare-repeats-negative": ("compare --in {tmp}/missing.tsv --measures richness --repeats -2", "repeats"),
    "compare-repeats-0": ("compare --in {data} --measures richness --repeats 0", "repeats"),
    "sweep-empty-tsv": ("sweep-t --in {tmp}/empty.tsv --n 10 --runs 1", "subset size n=10 not in [1, 0]"),
    "sweep-t-grid-not-numbers": ("sweep-t --in {data} --t-grid a,b", "--t-grid"),
    "measure-param-given-twice": ("measure --in {data} --measures circles:t=0.5,t=0.6", "'t' given twice"),
    "measure-param-without-value": ("measure --in {data} --measures coverage:universe=", "bad parameter 'universe='"),
    # A parameter no measure reads is refused, not reported in the key and ignored.
    "measure-unknown-circles-param": (
        "measure --in {data} --measures circles:t=0.75,restart=1",
        "circles has no parameter 'restart'; it takes t, mode, restarts, seed",
    ),
    "measure-unknown-param": ("measure --in {data} --measures diversity:foo=2", "diversity has no parameter 'foo'"),
    "compare-unknown-param": ("compare --in {data} --measures richness:t=0.5", "richness has no parameter 't'"),
    # A best-of-k packing's repeats read seeds from --seed on.
    "compare-negative-seed": (
        "compare --in {data} --measures circles:t=0.5,mode=greedy --repeats 2 --seed -1",
        "circles seed must be a non-negative integer, got -1",
    ),
    # Every command that seeds numpy's generators refuses a negative seed before any work.
    "axiom-check-negative-seed": (
        "axiom-check --trials 10 --seed -1",
        "--seed must be a non-negative integer, got -1",
    ),
    "corr-fixed-negative-seed": (
        "corr-fixed --in {data} --n 10 --runs 1 --seed -1",
        "--seed must be a non-negative integer, got -1",
    ),
    "corr-growing-negative-seed": (
        "corr-growing --in {data} --n 10 --runs 1 --seed -1",
        "--seed must be a non-negative integer, got -1",
    ),
    "sweep-t-negative-seed": (
        "sweep-t --in {data} --n 10 --runs 1 --seed -1",
        "--seed must be a non-negative integer, got -1",
    ),
    "gen-synthetic-negative-seed": (
        "gen-synthetic --out {tmp}/g.tsv --seed -1",
        "--seed must be a non-negative integer, got -1",
    ),
    # Each repeat packs from --seed plus its number; a spec seed was ignored.
    "compare-circles-seed": (
        "compare --in {tmp}/missing.tsv --measures circles:t=0.5,seed=5 --repeats 3",
        "circles:seed=5,t=0.5: compare takes only circles t, mode, restarts; drop seed",
    ),
    "corr-fixed-unknown-param": (
        "corr-fixed --in {data} --n 10 --runs 1 --measures dpp:restarts=2",
        "dpp has no parameter 'restarts'",
    ),
    "measure-directory-input": ("measure --in {tmp} --measures richness", "Is a directory"),
    "measure-non-utf8-input": ("measure --in {tmp}/latin1.tsv --measures richness", "latin1.tsv: not UTF-8"),
    "measure-non-utf8-universe": (
        "measure --in {data} --measures coverage:universe={tmp}/latin1.tsv",
        "latin1.tsv: not UTF-8",
    ),
    # novelty holds --t and --restarts to the circles measure's rules.
    "novelty-restarts-0": (
        "novelty --in {data} --kind circles --t 0.5 --against-centers --restarts 0",
        "circles restarts must be a positive integer, got 0",
    ),
    "novelty-restarts-negative": (
        "novelty --in {data} --kind circles --t 0.5 --against-centers --restarts -3",
        "circles restarts must be a positive integer, got -3",
    ),
    "novelty-t-negative": (
        "novelty --in {data} --kind circles --t -1 --against-centers",
        "circles threshold t must be in [0,1), got -1.0",
    ),
    # Line 1 has only 0/1 digits, so it parses as a 4-bit string; line 2 is 16-bit hex.
    "measure-bit-string-beside-hex": (
        "measure --in {tmp}/mixed.tsv --measures richness",
        "mixed.tsv:2: width 16 differs from width 4 of the first record, line 1; "
        "text of only 0/1 digits ('0110') is read as a bit string, not hex",
    ),
    "measure-short-line": ("measure --in {tmp}/short.tsv --measures richness", "short.tsv:2: expected at least id and fingerprint"),
    "measure-duplicate-id": ("measure --in {tmp}/dup.tsv --measures richness", "dup.tsv: duplicate record id: 'm1'"),
}


@pytest.mark.parametrize("case", list(ONE_LINE_ERRORS))
def test_user_errors_exit_with_one_line(case, synthetic_tsv, tmp_path, capsys):
    (tmp_path / "empty.tsv").write_text("# no records\n")
    (tmp_path / "latin1.tsv").write_bytes(b"m1\tff\tcaf\xe9\n")
    (tmp_path / "mixed.tsv").write_text("a\t0110\tc1\nb\tff01\tc1\n")
    (tmp_path / "short.tsv").write_text("m1\tff\nm2\n")
    (tmp_path / "dup.tsv").write_text("m1\tff\nm2\t0f\nm1\tf0\n")
    command, names = ONE_LINE_ERRORS[case]
    assert run_cli(command.format(data=synthetic_tsv, tmp=tmp_path).split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert names in err and "Traceback" not in err


@pytest.mark.parametrize("cap", ["abc", "-5"])
def test_malformed_exact_cap_env_exits_with_one_line(cap, synthetic_tsv, monkeypatch, capsys):
    monkeypatch.setenv("CHEMSPACE_EXACT_CAP", cap)
    assert run_cli(["measure", "--in", synthetic_tsv, "--measures", "circles:t=0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"CHEMSPACE_EXACT_CAP must be a non-negative integer, got {cap!r}" in err


def test_sweep_with_empty_threshold_grid_refused(synthetic_tsv, capsys):
    code = run_cli(["sweep-t", "--in", synthetic_tsv, "--n", "10", "--runs", "1", "--t-grid", ","])
    assert code == 1
    assert _one_line_error(capsys)


def test_axiom_check_without_trials_refused(capsys):
    for trials in ("0", "-1"):
        assert run_cli(["axiom-check", "--trials", trials]) == 1
        assert _one_line_error(capsys)


def test_measure_coverage_with_universe_file(tmp_path):
    data = tmp_path / "frags.tsv"
    data.write_text(
        "m1\tf0\tk1\tfa,fb\n"
        "m2\t0f\tk1\tfb,fc\n"
        "m3\tff\tk2\tfd\n"
    )
    universe = tmp_path / "universe.txt"
    universe.write_text("fa\nfc\nfz\n")
    out = tmp_path / "cov.json"
    code = run_cli(
        ["measure", "--in", data, "--measures", f"coverage:kind=FG,universe={universe}", "--out", out]
    )
    assert code == 0
    doc = read_json(out)
    assert doc["results"][0]["value"] == 2.0  # fa, fc present; fz never covered
    out2 = tmp_path / "cov2.json"
    run_cli(["measure", "--in", data, "--measures", "coverage", "--out", out2])
    assert read_json(out2)["results"][0]["value"] == 4.0  # implicit universe


def test_json_csv_value_parity(synthetic_tsv, tmp_path):
    out_json = tmp_path / "p.json"
    out_csv = tmp_path / "p.csv"
    base = ["measure", "--in", synthetic_tsv, "--measures", "richness,diversity"]
    run_cli(base + ["--out", out_json])
    run_cli(base + ["--out", out_csv, "--format", "csv"])
    doc = read_json(out_json)
    lines = out_csv.read_text().strip().splitlines()
    header = lines[0].split(",")
    for row_doc, line in zip(doc["results"], lines[1:]):
        cells = dict(zip(header, line.split(",")))
        assert float(cells["value"]) == row_doc["value"]
        assert int(cells["set_size"]) == row_doc["set_size"]


def test_deterministic_json_modulo_volatile(synthetic_tsv, tmp_path):
    out1 = tmp_path / "d1.json"
    out2 = tmp_path / "d2.json"
    args = [
        "corr-fixed", "--in", synthetic_tsv, "--n", "15", "--repeats", "10",
        "--runs", "2", "--measures", "diversity,circles:t=0.7", "--seed", "123",
    ]
    run_cli(args + ["--out", out1])
    run_cli(args + ["--out", out2])
    a = json.dumps(strip_volatile(read_json(out1)), sort_keys=True)
    b = json.dumps(strip_volatile(read_json(out2)), sort_keys=True)
    assert a == b


def _child_env() -> dict[str, str]:
    """A minimal environment for a CLI child: the checkout's sources on the
    path, and no bytecode written into them."""
    return {
        "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
        "PATH": "/usr/bin:/bin",
        "PYTHONDONTWRITEBYTECODE": "1",
    }


def test_cli_subprocess_smoke(synthetic_tsv):
    result = subprocess.run(
        [sys.executable, "-m", "chemspace.cli", "measure", "--in", str(synthetic_tsv),
         "--measures", "richness"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["results"][0]["value"] == 60.0


def test_cli_import_loads_no_scipy():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, chemspace.cli; assert 'scipy' not in sys.modules"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr


def test_corr_growing_with_dpp_loads_no_scipy(synthetic_tsv, tmp_path):
    code = (
        "import sys\n"
        "from chemspace.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )
    args = ["corr-growing", "--in", str(synthetic_tsv), "--n", "20", "--runs", "2",
            "--measures", "dpp,diversity", "--out", str(tmp_path / "g.json")]
    result = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
    assert [r["measure"] for r in read_json(tmp_path / "g.json")["results"]] == ["dpp", "diversity"]


COMMAND_MODULES = ("axioms", "protocols", "novelty", "synthetic")


def _loaded_command_modules(code: str, args=()) -> list[str]:
    """The command modules a child process has loaded after running ``code``."""
    probe = code + (
        "\nimport sys\n"
        f"print(','.join(m for m in {COMMAND_MODULES!r} if 'chemspace.' + m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
    return [m for m in result.stdout.strip().split(",") if m]


def test_cli_import_loads_no_command_modules(synthetic_tsv, tmp_path):
    assert _loaded_command_modules("import chemspace.cli") == []
    assert _loaded_command_modules("import chemspace") == []
    run = "import sys\nfrom chemspace.cli import main\nassert main(sys.argv[1:]) == 0"
    measure = ["measure", "--in", str(synthetic_tsv), "--measures", "richness,circles:t=0.5",
               "--out", str(tmp_path / "m.json")]
    assert _loaded_command_modules(run, measure) == []
    fixed = ["corr-fixed", "--in", str(synthetic_tsv), "--n", "10", "--repeats", "5", "--runs", "2",
             "--out", str(tmp_path / "f.json")]
    assert _loaded_command_modules(run, fixed) == ["protocols"]


def test_parser_choices_match_the_library():
    from chemspace.cli import BIAS_CHOICES, NOVELTY_CHOICES
    from chemspace.novelty import NOVELTY_KINDS
    from chemspace.protocols import BIAS_MODES

    assert BIAS_CHOICES == BIAS_MODES
    assert NOVELTY_CHOICES == tuple(NOVELTY_KINDS)


def test_default_protocol_measures_are_the_paper_list(synthetic_tsv, tmp_path):
    from chemspace.protocols import DEFAULT_PROTOCOL_MEASURES

    out = tmp_path / "f.json"
    assert run_cli(["corr-fixed", "--in", synthetic_tsv, "--n", "10", "--repeats", "5", "--runs", "2",
                    "--out", out]) == 0
    assert read_json(out)["config"]["measures"] == list(DEFAULT_PROTOCOL_MEASURES)


def test_package_exports_resolve():
    import chemspace

    for name in chemspace.__all__:
        assert getattr(chemspace, name) is not None, name
    result = subprocess.run(
        [sys.executable, "-c", "from chemspace import *"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr


def test_render_csv_empty():
    assert render_csv([]) == "\n"
