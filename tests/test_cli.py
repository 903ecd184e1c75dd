import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import abcgof
from abcgof.cli import main

@pytest.fixture
def table_and_observed(tmp_path):
    rng = np.random.default_rng(99)
    sim = abcgof.get_simulator("toy-gaussian")
    table = abcgof.build_reference_table(sim, 400, 17)
    table_path = tmp_path / "table.tsv"
    abcgof.save_reference_table(table, table_path)
    theta = sim.draw_prior(rng)
    observed = abcgof.ObservedStats(stat_names=table.stat_names, values=sim.simulate(theta, rng))
    observed_path = tmp_path / "observed.tsv"
    abcgof.save_observed(observed, observed_path)
    return table_path, observed_path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gfit_happy_path_emits_json(capsys, table_and_observed):
    table, observed = table_and_observed
    code, out, err = run_cli(
        capsys, "gfit", "--table", table, "--observed", observed,
        "--rate", "0.05", "--M", "100", "--seed", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "prior"
    assert payload["M"] == 100 and payload["seed"] == 7
    assert 0.0 <= payload["p_value"] <= 1.0
    assert len(payload["null_values"]) == 100


def test_gfit_is_byte_identical_across_runs_and_threads(capsys, table_and_observed):
    table, observed = table_and_observed
    args = ("gfit", "--table", table, "--observed", observed, "--M", "80", "--rate", "0.1",
            "--seed", "3")
    outputs = set()
    for extra in ((), ("--threads", "1"), ("--threads", "8")):
        code, out, _ = run_cli(capsys, *args, *extra)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_missing_required_flag_is_usage_error(capsys, table_and_observed):
    _, observed = table_and_observed
    code, out, err = run_cli(capsys, "gfit", "--observed", observed)
    assert code == 1
    assert "E_USAGE" in err and "--table" in err


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_threads_below_one_is_usage_error(capsys, threads):
    code, out, err = run_cli(
        capsys, "simulate", "--model", "toy-gaussian", "--n", "300", "--threads", threads,
    )
    assert code == 1 and out == ""
    assert "E_USAGE" in err and "--threads" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gfit", "--frobnicate")
    assert code == 1 and "E_USAGE" in err


def test_missing_file_is_data_error(capsys, table_and_observed):
    _, observed = table_and_observed
    code, _, err = run_cli(capsys, "gfit", "--table", "/nope.tsv", "--observed", observed)
    assert code == 2 and "E_DATA" in err


def test_malformed_table_is_data_error(capsys, tmp_path, table_and_observed):
    _, observed = table_and_observed
    bad = tmp_path / "bad.tsv"
    bad.write_text("param_a\tstat_b\n1.0\toops\n")
    code, _, err = run_cli(capsys, "gfit", "--table", bad, "--observed", observed)
    assert code == 2 and "E_DATA" in err and "oops" in err


def test_simulate_stdout_is_a_loadable_table(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "toy-laplace", "--n", "50", "--seed", "4",
        "--sample-size", "50",
    )
    assert code == 0
    path = tmp_path / "t.tsv"
    path.write_text(out)
    table = abcgof.load_reference_table(path)
    assert table.n == 50
    assert table.stat_names == ("mean", "variance", "skewness", "kurtosis")


def test_simulate_coalescent_table_columns(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "bottleneck", "--stats", "sfs", "--n", "3", "--seed", "1",
    )
    assert code == 0
    path = tmp_path / "t.tsv"
    path.write_text(out)
    table = abcgof.load_reference_table(path)
    assert table.param_names == (
        "theta", "bottleneck_size", "bottleneck_start", "bottleneck_duration"
    )
    assert len(table.stat_names) == 20


def test_out_dir_writes_manifest_and_rerun_reproduces(capsys, tmp_path, table_and_observed):
    table, observed = table_and_observed
    out_dir = tmp_path / "run1"
    code, stdout1, _ = run_cli(
        capsys, "gfit", "--table", table, "--observed", observed,
        "--M", "60", "--seed", "12", "--out", out_dir,
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "gfit"
    assert manifest["seed"] == 12
    assert str(table) in manifest["inputs"]
    assert len(manifest["inputs"][str(table)]) == 64  # sha256 hex
    assert manifest["outputs"] == ["gfit.json"]
    first = (out_dir / "gfit.json").read_bytes()

    (out_dir / "gfit.json").unlink()
    code, stdout2, _ = run_cli(capsys, "rerun", out_dir / "manifest.json")
    assert code == 0
    assert stdout1 == stdout2
    assert (out_dir / "gfit.json").read_bytes() == first


def test_rerun_refuses_a_changed_input_and_writes_nothing(capsys, tmp_path, table_and_observed):
    table, observed = table_and_observed
    out_dir = tmp_path / "run1"
    code, _, _ = run_cli(
        capsys, "gfit", "--table", table, "--observed", observed,
        "--M", "60", "--seed", "12", "--out", out_dir,
    )
    assert code == 0
    recorded = json.loads((out_dir / "manifest.json").read_text())["inputs"][str(table)]
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}

    sim = abcgof.get_simulator("toy-gaussian")
    abcgof.save_reference_table(abcgof.build_reference_table(sim, 400, 18), table)
    current = hashlib.sha256(table.read_bytes()).hexdigest()
    code, out, err = run_cli(capsys, "rerun", out_dir / "manifest.json")
    assert code == 2 and out == ""
    assert "E_DATA" in err and str(table) in err and recorded in err and current in err
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before


def test_rerun_from_another_directory(capsys, tmp_path, monkeypatch, table_and_observed):
    table, observed = table_and_observed
    run_dir = tmp_path / "d"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    (run_dir / "t.tsv").write_bytes(table.read_bytes())
    (run_dir / "o.tsv").write_bytes(observed.read_bytes())
    code, stdout1, _ = run_cli(
        capsys, "gfit", "--table", "t.tsv", "--observed", "o.tsv",
        "--M", "60", "--seed", "12", "--out", "run",
    )
    assert code == 0
    manifest = (run_dir / "run" / "manifest.json").read_bytes()
    assert json.loads(manifest)["cwd"] == str(run_dir)
    first = (run_dir / "run" / "gfit.json").read_bytes()
    (run_dir / "run" / "gfit.json").unlink()

    monkeypatch.chdir(tmp_path)
    code, stdout2, err = run_cli(capsys, "rerun", "d/run/manifest.json")
    assert code == 0, err
    assert stdout2 == stdout1
    assert (run_dir / "run" / "gfit.json").read_bytes() == first
    assert (run_dir / "run" / "manifest.json").read_bytes() == manifest
    assert not (tmp_path / "run").exists()


def test_rerun_rejects_non_manifest(capsys, tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{}")
    code, _, err = run_cli(capsys, "rerun", path)
    assert code == 2 and "E_DATA" in err


def test_gfit_post_runs_and_mismatched_model_fails(capsys, table_and_observed):
    table, observed = table_and_observed
    code, out, _ = run_cli(
        capsys, "gfit-post", "--table", table, "--observed", observed,
        "--model", "toy-gaussian", "--rate", "0.1", "--M", "10", "--n-prime", "15",
        "--seed", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "post" and payload["n_prime"] == 15

    code, _, err = run_cli(
        capsys, "gfit-post", "--table", table, "--observed", observed,
        "--model", "constant", "--seed", "2",
    )
    assert code == 2 and "E_DATA" in err


def test_ppc_outputs_report_and_histogram(capsys, tmp_path, table_and_observed):
    table, observed = table_and_observed
    out_dir = tmp_path / "ppc"
    code, out, _ = run_cli(
        capsys, "ppc", "--table", table, "--observed", observed, "--model", "toy-gaussian",
        "--rate", "0.1", "--n-prime", "40", "--bins", "8", "--seed", "5", "--out", out_dir,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_prime"] == 40
    assert set(payload["stats"]) == {"mean", "variance", "skewness", "kurtosis"}
    lines = (out_dir / "ppc_histogram.tsv").read_text().strip().split("\n")
    assert lines[0] == "stat\tbin_lo\tbin_hi\tcount"
    per_stat_total = {}
    for line in lines[1:]:
        name, _, _, count = line.split("\t")
        per_stat_total[name] = per_stat_total.get(name, 0) + int(count)
    assert all(total == 40 for total in per_stat_total.values())


def test_gfitpca_summary_and_tsv(capsys, tmp_path, table_and_observed):
    table, observed = table_and_observed
    out_dir = tmp_path / "pca"
    code, out, _ = run_cli(
        capsys, "gfitpca", "--table", table, "--observed", observed,
        "--coverage", "0.9", "--out", out_dir,
    )
    assert code == 0
    payload = json.loads(out)
    assert 0 <= payload["explained_fraction"][0] <= 1
    assert isinstance(payload["contains_observed"], bool)
    scores = (out_dir / "scores.tsv").read_text().strip().split("\n")
    assert scores[0] == "pc1\tpc2\tkind"
    assert scores[-1].endswith("observed")
    assert len(scores) == 402  # header + 400 sims + observed


def test_study_calibrate_small(capsys):
    code, out, _ = run_cli(
        capsys, "study", "calibrate", "--null", "toy-gaussian",
        "--n-sims", "300", "--n-datasets", "20", "--M", "40", "--seed", "9",
    )
    assert code == 0
    payload = json.loads(out)
    assert 0 <= payload["rejection_rate"] <= 1
    assert len(payload["p_values"]) == 20
    assert payload["config"]["null_model"]["name"] == "toy-gaussian"


@pytest.mark.parametrize("argv", [
    ("simulate", "--model", "bottleneck", "--stats", "sfs", "--n", "30", "--seed", "2"),
    ("study", "power", "--null", "bottleneck", "--truth", "expansion", "--n-sims", "60",
     "--n-datasets", "4", "--M", "10", "--rate", "0.1", "--seed", "3"),
    ("study", "power", "--null", "expansion", "--truth", "constant", "--stat", "post",
     "--n-sims", "80", "--n-datasets", "2", "--M", "3", "--n-prime", "4", "--rate", "0.2",
     "--seed", "4"),
], ids=["simulate", "study-prior", "study-post"])
def test_coalescent_stdout_is_byte_identical_across_runs_and_threads(capsys, argv):
    outputs = []
    for extra in ((), ("--threads", "1"), ("--threads", "2")):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] and outputs.count(outputs[0]) == 3


def test_study_power_requires_truth(capsys):
    code, _, err = run_cli(capsys, "study", "power", "--null", "toy-gaussian")
    assert code == 1 and "E_USAGE" in err and "--truth" in err


def test_entry_point_subprocess_roundtrip(tmp_path):
    # one end-to-end check through the real console entry point
    result = subprocess.run(
        [sys.executable, "-m", "abcgof.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "simulate" in result.stdout and "gfitpca" in result.stdout


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import and only studies use it
    result = subprocess.run(
        [sys.executable, "-c", "import sys, abcgof.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0 and result.stdout.strip() == "False"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "abcgof" in capsys.readouterr().out
