import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abcgof
from abcgof.cli import main
from abcgof.models import CoalescentSimulator, ToySimulator

from conftest import CallLog

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


@pytest.fixture
def simulate_calls(monkeypatch, tmp_path):
    """Records one entry per row simulated by any built-in model, in any process."""
    calls = CallLog(tmp_path / "simulate_calls")
    for cls in (ToySimulator, CoalescentSimulator):
        def counting(self, theta, rng, real=cls.simulate):
            calls.record(self.name)
            return real(self, theta, rng)

        monkeypatch.setattr(cls, "simulate", counting)

    def counting_rows(self, thetas, rng, real=ToySimulator.simulate_rows):
        for _ in thetas:
            calls.record(self.name)
        return real(self, thetas, rng)

    monkeypatch.setattr(ToySimulator, "simulate_rows", counting_rows)
    return calls


STUDY = ("study", "calibrate", "--null", "bottleneck", "--n-sims", "200", "--n-datasets", "4",
         "--M", "10", "--rate", "0.1")


@pytest.mark.parametrize("bad, code, message", [
    (("--bins", "0"), 1, "E_USAGE: argument --bins: must be at least 1"),
    (("--rate", "0"), 2, "E_DATA: acceptance rate must be in (0, 1], got 0.0"),
    (("--rate", "1.5"), 2, "E_DATA: acceptance rate must be in (0, 1], got 1.5"),
    (("--M", "300"), 2, "E_DATA: more replicates than simulations"),
], ids=["bins-0", "rate-0", "rate-above-1", "M-above-n-sims"])
def test_bad_study_input_fails_before_any_simulation(capsys, simulate_calls, bad, code, message):
    got, out, err = run_cli(capsys, *STUDY, *bad)
    assert (got, out) == (code, "")
    assert message in err
    assert simulate_calls == []


def test_bad_ppc_bins_fails_before_any_simulation(capsys, table_and_observed, simulate_calls):
    table, observed = table_and_observed
    code, out, err = run_cli(
        capsys, "ppc", "--table", table, "--observed", observed, "--model", "toy-gaussian",
        "--rate", "0.1", "--n-prime", "40", "--bins", "0",
    )
    assert (code, out) == (1, "")
    assert "E_USAGE" in err and "--bins" in err
    assert simulate_calls == []


def test_the_simulate_counter_sees_a_valid_study(capsys, simulate_calls):
    code, _, err = run_cli(capsys, *STUDY, "--n-sims", "40")
    assert code == 0, err
    assert len(simulate_calls) == 40 + 4  # table rows + datasets


POST_STUDY = ("study", "calibrate", "--null", "bottleneck", "--stat", "post",
              "--n-datasets", "4", "--M", "6", "--n-prime", "10", "--rate", "0.1")


def test_study_post_with_too_few_accepted_rows_fails_before_the_null(capsys, simulate_calls):
    # p = 4 parameters: 6 accepted rows are too few for any k >= 1 statistics
    code, out, err = run_cli(capsys, *POST_STUDY, "--n-sims", "60")
    assert (code, out) == (2, "")
    assert ("E_DATA: regression adjustment needs at least p + k + 2 accepted rows, 7 or more "
            "with p = 4 parameters and k >= 1 statistics; rate 0.1 of 60 simulations "
            "accepts 6") in err
    assert simulate_calls == []  # refused before the table


def test_study_post_fails_after_the_table_when_its_statistics_need_more_rows(
    capsys, simulate_calls
):
    # 8 accepted rows pass the p + 3 bound; the table's k = 3 statistics need 9
    code, out, err = run_cli(capsys, *POST_STUDY, "--n-sims", "80")
    assert (code, out) == (2, "")
    assert "E_DATA: regression adjustment needs at least 9 accepted rows, got 8" in err
    assert len(simulate_calls) == 80  # the table rows; no null replicate


def test_gfit_post_observed_name_mismatch_fails_before_any_simulation(
    capsys, tmp_path, table_and_observed, simulate_calls
):
    table, _ = table_and_observed
    observed = tmp_path / "three.tsv"
    observed.write_text("stat_mean\tstat_variance\tstat_skewness\n0.1\t1.0\t0.0\n")
    code, out, err = run_cli(
        capsys, "gfit-post", "--table", table, "--observed", observed,
        "--model", "toy-gaussian", "--rate", "0.1", "--M", "10", "--n-prime", "15",
    )
    assert (code, out) == (2, "")
    assert "E_DATA: statistic name mismatch (missing from observed: kurtosis)" in err
    assert simulate_calls == []


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


def test_manifest_recorded_with_threads_replays_byte_identically(
    capsys, tmp_path, table_and_observed
):
    # --threads no longer changes how the work runs, but manifests that
    # recorded it must still replay.
    table, observed = table_and_observed
    out_dir = tmp_path / "d"
    code, stdout1, _ = run_cli(
        capsys, "gfit", "--table", table, "--observed", observed,
        "--M", "60", "--seed", "12", "--threads", "8", "--out", out_dir,
    )
    assert code == 0
    manifest = (out_dir / "manifest.json").read_bytes()
    assert json.loads(manifest)["flags"]["threads"] == 8
    first = (out_dir / "gfit.json").read_bytes()
    (out_dir / "gfit.json").unlink()

    code, stdout2, err = run_cli(capsys, "rerun", out_dir / "manifest.json")
    assert code == 0, err
    assert stdout2 == stdout1
    assert (out_dir / "gfit.json").read_bytes() == first
    assert (out_dir / "manifest.json").read_bytes() == manifest


def test_rerun_rejects_non_manifest(capsys, tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{}")
    code, _, err = run_cli(capsys, "rerun", path)
    assert code == 2 and "E_DATA" in err


@pytest.mark.parametrize("drop", ["table", "observed"])
def test_rerun_refuses_a_manifest_without_an_input_digest(
    capsys, tmp_path, monkeypatch, table_and_observed, drop
):
    table, observed = table_and_observed
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        capsys, "gfit", "--table", table.name, "--observed", observed.name,
        "--M", "60", "--seed", "12", "--out", "run",
    )
    assert code == 0
    manifest_path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["inputs"][dict(table=table, observed=observed)[drop].name]
    manifest_path.write_text(json.dumps(manifest))
    sim = abcgof.get_simulator("toy-gaussian")
    abcgof.save_reference_table(abcgof.build_reference_table(sim, 400, 18), table)
    before = {path.name: path.read_bytes() for path in (tmp_path / "run").iterdir()}

    code, out, err = run_cli(capsys, "rerun", manifest_path)
    assert (code, out) == (2, "")
    assert err.startswith("abcgof: E_DATA: ") and err.count("\n") == 1, err
    assert f"records no digest for --{drop}" in err
    assert {path.name: path.read_bytes() for path in (tmp_path / "run").iterdir()} == before


@pytest.mark.parametrize("manifest", [
    {"argv": ["rerun", "m.json"], "inputs": {}},
    [1, 2],
    {"argv": ["simulate", "--model", "toy-gaussian", "--n", "3", "--out", "d"], "inputs": {},
     "cwd": 5},
], ids=["records-a-rerun", "not-an-object", "cwd-not-a-string"])
def test_rerun_refuses_a_malformed_manifest_and_writes_nothing(
    capsys, tmp_path, monkeypatch, manifest
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    code, out, err = run_cli(capsys, "rerun", "m.json")
    assert (code, out) == (2, "")
    assert err.startswith("abcgof: E_DATA: ") and err.count("\n") == 1, err
    assert [path.name for path in tmp_path.iterdir()] == ["m.json"]


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


@pytest.fixture(scope="module")
def bottleneck_inputs(tmp_path_factory):
    """A 400-row bottleneck table and, as observed data, row 1 of a second 2-row table."""
    tmp = tmp_path_factory.mktemp("bottleneck")
    sim = abcgof.get_simulator("bottleneck")
    abcgof.save_reference_table(abcgof.build_reference_table(sim, 400, 8), tmp / "t.tsv")
    other = abcgof.build_reference_table(sim, 2, 9)
    abcgof.save_observed(abcgof.ObservedStats(other.stat_names, other.stats[1]), tmp / "o.tsv")
    return {"TABLE": tmp / "t.tsv", "OBSERVED": tmp / "o.tsv"}


BOTTLENECK = ("--table", "TABLE", "--observed", "OBSERVED")  # bottleneck_inputs' paths
SIM_BOTTLENECK = "f45df64f725fb04b17964b68603c55f4d217dcaf578ba41930dd8e13e3624ac2"
SIM_EXPANSION = "64ddcc75e0b0f6b408f30762c2c4c2661760a7c1be711b2d2fce916b41fd6e30"
SIM_CONSTANT = "711b14bcec81238cbcc6090064ec7bb4f59c24db22b6a013c01918f53c69fe69"
SIM_TOY = "e6a5a6aa1789005e9c957230b4b8f36e172b3141c2c066e5d7a86d685de133d9"
STUDY_CALIBRATE = "ee44f4e3eda07a316ce15ca0bcd7a6271f12b28f9af0490192dbe76ce0bcfecb"
STUDY_PRIOR = "fc9342a58cb0524acf2158905014d7d7c3f3814e5668e375dfaa2f69efef12f5"
STUDY_POST = "df4e20dfe67cba6182dfdd57e88edee179783e983f45317c9c118d92975bced7"
GFIT_POST = "a19978a7425f1712fd3530e7ca31839e6e1651a4aa6f8eb4bd33fde0013ff828"
PPC = "041a2c91f3e3fa3efd0821ee4a9cf494b8ddc46a51e4b9035a1daf7881dd166e"
GFIT = "f3e6a815a380c6a32eff4d433e52b8d98ae15606641da5cecf72ec6ca1d4e540"
GFITPCA = "94055712308163f627a636b287f7124ef34edcbc836c0b413807503a05f7c579"
# (argv, SHA-256 of stdout without --out, SHA-256 of each file --out writes but the manifest)
GOLDEN_STDOUT = [
    (("simulate", "--model", "bottleneck", "--stats", "sfs", "--n", "40", "--seed", "2"),
     SIM_BOTTLENECK,
     {"table.tsv": SIM_BOTTLENECK,
      "simulate.json": "12954883a9fa8e1af6f63e8023312b2eb6ec5e8fae0546c991e99a75d0d48130"}),
    (("simulate", "--model", "expansion", "--stats", "pi-tajima", "--n", "40", "--seed", "3"),
     SIM_EXPANSION,
     {"table.tsv": SIM_EXPANSION,
      "simulate.json": "0c06a567e7fa3d551de10729ddb67987a684d5c1ddc4666f0fd71ce863fee9fd"}),
    (("simulate", "--model", "constant", "--n", "40", "--seed", "4"),
     SIM_CONSTANT,
     {"table.tsv": SIM_CONSTANT,
      "simulate.json": "84b36240dbb8401c0767139d1407cc61000bfffdd594de36153fee52ef358b90"}),
    (("study", "calibrate", "--null", "constant", "--n-sims", "60", "--n-datasets", "6",
      "--M", "10", "--rate", "0.1", "--seed", "5"),
     STUDY_CALIBRATE,
     {"study.json": STUDY_CALIBRATE,
      "pvalue_histogram.tsv": "6ec13c74c0dfc61c97ff96a9f1b1d3b7845c716f1748088e4a5bf2301cb3613f"}),
    (("study", "power", "--null", "bottleneck", "--truth", "expansion", "--stats", "sfs",
      "--n-sims", "60", "--n-datasets", "6", "--M", "10", "--rate", "0.1", "--seed", "6"),
     STUDY_PRIOR,
     {"study.json": STUDY_PRIOR,
      "pvalue_histogram.tsv": "629d65e1105e3ed913245e428e9566502e9181139840245496d7b718e25b8798"}),
    (("study", "power", "--null", "expansion", "--truth", "bottleneck", "--stat", "post",
      "--n-sims", "100", "--n-datasets", "4", "--M", "6", "--n-prime", "10", "--rate", "0.1",
      "--seed", "7"),
     STUDY_POST,
     {"study.json": STUDY_POST,
      "pvalue_histogram.tsv": "d331f8b2ef8914f1dcaaf715d0e8116f450d85eb3241cabb20d17d78bb80a6af"}),
    (("gfit-post", *BOTTLENECK, "--model", "bottleneck", "--rate", "0.05", "--M", "20",
      "--n-prime", "20", "--seed", "10"),
     GFIT_POST,
     {"gfit_post.json": GFIT_POST}),
    (("ppc", *BOTTLENECK, "--model", "bottleneck", "--rate", "0.05", "--n-prime", "30",
      "--seed", "11"),
     PPC,
     {"ppc.json": PPC,
      "ppc_histogram.tsv": "710cf35c5e32999e2b2fe9112d6a0ab26855cca2909e56f96371e46b3da8930b"}),
    (("gfit", *BOTTLENECK, "--rate", "0.05", "--M", "100", "--seed", "12"),
     GFIT,
     {"gfit.json": GFIT}),
    (("gfitpca", *BOTTLENECK, "--coverage", "0.8"),
     GFITPCA,
     {"gfitpca.json": GFITPCA,
      "scores.tsv": "3417fe01875355950df4d0225ebcfdcef5f7d522d1b78a17d6fd589ec03a6356",
      "envelope.tsv": "1630ac39cb24cfddb67fe19030f04929be3a64e9ae73ab505f274af3efd5c40b"}),
    (("simulate", "--model", "toy-gaussian", "--n", "200", "--seed", "1"),
     SIM_TOY,
     {"table.tsv": SIM_TOY,
      "simulate.json": "a1971ced6516a3a0b7f77d2e8b6da6c9222e5b0f9060b338af98141bac4d949e"}),
]


def _sha256(data) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _run_with_out(capsys, argv, out_dir):
    """One run with --out: (stdout, manifest bytes, {file name: bytes} of the other files)."""
    code, out, err = run_cli(capsys, *argv, "--out", out_dir)
    assert code == 0, err
    files = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    return out, files.pop("manifest.json"), files


@pytest.mark.parametrize("argv, digest, files", GOLDEN_STDOUT, ids=[
    "simulate-bottleneck-sfs", "simulate-expansion", "simulate-constant", "study-calibrate",
    "study-power-prior", "study-power-post", "gfit-post", "ppc", "gfit", "gfitpca",
    "simulate-toy-gaussian",
])
def test_stdout_matches_golden_digest(
    capsys, tmp_path, bottleneck_inputs, argv, digest, files
):
    """Pins stdout and every --out file; two repeats, --threads 8 and rerun all agree."""
    argv = [str(bottleneck_inputs.get(a, a)) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert _sha256(out) == digest

    out_dir = tmp_path / "out"
    runs = []
    for extra in ((), (), ("--threads", "8")):
        if out_dir.exists():
            shutil.rmtree(out_dir)
        runs.append(_run_with_out(capsys, [*argv, *extra], out_dir))
    for stdout, _, written in runs:
        assert {name: _sha256(data) for name, data in written.items()} == files
        assert stdout == runs[0][0]
    first, repeat, threaded = (json.loads(manifest) for _, manifest, _ in runs)
    assert first == repeat
    assert first.pop("argv") == [*argv, "--out", str(out_dir)]
    assert threaded.pop("argv") == [*argv, "--threads", "8", "--out", str(out_dir)]
    assert (first["flags"].pop("threads"), threaded["flags"].pop("threads")) == (1, 8)
    assert first == threaded

    for name in files:
        (out_dir / name).unlink()
    manifest_path = out_dir / "manifest.json"
    code, stdout, err = run_cli(capsys, "rerun", manifest_path)
    assert code == 0, err
    assert (stdout, manifest_path.read_bytes()) == runs[2][:2]
    assert {name: (out_dir / name).read_bytes() for name in files} == runs[2][2]


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


NON_FINITE = ("nan", "NaN", "inf", "-inf", "Infinity", "1e400")


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@st.composite
def malformed_tables(draw):
    """TSV bytes for a reference table with one defect, or None for a directory."""
    kind = draw(st.sampled_from(
        ["ragged", "non-numeric", "non-finite", "no-header", "bom", "invalid-utf8", "directory"]
    ))
    if kind == "directory":
        return kind, None
    n = draw(st.integers(1, 6))
    number = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
    lines = [["param_a", "stat_b", "stat_c"]] + [[draw(number) for _ in range(3)] for _ in range(n)]
    i, j = draw(st.integers(1, n)), draw(st.integers(0, 2))
    if kind == "ragged":
        cut = draw(st.integers(1, 2))
        lines[i] = lines[i][:-cut] if draw(st.booleans()) else lines[i] + ["1.0"] * cut
    elif kind == "non-numeric":
        lines[i][j] = draw(st.text(max_size=6).filter(lambda t: not _is_float(t)))
    elif kind == "non-finite":
        lines[i][j] = draw(st.sampled_from(NON_FINITE))
    elif kind == "no-header":
        lines = lines[1:] if draw(st.booleans()) else [[""]] + lines[1:]
    data = "".join("\t".join(line) + "\n" for line in lines).encode("utf-8")
    if kind == "bom":
        data = b"\xef\xbb\xbf" + data
    elif kind == "invalid-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80"])) + data[at:]
    return kind, data


@given(malformed_tables())
@settings(max_examples=200, deadline=None)
def test_gfit_on_a_malformed_table_is_one_data_error_line(case):
    kind, data = case
    with tempfile.TemporaryDirectory() as tmp:
        observed = os.path.join(tmp, "o.tsv")
        with open(observed, "w", encoding="utf-8") as fh:
            fh.write("stat_b\tstat_c\n1.0\t2.0\n")
        table = os.path.join(tmp, "t.tsv")
        if data is None:
            os.mkdir(table)
        else:
            with open(table, "wb") as fh:
                fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["gfit", "--table", table, "--observed", observed, "--M", "1"])
    assert (code, out.getvalue()) == (2, ""), kind
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("abcgof: E_DATA: "), (kind, lines)
