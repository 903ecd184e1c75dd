"""The benchmark workloads, each a closed loop of in-process CLI calls.

A workload makes its inputs from the run seed in :meth:`setup`, then runs
iterations until the run's time is up. Iteration ``i`` passes the CLI a seed
derived from (workload, run seed, i), so a run measures a sample of inputs
and the same run seed always measures the same sample. Every CLI call is one
attempted operation; it fails on a non-zero exit, an exception or a failed
correctness check. Checks read the outputs after the timer has stopped and
hold for any random-stream layout: they test ranges, sizes, finiteness and
byte-for-byte reproducibility, never particular values.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from pathlib import Path

import abcgof
import abcgof.cli
import numpy as np


def subseed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


class Op:
    """One CLI invocation, and whether it and the checks on its output passed."""

    def __init__(self, argv):
        self.argv = [str(a) for a in argv]
        self.errors = []

    @property
    def ok(self) -> bool:
        return not self.errors


class Iteration:
    """Accumulates the timed CLI calls of one iteration and their checks."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.ops = []
        self.outputs = {}  # name -> bytes, hashed into the output digest

    def cli(self, argv) -> Op:
        op = Op(argv)
        self.ops.append(op)
        sink = io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink):
                code = abcgof.cli.main(op.argv)
        except Exception:  # noqa: BLE001 - a crash is a counted failure
            code = None
            op.errors.append(traceback.format_exc(limit=3))
        self.wall += time.perf_counter() - wall0
        self.cpu += time.process_time() - cpu0
        if code != 0:
            op.errors.append(f"exit code {code}")
        return op

    def check(self, op: Op, condition: bool, what: str) -> None:
        if not condition:
            op.errors.append(f"check failed: {what}")

    def read_json(self, op: Op, path: Path):
        """Parse an output file, recording it for the digest; None on failure."""
        try:
            data = path.read_bytes()
            self.outputs[f"{path.parent.name}/{path.name}"] = data
            return json.loads(data)
        except (OSError, ValueError) as exc:
            op.errors.append(f"unreadable output {path.name}: {exc}")
            return None


def _in_unit_interval(values) -> bool:
    return all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for v in values)


def check_study(it: Iteration, op: Op, out: Path, n_datasets: int) -> None:
    study = it.read_json(op, out / "study.json")
    if study is None:
        return
    pvalues = study.get("p_values", [])
    it.check(op, len(pvalues) == n_datasets, f"{n_datasets} study P-values")
    it.check(op, _in_unit_interval(pvalues), "study P-values in [0, 1]")


class Workload:
    """Sizes, inputs and one iteration of a workload. Subclasses set SIZES."""

    name = ""
    SIZES: dict = {}

    def __init__(self, work: Path, seed: int, size: str):
        self.work, self.seed, self.size = work, seed, self.SIZES[size]

    def setup(self) -> None:
        """Generate the inputs; timed as part of setup_s."""

    def iteration(self, it: Iteration, index: int) -> None:
        raise NotImplementedError


class CoalStudy(Workload):
    """Two prior-statistic power studies on the coalescent, one thread.

    The code path of the demographic acceptance studies: nearly all time goes
    to CoalescentSimulator.simulate, over both statistic sets and both
    epoch-crossing histories; rejection on a small table is cheap.
    """

    name = "coal-study"
    SIZES = {
        "full": {"n_sims": 40, "n_datasets": 12, "M": 30, "rate": 0.1},
        "smoke": {"n_sims": 6, "n_datasets": 2, "M": 4, "rate": 0.34},
    }
    STUDIES = (
        ("bottleneck", "expansion", "sfs"),
        ("expansion", "bottleneck", "pi-tajima"),
    )

    def __init__(self, work: Path, seed: int, size: str):
        super().__init__(work, seed, size)
        self.items_per_iteration = len(self.STUDIES) * self.size["n_datasets"]

    def iteration(self, it: Iteration, index: int) -> None:
        s = self.size
        seed = subseed(self.name, self.seed, index)
        for k, (null, truth, stats) in enumerate(self.STUDIES):
            out = self.work / f"study{k}"
            op = it.cli([
                "study", "power", "--null", null, "--truth", truth, "--stats", stats,
                "--n-sims", s["n_sims"], "--n-datasets", s["n_datasets"], "--M", s["M"],
                "--rate", s["rate"], "--threads", 1, "--seed", seed, "--out", out,
            ])
            if op.ok:
                check_study(it, op, out, s["n_datasets"])


class ToyPost(Workload):
    """Posterior-statistic power study on the toy model, one thread.

    The paper's headline path: reject -> adjust -> sample cycles on a toy
    table and n' toy simulations at each posterior draw. No coalescent.
    """

    name = "toy-post"
    SIZES = {
        "full": {"n_sims": 4000, "n_datasets": 30, "M": 60, "n_prime": 100, "rate": 0.01},
        "smoke": {"n_sims": 400, "n_datasets": 2, "M": 4, "n_prime": 5, "rate": 0.05},
    }

    def __init__(self, work: Path, seed: int, size: str):
        super().__init__(work, seed, size)
        self.items_per_iteration = self.size["n_datasets"]

    def iteration(self, it: Iteration, index: int) -> None:
        s = self.size
        out = self.work / "study"
        op = it.cli([
            "study", "power", "--null", "toy-gaussian", "--truth", "toy-laplace",
            "--stat", "post", "--n-sims", s["n_sims"], "--n-datasets", s["n_datasets"],
            "--M", s["M"], "--n-prime", s["n_prime"], "--rate", s["rate"],
            "--threads", 1, "--seed", subseed(self.name, self.seed, index), "--out", out,
        ])
        if op.ok:
            check_study(it, op, out, s["n_datasets"])


class CliPipeline(Workload):
    """gfit, gfitpca, ppc, simulate and rerun on a toy table read from TSV.

    Almost no simulation: the table is parsed four times per iteration, and
    rejection runs on a table larger than toy-post's. Setup writes the table
    and the observed row, so the models and toy layers show in setup_s.
    """

    name = "cli-pipeline"
    SIZES = {
        "full": {"rows": 10000, "M": 400, "rate": 0.01, "n_prime": 200, "sim_rows": 1000},
        "smoke": {"rows": 500, "M": 20, "rate": 0.05, "n_prime": 20, "sim_rows": 50},
    }

    def __init__(self, work: Path, seed: int, size: str):
        super().__init__(work, seed, size)
        self.table = work / "table.tsv"
        self.observed = work / "observed.tsv"
        self.items_per_iteration = 4 * self.size["rows"] + self.size["sim_rows"]

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        simulator = abcgof.get_simulator("toy-gaussian")
        table = abcgof.build_reference_table(simulator, self.size["rows"], self.seed)
        abcgof.save_reference_table(table, self.table)
        truth = abcgof.get_simulator("toy-laplace")
        rng = np.random.default_rng(self.seed)
        values = truth.simulate(truth.draw_prior(rng), rng)
        abcgof.save_observed(abcgof.ObservedStats(truth.stat_names, values), self.observed)

    def iteration(self, it: Iteration, index: int) -> None:
        s = self.size
        seed = subseed(self.name, self.seed, index)
        inputs = ["--table", self.table, "--observed", self.observed]
        gfit_dir = self.work / "gfit"
        gfit = it.cli(["gfit", *inputs, "--rate", s["rate"], "--M", s["M"],
                       "--seed", seed, "--out", gfit_dir])
        first = (gfit_dir / "gfit.json").read_bytes() if gfit.ok else None
        pca = it.cli(["gfitpca", *inputs, "--out", self.work / "pca"])
        ppc = it.cli(["ppc", *inputs, "--model", "toy-gaussian", "--rate", s["rate"],
                      "--n-prime", s["n_prime"], "--seed", seed, "--out", self.work / "ppc"])
        sim = it.cli(["simulate", "--model", "toy-laplace", "--n", s["sim_rows"],
                      "--seed", seed, "--out", self.work / "sim"])
        rerun = it.cli(["rerun", gfit_dir / "manifest.json"])

        if gfit.ok:
            result = it.read_json(gfit, gfit_dir / "gfit.json")
            if result is not None:
                nulls = result.get("null_values", [])
                it.check(gfit, len(nulls) == s["M"] and all(map(math.isfinite, nulls)),
                         f"null array has {s['M']} finite values")
                it.check(gfit, _in_unit_interval(
                    [result.get("p_value"), result.get("p_value_conservative")]),
                    "gfit P-values in [0, 1]")
        if pca.ok:
            summary = it.read_json(pca, self.work / "pca" / "gfitpca.json")
            it.check(pca, summary is not None and isinstance(
                summary.get("contains_observed"), bool), "gfitpca reports containment")
        if ppc.ok:
            report = it.read_json(ppc, self.work / "ppc" / "ppc.json")
            tails = [v for stat in (report or {}).get("stats", {}).values()
                     for k, v in stat.items() if k in ("lower_tail", "upper_tail", "two_sided")]
            it.check(ppc, bool(tails) and _in_unit_interval(tails), "PPC tails in [0, 1]")
        if sim.ok:
            table = (self.work / "sim" / "table.tsv").read_bytes()
            it.outputs["sim/table.tsv"] = table
            it.check(sim, table.count(b"\n") == s["sim_rows"] + 1, "simulated row count")
        if rerun.ok:
            again = (gfit_dir / "gfit.json").read_bytes()
            it.check(rerun, first is not None and again == first,
                     "rerun reproduces gfit.json byte for byte")


WORKLOADS = {w.name: w for w in (CoalStudy, ToyPost, CliPipeline)}
