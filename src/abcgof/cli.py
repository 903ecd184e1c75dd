"""Command-line interface: simulate, gfit, gfit-post, ppc, gfitpca, study, rerun.

Results go to stdout as JSON (tables as TSV); with ``--out DIR`` they are
also written into the directory together with a ``manifest.json`` recording
the resolved invocation, its working directory, input digests and tool
version. ``abcgof rerun manifest.json``, run from any directory, replays a
manifest and reproduces the outputs byte for byte.

Exit codes: 0 success, 1 usage error, 2 data or validation error. Error
lines are prefixed ``abcgof: E_USAGE:`` or ``abcgof: E_DATA:``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

from . import pca, ppc
from .core import (
    DataError,
    ObservedStats,
    fit_scaling,
    load_observed,
    load_reference_table,
    reference_table_tsv,
)
from .gof import SimulationError, gfit, gfit_post, posterior_replicates
from .harness import PowerStudyConfig, emit_pvalue_histogram, run_calibration, run_power
from .models import MODEL_NAMES, STAT_SETS, build_reference_table, get_simulator

try:
    __version__ = metadata.version("abcgof")
except metadata.PackageNotFoundError:  # running from a source tree
    __version__ = "0.1.0"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser, *, table=False, observed=False, model=False):
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    # Still validated and recorded: manifests written with it must replay.
    parser.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="recorded in the manifest; all work runs in one thread",
    )
    parser.add_argument("--out", type=Path, default=None, help="directory for output files")
    if table:
        parser.add_argument("--table", type=Path, required=True, help="reference table TSV")
    if observed:
        parser.add_argument("--observed", type=Path, required=True, help="observed stats TSV")
    if model:
        parser.add_argument(
            "--model", choices=MODEL_NAMES, required=True, help="built-in simulator"
        )
        parser.add_argument(
            "--sample-size", type=int, default=50, help="toy-model sample size"
        )
        parser.add_argument(
            "--stats", choices=STAT_SETS, default="pi-tajima", help="coalescent statistic set"
        )


def build_parser() -> _Parser:
    parser = _Parser(prog="abcgof", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"abcgof {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="write a reference table for a built-in model")
    _add_common(p, model=True)
    p.add_argument("--n", type=int, required=True, help="number of simulations")

    p = sub.add_parser("gfit", help="goodness-of-fit test, prior statistic")
    _add_common(p, table=True, observed=True)
    p.add_argument("--rate", type=float, default=0.01, help="acceptance rate")
    p.add_argument("--M", type=int, default=1000, help="null-distribution replicates")

    p = sub.add_parser("gfit-post", help="goodness-of-fit test, posterior statistic")
    _add_common(p, table=True, observed=True, model=True)
    p.add_argument("--rate", type=float, default=0.01, help="acceptance rate")
    p.add_argument("--M", type=int, default=200, help="null-distribution replicates")
    p.add_argument("--n-prime", type=int, default=100, help="posterior replicates per dataset")

    p = sub.add_parser("ppc", help="per-statistic posterior predictive checks")
    _add_common(p, table=True, observed=True, model=True)
    p.add_argument("--rate", type=float, default=0.01, help="acceptance rate")
    p.add_argument("--n-prime", type=int, default=100, help="posterior replicates")
    p.add_argument("--bins", type=_positive_int, default=20, help="histogram bins")

    p = sub.add_parser("gfitpca", help="2-D PCA projection with a coverage envelope")
    _add_common(p, table=True, observed=True)
    p.add_argument("--coverage", type=float, default=0.9, help="envelope coverage")

    p = sub.add_parser("study", help="calibration or power study on built-in models")
    p.add_argument("mode", choices=("calibrate", "power"))
    _add_common(p)
    p.add_argument("--null", required=True, choices=MODEL_NAMES, help="null model")
    p.add_argument("--truth", choices=MODEL_NAMES, default=None, help="data-generating model")
    p.add_argument("--stat", choices=("prior", "post"), default="prior")
    p.add_argument("--sample-size", type=int, default=50, help="toy-model sample size")
    p.add_argument("--stats", choices=STAT_SETS, default="pi-tajima")
    p.add_argument("--n-sims", type=int, default=10_000, help="reference-table rows")
    p.add_argument("--n-datasets", type=int, default=500, help="datasets evaluated")
    p.add_argument("--rate", type=float, default=0.01, help="acceptance rate")
    p.add_argument("--M", type=int, default=None, help="null replicates (500 prior, 200 post)")
    p.add_argument("--n-prime", type=int, default=100)
    p.add_argument("--alpha", type=float, default=0.05, help="rejection threshold")
    p.add_argument("--bins", type=_positive_int, default=20, help="P-value histogram bins")

    p = sub.add_parser("rerun", help="replay a manifest and reproduce its outputs")
    p.add_argument("manifest", type=Path)
    return parser


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class _Run:
    """Collects output files and the manifest for one invocation.

    The manifest records the paths as typed and the working directory they
    are relative to, so `rerun` works from any directory.
    """

    def __init__(self, args, argv, cwd: Path | None = None):
        self.args = args
        self.argv = list(argv)
        self.cwd = cwd
        self.flags = {
            k: (str(v) if isinstance(v, Path) else v)
            for k, v in sorted(vars(args).items())
            if k != "subcommand"
        }
        self.inputs = [
            p for p in (getattr(args, "table", None), getattr(args, "observed", None))
            if p is not None
        ]
        self.out_dir = getattr(args, "out", None)
        self.files = {}
        self.stdout_text = ""

    def add_file(self, name: str, text: str):
        self.files[name] = text

    def set_stdout(self, text: str):
        self.stdout_text = text

    def finish(self) -> int:
        if self.stdout_text:
            sys.stdout.write(self.stdout_text)
        if self.out_dir is None:
            return 0
        cwd = Path.cwd() if self.cwd is None else self.cwd
        out_dir = cwd / self.out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (out_dir / name).write_text(text, encoding="utf-8")
        manifest = {
            "tool": "abcgof",
            "version": __version__,
            "subcommand": self.args.subcommand,
            "argv": self.argv,
            "cwd": str(cwd),
            "seed": getattr(self.args, "seed", None),
            "flags": self.flags,
            "inputs": {str(p): _sha256(cwd / p) for p in self.inputs},
            "outputs": sorted(self.files),
        }
        (out_dir / "manifest.json").write_text(_json_text(manifest), encoding="utf-8")
        return 0


def _load_inputs(args):
    table = load_reference_table(args.table)
    observed = load_observed(args.observed)
    return table, observed


def _model(args):
    return get_simulator(args.model, sample_size=args.sample_size, stat_set=args.stats)


def _check_model_stats(simulator, table):
    if tuple(simulator.stat_names) != tuple(table.stat_names):
        raise DataError(
            f"model {simulator.name!r} produces statistics {list(simulator.stat_names)} "
            f"but the table has {list(table.stat_names)}"
        )


def _cmd_simulate(args, run: _Run) -> int:
    simulator = _model(args)
    table = build_reference_table(simulator, args.n, args.seed)
    if run.out_dir is None:
        run.set_stdout(reference_table_tsv(table))
    else:
        run.add_file("table.tsv", reference_table_tsv(table))
        run.add_file("simulate.json", _json_text({"rows": table.n, "model": simulator.config()}))
    return run.finish()


def _cmd_gfit(args, run: _Run) -> int:
    table, observed = _load_inputs(args)
    result = gfit(table, observed, args.rate, args.M, args.seed)
    text = result.to_json() + "\n"
    run.set_stdout(text)
    run.add_file("gfit.json", text)
    return run.finish()


def _cmd_gfit_post(args, run: _Run) -> int:
    table, observed = _load_inputs(args)
    simulator = _model(args)
    _check_model_stats(simulator, table)
    result = gfit_post(
        table, observed, args.rate, simulator, args.n_prime, args.M, args.seed
    )
    text = result.to_json() + "\n"
    run.set_stdout(text)
    run.add_file("gfit_post.json", text)
    return run.finish()


def _cmd_ppc(args, run: _Run) -> int:
    table, observed = _load_inputs(args)
    simulator = _model(args)
    _check_model_stats(simulator, table)
    scaling = fit_scaling(table)
    obs = ObservedStats(stat_names=table.stat_names, values=observed.align(table))
    rng = np.random.default_rng(args.seed)
    replicates = posterior_replicates(
        table, obs.values, scaling, args.rate, simulator, args.n_prime, rng
    )
    report = ppc.ppc_report(replicates, obs)
    histograms = ppc.ppc_histogram_data(replicates, obs, args.bins)
    text = report.to_json() + "\n"
    run.set_stdout(text)
    run.add_file("ppc.json", text)
    run.add_file("ppc_histogram.tsv", ppc.histogram_tsv(histograms))
    return run.finish()


def _cmd_gfitpca(args, run: _Run) -> int:
    table, observed = _load_inputs(args)
    scaling = fit_scaling(table)
    projection = pca.pca_fit(table, observed, scaling)
    env = pca.envelope(projection.scores, projection.observed_score, args.coverage)
    summary = {
        "explained_fraction": list(projection.explained_fraction),
        "coverage": env.coverage,
        "contains_observed": env.contains_observed,
        "observed_score": [float(v) for v in projection.observed_score],
        "polygon": [[float(a), float(b)] for a, b in env.polygon],
    }
    text = _json_text(summary)
    run.set_stdout(text)
    run.add_file("gfitpca.json", text)
    run.add_file("scores.tsv", pca.scores_tsv(projection))
    run.add_file("envelope.tsv", pca.polygon_tsv(env))
    return run.finish()


def _cmd_study(args, run: _Run) -> int:
    if args.mode == "power" and args.truth is None:
        raise UsageError("study power requires --truth")
    M = args.M if args.M is not None else (500 if args.stat == "prior" else 200)
    options = {"sample_size": args.sample_size, "stat_set": args.stats}
    config = PowerStudyConfig(
        null_model=args.null,
        alt_model=args.truth,
        statistic=args.stat,
        n_sims=args.n_sims,
        n_datasets=args.n_datasets,
        acceptance_rate=args.rate,
        M=M,
        n_prime=args.n_prime,
        alpha=args.alpha,
        master_seed=args.seed,
        model_options=options,
    )
    result = run_calibration(config) if args.mode == "calibrate" else run_power(config)
    text = result.to_json() + "\n"
    run.set_stdout(text)
    run.add_file("study.json", text)
    run.add_file("pvalue_histogram.tsv", emit_pvalue_histogram(result, args.bins))
    return run.finish()


def _cmd_rerun(args, run: _Run) -> int:
    try:
        manifest = json.loads(args.manifest.read_text(encoding="utf-8"))
        argv, inputs = manifest["argv"], manifest["inputs"]
    except FileNotFoundError:
        raise DataError(f"no such file: {args.manifest}") from None
    except (json.JSONDecodeError, KeyError) as exc:
        raise DataError(f"{args.manifest} is not a run manifest: {exc}") from None
    if not isinstance(argv, list) or not argv:
        raise DataError(f"{args.manifest} has no recorded argv")
    if not isinstance(inputs, dict):
        raise DataError(f"{args.manifest} has no recorded input digests")
    cwd = Path(manifest["cwd"]) if "cwd" in manifest else Path.cwd()
    for path, recorded in inputs.items():
        current = _sha256(cwd / path)
        if current != recorded:
            raise DataError(f"input {path} changed: sha256 {current}, manifest has {recorded}")
    return _dispatch([str(a) for a in argv], cwd)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "gfit": _cmd_gfit,
    "gfit-post": _cmd_gfit_post,
    "ppc": _cmd_ppc,
    "gfitpca": _cmd_gfitpca,
    "study": _cmd_study,
    "rerun": _cmd_rerun,
}


def _dispatch(argv: list, cwd: Path | None = None) -> int:
    """Run one subcommand; relative paths in argv are relative to `cwd`."""
    args = build_parser().parse_args(argv)
    run = _Run(args, argv, cwd)
    if cwd is not None:
        for name in ("table", "observed"):
            path = getattr(args, name, None)
            if path is not None:
                setattr(args, name, cwd / path)
    return _COMMANDS[args.subcommand](args, run)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return _dispatch(argv)
    except UsageError as exc:
        print(f"abcgof: E_USAGE: {exc}", file=sys.stderr)
        return 1
    except (DataError, SimulationError, ValueError, OSError) as exc:
        print(f"abcgof: E_DATA: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
