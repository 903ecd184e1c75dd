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
from pathlib import Path

import numpy as np

from . import __version__, pca, ppc
from .core import (
    DataError,
    ObservedStats,
    fit_scaling,
    json_text,
    load_observed,
    load_reference_table,
    reference_table_tsv,
)
from .gof import SimulationError, gfit, gfit_post, posterior_replicates
from .harness import PowerStudyConfig, emit_pvalue_histogram, run_calibration, run_power
from .models import MODEL_NAMES, STAT_SETS, build_reference_table, get_simulator


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
        help="recorded in the manifest; no effect (the work uses every available CPU)",
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


def _write_outputs(args, argv, cwd, stdout_text: str, files: dict) -> int:
    """Print stdout and, with --out, write the files and the manifest.

    The manifest records the paths as typed and the working directory they
    are relative to, so `rerun` works from any directory.
    """
    sys.stdout.write(stdout_text)
    if args.out is None:
        return 0
    cwd = Path.cwd() if cwd is None else cwd
    flags = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k != "subcommand"
    }
    inputs = [flags[k] for k in ("table", "observed") if k in flags]
    manifest = {
        "tool": "abcgof",
        "version": __version__,
        "subcommand": args.subcommand,
        "argv": argv,
        "cwd": str(cwd),
        "seed": args.seed,
        "flags": flags,
        "inputs": {p: _sha256(cwd / p) for p in inputs},
        "outputs": sorted(files),
    }
    out_dir = cwd / args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in {**files, "manifest.json": json_text(manifest)}.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return 0


def _load_inputs(args):
    return load_reference_table(args.table), load_observed(args.observed)


def _model(args, name):
    return get_simulator(name, sample_size=args.sample_size, stat_set=args.stats)


# Each _cmd_* returns (stdout text, {output file name: text}).


def _cmd_simulate(args):
    simulator = _model(args, args.model)
    table = build_reference_table(simulator, args.n, args.seed)
    if args.out is None:
        return reference_table_tsv(table), {}
    return "", {
        "table.tsv": reference_table_tsv(table),
        "simulate.json": json_text({"rows": table.n, "model": simulator.config()}),
    }


def _cmd_gfit(args):
    table, observed = _load_inputs(args)
    text = json_text(gfit(table, observed, args.rate, args.M, args.seed).to_dict())
    return text, {"gfit.json": text}


def _cmd_gfit_post(args):
    table, observed = _load_inputs(args)
    simulator = _model(args, args.model)
    result = gfit_post(
        table, observed, args.rate, simulator, args.n_prime, args.M, args.seed
    )
    text = json_text(result.to_dict())
    return text, {"gfit_post.json": text}


def _cmd_ppc(args):
    table, observed = _load_inputs(args)
    simulator = _model(args, args.model)
    scaling = fit_scaling(table)
    obs = ObservedStats(stat_names=table.stat_names, values=observed.align(table))
    rng = np.random.default_rng(args.seed)
    replicates = posterior_replicates(
        table, obs.values, scaling, args.rate, simulator, args.n_prime, rng
    )
    text = json_text(ppc.ppc_report(replicates, obs).to_dict())
    histograms = ppc.ppc_histogram_data(replicates, obs, args.bins)
    return text, {"ppc.json": text, "ppc_histogram.tsv": ppc.histogram_tsv(histograms)}


def _cmd_gfitpca(args):
    table, observed = _load_inputs(args)
    scaling = fit_scaling(table)
    projection = pca.pca_fit(table, observed.align(table), scaling)
    env = pca.envelope(projection.scores, projection.observed_score, args.coverage)
    text = json_text({
        "explained_fraction": list(projection.explained_fraction),
        "coverage": env.coverage,
        "contains_observed": env.contains_observed,
        "observed_score": projection.observed_score.tolist(),
        "polygon": env.polygon.tolist(),
    })
    return text, {
        "gfitpca.json": text,
        "scores.tsv": pca.scores_tsv(projection),
        "envelope.tsv": pca.polygon_tsv(env),
    }


def _cmd_study(args):
    if args.mode == "power" and args.truth is None:
        raise UsageError("study power requires --truth")
    M = args.M if args.M is not None else (500 if args.stat == "prior" else 200)
    config = PowerStudyConfig(
        null_model=_model(args, args.null),
        alt_model=None if args.truth is None else _model(args, args.truth),
        statistic=args.stat,
        n_sims=args.n_sims,
        n_datasets=args.n_datasets,
        acceptance_rate=args.rate,
        M=M,
        n_prime=args.n_prime,
        alpha=args.alpha,
        master_seed=args.seed,
    )
    result = run_calibration(config) if args.mode == "calibrate" else run_power(config)
    text = json_text(result.to_dict())
    histogram = emit_pvalue_histogram(result, args.bins)
    return text, {"study.json": text, "pvalue_histogram.tsv": histogram}


_COMMANDS = {
    "simulate": _cmd_simulate,
    "gfit": _cmd_gfit,
    "gfit-post": _cmd_gfit_post,
    "ppc": _cmd_ppc,
    "gfitpca": _cmd_gfitpca,
    "study": _cmd_study,
}


def _run(args, argv: list, cwd: Path | None = None) -> int:
    """Run one subcommand other than rerun; relative paths in argv are relative to `cwd`."""
    resolved = argparse.Namespace(**vars(args))
    for name in ("table", "observed"):
        if hasattr(args, name):  # Path() / path keeps the path as typed
            setattr(resolved, name, (Path() if cwd is None else cwd) / getattr(args, name))
    return _write_outputs(args, argv, cwd, *_COMMANDS[args.subcommand](resolved))


def _rerun(path: Path) -> int:
    """Replay a manifest after checking that its inputs are unchanged."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(manifest, dict):
            raise DataError(f"{path} is not a run manifest: expected a JSON object")
        argv, inputs = manifest["argv"], manifest["inputs"]
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except (json.JSONDecodeError, KeyError) as exc:
        raise DataError(f"{path} is not a run manifest: {exc}") from None
    if not isinstance(argv, list) or not argv:
        raise DataError(f"{path} has no recorded argv")
    if not isinstance(inputs, dict):
        raise DataError(f"{path} has no recorded input digests")
    cwd = manifest.get("cwd", str(Path.cwd()))
    if not isinstance(cwd, str):
        raise DataError(f"{path} records a cwd that is not a path: {cwd!r}")
    cwd = Path(cwd)
    argv = [str(a) for a in argv]
    args = build_parser().parse_args(argv)
    if args.subcommand == "rerun":
        raise DataError(f"{path} records a rerun, not a run to replay")
    for name in ("table", "observed"):
        if hasattr(args, name) and str(getattr(args, name)) not in inputs:
            raise DataError(f"{path} records no digest for --{name} {getattr(args, name)}")
    for typed, recorded in inputs.items():
        current = _sha256(cwd / typed)
        if current != recorded:
            raise DataError(f"input {typed} changed: sha256 {current}, manifest has {recorded}")
    return _run(args, argv, cwd)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        return _rerun(args.manifest) if args.subcommand == "rerun" else _run(args, argv)
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
