"""Layered benchmark of abcgof, driven through its in-process CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src`` directory and nowhere else. With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it holds the per-layer metrics instead, taken from spans
around the package's public functions (see spans.py). The line before it is
the run record: load average, CPU count, versions, source identity, output
digest, timing sample counts and any failures. Both are also written to
``.perfbench_out/`` together with the spans of a traced run.

``--size smoke`` runs every workload at toy sizes, for test_smoke.py.
"""

import time

T0 = time.perf_counter()  # set-up time runs from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = {"full": 3, "smoke": 1}
CHILD_TIMEOUT_S = 60
WORKLOAD_NAMES = ("coal-study", "toy-post", "cli-pipeline")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SETUP_SAMPLES), default="full")
    parser.add_argument("--setup-child", type=Path, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import abcgof from this checkout's src directory, or exit non-zero."""
    if not (SRC / "abcgof" / "__init__.py").is_file():
        sys.exit(f"perfbench: no abcgof package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import abcgof

    if Path(abcgof.__file__).resolve().parent != SRC / "abcgof":
        sys.exit(f"perfbench: imported abcgof from {abcgof.__file__}, not {SRC}")
    import spans
    import workloads

    return spans, workloads


def setup_sample(args, work_dir: Path):
    """Import the package and generate the workload's inputs; time from T0."""
    spans, workloads = import_package()
    workload = workloads.WORKLOADS[args.workload](work_dir, args.seed, args.size)
    workload.setup()
    return time.perf_counter() - T0, spans, workloads, workload


def child_setup_seconds(args, work_dir: Path) -> float:
    """One more set-up sample, in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
            "--setup-child", str(work_dir)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: set-up sample failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "abcgof").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def output_digest(outputs: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(outputs):
        digest.update(name.encode() + b"\0" + outputs[name])
    return digest.hexdigest()


def tail_quantile(values):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    level = 1.0 - 10.0 / n
    if level < 0.5:
        return None
    return {"level": round(level, 4), "value": sorted(values)[int(level * n) - 1]}


def reference_ms() -> float:
    """Time of a fixed pure-Python loop. It follows the machine's speed, which
    neighbours on shared cores change without showing in the load average."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def run_iterations(workload, workloads, seconds, tracer=None):
    """Closed loop: iterate until `seconds` have passed. With a tracer, odd
    iterations are traced and even ones not, so both see the same drift.
    After each iteration, untimed, the reference loop samples machine speed."""
    results, caught, reference = [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        it = workloads.Iteration()
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
            with warnings.catch_warnings(record=True) as records:
                warnings.simplefilter("always")
                try:
                    workload.iteration(it, index)
                finally:
                    tracer.uninstall()
            caught.extend(str(w.message) for w in records)
        else:
            workload.iteration(it, index)
        results.append((traced, it))
        reference.append(reference_ms())
        index += 1
        if time.perf_counter() >= deadline and (tracer is None or index >= 2):
            return results, caught, reference


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_child is not None:
        seconds, *_ = setup_sample(args, args.setup_child)
        print(f"{seconds:.9f}")
        return 0

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    work = WORK / f"{run_id}-{os.getpid()}"
    try:
        setup_s, spans, workloads, workload = setup_sample(args, work / "inputs")
        setup_samples = [setup_s]
        if not args.trace:
            for k in range(1, SETUP_SAMPLES[args.size]):
                setup_samples.append(child_setup_seconds(args, work / f"setup{k}"))

        load_before = os.getloadavg()
        tracer = spans.Tracer() if args.trace else None
        results, caught, reference = run_iterations(
            workload, workloads, args.seconds, tracer)
        load_after = os.getloadavg()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while another run uses it
            WORK.rmdir()

    its = [it for _, it in results]
    ops = [op for it in its for op in it.ops]
    failures = [{"argv": op.argv, "errors": op.errors} for op in ops if not op.ok]
    untraced = [it for traced, it in results if not traced]
    walls = [it.wall for it in untraced]

    import numpy
    import scipy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "reference_ms": {"median": statistics.median(reference), "min": min(reference),
                         "max": max(reference)},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "output_digest": output_digest(its[0].outputs),
        "iterations": len(its),
        "wall_s": {"samples": len(walls), "median": statistics.median(walls),
                   "tail": tail_quantile(walls), "values": walls},
        "setup_samples_s": setup_samples,
        "failures": failures,
    }

    if args.trace:
        traced_its = [it for traced, it in results if traced]
        traced_wall = sum(it.wall for it in traced_its)
        values, missing = spans.layer_metrics(
            tracer.spans, caught, traced_wall, len(traced_its), tracer.missing)
        values["trace_overhead_frac"] = (
            statistics.median(it.wall for it in traced_its) / statistics.median(walls) - 1.0)
        metrics = {name: {"value": values[name], "unit": spans.METRICS[name][0]}
                   for name in spans.METRICS if name in values}
        record["missing_targets"] = tracer.missing
        record["missing_metrics"] = missing
        record["spans"] = len(tracer.spans)
    else:
        seconds = sum(walls)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(it.cpu for it in its), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "items_per_s": {"value": workload.items_per_iteration * len(its) / seconds,
                            "unit": "1/s"},
        }

    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{run_id}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    if args.trace:
        tracer.write_tsv(OUT / f"{run_id}.spans.tsv")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
