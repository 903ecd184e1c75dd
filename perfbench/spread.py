"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads coal-study,toy-post --seeds 1-10

For every workload it runs ``run.py`` once per seed, one run at a time, then
prints each end-to-end metric's median and its quartile spread: the distance
between the first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median. Compare the spread with the metric's bound in
BENCHMARK.json; a steady benchmark keeps it below a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values, references = {}, []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect: {record['failures']}")
            references.append(record["reference_ms"]["median"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(args.seeds)} runs, reference loop "
              f"{min(references):.2f}-{max(references):.2f} ms")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + (
                "  OVER A THIRD" if spread > bound / 3 else "")
            print(f"  {name:28s} median {median:12.6g}  spread {spread:7.4f}{flag}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
