#!/usr/bin/env bash
# Every CI check after checkout and install, in order; stops at the first failure.
#
#   ci/checks.sh                                        # abcgof installed (pip install -e .)
#   PYTHONPATH=$PWD/src ABCGOF="python -m abcgof.cli" ci/checks.sh   # from a plain checkout
#
# ABCGOF is the command that runs the CLI; it defaults to the console script.
set -euo pipefail
cd "$(dirname "$0")/.."
read -r -a abcgof <<< "${ABCGOF:-abcgof}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

step() { printf '\n=== %s\n' "$*"; }

step "Console script: simulate and rerun; data errors exit 2; a study runs without scipy"
(
  cd "$work"
  "${abcgof[@]}" simulate --model toy-gaussian --n 200 --seed 1 --out run
  sha256sum run/table.tsv run/simulate.json > sums
  "${abcgof[@]}" rerun run/manifest.json
  sha256sum -c sums
  # a truth whose statistics are not the null's: exit 2, one E_DATA line, no stdout
  code=0
  "${abcgof[@]}" study power --null toy-gaussian --truth constant --n-sims 50 \
    --n-datasets 2 --M 5 > study.out 2> study.err || code=$?
  cat study.err
  test "$code" -eq 2
  test "$(grep -c '^abcgof: E_DATA:' study.err)" -eq 1
  test ! -s study.out
  # calibration with a truth that is not the null: exit 2, one E_DATA line, no
  # stdout; with the null as its truth the same study runs
  code=0
  "${abcgof[@]}" study calibrate --null toy-gaussian --truth toy-laplace --n-sims 50 \
    --n-datasets 2 --M 5 > cal.out 2> cal.err || code=$?
  cat cal.err
  test "$code" -eq 2
  test "$(grep -c '^abcgof: E_DATA: calibration requires truth = null model$' cal.err)" -eq 1
  test ! -s cal.out
  "${abcgof[@]}" study calibrate --null toy-gaussian --truth toy-gaussian --n-sims 50 \
    --n-datasets 2 --M 5 > cal.out
  # a study needs no scipy: with a scipy that cannot be imported it prints the same bytes
  mkdir -p noscipy/scipy
  echo 'raise ImportError("scipy is blocked")' > noscipy/scipy/__init__.py
  PYTHONPATH="$PWD/noscipy${PYTHONPATH:+:$PYTHONPATH}" "${abcgof[@]}" study calibrate \
    --null toy-gaussian --truth toy-gaussian --n-sims 50 --n-datasets 2 --M 5 > blocked.out
  cmp cal.out blocked.out
  # a record separator (\x1e) inside a cell is a bad cell, not a line break:
  # gfit too exits 2 with one E_DATA line and no stdout
  printf 'param_a\tstat_b\tstat_c\n\0360\t0.0\t0.0\n0.0\t0.0\t1.0\n' > sep.tsv
  printf 'stat_b\tstat_c\n1.0\t2.0\n' > obs.tsv
  code=0
  "${abcgof[@]}" gfit --table sep.tsv --observed obs.tsv --M 1 > gfit.out 2> gfit.err || code=$?
  cat gfit.err
  test "$code" -eq 2
  test "$(grep -c '^abcgof: E_DATA:' gfit.err)" -eq 1
  test ! -s gfit.out
)

step "Library: README's python block runs, and a star import finds every name in __all__"
awk '/^```python$/ {keep = 1; next} /^```$/ {keep = 0} keep' README.md > "$work/readme.py"
test -s "$work/readme.py"
python "$work/readme.py"
python -c "from abcgof import *"

step "Unit tests"
python -m pytest -q -m "not acceptance" --durations=10

# Every scaled distance (reject, both statistics, ppc and the regression
# adjustment's weights) sums explicit products column by column, so its bytes,
# and the golden digests these files pin, must not depend on numpy's SIMD
# dispatch: run them with numpy's AVX-512 kernels turned off. The table rows
# that the parallel and coalescent tests compare across worker counts travel
# as one array, so those run here too, and so does the toy table batch, whose
# rows must equal the per-row loop's under either dispatch (the Laplace rows
# take np.log of a whole block's samples at once), and so do the toy moments,
# whose every row must equal the plain np.mean formula, and so does the KS
# uniformity P-value (tests/test_ks.py). Of tests/test_toy.py
# only its two batch tests and two moments tests run here, by node id: its
# toy-laplace golden digest was recorded with numpy's AVX-512 np.log and fails
# without it (ROADMAP item 12), so the whole file runs in the unit step above
# only. This step has not yet run on a hosted runner.
step "Unit tests without AVX-512 kernels: the twelve files and four toy tests below"
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" python -m pytest -q \
  tests/test_core.py tests/test_gof.py tests/test_rejection.py tests/test_metamorphic.py \
  tests/test_adjust.py tests/test_ppc.py tests/test_pca.py tests/test_harness.py \
  tests/test_parallel.py tests/test_coalescent.py tests/test_table_batch.py tests/test_ks.py \
  tests/test_toy.py::test_batched_rows_match_the_per_row_loop_in_bytes_and_generator_state \
  tests/test_toy.py::test_batched_rows_refuse_the_first_nonpositive_variance \
  tests/test_toy.py::test_moments_are_byte_identical_to_the_mean_formula \
  tests/test_toy.py::test_moments_of_a_million_values_are_byte_identical_to_the_mean_formula

# Again at an affinity of one CPU, so seeded_blocks' serial path (one block,
# the whole table in one batch) runs at real affinity.
step "Worker processes at one CPU: two files under taskset -c 0"
taskset -c 0 python -m pytest -q tests/test_parallel.py tests/test_table_batch.py

step "Benchmark smoke test (span targets and metrics)"
python -m pytest -q perfbench/test_smoke.py

step "CLI determinism (criterion 8): repeat runs and --threads 1 vs 8"
python -m pytest -q tests/test_acceptance.py::test_criterion_8_cli_determinism
