#!/usr/bin/env bash
# Build, test, and regenerate every table/figure, capturing the outputs the
# repository documents in EXPERIMENTS.md.
#
#   scripts/run_all.sh [extra harness flags...]
# e.g.
#   scripts/run_all.sh --scale=0.5 --epochs=40 --hidden=256
#
# The extra flags go to every table, figure and ablation bench: the binaries
# that share the harness flags of bench::parse_env. The engineering benches
# (bench_parallel, bench_kernels, bench_comm_regimes, bench_serving) take
# their own flags and write the committed BENCH_*.json files; run them with
# scripts/run_bench.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

# Ninja only for a fresh build tree: one configured earlier (the tier-1
# command leaves the default generator) keeps the generator it has, since
# cmake refuses to switch generators in place. Warnings are errors here, and
# the option stays in build/'s cache: later configures of build/ without it
# (the plain `cmake -B build`, run_bench.sh) keep -Werror until one passes
# -DSPLPG_WERROR=OFF.
generator=()
if [[ ! -f build/CMakeCache.txt ]] && command -v ninja >/dev/null; then
  generator=(-G Ninja)
fi
cmake -B build -S . ${generator[@]+"${generator[@]}"} -DSPLPG_WERROR=ON >/dev/null
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt

# Kernel-backend sweep: re-run the vec + worker + serving determinism suites
# with each SIMD backend pinned via SPLPG_VEC (the serving oracle battery
# proves request scores bit-identical to the zero-fanout Evaluator under
# every pin). bench_kernels --probe answers whether a backend is compiled in
# AND runnable on this CPU, so the sweep sizes itself to the host (avx512 is
# skipped on machines without it).
: > vec_sweep_output.txt
for backend in scalar sse2 avx2 avx512; do
  if build/bench/bench_kernels --probe="$backend" >/dev/null 2>&1; then
    echo "=== SPLPG_VEC=$backend ===" | tee -a vec_sweep_output.txt
    SPLPG_VEC="$backend" ctest --test-dir build -L 'vec|worker|serving' 2>&1 \
      | tee -a vec_sweep_output.txt
  else
    echo "=== SPLPG_VEC=$backend (unsupported here, skipped) ===" | tee -a vec_sweep_output.txt
  fi
done

# Durability gate: chaos-recovery matrix (kill mid-checkpoint, corrupt an
# artifact, auto-resume, require bit-identity). SPLPG_CHAOS_SCENARIOS scales
# the seeded scenario count beyond the default 20.
scripts/run_chaos.sh "${SPLPG_CHAOS_SCENARIOS:-20}" 2>&1 | tee chaos_output.txt

# Every table, figure and ablation; their per-run log lines go to stderr.
: > bench_output.txt
for b in build/bench/bench_table* build/bench/bench_fig* build/bench/bench_ablation_*; do
  echo "=== $(basename "$b") ===" | tee -a bench_output.txt
  "$b" "$@" | tee -a bench_output.txt
done
