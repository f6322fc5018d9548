#!/usr/bin/env bash
# Build and run the parallelism benchmarks, leaving machine-readable
# results at the repo root:
#
#   scripts/run_bench.sh [extra bench_parallel_preprocessing flags...]
# e.g.
#   scripts/run_bench.sh --threads=8 --worker-threads=8 --scale=0.5
#
# Extra flags go to bench_parallel_preprocessing (the two binaries define
# different flag sets and unknown flags are fatal by design); override the
# worker benchmark's flags via BENCH_WORKER_FLAGS, e.g.
#   BENCH_WORKER_FLAGS="--worker-threads=8 --scale=0.5" scripts/run_bench.sh
#
#   BENCH_parallel.json  bench_parallel_preprocessing — master-side pools
#                        (partition sparsification, per-edge CG exact ER
#                        solves, evaluation scoring)
#   BENCH_worker.json    bench_worker_parallel — worker-side pools (chunked
#                        neighbor sampling, row-blocked forward/backward
#                        kernels, a training epoch at worker_threads N vs 1)
#   BENCH_kernels.json   bench_kernels — the Vec kernel engine: per-backend
#                        (scalar/sse2/avx2/avx512, as supported by the host
#                        CPU) throughput of every tensor hot-path kernel, with
#                        speedup-vs-scalar per kernel, plus the GEMMs on the
#                        workloads' shapes against the row-axpy loop they
#                        replaced, and SAGE's self term at perfbench's
#                        first-layer shape, gather + matmul against
#                        matmul_prefix (exit 1 if any result differs
#                        bitwise). Override its flags via BENCH_KERNELS_FLAGS.
#   BENCH_comm.json      bench_comm_regimes — communication-efficient
#                        training regimes: sync-payload bytes/epoch, accuracy
#                        and wall for exact sync vs top-k / int8 gradient
#                        compression vs local-SGD, each under clean and
#                        faulty (transient failures + worker crash) cluster
#                        profiles. The exit code enforces that every
#                        compressed regime moves strictly fewer sync bytes
#                        per epoch than dense exact sync. Override its flags
#                        via BENCH_COMM_FLAGS.
#   BENCH_serving.json   bench_serving — the online serving layer: p50/p99
#                        request latency and QPS of the batched
#                        link-prediction server at 1/4/16 concurrent
#                        clients, embedding cache disabled vs enabled, with
#                        the first-layer table filled before the timed
#                        replay (the cold replay's p99 is its own field). The
#                        exit code enforces the cache regression gate:
#                        cache-enabled p99 must stay within 2x of the
#                        uncached p99 at the largest client count. Override
#                        its flags via BENCH_SERVING_FLAGS.
#
# The parallelism benchmarks verify that every pooled hot path is
# bit-identical to its serial counterpart before timing it, and all record
# the host's hardware concurrency — speedups are bounded by the cores
# actually available.
set -euo pipefail
cd "$(dirname "$0")/.."

# Ninja only for a fresh build tree: one configured earlier (the tier-1
# command leaves the default generator) keeps the generator it has, since
# cmake refuses to switch generators in place.
generator=()
if [[ ! -f build/CMakeCache.txt ]] && command -v ninja >/dev/null; then
  generator=(-G Ninja)
fi
cmake -B build -S . ${generator[@]+"${generator[@]}"} >/dev/null
cmake --build build -j --target bench_parallel_preprocessing bench_worker_parallel \
  bench_kernels bench_comm_regimes bench_serving

build/bench/bench_parallel_preprocessing --json=BENCH_parallel.json "$@" \
  | tee bench_parallel_output.txt

# shellcheck disable=SC2086  # intentional word splitting of the flag string
build/bench/bench_worker_parallel --json=BENCH_worker.json ${BENCH_WORKER_FLAGS:-} \
  | tee bench_worker_output.txt

# shellcheck disable=SC2086  # intentional word splitting of the flag string
build/bench/bench_kernels --json=BENCH_kernels.json ${BENCH_KERNELS_FLAGS:-} \
  | tee bench_kernels_output.txt

# shellcheck disable=SC2086  # intentional word splitting of the flag string
build/bench/bench_comm_regimes --json=BENCH_comm.json ${BENCH_COMM_FLAGS:-} \
  | tee bench_comm_output.txt

# shellcheck disable=SC2086  # intentional word splitting of the flag string
build/bench/bench_serving --json=BENCH_serving.json ${BENCH_SERVING_FLAGS:-} \
  | tee bench_serving_output.txt

echo "results written to BENCH_parallel.json, BENCH_worker.json, BENCH_kernels.json," \
  "BENCH_comm.json, and BENCH_serving.json"
