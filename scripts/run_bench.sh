#!/usr/bin/env bash
# Build and run the engineering benchmarks, leaving machine-readable
# results at the repo root:
#
#   scripts/run_bench.sh [extra bench_parallel flags...]
# e.g.
#   scripts/run_bench.sh --threads=8 --scale=0.5
#
#   BENCH_kernels.json   bench_kernels — the Vec kernel engine: per-backend
#                        (scalar/sse2/avx2/avx512, as supported by the host
#                        CPU) throughput of every tensor hot-path kernel, with
#                        speedup-vs-scalar per kernel, plus the GEMMs on the
#                        workloads' shapes against the row-axpy loop they
#                        replaced, and SAGE's self term at perfbench's
#                        first-layer shape, gather + matmul against
#                        matmul_prefix (exit 1 if any result differs
#                        bitwise). Override its flags via BENCH_KERNELS_FLAGS.
#   BENCH_parallel.json  bench_parallel — every pooled hot path against
#                        serial at a pool of --threads: master side
#                        (partition sparsification, per-edge CG exact ER
#                        solves, evaluation scoring) and worker side (chunked
#                        neighbor sampling, row-blocked forward/backward
#                        kernels, centralized training epochs at
#                        worker_threads N vs 1), wall and process-CPU per
#                        section (exit 1 if any section is not
#                        bit-identical). It runs after bench_kernels: on a
#                        shared 4-vCPU VM the first second of pooled work
#                        after the host sat idle has been seen to get about
#                        one CPU, which reads as no speedup.
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
#                        replay (the cold replay's p99 is its own field),
#                        each cell measured 3 times (medians, p99 min/max).
#                        The exit code enforces the cache regression gate:
#                        the median cache-enabled p99 must stay within 2x of
#                        the uncached one at the largest client count.
#                        Override its flags via BENCH_SERVING_FLAGS.
#
# Every file opens with the same stamp: bench, hardware_concurrency (speedups
# are bounded by the cores actually available), vec_backend and build_type.
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
cmake --build build -j --target bench_parallel bench_kernels bench_comm_regimes bench_serving

# shellcheck disable=SC2086  # intentional word splitting of the flag string
build/bench/bench_kernels --json=BENCH_kernels.json ${BENCH_KERNELS_FLAGS:-} \
  | tee bench_kernels_output.txt

build/bench/bench_parallel --json=BENCH_parallel.json "$@" | tee bench_parallel_output.txt

# shellcheck disable=SC2086  # intentional word splitting of the flag string
build/bench/bench_comm_regimes --json=BENCH_comm.json ${BENCH_COMM_FLAGS:-} \
  | tee bench_comm_output.txt

# shellcheck disable=SC2086  # intentional word splitting of the flag string
build/bench/bench_serving --json=BENCH_serving.json ${BENCH_SERVING_FLAGS:-} \
  | tee bench_serving_output.txt

echo "results written to BENCH_kernels.json, BENCH_parallel.json, BENCH_comm.json," \
  "and BENCH_serving.json"
