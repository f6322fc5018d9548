#!/usr/bin/env bash
# Build and run the test suite under sanitizers:
#
#   scripts/run_sanitized.sh [address|undefined|thread ...]
#
# With no arguments runs the full matrix: ASan and UBSan over the tier-1
# suite (which includes every `io`-labeled dataset I/O test — the mmap
# FeatureStore view and the binary parsers are exactly where an
# out-of-bounds read would live, and the `er`-labeled sparse-solver suite —
# CSR Laplacian assembly and the per-edge CG fan-out are raw index arithmetic),
# then TSan over the concurrency-heavy binaries (test_dist, test_trainer,
# test_util, the ThreadPool-parallel sparsify/eval paths, the io
# differential/resume suites, whose worker threads read a shared mmap view,
# the worker-parallel suites — chunked sampling and row-blocked kernels,
# also sliceable via `ctest -L worker` — and the effective-resistance solver
# suites (`ctest -L er`): the per-edge CG fan-out shares the Laplacian
# read-only across pool threads) — the
# barrier/elastic-membership/crash-recovery and pool fan-out paths are
# where a data race would live. The trainer-level durability suites
# (`ctest -L durability` for the whole slice) also run under TSan: torn
# checkpoint writes and auto-resume exercise the process-global
# StorageFaultScope and the stop/recovery handshake across worker threads.
#
# The SIMD kernel engine (`ctest -L vec`, test_vec) rides along in all
# three: ASan/UBSan cover the intrinsics' tail handling and gather index
# arithmetic (exactly where a lane of out-of-bounds would live), and the
# Vec* training-matrix suites run under TSan because backend dispatch is a
# process-global atomic read on every pooled kernel call. So do the pooled
# halves of the GEMM, spmm_edges and prefix-product bit-identity suites
# (VecGemmBitIdentity.Pooled*, VecSpmmEdges.Pooled*,
# VecMatmulPrefix.Pooled*): pool threads write disjoint row blocks of one C
# (each packing its own A^T panel), disjoint output rows, input-gradient
# rows and coefficient slots of spmm_edges, and disjoint rows of the
# prefix product's value and of the input gradient's prefix.
#
# The communication-regime suites (`ctest -L comm`, test_comm: CommHook*,
# CommSync*, CommRegime*) run under TSan too: compression executes in the
# barrier's serial section on one worker's thread, charging the sync
# payload to every active worker's CommMeter while those workers wait at the
# barrier — the barrier's ordering of those charges against each worker's
# own fetch charges, and the elastic leave/rejoin-with-residual paths, are
# exactly where a data race would live.
#
# The serving suites (`ctest -L serving`, test_serving: EmbeddingCache*,
# ServingServer*, ServingOracle*, ServingSoak*) run under TSan as well:
# client threads block in submit()'s bounded-queue backpressure while the
# scorer thread drains batches and a chaos thread clears the shared
# EmbeddingCache mid-flight — the cache's single-mutex protocol, the
# promise/future handoff, and the drain-shutdown close (BoundedQueue's one
# stop mode) are exactly where a lost wakeup or data race would live. So does
# ServingModel.ConcurrentComputeRowMatchesColdEncodes: four threads fill and
# read one ServingModel's first-layer table, which its mutex guards.
#
# Each sanitizer gets its own build tree (build-asan/, build-ubsan/,
# build-tsan/) so they never poison the main build/ directory.
set -euo pipefail
cd "$(dirname "$0")/.."

sanitizers=("$@")
if [ ${#sanitizers[@]} -eq 0 ]; then
  sanitizers=(address undefined thread)
fi

for sanitizer in "${sanitizers[@]}"; do
  case "$sanitizer" in
    address)   dir=build-asan ;;
    undefined) dir=build-ubsan ;;
    thread)    dir=build-tsan ;;
    *) echo "unknown sanitizer '$sanitizer' (want address|undefined|thread)" >&2; exit 2 ;;
  esac

  echo "=== $sanitizer ($dir) ==="
  cmake -B "$dir" -S . -G Ninja -DSPLPG_SANITIZE="$sanitizer" >/dev/null
  cmake --build "$dir" -j

  if [ "$sanitizer" = thread ]; then
    # TSan: target the multithreaded suites; halt_on_error keeps the first
    # race report from being buried.
    TSAN_OPTIONS="halt_on_error=1" \
      ctest --test-dir "$dir" --output-on-failure \
        -R 'Barrier|Sync|Trainer|Integration|WorkerView|ThreadPool|Sparsifier|Evaluator|PooledKernels|IoDifferentialTraining|ResumeTest|WorkerParallel|PooledGradient|ErSolver|SparseCg|SparseLaplacian|TrainerDurability|VecTrainingMatrix|VecGemmBitIdentity.Pooled|VecSpmmEdges.Pooled|VecMatmulPrefix.Pooled|Comm|EmbeddingCache|ServingServer|ServingOracle|ServingSoak|ServingModel.Concurrent|BoundedQueue' -j
  else
    ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      ctest --test-dir "$dir" --output-on-failure -j
  fi
done

echo "all sanitizer runs passed"
