// Kernel-engine benchmark: per-kernel throughput of every compiled-and-
// runnable Vec backend (scalar, sse2, avx2, avx512) on the hot-path kernels
// from src/tensor/vec.hpp, plus a GEMM table on the shapes the training and
// serving workloads run.
//
// All kernel calls go through the VecKernels function-pointer table, so the
// compiler cannot inline or dead-code-eliminate the work being timed.
// Results land in --json (BENCH_kernels.json) with one section per backend
// and a per-kernel speedup-vs-scalar summary.
//
// The GEMM table times matmul_acc (A*B) and matmul_tn_acc (A^T*B) on each
// SIMD backend against the row-axpy loops they replaced ("before": one
// axpy_f32 per output row and reduction index, with those loops' pooled
// schedules), at 0%, 50% and 90% zeros in A, serially and on a 4-thread
// pool. Every "after" result is compared with "before" bit for bit;
// the bench exits 1 if any differs. The scalar backend's block kernel is
// the row loop itself, so it has no rows.
//
// The SAGE self-term table times, on the active backend, SageConv's self
// product at perfbench's first-layer shape (2,670 destination rows of a
// 2,690 x 1,433 input, times a 1,433 x 64 weight) two ways: gather_rows of
// the destination prefix followed by matmul ("before"), and matmul_prefix
// reading the prefix in place ("after"). Forward and backward are timed
// apart, with the input a constant (layer 1) and a requires-grad tensor
// (the hidden layers), serially and on a 4-thread pool. The value and both
// gradients must match bit for bit, else the bench exits 1.
//
// `--probe=<backend>` is a shell-support check: exits 0 when the named
// backend is compiled in AND runnable on this CPU, 1 when it is not, 2 on an
// unknown name. scripts/run_all.sh uses it to size the SPLPG_VEC sweep.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "tensor/autograd.hpp"
#include "tensor/matrix.hpp"
#include "tensor/parallel.hpp"
#include "tensor/vec.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using splpg::tensor::VecBackend;
using splpg::tensor::VecKernels;

struct KernelResult {
  std::string kernel;
  std::uint64_t elements = 0;  // element-ops per timed call (n * inner iterations)
  double wall_seconds = 0.0;
  [[nodiscard]] double gelems_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(elements) / wall_seconds / 1e9 : 0.0;
  }
};

// Keep reduction results observably live across the opaque call boundary.
double g_sink = 0.0;

using splpg::tensor::Matrix;

// ---- GEMM table ----

/// The row-axpy loops matmul_acc / matmul_tn_acc ran before the block
/// kernel, with their pooled schedules: A*B split rows of C across the pool;
/// A^T*B split rows of C and read A's columns with a stride.
void before_matmul_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  const VecKernels& kern = splpg::tensor::vec_kernels();
  const auto run_row = [&](std::size_t i) {
    for (std::size_t p = 0; p < a.cols(); ++p) {
      const float alpha = a.at(i, p);
      if (alpha == 0.0F) continue;
      kern.axpy_f32(c.row(i).data(), b.row(p).data(), alpha, b.cols());
    }
  };
  if (splpg::util::ThreadPool* pool = splpg::tensor::pool_for(
          splpg::tensor::sat_flops(a.rows(), a.cols(), b.cols()))) {
    pool->parallel_for(0, a.rows(), run_row);
  } else {
    for (std::size_t i = 0; i < a.rows(); ++i) run_row(i);
  }
}

void before_matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  const VecKernels& kern = splpg::tensor::vec_kernels();
  const std::size_t n = b.cols();
  if (splpg::util::ThreadPool* pool = splpg::tensor::pool_for(
          splpg::tensor::sat_flops(a.rows(), a.cols(), n))) {
    pool->parallel_for(0, a.cols(), [&](std::size_t p) {
      for (std::size_t i = 0; i < a.rows(); ++i) {
        const float alpha = a.at(i, p);
        if (alpha == 0.0F) continue;
        kern.axpy_f32(c.row(p).data(), b.row(i).data(), alpha, n);
      }
    });
    return;
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t p = 0; p < a.cols(); ++p) {
      const float alpha = a.at(i, p);
      if (alpha == 0.0F) continue;
      kern.axpy_f32(c.row(p).data(), b.row(i).data(), alpha, n);
    }
  }
}

/// Pool width of the GEMM table's pooled rows.
constexpr std::size_t kGemmThreads = 4;

struct GemmShape {
  const char* name;
  bool transposed;  // A^T*B: C is k x n and B is m x n
  std::size_t m, k, n;
};

struct GemmRow {
  std::string backend;
  const GemmShape* shape = nullptr;
  double zero_share = 0.0;
  std::size_t threads = 1;
  double before_seconds = 0.0;
  double after_seconds = 0.0;
  bool bit_identical = false;
  [[nodiscard]] double speedup() const {
    return after_seconds > 0.0 ? before_seconds / after_seconds : 0.0;
  }
};

/// Same shape and the same bytes.
bool same_bytes(const Matrix& x, const Matrix& y) {
  return x.same_shape(y) &&
         (x.size() == 0 ||
          std::memcmp(x.data().data(), y.data().data(), x.size() * sizeof(float)) == 0);
}

/// A (m x k) with `zero_share` of its entries zero; B with no zeros.
Matrix random_matrix(std::size_t rows, std::size_t cols, double zero_share,
                     splpg::util::Rng& rng) {
  Matrix out(rows, cols);
  for (float& x : out.data()) {
    x = rng.bernoulli(zero_share) ? 0.0F : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return out;
}

/// Times one GEMM table row: `before` and `after` each run from a zeroed C,
/// best of `repeats` samples of `calls` calls, then compared bytewise.
GemmRow time_gemm(const GemmShape& shape, double zero_share, splpg::util::ThreadPool* pool,
                  int repeats, splpg::util::Rng& rng) {
  const Matrix a = random_matrix(shape.m, shape.k, zero_share, rng);
  const Matrix b = random_matrix(shape.transposed ? shape.m : shape.k, shape.n, 0.0, rng);
  Matrix before(shape.transposed ? shape.k : shape.m, shape.n);
  Matrix after(before.rows(), before.cols());
  // Small shapes repeat inside a sample so each one lasts long enough to time.
  const std::size_t macs = std::max<std::size_t>(1, shape.m * shape.k * shape.n);
  const std::size_t calls = std::max<std::size_t>(1, (std::size_t{1} << 26U) / macs);
  const splpg::tensor::ComputePoolScope scope(pool);
  const auto sample = [&](Matrix& c, auto gemm) {
    return splpg::bench::time_best(repeats, [&] {
             for (std::size_t call = 0; call < calls; ++call) {
               c.zero();
               gemm(a, b, c);
             }
           }).wall_seconds /
           static_cast<double>(calls);
  };
  GemmRow row;
  row.shape = &shape;
  row.zero_share = zero_share;
  row.threads = pool != nullptr ? pool->size() : 1;
  if (shape.transposed) {
    row.before_seconds = sample(before, before_matmul_tn_acc);
    row.after_seconds = sample(after, [](const Matrix& a, const Matrix& b, Matrix& c) {
      splpg::tensor::matmul_tn_acc(a, b, c);
    });
  } else {
    row.before_seconds = sample(before, before_matmul_acc);
    row.after_seconds = sample(after, [](const Matrix& a, const Matrix& b, Matrix& c) {
      splpg::tensor::matmul_acc(a, b, c);
    });
  }
  row.bit_identical = same_bytes(before, after);
  return row;
}

// ---- SAGE self term: gather + matmul vs matmul_prefix ----

/// perfbench's first SAGE layer on centralized cora: input rows S,
/// destination rows, feature width, hidden width.
constexpr std::size_t kSageSrcRows = 2690;
constexpr std::size_t kSageDstRows = 2670;
constexpr std::size_t kSageInDim = 1433;
constexpr std::size_t kSageOutDim = 64;

struct SageSelfRow {
  bool input_grad = false;  // the input is a requires-grad tensor (hidden layers)
  std::size_t threads = 1;
  double before_forward = 0.0;  // best-of seconds
  double after_forward = 0.0;
  double before_backward = 0.0;
  double after_backward = 0.0;
  bool bit_identical = false;
};

/// The self term's value and gradients from one forward + backward.
struct SageSelfRun {
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  Matrix value, input_grad, weight_grad;
};

/// One forward + backward of the self term, `gather` choosing the "before"
/// composition; `upstream` is the gradient handed to the product's output.
SageSelfRun run_sage_self(bool gather, const Matrix& input, const Matrix& weight,
                          const Matrix& upstream, bool input_grad) {
  using splpg::tensor::Tensor;
  const Tensor a = input_grad ? Tensor::parameter(input) : Tensor::constant(input);
  const Tensor w = Tensor::parameter(weight);
  std::vector<std::uint32_t> prefix(kSageDstRows);
  std::iota(prefix.begin(), prefix.end(), 0U);
  SageSelfRun run;
  const splpg::util::Stopwatch forward_watch;
  const Tensor out = gather ? matmul(gather_rows(a, prefix), w)
                            : matmul_prefix(a, kSageDstRows, w);
  run.forward_seconds = forward_watch.seconds();
  // A 1x1 head that hands `upstream` to out's gradient unchanged.
  Tensor head = splpg::tensor::make_op(
      Matrix(1, 1), {out},
      [out, &upstream](splpg::tensor::detail::Node&) { out.node_ref().accumulate(upstream); });
  const splpg::util::Stopwatch backward_watch;
  head.backward();
  run.backward_seconds = backward_watch.seconds();
  run.value = out.value();
  run.input_grad = a.grad();
  run.weight_grad = w.grad();
  return run;
}

/// Times one SAGE self-term row: best of `repeats` forward and backward
/// samples per composition; the first samples are compared bytewise.
SageSelfRow time_sage_self(bool input_grad, splpg::util::ThreadPool* pool, int repeats,
                           splpg::util::Rng& rng) {
  const Matrix input = random_matrix(kSageSrcRows, kSageInDim, 0.0, rng);
  const Matrix weight = random_matrix(kSageInDim, kSageOutDim, 0.0, rng);
  const Matrix upstream = random_matrix(kSageDstRows, kSageOutDim, 0.0, rng);
  const splpg::tensor::ComputePoolScope scope(pool);
  SageSelfRow row;
  row.input_grad = input_grad;
  row.threads = pool != nullptr ? pool->size() : 1;
  for (int r = 0; r < repeats; ++r) {
    const SageSelfRun before = run_sage_self(true, input, weight, upstream, input_grad);
    const SageSelfRun after = run_sage_self(false, input, weight, upstream, input_grad);
    const auto keep_best = [r](double& best, double seconds) {
      best = r == 0 ? seconds : std::min(best, seconds);
    };
    keep_best(row.before_forward, before.forward_seconds);
    keep_best(row.before_backward, before.backward_seconds);
    keep_best(row.after_forward, after.forward_seconds);
    keep_best(row.after_backward, after.backward_seconds);
    if (r == 0) {
      row.bit_identical = same_bytes(before.value, after.value) &&
                          same_bytes(before.input_grad, after.input_grad) &&
                          same_bytes(before.weight_grad, after.weight_grad);
    }
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace splpg;
  using util::Flags;

  Flags flags(
      "Vec kernel-engine benchmark: per-backend throughput of the tensor "
      "hot-path kernels (axpy/dot/spmv/exp/sigmoid/bce/adam) plus a GEMM "
      "composite. Emits BENCH_kernels.json.");
  flags.define("size", 1 << 14, 0, Flags::kAny,
               "elements per kernel invocation (vectors; spmv row length)");
  flags.define("total-elements", 1 << 24, 0, Flags::kAny,
               "element-ops per timed call (sets the inner iteration count)");
  flags.define("gemm", 2048, 0, Flags::kAny,
               "mini-batch rows m of the GEMM table's training shapes (2048 = the "
               "first SAGE layer's; the hidden layers use 2m); 0 skips the table");
  flags.define("repeats", 5, 1, Flags::kInt, "timing repetitions (best-of)");
  flags.define("seed", 1, 0, Flags::kAny, "input-data seed");
  flags.define("probe", "",
               "exit 0/1 reporting whether the named backend (scalar|sse2|avx2|avx512) "
               "is compiled in and runnable on this CPU; no benchmark is run");
  flags.define("json", "BENCH_kernels.json", "output path for machine-readable results");
  if (!flags.parse(argc, argv)) return 1;

  if (const std::string probe = flags.get_string("probe"); !probe.empty()) {
    VecBackend backend = VecBackend::kScalar;
    if (!tensor::parse_vec_backend(probe, backend)) {
      std::fprintf(stderr, "bench_kernels: unknown backend '%s'\n", probe.c_str());
      return 2;
    }
    const bool ok = tensor::vec_backend_supported(backend);
    std::printf("%s: %s\n", probe.c_str(), ok ? "supported" : "unsupported");
    return ok ? 0 : 1;
  }

  const auto n = static_cast<std::size_t>(flags.get_int("size"));
  const auto total = static_cast<std::uint64_t>(flags.get_int("total-elements"));
  const auto gemm_rows = static_cast<std::size_t>(flags.get_int("gemm"));
  const auto repeats = static_cast<int>(flags.get_int("repeats"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const std::size_t iters = std::max<std::size_t>(1, total / std::max<std::size_t>(1, n));

  std::vector<VecBackend> backends;
  for (const VecBackend candidate :
       {VecBackend::kScalar, VecBackend::kSse2, VecBackend::kAvx2, VecBackend::kAvx512}) {
    if (tensor::vec_backend_supported(candidate)) backends.push_back(candidate);
  }

  // Shared inputs: sized so every kernel reads the same working set.
  util::Rng rng(seed);
  std::vector<float> f32_a(n);
  std::vector<float> f32_b(n);
  std::vector<float> f32_c(n);
  std::vector<float> f32_d(n);
  std::vector<double> f64_a(n);
  std::vector<double> f64_b(n);
  std::vector<std::uint32_t> cols(n);
  for (std::size_t i = 0; i < n; ++i) {
    f32_a[i] = static_cast<float>(rng.uniform()) * 2.0F - 1.0F;
    f32_b[i] = static_cast<float>(rng.uniform()) * 2.0F - 1.0F;
    f32_c[i] = static_cast<float>(rng.uniform());              // sigmoid outputs in (0,1)
    f32_d[i] = static_cast<float>(rng.uniform()) * 0.1F;
    f64_a[i] = rng.uniform() * 2.0 - 1.0;
    f64_b[i] = rng.uniform() * 2.0 - 1.0;
    cols[i] = static_cast<std::uint32_t>(rng.uniform_u64(n));
  }

  struct NamedKernel {
    const char* name;
    std::function<void(const VecKernels&)> run;  // one invocation over n elements
  };
  // Scratch buffers reused across iterations; in-place kernels keep mutating
  // the same state, which matches how the training loop uses them.
  std::vector<float> out32(n);
  std::vector<double> out64 = f64_a;
  std::vector<float> adam_v(n, 0.01F);
  std::vector<float> adam_m(n, 0.0F);
  std::vector<float> adam_p = f32_a;
  const NamedKernel kernels[] = {
      {"axpy_f32", [&](const VecKernels& k) { k.axpy_f32(out32.data(), f32_a.data(), 0.5F, n); }},
      {"dot_f32", [&](const VecKernels& k) { g_sink += k.dot_f32(f32_a.data(), f32_b.data(), n); }},
      {"axpy_f64", [&](const VecKernels& k) { k.axpy_f64(out64.data(), f64_a.data(), 0.5, n); }},
      {"xpby_f64", [&](const VecKernels& k) { k.xpby_f64(out64.data(), f64_a.data(), 0.5, n); }},
      {"dot_f64", [&](const VecKernels& k) { g_sink += k.dot_f64(f64_a.data(), f64_b.data(), n); }},
      {"spmv_row_f64",
       [&](const VecKernels& k) {
         g_sink += k.spmv_row_f64(f64_a.data(), cols.data(), f64_b.data(), n);
       }},
      {"exp_f32", [&](const VecKernels& k) { k.exp_f32(out32.data(), f32_a.data(), n); }},
      {"sigmoid_f32", [&](const VecKernels& k) { k.sigmoid_f32(out32.data(), f32_a.data(), n); }},
      {"sigmoid_grad_f32",
       [&](const VecKernels& k) {
         k.sigmoid_grad_f32(out32.data(), f32_a.data(), f32_c.data(), n);
       }},
      {"bce_forward_f64",
       [&](const VecKernels& k) { g_sink += k.bce_forward_f64(f32_a.data(), f32_c.data(), n); }},
      {"bce_grad_f32",
       [&](const VecKernels& k) {
         k.bce_grad_f32(out32.data(), f32_a.data(), f32_c.data(), 0.125F, n);
       }},
      {"adam_step_f32",
       [&](const VecKernels& k) {
         k.adam_step_f32(adam_p.data(), adam_m.data(), adam_v.data(), f32_d.data(), n, 0.9F,
                         0.999F, 1e-3F, 0.1F, 0.001F, 1e-8F);
       }},
  };

  bench::print_title("VEC KERNEL ENGINE — PER-BACKEND THROUGHPUT",
                     "scalar vs SIMD on the tensor hot-path kernels");
  std::printf("size=%zu iters/call=%zu repeats=%d best=%s\n\n", n, iters, repeats,
              tensor::vec_backend_name(tensor::vec_best_backend()));

  // results[backend][kernel]
  std::vector<std::vector<KernelResult>> results(backends.size());
  for (std::size_t b = 0; b < backends.size(); ++b) {
    const VecKernels& kern = tensor::vec_kernels_for(backends[b]);
    for (const NamedKernel& nk : kernels) {
      KernelResult r;
      r.kernel = nk.name;
      r.elements = static_cast<std::uint64_t>(n) * iters;
      r.wall_seconds = bench::time_best(repeats, [&] {
                         for (std::size_t it = 0; it < iters; ++it) nk.run(kern);
                       }).wall_seconds;
      results[b].push_back(r);
    }
  }

  // GEMM table: the shapes the workloads' traces show, on each SIMD backend.
  const GemmShape gemm_shapes[] = {
      {"sage_layer1", false, gemm_rows, 1433, 64},
      {"sage_layer1_grad", true, gemm_rows, 1433, 64},
      {"hidden", false, 2 * gemm_rows, 64, 64},
      {"hidden_grad", true, 2 * gemm_rows, 64, 64},
      {"serve_miss", false, 64, 387, 64},
  };
  std::vector<GemmRow> gemm_results;
  if (gemm_rows > 0) {
    const VecBackend previous = tensor::vec_active_backend();
    util::ThreadPool pool(kGemmThreads);
    util::Rng gemm_rng(seed + 1);
    for (const VecBackend backend : backends) {
      if (backend == VecBackend::kScalar) continue;  // its block kernel is the row loop
      tensor::set_vec_backend(backend);
      for (const GemmShape& shape : gemm_shapes) {
        for (const double zero_share : {0.0, 0.5, 0.9}) {
          for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
            GemmRow row = time_gemm(shape, zero_share, p, repeats, gemm_rng);
            row.backend = tensor::vec_backend_name(backend);
            gemm_results.push_back(row);
          }
        }
      }
    }
    tensor::set_vec_backend(previous);
  }

  // SAGE self term on the active backend, which is what the workloads run.
  std::vector<SageSelfRow> sage_results;
  {
    util::ThreadPool pool(kGemmThreads);
    util::Rng sage_rng(seed + 2);
    for (const bool input_grad : {false, true}) {
      for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
        sage_results.push_back(time_sage_self(input_grad, p, repeats, sage_rng));
      }
    }
  }

  // Table: one row per kernel, one column pair per backend.
  std::printf("%-18s", "kernel");
  for (const VecBackend backend : backends) {
    std::printf(" | %8s Ge/s %7s", tensor::vec_backend_name(backend), "speedup");
  }
  std::printf("\n");
  bench::print_rule();
  for (std::size_t k = 0; k < std::size(kernels); ++k) {
    std::printf("%-18s", results[0][k].kernel.c_str());
    const double scalar_rate = results[0][k].gelems_per_second();
    for (std::size_t b = 0; b < backends.size(); ++b) {
      const double rate = results[b][k].gelems_per_second();
      std::printf(" | %13.3f %6.2fx", rate, scalar_rate > 0.0 ? rate / scalar_rate : 0.0);
    }
    std::printf("\n");
  }
  std::printf("\nExpected shape: wider backends win on streaming kernels (axpy, sigmoid);\n"
              "reductions and the gather-bound spmv gain less.\n(sink=%g)\n", g_sink);

  bool all_identical = true;
  double min_speedup = 0.0;
  if (!gemm_results.empty()) {
    std::printf("\nGEMM: block kernel vs the row-axpy loops (ms per call, best of %d)\n",
                repeats);
    std::printf("%-8s %-17s %-6s %-20s %5s %3s %10s %10s %8s %s\n", "backend", "shape", "op",
                "m x k x n", "zeros", "thr", "before_ms", "after_ms", "speedup", "bits");
    bench::print_rule();
    min_speedup = gemm_results.front().speedup();
    for (const GemmRow& row : gemm_results) {
      const std::string dims = std::to_string(row.shape->m) + "x" +
                               std::to_string(row.shape->k) + "x" +
                               std::to_string(row.shape->n);
      std::printf("%-8s %-17s %-6s %-20s %4.0f%% %3zu %10.3f %10.3f %7.2fx %s\n",
                  row.backend.c_str(), row.shape->name, row.shape->transposed ? "A^T*B" : "A*B",
                  dims.c_str(), 100.0 * row.zero_share, row.threads, 1e3 * row.before_seconds,
                  1e3 * row.after_seconds, row.speedup(), row.bit_identical ? "same" : "DIFFER");
      all_identical = all_identical && row.bit_identical;
      min_speedup = std::min(min_speedup, row.speedup());
    }
    std::printf("all bit-identical: %s; slowest row %.2fx\n", all_identical ? "yes" : "NO",
                min_speedup);
  }

  bool sage_identical = true;
  std::printf("\nSAGE self term %zux%zu[0:%zu) * %zux%zu on %s: gather + matmul vs "
              "matmul_prefix (ms, best of %d)\n",
              kSageSrcRows, kSageInDim, kSageDstRows, kSageInDim, kSageOutDim,
              tensor::vec_backend_name(tensor::vec_active_backend()), repeats);
  std::printf("%-10s %3s %10s %10s %8s %10s %10s %8s %s\n", "input", "thr", "fwd_before",
              "fwd_after", "speedup", "bwd_before", "bwd_after", "speedup", "bits");
  bench::print_rule();
  for (const SageSelfRow& row : sage_results) {
    std::printf("%-10s %3zu %10.3f %10.3f %7.2fx %10.3f %10.3f %7.2fx %s\n",
                row.input_grad ? "grad" : "constant", row.threads, 1e3 * row.before_forward,
                1e3 * row.after_forward, row.before_forward / row.after_forward,
                1e3 * row.before_backward, 1e3 * row.after_backward,
                row.before_backward / row.after_backward, row.bit_identical ? "same" : "DIFFER");
    sage_identical = sage_identical && row.bit_identical;
  }
  std::printf("all bit-identical: %s\n", sage_identical ? "yes" : "NO");

  bench::Report report("kernels");
  report.set("best_backend", tensor::vec_backend_name(tensor::vec_best_backend()))
      .set("size", n)
      .set("iters_per_call", iters)
      .set("repeats", repeats);
  bench::Json sections;
  for (std::size_t b = 0; b < backends.size(); ++b) {
    std::vector<bench::Json> rows;
    for (std::size_t k = 0; k < results[b].size(); ++k) {
      const KernelResult& row = results[b][k];
      const double scalar_rate = results[0][k].gelems_per_second();
      rows.push_back(bench::Json()
                         .set("kernel", row.kernel)
                         .set("elements", row.elements)
                         .set("wall_seconds", row.wall_seconds)
                         .set("gelems_per_second", row.gelems_per_second())
                         .set("speedup_vs_scalar", scalar_rate > 0.0
                                                       ? row.gelems_per_second() / scalar_rate
                                                       : 0.0));
    }
    sections.set(tensor::vec_backend_name(backends[b]), rows);
  }
  std::vector<bench::Json> gemm_json;
  for (const GemmRow& row : gemm_results) {
    gemm_json.push_back(bench::Json()
                            .set("backend", row.backend)
                            .set("shape", row.shape->name)
                            .set("op", row.shape->transposed ? "A^T*B" : "A*B")
                            .set("m", row.shape->m)
                            .set("k", row.shape->k)
                            .set("n", row.shape->n)
                            .set("zero_share", row.zero_share)
                            .set("threads", row.threads)
                            .set("before_seconds", row.before_seconds)
                            .set("after_seconds", row.after_seconds)
                            .set("speedup", row.speedup())
                            .set("bit_identical", row.bit_identical));
  }
  std::vector<bench::Json> sage_json;
  for (const SageSelfRow& row : sage_results) {
    sage_json.push_back(bench::Json()
                            .set("input_grad", row.input_grad)
                            .set("threads", row.threads)
                            .set("before_forward_seconds", row.before_forward)
                            .set("after_forward_seconds", row.after_forward)
                            .set("forward_speedup", row.before_forward / row.after_forward)
                            .set("before_backward_seconds", row.before_backward)
                            .set("after_backward_seconds", row.after_backward)
                            .set("backward_speedup", row.before_backward / row.after_backward)
                            .set("bit_identical", row.bit_identical));
  }
  report.set("sections", sections)
      .set("gemm", bench::Json()
                       .set("before", "row-axpy loops: one axpy_f32 per (row of C, reduction index)")
                       .set("after", "matmul_acc / matmul_tn_acc through VecKernels::gemm_f32")
                       .set("pool_threads", kGemmThreads)
                       .set("all_bit_identical", all_identical)
                       .set("min_speedup", min_speedup)
                       .set("rows", gemm_json))
      .set("sage_self", bench::Json()
                            .set("before", "gather_rows(A, 0..rows) then matmul")
                            .set("after", "matmul_prefix(A, rows, W)")
                            .set("src_rows", kSageSrcRows)
                            .set("dst_rows", kSageDstRows)
                            .set("k", kSageInDim)
                            .set("n", kSageOutDim)
                            .set("all_bit_identical", sage_identical)
                            .set("runs", sage_json));
  report.write(flags.get_string("json"));
  return all_identical && sage_identical ? 0 : 1;
}
