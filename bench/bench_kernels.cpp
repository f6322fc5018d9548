// Kernel-engine benchmark: per-kernel throughput of every compiled-and-
// runnable Vec backend (scalar, sse2, avx2, avx512) on the hot-path kernels
// from src/tensor/vec.hpp, plus a composite GEMM row driven through
// Matrix::matmul_acc with the backend pinned.
//
// All kernel calls go through the VecKernels function-pointer table, so the
// compiler cannot inline or dead-code-eliminate the work being timed.
// Results land in --json (BENCH_kernels.json) with one section per backend
// and a per-kernel speedup-vs-scalar summary.
//
// `--probe=<backend>` is a shell-support check: exits 0 when the named
// backend is compiled in AND runnable on this CPU, 1 when it is not, 2 on an
// unknown name. scripts/run_all.sh uses it to size the SPLPG_VEC sweep.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "tensor/matrix.hpp"
#include "tensor/vec.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using splpg::tensor::VecBackend;
using splpg::tensor::VecKernels;

/// Best-of-`repeats` wall time (min filters scheduler noise).
double time_best(int repeats, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const splpg::util::Stopwatch watch;
    fn();
    const double wall = watch.seconds();
    if (r == 0 || wall < best) best = wall;
  }
  return best;
}

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

}  // namespace

int main(int argc, char** argv) {
  using namespace splpg;

  util::Flags flags(
      "Vec kernel-engine benchmark: per-backend throughput of the tensor "
      "hot-path kernels (axpy/dot/spmv/exp/sigmoid/bce/adam) plus a GEMM "
      "composite. Emits BENCH_kernels.json.");
  flags.define("size", static_cast<std::int64_t>(1 << 14),
               "elements per kernel invocation (vectors; spmv row length)");
  flags.define("total-elements", static_cast<std::int64_t>(1 << 24),
               "element-ops per timed call (sets the inner iteration count)");
  flags.define("gemm", static_cast<std::int64_t>(192),
               "square GEMM dimension for the matmul composite (0 = skip)");
  flags.define("repeats", static_cast<std::int64_t>(5), "timing repetitions (best-of)");
  flags.define("seed", static_cast<std::int64_t>(1), "input-data seed");
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
  const auto gemm_dim = static_cast<std::size_t>(flags.get_int("gemm"));
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
      r.wall_seconds = time_best(repeats, [&] {
        for (std::size_t it = 0; it < iters; ++it) nk.run(kern);
      });
      results[b].push_back(r);
    }
  }

  // GEMM composite: Matrix::matmul_acc through the pinned active backend.
  std::vector<KernelResult> gemm_results;
  if (gemm_dim > 0) {
    const VecBackend previous = tensor::vec_active_backend();
    util::Rng gemm_rng(seed + 1);
    tensor::Matrix a(gemm_dim, gemm_dim);
    tensor::Matrix bmat(gemm_dim, gemm_dim);
    tensor::Matrix c(gemm_dim, gemm_dim);
    for (std::size_t r = 0; r < gemm_dim; ++r) {
      for (std::size_t col = 0; col < gemm_dim; ++col) {
        a.at(r, col) = static_cast<float>(gemm_rng.uniform()) - 0.5F;
        bmat.at(r, col) = static_cast<float>(gemm_rng.uniform()) - 0.5F;
      }
    }
    for (const VecBackend backend : backends) {
      tensor::set_vec_backend(backend);
      KernelResult r;
      r.kernel = "matmul_f32";
      r.elements = static_cast<std::uint64_t>(gemm_dim) * gemm_dim * gemm_dim;  // MACs
      r.wall_seconds = time_best(repeats, [&] { tensor::matmul_acc(a, bmat, c); });
      gemm_results.push_back(r);
    }
    tensor::set_vec_backend(previous);
  }

  // Table: one row per kernel, one column pair per backend.
  std::printf("%-18s", "kernel");
  for (const VecBackend backend : backends) {
    std::printf(" | %8s Ge/s %7s", tensor::vec_backend_name(backend), "speedup");
  }
  std::printf("\n");
  bench::print_rule();
  const std::size_t kernel_count = std::size(kernels);
  for (std::size_t k = 0; k < kernel_count + (gemm_results.empty() ? 0 : 1); ++k) {
    const bool is_gemm = k == kernel_count;
    const auto row = [&](std::size_t b) -> const KernelResult& {
      return is_gemm ? gemm_results[b] : results[b][k];
    };
    std::printf("%-18s", row(0).kernel.c_str());
    const double scalar_rate = row(0).gelems_per_second();
    for (std::size_t b = 0; b < backends.size(); ++b) {
      const double rate = row(b).gelems_per_second();
      std::printf(" | %13.3f %6.2fx", rate, scalar_rate > 0.0 ? rate / scalar_rate : 0.0);
    }
    std::printf("\n");
  }
  std::printf("\nExpected shape: wider backends win on streaming kernels (axpy, sigmoid);\n"
              "reductions and the gather-bound spmv gain less. matmul_f32 counts MACs.\n"
              "(sink=%g)\n", g_sink);

  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"bench\": \"kernels\",\n"
        << "  \"size\": " << n << ",\n"
        << "  \"iters_per_call\": " << iters << ",\n"
        << "  \"gemm_dim\": " << gemm_dim << ",\n"
        << "  \"repeats\": " << repeats << ",\n"
        << "  \"best_backend\": \"" << tensor::vec_backend_name(tensor::vec_best_backend())
        << "\",\n"
        << "  \"sections\": {\n";
    for (std::size_t b = 0; b < backends.size(); ++b) {
      out << "    \"" << tensor::vec_backend_name(backends[b]) << "\": [\n";
      std::vector<KernelResult> rows = results[b];
      if (!gemm_results.empty()) rows.push_back(gemm_results[b]);
      for (std::size_t k = 0; k < rows.size(); ++k) {
        const double scalar_rate =
            (k < results[0].size() ? results[0][k] : gemm_results[0]).gelems_per_second();
        const double rate = rows[k].gelems_per_second();
        out << "      {\"kernel\": \"" << rows[k].kernel << "\", \"elements\": "
            << rows[k].elements << ", \"wall_seconds\": " << rows[k].wall_seconds
            << ", \"gelems_per_second\": " << rate << ", \"speedup_vs_scalar\": "
            << (scalar_rate > 0.0 ? rate / scalar_rate : 0.0) << "}"
            << (k + 1 < rows.size() ? "," : "") << "\n";
      }
      out << "    ]" << (b + 1 < backends.size() ? "," : "") << "\n";
    }
    out << "  }\n}\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
