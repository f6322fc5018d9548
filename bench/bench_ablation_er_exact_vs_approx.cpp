// Ablation (beyond the paper): exact effective resistance (Eq. (3), solved
// per edge by conjugate gradients on the sparse Laplacian) versus the
// Theorem 2 degree approximation 1/du + 1/dv that SpLPG actually samples
// with.
//
// Reports rank correlation between the two orderings, the Theorem 2 bound
// slack, and the runtime gap that justifies the approximation.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common.hpp"
#include "sparsify/effective_resistance.hpp"
#include "util/timer.hpp"

namespace {

double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  const std::size_t n = a.size();
  auto ranks = [n](const std::vector<double>& values) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) { return values[x] < values[y]; });
    std::vector<double> rank(n);
    for (std::size_t i = 0; i < n; ++i) rank[order[i]] = static_cast<double>(i);
    return rank;
  };
  const auto ra = ranks(a);
  const auto rb = ranks(b);
  const double mean = static_cast<double>(n - 1) / 2.0;
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cov += (ra[i] - mean) * (rb[i] - mean);
    var_a += (ra[i] - mean) * (ra[i] - mean);
    var_b += (rb[i] - mean) * (rb[i] - mean);
  }
  return cov / std::sqrt(var_a * var_b);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace splpg;
  bench::EnvDefaults defaults;
  defaults.datasets = "citeseer,cora,chameleon";
  defaults.scale = 0.05;  // gamma is a dense O(n^3) eigensolve
  const auto env = bench::parse_env(argc, argv,
                                    "Ablation: exact vs approximate effective resistance",
                                    defaults);
  if (!env) return 1;

  bench::print_title("ABLATION — EXACT vs APPROXIMATE EFFECTIVE RESISTANCE",
                     "validates Theorem 2 as a sampling proxy (Eq. (3) vs 1/du + 1/dv)");

  std::printf("%-11s %7s %8s | %9s %10s | %10s %10s | %8s\n", "dataset", "nodes", "edges",
              "spearman", "gamma", "exact(s)", "approx(s)", "speedup");
  bench::print_rule();
  for (const auto& name : env->datasets) {
    const auto dataset = data::make_dataset(name, env->scale, env->seed);
    const auto& graph = dataset.graph;

    const util::Stopwatch exact_watch;
    const auto exact = sparsify::exact_effective_resistance(graph);
    const double exact_seconds = exact_watch.seconds();

    const util::Stopwatch approx_watch;
    const auto approx = sparsify::approx_effective_resistance(graph);
    const double approx_seconds = approx_watch.seconds();

    const double gamma = sparsify::normalized_laplacian_gamma(graph);
    std::printf("%-11s %7u %8llu | %9.3f %10.4f | %10.3f %10.6f | %7.0fx\n", name.c_str(),
                graph.num_nodes(), static_cast<unsigned long long>(graph.num_edges()),
                spearman(exact, approx), gamma, exact_seconds, approx_seconds,
                exact_seconds / std::max(approx_seconds, 1e-9));
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: high rank correlation (>0.7) — the degree proxy orders edges\n"
              "like true effective resistance — at a 10^3-10^6x runtime advantage.\n");
  return 0;
}
