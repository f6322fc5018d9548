#include "dist/comm_hook.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "tensor/int8.hpp"

namespace splpg::dist {

const char* to_string(CommHookKind kind) noexcept {
  switch (kind) {
    case CommHookKind::kNone: return "none";
    case CommHookKind::kTopK: return "topk";
    case CommHookKind::kInt8: return "int8";
  }
  return "?";
}

CommHookKind comm_hook_from_string(const std::string& text) {
  if (text == "none") return CommHookKind::kNone;
  if (text == "topk") return CommHookKind::kTopK;
  if (text == "int8") return CommHookKind::kInt8;
  throw std::invalid_argument("comm_hook_from_string: unknown hook '" + text +
                              "' (want none|topk|int8)");
}

std::size_t topk_keep_count(float fraction, std::size_t n) noexcept {
  if (n == 0) return 0;
  const auto k = static_cast<std::size_t>(
      std::ceil(static_cast<double>(fraction) * static_cast<double>(n)));
  return std::clamp<std::size_t>(k, 1, n);
}

namespace {

/// Identity hook: the collectives bypass compress() for kNone (keeping the
/// pre-hook arithmetic byte-for-byte); compress is still implemented (and
/// unit-tested) as a plain copy so the interface contract holds everywhere.
class NoneHook final : public CommHook {
 public:
  NoneHook() : CommHook(CommHookKind::kNone) {}

  std::uint64_t compress(std::uint32_t /*worker*/, std::size_t /*slot*/,
                         const tensor::Matrix& in, tensor::Matrix& out) override {
    out = in;
    return payload_bytes(in);
  }

  [[nodiscard]] std::uint64_t payload_bytes(const tensor::Matrix& in) const override {
    return static_cast<std::uint64_t>(in.size()) * sizeof(float);
  }
};

/// Magnitude top-k with per-(worker, slot) error feedback. Selection is
/// deterministic: entries ordered by (|value| descending, flat index
/// ascending), so equal magnitudes always resolve the same way.
class TopKHook final : public CommHook {
 public:
  TopKHook(float fraction, std::uint32_t num_workers)
      : CommHook(CommHookKind::kTopK), fraction_(fraction), residuals_(num_workers) {}

  std::uint64_t compress(std::uint32_t worker, std::size_t slot, const tensor::Matrix& in,
                         tensor::Matrix& out) override {
    auto& slots = residuals_.at(worker);
    if (slot >= slots.size()) slots.resize(slot + 1);
    tensor::Matrix& residual = slots[slot];
    if (residual.empty()) residual.resize(in.rows(), in.cols());
    if (!residual.same_shape(in)) {
      throw std::invalid_argument("TopKHook: parameter slot changed shape mid-run");
    }

    // Fold the carried residual into this round's input.
    tensor::Matrix work = in;
    work.add_inplace(residual);

    const std::size_t n = work.size();
    const std::size_t k = topk_keep_count(fraction_, n);
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    const auto values = work.data();
    const auto by_magnitude = [values](std::size_t a, std::size_t b) {
      const float ma = std::fabs(values[a]);
      const float mb = std::fabs(values[b]);
      if (ma != mb) return ma > mb;
      return a < b;
    };
    std::nth_element(order_.begin(), order_.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     order_.end(), by_magnitude);
    // nth_element leaves the kept prefix unordered, which is fine: the kept
    // SET is what the comparator's total order pins down deterministically.

    // Kept entries are copied verbatim into `out`; everything else is the
    // new residual. Bitwise: out + residual == work, entry by entry.
    out.resize(in.rows(), in.cols());
    residual = std::move(work);
    auto out_data = out.data();
    auto residual_data = residual.data();
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t flat = order_[i];
      out_data[flat] = residual_data[flat];
      residual_data[flat] = 0.0F;
    }
    return static_cast<std::uint64_t>(k) * (sizeof(std::uint32_t) + sizeof(float));
  }

  [[nodiscard]] std::uint64_t payload_bytes(const tensor::Matrix& in) const override {
    return static_cast<std::uint64_t>(topk_keep_count(fraction_, in.size())) *
           (sizeof(std::uint32_t) + sizeof(float));
  }

  void reset_worker(std::uint32_t worker) override { residuals_.at(worker).clear(); }

 private:
  float fraction_;
  std::vector<std::vector<tensor::Matrix>> residuals_;  // [worker][slot]
  std::vector<std::size_t> order_;                      // selection scratch
};

/// Per-tensor symmetric int8 quantization through tensor/int8: scale = amax /
/// 127, q = clamp(lround(x * (127 / amax)), -127, 127), round-trip x' = q *
/// scale. The round-trip error is at most scale / 2 = amax / 254 per entry
/// (plus float slop). Stateless — quantization error is not carried.
class Int8Hook final : public CommHook {
 public:
  Int8Hook() : CommHook(CommHookKind::kInt8) {}

  std::uint64_t compress(std::uint32_t /*worker*/, std::size_t /*slot*/,
                         const tensor::Matrix& in, tensor::Matrix& out) override {
    out = in;
    (void)tensor::quantize_dequantize_inplace(out);
    return payload_bytes(in);
  }

  [[nodiscard]] std::uint64_t payload_bytes(const tensor::Matrix& in) const override {
    return static_cast<std::uint64_t>(in.size()) + sizeof(float);  // bytes + scale
  }
};

}  // namespace

std::unique_ptr<CommHook> make_comm_hook(CommHookKind kind, const CommHookOptions& options,
                                         std::uint32_t num_workers) {
  switch (kind) {
    case CommHookKind::kNone:
      return std::make_unique<NoneHook>();
    case CommHookKind::kTopK:
      if (!(options.topk_fraction > 0.0F) || options.topk_fraction > 1.0F) {
        throw std::invalid_argument("make_comm_hook: topk_fraction must be in (0, 1], got " +
                                    std::to_string(options.topk_fraction));
      }
      return std::make_unique<TopKHook>(options.topk_fraction, num_workers);
    case CommHookKind::kInt8:
      return std::make_unique<Int8Hook>();
  }
  throw std::invalid_argument("make_comm_hook: unknown hook kind");
}

}  // namespace splpg::dist
