#pragma once

// Sorted-once sample summary for the trace summaries and the benchmark
// probes.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace dcuda::sim {

// Sorts on construction; every quantile query afterwards is O(1).
class Summary {
 public:
  Summary() = default;
  explicit Summary(std::vector<double> v) : v_(std::move(v)) {
    std::sort(v_.begin(), v_.end());
  }

  bool empty() const { return v_.empty(); }
  std::size_t count() const { return v_.size(); }
  double max() const { return v_.empty() ? 0.0 : v_.back(); }

  // p is a fraction in [0, 1] (out-of-range values are clamped).
  double percentile(double p) const {
    if (v_.empty()) return 0.0;
    const double idx =
        std::clamp(p, 0.0, 1.0) * static_cast<double>(v_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v_.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v_[lo] * (1.0 - frac) + v_[hi] * frac;
  }

  const std::vector<double>& sorted() const { return v_; }

 private:
  std::vector<double> v_;
};

}  // namespace dcuda::sim
