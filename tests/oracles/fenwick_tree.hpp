// Binary indexed tree over reference timestamps: the classic O(log n)
// stack-distance formulation. The marker-bitmap profiler in
// sim/stack_distance.hpp must reproduce its distances exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace coloc::oracles {

/// Point update and prefix sum in O(log n).
class FenwickTree {
 public:
  explicit FenwickTree(std::size_t n) : tree_(n + 1, 0) {}

  void add(std::size_t index, std::int64_t delta);
  /// Sum of entries [0, index].
  std::int64_t prefix_sum(std::size_t index) const;
  /// Sum of entries [lo, hi].
  std::int64_t range_sum(std::size_t lo, std::size_t hi) const;
  std::size_t size() const { return tree_.size() - 1; }

 private:
  std::vector<std::int64_t> tree_;
};

}  // namespace coloc::oracles
