#include "oracles/fenwick_tree.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace coloc::oracles {

void FenwickTree::add(std::size_t index, std::int64_t delta) {
  COLOC_CHECK_MSG(index < tree_.size() - 1, "Fenwick index out of range");
  for (std::size_t i = index + 1; i < tree_.size(); i += i & (~i + 1))
    tree_[i] += delta;
}

std::int64_t FenwickTree::prefix_sum(std::size_t index) const {
  if (tree_.size() <= 1) return 0;
  index = std::min(index, tree_.size() - 2);
  std::int64_t s = 0;
  for (std::size_t i = index + 1; i > 0; i -= i & (~i + 1)) s += tree_[i];
  return s;
}

std::int64_t FenwickTree::range_sum(std::size_t lo, std::size_t hi) const {
  COLOC_CHECK_MSG(lo <= hi, "invalid Fenwick range");
  const std::int64_t upper = prefix_sum(hi);
  return lo == 0 ? upper : upper - prefix_sum(lo - 1);
}

}  // namespace coloc::oracles
