// Mattson stack-distance (reuse-distance) profiling for LRU caches.
//
// For a fully-associative LRU cache of capacity C lines, a reference hits
// iff its stack distance (number of distinct lines touched since the last
// reference to the same line) is < C. One pass over a trace therefore
// yields the complete miss-ratio curve for *all* capacities at once —
// this is what lets the contention model evaluate thousands of co-location
// scenarios without re-simulating traces (DESIGN.md §5.1).
//
// Implementation: a marker bitmap over reference timestamps. Each distinct
// line keeps exactly one set bit at its latest access position, so the
// distance of a reuse at time `now` whose previous access was `prev` is
// the number of markers strictly between the two: every line touched
// inside the window has moved its marker there, and every other marker
// sits at or below `prev`. A two-level count index (u16 per 512-bit block,
// u32 per 128-block superblock) lets that window count run upward from
// `prev` in at most four short contiguous scans (stack_distance_kernels.hpp)
// whose cost follows the window, not the distance from time 0.
//
// The whole per-reference step is one function under
// COLOC_SIM_KERNEL_CLONES, software-pipelined over a batch: it hashes the
// reference 8 ahead and prefetches its last-access slot, and it holds each
// reuse's histogram increment in an 8-entry ring, prefetching the bucket
// and applying it 8 references later; the ring drains before every call
// returns. Distances are exact integers and increments commute, so results
// are bit-identical to the Fenwick-tree formulation (a test oracle in
// tests/oracles).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sim/trace.hpp"

namespace coloc::sim {

/// Marker for a cold (first-touch) reference.
inline constexpr std::uint64_t kColdMiss =
    std::numeric_limits<std::uint64_t>::max();

/// Streaming reuse-distance profiler.
class StackDistanceProfiler {
 public:
  /// `max_references` bounds the number of record() calls (bitmap size).
  explicit StackDistanceProfiler(std::size_t max_references);

  /// Records one reference; returns its stack distance in distinct lines,
  /// or kColdMiss for a first touch.
  std::uint64_t record(LineAddress line);

  /// Records a whole chunk; identical to calling record() per element.
  /// The whole chunk is checked first (capacity, the reserved address ~0),
  /// so a rejected chunk leaves the profiler unchanged.
  void record_batch(std::span<const LineAddress> lines);

  std::uint64_t references() const { return time_; }
  std::uint64_t cold_misses() const { return cold_; }

  /// Histogram of observed stack distances: bucket d counts references with
  /// distance exactly d, truncated at max_tracked_distance (the tail plus
  /// cold misses is available separately).
  const std::vector<std::uint64_t>& histogram() const { return histogram_; }
  std::uint64_t beyond_tracked() const { return beyond_; }

  /// Caps histogram resolution (distances above the cap are pooled).
  void set_max_tracked_distance(std::size_t d);

 private:
  /// The per-reference step over n >= 1 references the caller has
  /// checked; returns the last one's distance.
  std::uint64_t record_run(const LineAddress* lines, std::size_t n);
  /// Inserts absent `line` (whose mixed hash is `hash`) at empty map slot
  /// `slot`, rehashing first when the map is full; returns the position
  /// slot, which the caller fills.
  std::uint32_t* insert(LineAddress line, std::uint64_t hash,
                        std::size_t slot);
  void grow_map();

  static constexpr LineAddress kEmptySlot = ~LineAddress{0};
  static constexpr std::uint32_t kNoPosition = ~std::uint32_t{0};

  std::size_t capacity_ = 0;              // max record() calls
  std::vector<std::uint64_t> bits_;       // one marker bit per timestamp
  std::vector<std::uint16_t> block_count_;  // popcount per 512-bit block
  std::vector<std::uint32_t> super_count_;  // popcount per 128-block super
  // Open-addressing last-access map (power-of-two, linear probing): flat
  // key/position arrays probe in one cache line instead of chasing
  // std::unordered_map nodes.
  std::vector<LineAddress> map_keys_;
  std::vector<std::uint32_t> map_pos_;
  std::size_t map_mask_ = 0;
  std::size_t map_used_ = 0;
  std::vector<std::uint64_t> histogram_;
  std::size_t max_tracked_ = 1 << 22;
  std::uint64_t time_ = 0;
  std::uint64_t cold_ = 0;
  std::uint64_t beyond_ = 0;
};

/// One-shot helper: profiles a whole trace.
StackDistanceProfiler profile_trace(std::span<const LineAddress> trace);

/// Brute-force stack distance for verification in tests: a hash map of
/// last-access positions plus a hash-set distinct count over each reuse
/// window — O(n * w) for window width w, versus the profiler's O(n) with
/// short window scans.
std::vector<std::uint64_t> brute_force_stack_distances(
    std::span<const LineAddress> trace);

}  // namespace coloc::sim
