// Trace-driven set-associative cache models with true-LRU replacement.
//
// These validate and calibrate the analytical miss-ratio-curve machinery
// (stack_distance.hpp): for any trace, simulating an L-line LRU cache must
// agree with the MRC evaluated at L. A multi-level hierarchy supports
// private L1/L2 plus the shared last-level cache of the modeled Xeons.
//
// Storage is a tag plane and a last-used plane; a way with last_used == 0
// is invalid (the access clock starts at 1), so victim selection is a
// single argmin over the last-used stamps of the set.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace coloc::sim {

/// Geometry of a single cache level.
struct CacheConfig {
  std::string name = "L";
  std::size_t size_bytes = 1 << 20;
  std::size_t line_bytes = 64;
  std::size_t associativity = 8;

  std::size_t num_lines() const { return size_bytes / line_bytes; }
  std::size_t num_sets() const { return num_lines() / associativity; }
};

/// Hit/miss tallies for one level.
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  double miss_ratio() const {
    return accesses ? static_cast<double>(misses) /
                          static_cast<double>(accesses)
                    : 0.0;
  }
};

/// One set-associative LRU cache level operating on line addresses.
///
/// Global cache_accesses_total / cache_hits_total / cache_misses_total
/// counters (labeled by level name) are fed in batches: the per-access
/// hot path only bumps the local CacheStats, and the accumulated window
/// is published to the metrics registry on destruction, reset_stats(),
/// or an explicit publish_stats() — keeping access() free of atomics.
class Cache {
 public:
  explicit Cache(CacheConfig config);
  ~Cache();
  // Copies/moves start a fresh unpublished window on the destination so
  // the already-accumulated window is only ever published once (by the
  // source object).
  Cache(const Cache& other);
  Cache& operator=(const Cache& other);
  Cache(Cache&& other) noexcept;
  Cache& operator=(Cache&& other) noexcept;

  /// Accesses a line; returns true on hit. LRU state is updated.
  bool access(LineAddress line);

  /// True if the line is currently resident (no state change).
  bool contains(LineAddress line) const;

  /// Adds the not-yet-published window of stats to the global metrics
  /// registry counters. Called automatically by the destructor.
  void publish_stats();

  void reset_stats();
  void flush();

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }

 private:
  std::size_t set_index(LineAddress line) const {
    // Modulo indexing supports the non-power-of-two set counts common in
    // sliced server LLCs (e.g. 12 MB / 64 B / 16-way = 12288 sets).
    return static_cast<std::size_t>(line % num_sets_);
  }

  CacheConfig config_;
  std::size_t num_sets_;
  // num_sets x associativity, row-major planes. last_used_ == 0 means the
  // way is invalid: clock_ is pre-incremented, so live ways are >= 1.
  std::vector<LineAddress> tags_;
  std::vector<std::uint64_t> last_used_;
  CacheStats stats_;
  CacheStats published_;  // portion of stats_ already in the registry
  std::uint64_t clock_ = 0;
};

/// An inclusive-of-access hierarchy: each access walks L1 -> L2 -> ... until
/// it hits; lower levels are only consulted (and filled) on upper misses.
/// This mirrors how the paper's "last-level" miss/access counters behave:
/// TCA of the LLC counts only references that missed the upper levels.
class CacheHierarchy {
 public:
  explicit CacheHierarchy(std::vector<CacheConfig> levels);

  /// Accesses a line; returns the level index that hit, or levels().size()
  /// if it missed everywhere (i.e. went to DRAM).
  std::size_t access(LineAddress line);

  std::size_t num_levels() const { return levels_.size(); }
  const Cache& level(std::size_t i) const { return levels_[i]; }
  Cache& level(std::size_t i) { return levels_[i]; }

  /// Convenience counters matching Section IV-A3 of the paper.
  std::uint64_t llc_accesses() const {
    return levels_.back().stats().accesses;
  }
  std::uint64_t llc_misses() const { return levels_.back().stats().misses; }

  void reset_stats();

 private:
  std::vector<Cache> levels_;
};

}  // namespace coloc::sim
