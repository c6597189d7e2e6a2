#include "sim/cache.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace coloc::sim {

Cache::Cache(CacheConfig config) : config_(std::move(config)) {
  COLOC_CHECK_MSG(config_.line_bytes > 0, "line size must be positive");
  COLOC_CHECK_MSG(config_.size_bytes % config_.line_bytes == 0,
                  "cache size must be a multiple of the line size");
  COLOC_CHECK_MSG(config_.associativity > 0, "associativity must be positive");
  COLOC_CHECK_MSG(config_.num_lines() % config_.associativity == 0,
                  "line count must be a multiple of associativity");
  num_sets_ = config_.num_sets();
  COLOC_CHECK_MSG(num_sets_ > 0, "cache must have at least one set");
  tags_.assign(num_sets_ * config_.associativity, LineAddress{0});
  last_used_.assign(num_sets_ * config_.associativity, 0);
}

Cache::~Cache() { publish_stats(); }

Cache::Cache(const Cache& other)
    : config_(other.config_), num_sets_(other.num_sets_), tags_(other.tags_),
      last_used_(other.last_used_), stats_(other.stats_),
      published_(other.stats_), clock_(other.clock_) {}

Cache& Cache::operator=(const Cache& other) {
  if (this == &other) return *this;
  publish_stats();  // don't lose this object's pending window
  config_ = other.config_;
  num_sets_ = other.num_sets_;
  tags_ = other.tags_;
  last_used_ = other.last_used_;
  stats_ = other.stats_;
  published_ = other.stats_;
  clock_ = other.clock_;
  return *this;
}

Cache::Cache(Cache&& other) noexcept
    : config_(std::move(other.config_)), num_sets_(other.num_sets_),
      tags_(std::move(other.tags_)), last_used_(std::move(other.last_used_)),
      stats_(other.stats_), published_(other.published_), clock_(other.clock_) {
  // The pending window travels with *this; the source has nothing left.
  other.published_ = other.stats_;
}

Cache& Cache::operator=(Cache&& other) noexcept {
  if (this == &other) return *this;
  publish_stats();
  config_ = std::move(other.config_);
  num_sets_ = other.num_sets_;
  tags_ = std::move(other.tags_);
  last_used_ = std::move(other.last_used_);
  stats_ = other.stats_;
  published_ = other.published_;
  clock_ = other.clock_;
  other.published_ = other.stats_;
  return *this;
}

void Cache::publish_stats() {
  const std::uint64_t accesses = stats_.accesses - published_.accesses;
  const std::uint64_t hits = stats_.hits - published_.hits;
  const std::uint64_t misses = stats_.misses - published_.misses;
  published_ = stats_;
  if (accesses == 0 && hits == 0 && misses == 0) return;
  auto& registry = obs::Registry::global();
  const obs::Labels labels{{"level", config_.name}};
  registry.counter("cache_accesses_total", labels).inc(accesses);
  registry.counter("cache_hits_total", labels).inc(hits);
  registry.counter("cache_misses_total", labels).inc(misses);
}

void Cache::reset_stats() {
  publish_stats();
  stats_ = {};
  published_ = {};
}

bool Cache::access(LineAddress line) {
  ++stats_.accesses;
  ++clock_;
  const std::size_t row = set_index(line) * config_.associativity;
  LineAddress* t = tags_.data() + row;
  std::uint64_t* u = last_used_.data() + row;

  std::size_t victim = 0;
  for (std::size_t w = 0; w < config_.associativity; ++w) {
    if (u[w] != 0 && t[w] == line) {
      u[w] = clock_;
      ++stats_.hits;
      return true;
    }
    // Invalid ways carry stamp 0, so this argmin prefers the first invalid
    // way and otherwise the least recently used one.
    if (u[w] < u[victim]) victim = w;
  }
  ++stats_.misses;
  t[victim] = line;
  u[victim] = clock_;
  return false;
}

bool Cache::contains(LineAddress line) const {
  const std::size_t row = set_index(line) * config_.associativity;
  for (std::size_t w = 0; w < config_.associativity; ++w) {
    if (last_used_[row + w] != 0 && tags_[row + w] == line) return true;
  }
  return false;
}

void Cache::flush() {
  std::fill(tags_.begin(), tags_.end(), LineAddress{0});
  std::fill(last_used_.begin(), last_used_.end(), 0);
  clock_ = 0;
}

CacheHierarchy::CacheHierarchy(std::vector<CacheConfig> levels) {
  COLOC_CHECK_MSG(!levels.empty(), "hierarchy needs at least one level");
  levels_.reserve(levels.size());
  for (auto& cfg : levels) levels_.emplace_back(std::move(cfg));
}

std::size_t CacheHierarchy::access(LineAddress line) {
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].access(line)) return i;
  }
  return levels_.size();
}

void CacheHierarchy::reset_stats() {
  for (auto& c : levels_) c.reset_stats();
}

}  // namespace coloc::sim
