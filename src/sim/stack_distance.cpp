#include "sim/stack_distance.hpp"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "sim/kernel_clones.hpp"
#include "sim/stack_distance_kernels.hpp"

namespace coloc::sim {

namespace {
namespace sdk = stack_distance_kernels;

/// References the step looks ahead: it hashes reference k + kAhead and
/// prefetches that reference's map slot, and applies reference k's
/// histogram increment at reference k + kAhead.
constexpr std::size_t kAhead = 8;

/// Murmur3 finalizer: full-avalanche mixing so linear probing stays short
/// even on the strided/sequential addresses traces are full of.
std::uint64_t mix_line(LineAddress line) {
  std::uint64_t h = line;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

StackDistanceProfiler::StackDistanceProfiler(std::size_t max_references)
    : capacity_(max_references) {
  COLOC_CHECK_MSG(max_references > 0, "profiler needs capacity");
  COLOC_CHECK_MSG(max_references < kNoPosition,
                  "profiler capacity exceeds 32-bit timestamp range");
  bits_.assign((capacity_ + 63) / 64, 0);
  block_count_.assign((capacity_ + 511) / 512, 0);
  super_count_.assign((capacity_ + 65535) / 65536, 0);
  // Sized for the common case (a minority of references are first
  // touches); grows by rehash when distinct lines outrun it.
  const std::size_t slots =
      next_pow2(std::max<std::size_t>(1024, capacity_ / 64));
  map_keys_.assign(slots, kEmptySlot);
  map_pos_.assign(slots, kNoPosition);
  map_mask_ = slots - 1;
}

void StackDistanceProfiler::set_max_tracked_distance(std::size_t d) {
  COLOC_CHECK_MSG(histogram_.empty() || d >= histogram_.size(),
                  "cannot shrink histogram after recording");
  max_tracked_ = d;
}

std::uint32_t* StackDistanceProfiler::insert(LineAddress line,
                                             std::uint64_t hash,
                                             std::size_t slot) {
  if ((map_used_ + 1) * 10 >= (map_mask_ + 1) * 7) {
    grow_map();
    slot = static_cast<std::size_t>(hash) & map_mask_;
    while (map_keys_[slot] != kEmptySlot) slot = (slot + 1) & map_mask_;
  }
  map_keys_[slot] = line;
  ++map_used_;
  return &map_pos_[slot];
}

void StackDistanceProfiler::grow_map() {
  const std::size_t new_slots = (map_mask_ + 1) * 2;
  std::vector<LineAddress> keys(new_slots, kEmptySlot);
  std::vector<std::uint32_t> pos(new_slots, kNoPosition);
  const std::size_t new_mask = new_slots - 1;
  for (std::size_t i = 0; i <= map_mask_; ++i) {
    if (map_keys_[i] == kEmptySlot) continue;
    std::size_t j = static_cast<std::size_t>(mix_line(map_keys_[i])) & new_mask;
    while (keys[j] != kEmptySlot) j = (j + 1) & new_mask;
    keys[j] = map_keys_[i];
    pos[j] = map_pos_[i];
  }
  map_keys_ = std::move(keys);
  map_pos_ = std::move(pos);
  map_mask_ = new_mask;
}

COLOC_SIM_KERNEL_CLONES
std::uint64_t StackDistanceProfiler::record_run(const LineAddress* lines,
                                                std::size_t n) {
  // Map pointers and mask are cached and refreshed after an insert, which
  // may rehash.
  const LineAddress* keys = map_keys_.data();
  std::uint32_t* positions = map_pos_.data();
  std::size_t mask = map_mask_;
  // Slot prefetch: the last-access map is a random-access table far larger
  // than the caches on big traces, so reference k + kAhead's slot is hashed
  // and prefetched while reference k is processed.
  std::uint64_t hashes[kAhead];
  const auto prefetch_slot = [&](std::uint64_t hash) {
    const std::size_t i = static_cast<std::size_t>(hash) & mask;
    __builtin_prefetch(keys + i);
    __builtin_prefetch(positions + i, 1);
  };
  for (std::size_t k = 0; k < std::min(n, kAhead); ++k) {
    hashes[k] = mix_line(lines[k]);
    prefetch_slot(hashes[k]);
  }
  // Deferred histogram increments: reference k's bucket is prefetched and
  // bumped at reference k + kAhead. Empty ring entries point at `sink`.
  // Increments commute, so the histogram is exact once the ring drains.
  std::uint64_t sink = 0;
  std::uint64_t* pending[kAhead];
  std::fill(std::begin(pending), std::end(pending), &sink);
  const auto drain = [&] {
    for (std::uint64_t*& bucket : pending) {
      ++*bucket;
      bucket = &sink;
    }
  };

  std::uint64_t* const bits = bits_.data();
  std::uint16_t* const blocks = block_count_.data();
  std::uint32_t* const supers = super_count_.data();
  const std::size_t start = static_cast<std::size_t>(time_);
  std::uint64_t cold = cold_;
  std::uint64_t beyond = beyond_;
  std::uint64_t distance = kColdMiss;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t ring = k & (kAhead - 1);
    const std::uint64_t hash = hashes[ring];
    if (k + kAhead < n) {
      hashes[ring] = mix_line(lines[k + kAhead]);
      prefetch_slot(hashes[ring]);
    }
    ++*pending[ring];
    pending[ring] = &sink;

    const std::size_t now = start + k;
    const LineAddress line = lines[k];
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    while (keys[i] != line && keys[i] != kEmptySlot) i = (i + 1) & mask;
    std::uint32_t* slot = &positions[i];
    distance = kColdMiss;
    if (keys[i] == line) {
      const std::size_t prev = *slot;
      // Every distinct line seen so far keeps one marker at its latest
      // access, all strictly below `now`, so the markers inside
      // (prev, now) are exactly the distinct lines of the reuse window.
      distance = sdk::window_count(bits, blocks, supers, prev, now);
      bits[prev >> 6] &= ~(std::uint64_t{1} << (prev & 63));
      --blocks[prev >> 9];
      --supers[prev >> 16];
    } else {
      slot = insert(line, hash, i);
      keys = map_keys_.data();
      positions = map_pos_.data();
      mask = map_mask_;
      ++cold;
    }
    *slot = static_cast<std::uint32_t>(now);
    bits[now >> 6] |= std::uint64_t{1} << (now & 63);
    ++blocks[now >> 9];
    ++supers[now >> 16];

    if (distance == kColdMiss) continue;
    if (distance >= max_tracked_) {
      ++beyond;
      continue;
    }
    if (distance >= histogram_.size()) {
      drain();  // the pending pointers die with the old buffer
      histogram_.resize(distance + 1, 0);
    }
    std::uint64_t* bucket = histogram_.data() + distance;
    __builtin_prefetch(bucket, 1);
    pending[ring] = bucket;
  }
  drain();
  time_ = start + n;
  cold_ = cold;
  beyond_ = beyond;
  return distance;
}

std::uint64_t StackDistanceProfiler::record(LineAddress line) {
  COLOC_CHECK_MSG(time_ < capacity_, "profiler capacity exceeded");
  COLOC_CHECK_MSG(line != kEmptySlot,
                  "line address ~0 is reserved by the profiler");
  return record_run(&line, 1);
}

void StackDistanceProfiler::record_batch(std::span<const LineAddress> lines) {
  // The whole batch is checked before any state changes, so a rejected
  // batch leaves the profiler as it was.
  COLOC_CHECK_MSG(lines.size() <= capacity_ - time_,
                  "profiler capacity exceeded");
  COLOC_CHECK_MSG(
      std::find(lines.begin(), lines.end(), kEmptySlot) == lines.end(),
      "line address ~0 is reserved by the profiler");
  if (!lines.empty()) record_run(lines.data(), lines.size());
}

StackDistanceProfiler profile_trace(std::span<const LineAddress> trace) {
  StackDistanceProfiler profiler(trace.size());
  profiler.record_batch(trace);
  return profiler;
}

std::vector<std::uint64_t> brute_force_stack_distances(
    std::span<const LineAddress> trace) {
  // Still "brute force" relative to the streaming profiler — the distinct
  // count rescans the reuse window — but a hash map of last-access
  // positions replaces the backward scan for the previous access, and a
  // hash set replaces the linear-probe distinct count, taking the oracle
  // from O(n^3) to O(n * w) for reuse windows of width w. That keeps it
  // usable as a cross-check on the large randomized traces in tests.
  std::vector<std::uint64_t> out;
  out.reserve(trace.size());
  std::unordered_map<LineAddress, std::size_t> last_access;
  last_access.reserve(trace.size());
  std::unordered_set<LineAddress> seen;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto it = last_access.find(trace[i]);
    if (it == last_access.end()) {
      out.push_back(kColdMiss);
      last_access.emplace(trace[i], i);
      continue;
    }
    seen.clear();
    for (std::size_t j = it->second + 1; j < i; ++j) seen.insert(trace[j]);
    out.push_back(seen.size());
    it->second = i;
  }
  return out;
}

}  // namespace coloc::sim
