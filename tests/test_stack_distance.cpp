#include "sim/stack_distance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "oracles/fenwick_tree.hpp"
#include "sim/cache.hpp"
#include "sim/trace.hpp"

namespace coloc::sim {
namespace {

using oracles::FenwickTree;

TEST(Fenwick, PrefixSums) {
  FenwickTree t(8);
  t.add(0, 1);
  t.add(3, 2);
  t.add(7, 5);
  EXPECT_EQ(t.prefix_sum(0), 1);
  EXPECT_EQ(t.prefix_sum(2), 1);
  EXPECT_EQ(t.prefix_sum(3), 3);
  EXPECT_EQ(t.prefix_sum(7), 8);
}

TEST(Fenwick, RangeSums) {
  FenwickTree t(10);
  for (std::size_t i = 0; i < 10; ++i) t.add(i, 1);
  EXPECT_EQ(t.range_sum(0, 9), 10);
  EXPECT_EQ(t.range_sum(3, 5), 3);
  EXPECT_EQ(t.range_sum(7, 7), 1);
}

TEST(Fenwick, NegativeUpdates) {
  FenwickTree t(4);
  t.add(1, 5);
  t.add(1, -3);
  EXPECT_EQ(t.prefix_sum(3), 2);
}

TEST(Fenwick, OutOfRangeThrows) {
  FenwickTree t(4);
  EXPECT_THROW(t.add(4, 1), coloc::runtime_error);
  EXPECT_THROW(t.range_sum(2, 1), coloc::runtime_error);
}

/// Stack distances from a Fenwick tree over marker timestamps: the classic
/// formulation, O(log n) per reference however long the reuse window.
std::vector<std::uint64_t> fenwick_stack_distances(
    std::span<const LineAddress> trace) {
  FenwickTree markers(trace.size());
  std::unordered_map<LineAddress, std::size_t> last;
  std::vector<std::uint64_t> out;
  out.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto [it, first_touch] = last.try_emplace(trace[i], i);
    if (first_touch) {
      out.push_back(kColdMiss);
    } else {
      const std::size_t prev = it->second;
      out.push_back(prev + 1 < i ? static_cast<std::uint64_t>(
                                       markers.range_sum(prev + 1, i - 1))
                                 : 0);
      markers.add(prev, -1);
      it->second = i;
    }
    markers.add(i, 1);
  }
  return out;
}

/// References mixing short reuse windows (a 64-line hot set), windows of
/// thousands of references (2,000 warm lines) and windows far longer than
/// a 65,536-timestamp superblock (a cyclic sweep over 40,000 lines, each
/// revisited about 90,000 references later).
std::vector<LineAddress> mixed_window_trace(std::size_t n, std::uint64_t seed) {
  coloc::Rng rng(seed);
  std::vector<LineAddress> trace;
  trace.reserve(n);
  std::size_t sweep = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    if (u < 0.45) {
      trace.push_back(rng.uniform_index(64));
    } else if (u < 0.55) {
      trace.push_back(1'000'000 + rng.uniform_index(2000));
    } else {
      trace.push_back(2'000'000 + sweep++ % 40'000);
    }
  }
  return trace;
}

/// Records `trace` in batches whose lengths cycle through `lengths`, the
/// last one cut to fill what remains.
void record_ragged(StackDistanceProfiler& p, std::span<const LineAddress> trace,
                   std::span<const std::size_t> lengths) {
  std::size_t done = 0;
  for (std::size_t k = 0; done < trace.size(); ++k) {
    const std::size_t len =
        std::min(lengths[k % lengths.size()], trace.size() - done);
    p.record_batch(trace.subspan(done, len));
    done += len;
  }
}

void expect_same_counts(const StackDistanceProfiler& got,
                        const StackDistanceProfiler& want) {
  EXPECT_EQ(got.references(), want.references());
  EXPECT_EQ(got.cold_misses(), want.cold_misses());
  EXPECT_EQ(got.beyond_tracked(), want.beyond_tracked());
  EXPECT_EQ(got.histogram(), want.histogram());
}

constexpr std::size_t kRaggedLengths[] = {1, 13, 64, 511, 4096, 7, 65536, 3};

TEST(StackDistance, ColdMissesMarked) {
  StackDistanceProfiler p(10);
  EXPECT_EQ(p.record(100), kColdMiss);
  EXPECT_EQ(p.record(200), kColdMiss);
  EXPECT_EQ(p.cold_misses(), 2u);
}

TEST(StackDistance, ImmediateReuseIsZero) {
  StackDistanceProfiler p(10);
  p.record(1);
  EXPECT_EQ(p.record(1), 0u);
}

TEST(StackDistance, CountsDistinctIntermediates) {
  StackDistanceProfiler p(10);
  // a b c b a: distance(a at end) = 2 distinct (b, c).
  p.record('a');
  p.record('b');
  p.record('c');
  EXPECT_EQ(p.record('b'), 1u);  // distinct between: {c}
  EXPECT_EQ(p.record('a'), 2u);  // distinct between: {b, c}
}

TEST(StackDistance, RepeatedLinesCountOnce) {
  StackDistanceProfiler p(10);
  // a b b b a: only one distinct line between the two a's.
  p.record('a');
  p.record('b');
  p.record('b');
  p.record('b');
  EXPECT_EQ(p.record('a'), 1u);
}

TEST(StackDistance, MatchesBruteForceOnRandomTrace) {
  coloc::Rng rng(3);
  std::vector<LineAddress> trace;
  for (int i = 0; i < 400; ++i) trace.push_back(rng.uniform_index(40));
  const auto expected = brute_force_stack_distances(trace);
  StackDistanceProfiler p(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(p.record(trace[i]), expected[i]) << "at index " << i;
  }
}

TEST(StackDistance, MatchesBruteForceOnSkewedTrace) {
  coloc::Rng rng(4);
  std::vector<LineAddress> trace;
  for (int i = 0; i < 300; ++i) trace.push_back(rng.zipf(64, 1.0));
  const auto expected = brute_force_stack_distances(trace);
  StackDistanceProfiler p(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(p.record(trace[i]), expected[i]);
  }
}

TEST(StackDistance, HistogramAccumulates) {
  StackDistanceProfiler p(10);
  p.record(1);
  p.record(1);  // distance 0
  p.record(2);
  p.record(1);  // distance 1
  const auto& h = p.histogram();
  ASSERT_GE(h.size(), 2u);
  EXPECT_EQ(h[0], 1u);
  EXPECT_EQ(h[1], 1u);
}

TEST(StackDistance, CapacityExceededThrows) {
  StackDistanceProfiler p(2);
  p.record(1);
  p.record(2);
  EXPECT_THROW(p.record(3), coloc::runtime_error);
}

TEST(StackDistance, MaxTrackedPoolsTail) {
  StackDistanceProfiler p(100);
  p.set_max_tracked_distance(2);
  // Create a reuse with distance 3: a x y z a.
  p.record('a');
  p.record('x');
  p.record('y');
  p.record('z');
  p.record('a');
  EXPECT_EQ(p.beyond_tracked(), 1u);
}

TEST(StackDistance, RecordBatchMatchesScalarRecord) {
  TraceSpec spec;
  spec.name = "batch-equiv";
  Phase phase;
  phase.working_set_lines = 512;
  phase.mix = {.streaming = 0.25, .strided = 0.25, .hot_cold = 0.25,
               .pointer = 0.25};
  spec.phases = {phase};
  TraceGenerator gen(spec, 13);
  const auto trace = gen.generate(8000);

  StackDistanceProfiler scalar(trace.size());
  for (const LineAddress a : trace) scalar.record(a);

  StackDistanceProfiler batched(trace.size());
  const std::size_t chunks[] = {1, 13, 500, 64, 7, 2048};
  record_ragged(batched, trace, chunks);
  expect_same_counts(batched, scalar);
}

TEST(StackDistance, ManyDistinctLinesSurviveMapGrowth) {
  // Enough distinct lines to force several open-addressing map rehashes;
  // distances must still match the brute-force oracle.
  coloc::Rng rng(9);
  std::vector<LineAddress> trace;
  for (int i = 0; i < 3000; ++i) {
    trace.push_back(rng.uniform_index(2000) * (1ULL << 26));
  }
  const auto expected = brute_force_stack_distances(trace);
  StackDistanceProfiler p(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(p.record(trace[i]), expected[i]) << "at index " << i;
  }
}

TEST(StackDistance, WindowsAcrossSuperblocksMatchFenwick) {
  const std::vector<LineAddress> trace = mixed_window_trace(240'000, 21);
  const std::vector<std::uint64_t> expected = fenwick_stack_distances(trace);
  std::unordered_map<LineAddress, std::size_t> last;
  std::size_t longest_window = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto [it, first_touch] = last.try_emplace(trace[i], i);
    if (!first_touch) longest_window = std::max(longest_window, i - it->second);
    it->second = i;
  }
  ASSERT_GT(longest_window, 65'536u);

  for (const std::size_t cap : {std::size_t{1} << 22, std::size_t{30'000}}) {
    SCOPED_TRACE("max tracked " + std::to_string(cap));
    StackDistanceProfiler scalar(trace.size());
    scalar.set_max_tracked_distance(cap);
    for (std::size_t i = 0; i < trace.size(); ++i)
      ASSERT_EQ(scalar.record(trace[i]), expected[i]) << "at index " << i;

    StackDistanceProfiler batched(trace.size());
    batched.set_max_tracked_distance(cap);
    record_ragged(batched, trace, kRaggedLengths);
    expect_same_counts(batched, scalar);
  }
}

TEST(StackDistance, CapacityEdgesMatchFenwick) {
  // Capacities on either side of a word, a block and a superblock; each
  // profiler is filled exactly, by single references, by ragged batches
  // and by one whole batch.
  for (const std::size_t capacity :
       {63u, 64u, 65u, 511u, 512u, 513u, 65535u, 65536u, 65537u}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    coloc::Rng rng(capacity);
    std::vector<LineAddress> trace(capacity);
    for (LineAddress& a : trace) a = rng.uniform_index(capacity / 3 + 2);
    const std::vector<std::uint64_t> expected = fenwick_stack_distances(trace);

    StackDistanceProfiler scalar(capacity);
    for (std::size_t i = 0; i < capacity; ++i)
      ASSERT_EQ(scalar.record(trace[i]), expected[i]) << "at index " << i;
    EXPECT_THROW(scalar.record(1), coloc::runtime_error);

    StackDistanceProfiler ragged(capacity);
    record_ragged(ragged, trace, kRaggedLengths);
    expect_same_counts(ragged, scalar);
    const LineAddress one_more[] = {1};
    EXPECT_THROW(ragged.record_batch(one_more), coloc::runtime_error);
    expect_same_counts(ragged, scalar);

    StackDistanceProfiler whole(capacity);
    whole.record_batch(trace);
    expect_same_counts(whole, scalar);
  }
}

TEST(StackDistance, RejectedBatchLeavesProfilerUntouched) {
  coloc::Rng rng(5);
  std::vector<LineAddress> trace(100);
  for (LineAddress& a : trace) a = rng.uniform_index(30);
  StackDistanceProfiler reference(trace.size());
  for (const LineAddress a : trace) reference.record(a);

  StackDistanceProfiler p(trace.size());
  p.record_batch(std::span<const LineAddress>(trace).first(60));
  const std::vector<std::uint64_t> histogram = p.histogram();
  const std::uint64_t cold = p.cold_misses();

  // One reference over capacity, then the reserved address mid-batch: both
  // are refused before the first reference of the batch is recorded.
  std::vector<LineAddress> too_long(trace.begin() + 60, trace.end());
  too_long.push_back(7);
  EXPECT_THROW(p.record_batch(too_long), coloc::runtime_error);
  std::vector<LineAddress> reserved(trace.begin() + 60, trace.begin() + 70);
  reserved[5] = ~LineAddress{0};
  EXPECT_THROW(p.record_batch(reserved), coloc::runtime_error);
  EXPECT_THROW(p.record(~LineAddress{0}), coloc::runtime_error);
  EXPECT_EQ(p.references(), 60u);
  EXPECT_EQ(p.cold_misses(), cold);
  EXPECT_EQ(p.histogram(), histogram);

  // The rest of the trace then lands as if nothing had been attempted.
  p.record_batch(std::span<const LineAddress>(trace).subspan(60));
  expect_same_counts(p, reference);
}

// The fundamental Mattson property: for a fully-associative LRU cache of
// capacity C, an access hits iff its stack distance < C. Sweep capacities
// as a parameterized property test against the real cache model.
class MattsonProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MattsonProperty, LruCacheAgreesWithStackDistances) {
  const std::size_t capacity = GetParam();
  coloc::Rng rng(7 + capacity);
  TraceSpec spec;
  spec.name = "mixed";
  Phase phase;
  phase.working_set_lines = 256;
  phase.mix = {.streaming = 0.3, .strided = 0.2, .hot_cold = 0.4,
               .pointer = 0.1};
  spec.phases = {phase};
  TraceGenerator gen(spec, 11);
  const auto trace = gen.generate(6000);

  CacheConfig config;
  config.line_bytes = 64;
  config.size_bytes = capacity * 64;
  config.associativity = capacity;  // fully associative
  Cache cache(config);
  StackDistanceProfiler profiler(trace.size());

  for (const LineAddress a : trace) {
    const bool hit = cache.access(a);
    const std::uint64_t d = profiler.record(a);
    const bool predicted_hit = d != kColdMiss && d < capacity;
    EXPECT_EQ(hit, predicted_hit);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, MattsonProperty,
                         ::testing::Values(4, 16, 64, 128, 300));

}  // namespace
}  // namespace coloc::sim
