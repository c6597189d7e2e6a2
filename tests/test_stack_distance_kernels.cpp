// Edge tests for the stack-distance window count
// (sim/stack_distance_kernels.hpp).
//
// The marker bitmap and both count arrays are mapped so that each one's
// last element sits flush against a PROT_NONE page, and every count runs
// with `now` at the last timestamp: its word, block and superblock are the
// last element of their arrays, so a read past any of them faults. The
// count body is compiled here under each target_clones target of
// stack_distance.cpp and runs once per variant the host supports; every
// variant must return the bit-by-bit count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "guard_page.hpp"
#include "sim/stack_distance_kernels.hpp"

namespace coloc::sim {
namespace {

namespace sdk = stack_distance_kernels;
using testing_helpers::GuardedBuffer;

using WindowFn = std::uint64_t (*)(const std::uint64_t*, const std::uint16_t*,
                                   const std::uint32_t*, std::size_t,
                                   std::size_t);

#define COLOC_WINDOW_VARIANT(suffix, attr)                                  \
  attr std::uint64_t window_##suffix(                                       \
      const std::uint64_t* bits, const std::uint16_t* blocks,               \
      const std::uint32_t* supers, std::size_t prev, std::size_t now) {     \
    return sdk::window_count(bits, blocks, supers, prev, now);              \
  }

COLOC_WINDOW_VARIANT(baseline, )
#ifdef COLOC_HAVE_ISA_VARIANTS
COLOC_WINDOW_VARIANT(haswell, COLOC_TARGET_HASWELL)
COLOC_WINDOW_VARIANT(x86_64_v4, COLOC_TARGET_X86_64_V4)
#endif
#undef COLOC_WINDOW_VARIANT

struct Variant {
  std::string name;
  WindowFn count;
};

/// Every clone body this host can run.
std::vector<Variant> host_variants() {
  std::vector<Variant> variants = {{"baseline", &window_baseline}};
#ifdef COLOC_HAVE_ISA_VARIANTS
  if (testing_helpers::host_runs_haswell())
    variants.push_back({"haswell", &window_haswell});
  if (testing_helpers::host_runs_x86_64_v4())
    variants.push_back({"x86-64-v4", &window_x86_64_v4});
#endif
  return variants;
}

constexpr std::size_t kBitsPerBlock = 64 * sdk::kWordsPerBlock;
constexpr std::size_t kBitsPerSuper = kBitsPerBlock * sdk::kBlocksPerSuper;

/// A marker bitmap over `timestamps` timestamps with its block and
/// superblock counts, sized exactly as the profiler sizes them.
struct GuardedBitmap {
  explicit GuardedBitmap(std::size_t timestamps)
      : bits((timestamps + 63) / 64),
        blocks((timestamps + kBitsPerBlock - 1) / kBitsPerBlock),
        supers((timestamps + kBitsPerSuper - 1) / kBitsPerSuper) {}

  /// Sets each bit below `now` with probability `density`, clears the
  /// rest, and rebuilds the counts.
  void randomize_below(std::size_t now, double density, Rng& rng) {
    for (std::size_t w = 0; w < bits.size(); ++w) bits.data()[w] = 0;
    for (std::size_t t = 0; t < now; ++t)
      if (rng.uniform() < density)
        bits.data()[t >> 6] |= std::uint64_t{1} << (t & 63);
    for (std::size_t b = 0; b < blocks.size(); ++b) blocks.data()[b] = 0;
    for (std::size_t s = 0; s < supers.size(); ++s) supers.data()[s] = 0;
    for (std::size_t w = 0; w < bits.size(); ++w) {
      const auto c = static_cast<unsigned>(std::popcount(bits.data()[w]));
      blocks.data()[w / sdk::kWordsPerBlock] += static_cast<std::uint16_t>(c);
      supers.data()[w / (sdk::kWordsPerBlock * sdk::kBlocksPerSuper)] += c;
    }
  }

  /// Set bits strictly between prev and now, one bit at a time.
  std::uint64_t reference_count(std::size_t prev, std::size_t now) {
    std::uint64_t count = 0;
    for (std::size_t t = prev + 1; t < now; ++t)
      count += (bits.data()[t >> 6] >> (t & 63)) & 1;
    return count;
  }

  GuardedBuffer<std::uint64_t> bits;
  GuardedBuffer<std::uint16_t> blocks;
  GuardedBuffer<std::uint32_t> supers;
};

/// Previous-access positions for a count ending at `now`: the word, block
/// and superblock edges on either side of each window length that changes
/// the scan, plus random ones.
std::vector<std::size_t> prevs_for(std::size_t now, Rng& rng) {
  std::vector<std::size_t> prevs = {0, now - 1};
  for (const std::size_t span : {std::size_t{64}, kBitsPerBlock,
                                 kBitsPerSuper, 2 * kBitsPerSuper}) {
    for (const std::size_t d : {span - 1, span, span + 1})
      if (d <= now) prevs.push_back(now - d);
    // The first and last timestamp of now's word, block or superblock.
    const std::size_t edge = now / span * span;
    prevs.push_back(edge);
    if (edge > 0) prevs.push_back(edge - 1);
  }
  for (int i = 0; i < 24; ++i) prevs.push_back(rng.uniform_index(now));
  std::erase_if(prevs, [now](std::size_t p) { return p >= now; });
  return prevs;
}

TEST(StackDistanceKernel, WindowCountStaysInsideBuffers) {
  const std::vector<Variant> variants = host_variants();
  Rng rng(0x5d15);
  // Timestamp counts whose last timestamp opens, sits inside or closes a
  // word, block or superblock.
  for (const std::size_t timestamps :
       {std::size_t{2}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{511}, std::size_t{512}, std::size_t{513},
        std::size_t{4000}, std::size_t{65535}, std::size_t{65536},
        std::size_t{65537}, 3 * kBitsPerSuper - 1, 3 * kBitsPerSuper + 700}) {
    GuardedBitmap map(timestamps);
    const std::size_t now = timestamps - 1;
    for (const double density : {0.5, 0.03}) {
      map.randomize_below(now, density, rng);
      for (const std::size_t prev : prevs_for(now, rng)) {
        const std::uint64_t want = map.reference_count(prev, now);
        for (const Variant& v : variants) {
          SCOPED_TRACE(v.name + " timestamps=" + std::to_string(timestamps) +
                       " prev=" + std::to_string(prev));
          ASSERT_EQ(v.count(map.bits.data(), map.blocks.data(),
                            map.supers.data(), prev, now),
                    want);
        }
      }
    }
  }
}

}  // namespace
}  // namespace coloc::sim
