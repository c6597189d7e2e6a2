// Window count of the marker-bitmap stack-distance profiler (DESIGN §5.1)
// — internal to src/sim and its tests.
//
// The body is always_inline so that StackDistanceProfiler's per-reference
// step, compiled under COLOC_SIM_KERNEL_CLONES, inlines it into each
// clone, and so that a test can compile it under each clone's target and
// run every variant the host supports against a guard page. It is pure
// integer arithmetic: every variant returns the same count.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#if defined(__GNUC__) || defined(__clang__)
#define COLOC_SD_INLINE __attribute__((always_inline)) inline
#else
#define COLOC_SD_INLINE inline
#endif

namespace coloc::sim::stack_distance_kernels {

/// Bitmap layout: one marker bit per timestamp, 512-bit (8-word) blocks,
/// 128 blocks (65536 bits) per superblock. `block_count` holds each
/// block's popcount and `super_count` each superblock's.
inline constexpr std::size_t kWordsPerBlock = 8;
inline constexpr std::size_t kBlocksPerSuper = 128;

/// Set bits strictly between `prev` and `now` (prev < now), given that no
/// bit at or above `now` is set. Counts upward from `prev`: the tail of
/// prev's word; the words up to the end of its block, or up to now's word;
/// the block counts up to the end of its superblock, or up to now's block;
/// the superblock counts up to now's superblock. Reads only words, blocks
/// and superblocks with index at most now's, so the cost follows the
/// window, not the distance from time 0.
COLOC_SD_INLINE std::uint64_t window_count(const std::uint64_t* bits,
                                           const std::uint16_t* block_count,
                                           const std::uint32_t* super_count,
                                           std::size_t prev, std::size_t now) {
  const std::size_t pw = prev >> 6;
  const std::size_t nw = now >> 6;
  // ~1 << k keeps the bits above k (none when k == 63).
  std::uint64_t count = static_cast<std::uint64_t>(
      std::popcount(bits[pw] & (~std::uint64_t{1} << (prev & 63))));
  if (pw == nw) return count;

  const std::size_t pb = pw / kWordsPerBlock;
  const std::size_t nb = nw / kWordsPerBlock;
  const std::size_t word_end =
      pb == nb ? nw : pb * kWordsPerBlock + (kWordsPerBlock - 1);
  for (std::size_t w = pw + 1; w <= word_end; ++w)
    count += static_cast<std::uint64_t>(std::popcount(bits[w]));
  if (pb == nb) return count;

  const std::size_t ps = pb / kBlocksPerSuper;
  const std::size_t ns = nb / kBlocksPerSuper;
  const std::size_t block_end =
      ps == ns ? nb : ps * kBlocksPerSuper + (kBlocksPerSuper - 1);
  // 32-bit partial sums keep the lanes narrow; they cannot overflow, as
  // the profiler's capacity is below 2^32 timestamps.
  std::uint32_t blocks = 0;
  for (std::size_t b = pb + 1; b <= block_end; ++b) blocks += block_count[b];
  count += blocks;
  if (ps == ns) return count;

  std::uint32_t supers = 0;
  for (std::size_t s = ps + 1; s <= ns; ++s) supers += super_count[s];
  return count + supers;
}

}  // namespace coloc::sim::stack_distance_kernels
