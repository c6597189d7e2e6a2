// Host provenance and the two machine ceilings every layer figure is read
// against: a one-core FMA peak and a one-thread STREAM triad.
#include <immintrin.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

// The variant GCC's resolver picks for the library's
// target_clones("arch=haswell", "arch=x86-64-v4", "default") kernels:
// the ISA-level clone when the CPU supports it, else the haswell clone on a
// CPU identified as haswell, else the default clone.
std::string selected_clone() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) return "arch=x86-64-v4";
  if (__builtin_cpu_is("haswell")) return "arch=haswell";
  return "default";
}

constexpr int kChains = 16;  // independent FMA chains hide the latency

__attribute__((target("avx512f,fma"))) double fma_loop_avx512(long iters) {
  __m512d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_pd(1.0 + c * 1e-3);
  const __m512d a = _mm512_set1_pd(0.999999);
  const __m512d b = _mm512_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_pd(acc[c], a, b);
  }
  __m512d sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm512_add_pd(sum, acc[c]);
  return _mm512_reduce_add_pd(sum);
}

__attribute__((target("avx2,fma"))) double fma_loop_avx2(long iters) {
  __m256d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_pd(1.0 + c * 1e-3);
  const __m256d a = _mm256_set1_pd(0.999999);
  const __m256d b = _mm256_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_pd(acc[c], a, b);
  }
  __m256d sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm256_add_pd(sum, acc[c]);
  double lanes[4];
  _mm256_storeu_pd(lanes, sum);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

double fma_loop_sse2(long iters) {
  __m128d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm_set1_pd(1.0 + c * 1e-3);
  const __m128d a = _mm_set1_pd(0.999999);
  const __m128d b = _mm_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) {
      acc[c] = _mm_add_pd(_mm_mul_pd(acc[c], a), b);
    }
  }
  __m128d sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm_add_pd(sum, acc[c]);
  double lanes[2];
  _mm_storeu_pd(lanes, sum);
  return lanes[0] + lanes[1];
}

volatile double g_sink = 0.0;

}  // namespace

double llc_mib() {
  long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (bytes <= 0) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
    std::string text;
    if (in >> text && !text.empty()) {
      const char unit = text.back();
      bytes = std::stol(text);
      if (unit == 'K') bytes *= 1024;
      if (unit == 'M') bytes *= 1024 * 1024;
    }
  }
  return bytes > 0 ? static_cast<double>(bytes) / (1024.0 * 1024.0) : 0.0;
}

// Best of five 0.1 s windows, in double-precision GFLOP/s on one core, at
// the widest FMA the CPU supports (the ISA of the selected clones).
double fma_peak_gflops() {
  __builtin_cpu_init();
  int lanes = 2;
  double (*loop)(long) = fma_loop_sse2;
  int flops_per_op = 2;  // mul + add, or one fused multiply-add
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma")) {
    loop = fma_loop_avx512;
    lanes = 8;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    loop = fma_loop_avx2;
    lanes = 4;
  }
  const long iters = 1 << 20;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    g_sink = g_sink + loop(iters);
    const double s = seconds_since(t0);
    const double flops =
        static_cast<double>(iters) * kChains * lanes * flops_per_op;
    best = std::max(best, flops / s * 1e-9);
  }
  return best;
}

// STREAM triad a = b + s*c on one thread, best of five; STREAM's byte
// count (24 bytes per element, no write-allocate traffic). 128 MiB per
// array: see README.md for the size against the LLC.
StreamResult stream_triad() {
  const std::size_t n = (128u << 20) / sizeof(double);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double scalar = 3.0;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    double* __restrict pa = a.data();
    const double* __restrict pb = b.data();
    const double* __restrict pc = c.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + scalar * pc[i];
    const double s = seconds_since(t0);
    g_sink = g_sink + a[rep];
    best = std::max(best, 24.0 * static_cast<double>(n) / s * 1e-9);
  }
  return StreamResult{best, static_cast<double>(n * sizeof(double)) /
                                (1024.0 * 1024.0)};
}

void emit_host_record() {
  __builtin_cpu_init();
  Record("host")
      .integer("nproc", std::max(1u, std::thread::hardware_concurrency()))
      .integer("jobs", coloc::configured_jobs())
      .str("cpu_model", cpu_model())
      .flag("avx2", __builtin_cpu_supports("avx2") != 0)
      .flag("avx512f", __builtin_cpu_supports("avx512f") != 0)
      .str("clone_variant", selected_clone())
      .num("llc_mib", llc_mib())
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("build_flags", PERFBENCH_BUILD_FLAGS)
      .str("compiler", PERFBENCH_COMPILER)
      .emit();
}

}  // namespace perfbench
