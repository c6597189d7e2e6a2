// Shared harness for the SIMD kernel edge tests.
//
// GuardedBuffer<T> maps n elements so that the last one sits flush against
// a PROT_NONE page: a read or write one element past the end faults
// deterministically instead of landing in whatever the allocator placed
// next.
//
// The COLOC_TARGET_* attributes and host_runs_* checks let a test compile a
// kernel body under each target_clones target of the library and run every
// variant the host supports, not just the one the loader picks.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace coloc::testing_helpers {

/// n elements of T ending exactly at a PROT_NONE guard page.
template <typename T>
class GuardedBuffer {
 public:
  explicit GuardedBuffer(std::size_t n) : n_(n) {
    const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = n * sizeof(T);
    const std::size_t data_pages = (bytes + page - 1) / page;
    map_bytes_ = (data_pages + 1) * page;
    void* base = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::runtime_error("mmap failed");
    base_ = static_cast<char*>(base);
    char* guard = base_ + data_pages * page;
    if (mprotect(guard, page, PROT_NONE) != 0) {
      munmap(base_, map_bytes_);
      throw std::runtime_error("mprotect failed");
    }
    data_ = reinterpret_cast<T*>(guard - bytes);
  }
  ~GuardedBuffer() { munmap(base_, map_bytes_); }
  GuardedBuffer(const GuardedBuffer&) = delete;
  GuardedBuffer& operator=(const GuardedBuffer&) = delete;

  T* data() { return data_; }
  std::size_t size() const { return n_; }
  void copy_from(const std::vector<T>& v) {
    std::memcpy(data_, v.data(), n_ * sizeof(T));
  }
  std::vector<T> to_vector() const { return std::vector<T>(data_, data_ + n_); }

 private:
  std::size_t n_;
  std::size_t map_bytes_ = 0;
  char* base_ = nullptr;
  T* data_ = nullptr;
};

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define COLOC_HAVE_ISA_VARIANTS 1
// GCC refuses to inline always_inline kernel bodies into
// target("arch=haswell"); this attribute names the same vector ISA and
// tuning.
#define COLOC_TARGET_HASWELL                                        \
  __attribute__((target(                                            \
      "tune=haswell,avx2,fma,bmi,bmi2,lzcnt,movbe,popcnt,f16c")))
#define COLOC_TARGET_X86_64_V4 __attribute__((target("arch=x86-64-v4")))

/// True when the host can run code built for the haswell clone.
inline bool host_runs_haswell() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("bmi2");
}

/// True when the host can run code built for the x86-64-v4 clone.
inline bool host_runs_x86_64_v4() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
#endif

}  // namespace coloc::testing_helpers
