// Function multi-versioning macro for the integer sim kernel (the stack-
// distance step with its window scans): the loader picks the widest clone
// the CPU supports, exactly as linalg's vector_tanh does. The kernel is
// pure integer arithmetic, so every clone is bit-identical by construction
// — only lane count differs.
#pragma once

#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__)
#define COLOC_SIM_KERNEL_CLONES \
  __attribute__((target_clones("arch=haswell", "arch=x86-64-v4", "default")))
#else
#define COLOC_SIM_KERNEL_CLONES
#endif
