#include "util/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#ifndef ACX_SIMD_DEFAULT
#define ACX_SIMD_DEFAULT 1
#endif

namespace acx::simd {

namespace {

bool initial_state() {
  if (const char* env = std::getenv("ACX_SIMD")) {
    if (std::strcmp(env, "0") == 0) return false;
    if (std::strcmp(env, "1") == 0) return true;
  }
  return ACX_SIMD_DEFAULT != 0;
}

Tier probe() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512dq")) {
    return Tier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  return Tier::kSimd;
}

// The one piece of state: the widest tier a kernel may run.
std::atomic<Tier>& cap() {
  static std::atomic<Tier> widest{initial_state() ? Tier::kAvx512
                                                  : Tier::kScalar};
  return widest;
}

}  // namespace

bool compiled_default() { return ACX_SIMD_DEFAULT != 0; }

Tier host_tier() {
  static const Tier host = probe();
  return host;
}

Tier active_tier() {
  return std::min(cap().load(std::memory_order_relaxed), host_tier());
}

bool enabled() { return active_tier() != Tier::kScalar; }

void set_enabled(bool on) {
  set_tier_cap(on ? Tier::kAvx512 : Tier::kScalar);
}

void set_tier_cap(Tier widest) {
  cap().store(widest, std::memory_order_relaxed);
}

const char* active_kernels() {
  static constexpr const char* kKernels[] = {"scalar", "simd", "simd+avx2",
                                             "simd+avx512"};
  return kKernels[static_cast<int>(active_tier())];
}

}  // namespace acx::simd
