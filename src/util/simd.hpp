#pragma once

namespace acx::simd {

// The explicit-SIMD kernel tiers and their one dispatch (docs/PERF.md,
// "SIMD kernels").
//
// The ACX_SIMD CMake option picks the process default at build time;
// the ACX_SIMD environment variable (0/1, read once at first query)
// and set_enabled() below override it at run time. Every SIMD kernel
// in src/signal and src/spectrum is bit-identical to the scalar path
// it replaces — vectorization only runs across independent lanes and
// preserves the scalar op order, and src/CMakeLists.txt compiles every
// translation unit (every clone included) with -ffp-contract=off, so
// no fused multiply-add can change a rounding — so flipping the toggle
// or moving between hosts of different tiers never changes a single
// output byte, only the speed.

// Kernel tiers, narrowest first. kScalar is the historical scalar
// code (the ACX_SIMD=OFF path and the tests' oracle), kSimd the
// portable `omp simd` bodies, kAvx2 and kAvx512 the same bodies
// compiled as clones for those instruction sets.
enum class Tier { kScalar, kSimd, kAvx2, kAvx512 };

// The build-time default (the ACX_SIMD CMake option).
bool compiled_default();

// The widest tier this CPU runs: kAvx512 needs AVX-512 F, VL and DQ;
// kSimd on hosts without AVX2 and on non-x86 builds.
Tier host_tier();

// The tier the kernels run now: kScalar while the toggle is off, else
// the host tier, lowered to the test cap when one is set.
Tier active_tier();

// The process-wide runtime switch: active_tier() != kScalar. Starts
// from the environment override when present, else the compiled
// default.
bool enabled();

// Test hook: force the toggle for the current process (the
// scalar-vs-SIMD bit-identity tests flip it around each kernel).
// set_enabled(false) caps the tier at kScalar, set_enabled(true)
// lifts the cap.
void set_enabled(bool on);

// Test hook: run no tier wider than `cap` (tests/test_simd.cpp runs
// each tier the host has against the scalar oracle).
void set_tier_cap(Tier cap);

// Human-readable description of the kernels the current state
// selects: "scalar", "simd", "simd+avx2" or "simd+avx512".
const char* active_kernels();

#if defined(__x86_64__) || defined(__i386__)
namespace detail {
template <typename F>
__attribute__((target("avx2"))) void run_avx2(F& body) {
  body.template operator()<Tier::kAvx2>();
}
template <typename F>
__attribute__((target("avx512f,avx512vl,avx512dq"))) void run_avx512(
    F& body) {
  body.template operator()<Tier::kAvx512>();
}
}  // namespace detail
#endif

// Runs `body.template operator()<T>()` for T = active_tier(), capped
// at `kWidest` (a kernel with no clone for a tier runs its next lower
// one), with the kAvx2 and kAvx512 instantiations compiled as target
// clones. The body must be `__attribute__((always_inline))`, so that
// it is compiled inside the clone under the clone's target options:
//
//   simd::dispatch([&]<simd::Tier T>() __attribute__((always_inline)) {
//     kernel_body<T>(...);
//   });
template <Tier kWidest = Tier::kAvx512, typename F>
void dispatch(F&& body) {
  const Tier tier = active_tier();
#if defined(__x86_64__) || defined(__i386__)
  if constexpr (kWidest >= Tier::kAvx512) {
    if (tier >= Tier::kAvx512) return detail::run_avx512(body);
  }
  if constexpr (kWidest >= Tier::kAvx2) {
    if (tier >= Tier::kAvx2) return detail::run_avx2(body);
  }
#endif
  if (tier == Tier::kScalar) return body.template operator()<Tier::kScalar>();
  body.template operator()<Tier::kSimd>();
}

}  // namespace acx::simd
