#pragma once

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "util/simd.hpp"

namespace acx::test {

// Unique scratch directory per test, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = std::filesystem::temp_directory_path() /
            ("acx-test-" + tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

// True when ThreadSanitizer instruments this build. GCC's libgomp
// synchronizes its thread teams with bare futexes tsan cannot see, so
// any multi-threaded OpenMP region reports false races under tsan.
// Tests whose threading exists only to scale an OpenMP team (rather
// than to exercise locking) clamp the team to one thread in that
// configuration; the std::thread-based cache tests keep full
// concurrency everywhere.
#if defined(__SANITIZE_THREAD__)
inline constexpr bool kTsanBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
inline constexpr bool kTsanBuild = true;
#else
inline constexpr bool kTsanBuild = false;
#endif
#else
inline constexpr bool kTsanBuild = false;
#endif

// What simd::active_kernels() reports at each tier, in Tier order.
inline constexpr const char* kTierKernels[] = {"scalar", "simd", "simd+avx2",
                                               "simd+avx512"};

// Runs fn(tier) with the kernels capped at each tier from `first` to
// kAvx512, then restores the ACX_SIMD toggle. Every tier gets one
// `[     TIER ]` line, so the log shows which tiers ran and which this
// CPU lacks. A missing tier is only logged: gtest's own skip marker
// would make ctest report the whole test as skipped, failures and all.
template <typename Fn>
void for_each_tier(Fn&& fn, simd::Tier first = simd::Tier::kScalar) {
  struct Restore {
    bool was = simd::enabled();
    ~Restore() { simd::set_enabled(was); }
  } restore;
  for (simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kSimd,
                          simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (tier < first) continue;
    if (tier > simd::host_tier()) {
      std::printf("[     TIER ] %s: not on this CPU, skipped\n",
                  kTierKernels[static_cast<int>(tier)]);
      continue;
    }
    simd::set_tier_cap(tier);
    std::printf("[     TIER ] %s\n", simd::active_kernels());
    fn(tier);
  }
}

}  // namespace acx::test
