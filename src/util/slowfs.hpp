#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>

#include "util/fs.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"

namespace acx::storage {

// Latency model of an object-store-flavored backend, layered under the
// same FileSystem interface as the faultfs error injector (compose the
// two for the full "slow AND flaky" storage scenario: Real -> Faulty ->
// Slow). Every operation pays base_ms, plus a uniform seeded jitter,
// plus a size-proportional term for reads/writes — the shape of the
// cloud-storage cost model (per-request overhead + bandwidth) from the
// Mohapatra et al. study the batch runner is engineered against.
struct SlowConfig {
  std::uint64_t seed = 0;
  double base_ms = 0;      // fixed per-operation latency
  double jitter_ms = 0;    // + uniform [0, jitter_ms)
  double per_kib_ms = 0;   // + per-KiB transfer cost (read/write only)
  // Injected so tests model latency without wall-clock sleeping.
  SleepFn sleep = sleep_ms;
};

struct SlowStats {
  long long ops = 0;             // delayed operations
  double total_latency_ms = 0;   // latency injected, summed
};

// Internally locked (the RNG and stats are shared across the batch
// runner's worker threads); the injected sleep runs outside the lock so
// slow operations do not serialize each other.
class SlowFileSystem final : public FileSystem {
 public:
  SlowFileSystem(FileSystem& inner, SlowConfig config);

  Result<std::string, IoError> read_file(
      const std::filesystem::path& path) override;
  Result<Unit, IoError> write_file(const std::filesystem::path& path,
                                   std::string_view content) override;
  Result<Unit, IoError> rename(const std::filesystem::path& from,
                               const std::filesystem::path& to) override;
  Result<Unit, IoError> create_directories(
      const std::filesystem::path& path) override;
  Result<std::vector<std::filesystem::path>, IoError> list_dir(
      const std::filesystem::path& dir) override;
  Result<std::vector<std::filesystem::path>, IoError> list_tree(
      const std::filesystem::path& dir) override;
  Result<Unit, IoError> remove_all(const std::filesystem::path& path) override;
  bool exists(const std::filesystem::path& path) override;
  std::uintmax_t file_size(const std::filesystem::path& path) override;

  SlowStats stats() const;

 private:
  // Sample this op's latency and pay it (via the injected sleep).
  void delay(std::uintmax_t transfer_bytes);

  FileSystem& inner_;
  SlowConfig cfg_;
  mutable std::mutex mu_;  // guards rng_ and stats_
  Xoshiro256 rng_;
  SlowStats stats_;
};

}  // namespace acx::storage
