#pragma once

#include <filesystem>
#include <mutex>
#include <string>

#include "util/clock.hpp"
#include "util/fs.hpp"

namespace acx::storage {

// Per-backend circuit breaker: closed -> open -> half-open.
//   closed    — every operation proceeds; `failure_threshold`
//               consecutive failures trip the breaker open.
//   open      — operations are rejected instantly (storage.circuit_open,
//               classified transient) for `open_seconds`, so a dying
//               backend sheds load instead of stalling every worker in
//               a retry pile-up.
//   half-open — after the cooldown, operations probe the backend;
//               `half_open_probes` consecutive successes close the
//               breaker (a half-open recovery), any failure re-opens it
//               with a fresh cooldown.
struct BreakerConfig {
  int failure_threshold = 5;
  double open_seconds = 1.0;
  int half_open_probes = 2;
  NowFn now;  // defaults to the steady clock; tests drive a manual one
};

struct BreakerCounters {
  long long rejected_ops = 0;      // operations shed while open
  int opens = 0;                   // closed/half-open -> open transitions
  int half_open_recoveries = 0;    // half-open -> closed transitions
};

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(BreakerConfig config = {});

  // Gate, called before an operation: true = proceed (and report the
  // result back), false = reject with storage.circuit_open.
  bool allow();
  void record_success();
  void record_failure();

  State state() const;
  BreakerCounters counters() const;

 private:
  void trip_locked();

  BreakerConfig cfg_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  double opened_at_ = 0;
  BreakerCounters counters_;
};

// The counter deltas of one breaker across a window — a run or a
// service lifetime — measured from construction. All zero when no
// breaker is wired in.
class BreakerWindow {
 public:
  explicit BreakerWindow(const CircuitBreaker* breaker = nullptr)
      : breaker_(breaker), before_(breaker ? breaker->counters()
                                           : BreakerCounters{}) {}
  BreakerCounters delta() const {
    if (!breaker_) return {};
    const BreakerCounters now = breaker_->counters();
    return {now.rejected_ops - before_.rejected_ops, now.opens - before_.opens,
            now.half_open_recoveries - before_.half_open_recoveries};
  }

 private:
  const CircuitBreaker* breaker_;
  BreakerCounters before_;
};

// FileSystem shim that routes every operation through a breaker. Wraps
// the (possibly slow/flaky) backend stack; rejected operations return
// IoError::Code::kCircuitOpen as a *transient* error, so the executor's
// jittered backoff naturally spaces out the half-open probes.
class BreakerFileSystem final : public FileSystem {
 public:
  BreakerFileSystem(FileSystem& inner, CircuitBreaker& breaker);

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

  const CircuitBreaker& breaker() const { return breaker_; }

 private:
  IoError rejected(const std::filesystem::path& path) const;

  FileSystem& inner_;
  CircuitBreaker& breaker_;
};

}  // namespace acx::storage
