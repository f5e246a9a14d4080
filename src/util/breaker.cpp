#include "util/breaker.hpp"

namespace acx::storage {

namespace stdfs = std::filesystem;

CircuitBreaker::CircuitBreaker(BreakerConfig config)
    : cfg_(std::move(config)) {
  if (!cfg_.now) cfg_.now = steady_now_seconds;
  if (cfg_.failure_threshold < 1) cfg_.failure_threshold = 1;
  if (cfg_.half_open_probes < 1) cfg_.half_open_probes = 1;
}

void CircuitBreaker::trip_locked() {
  state_ = State::kOpen;
  opened_at_ = cfg_.now();
  consecutive_failures_ = 0;
  half_open_successes_ = 0;
  counters_.opens += 1;
}

bool CircuitBreaker::allow() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kOpen) {
    if (cfg_.now() - opened_at_ < cfg_.open_seconds) {
      counters_.rejected_ops += 1;
      return false;
    }
    // Cooldown over: probe the backend.
    state_ = State::kHalfOpen;
    half_open_successes_ = 0;
  }
  return true;
}

void CircuitBreaker::record_success() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen) {
    if (++half_open_successes_ >= cfg_.half_open_probes) {
      state_ = State::kClosed;
      consecutive_failures_ = 0;
      counters_.half_open_recoveries += 1;
    }
    return;
  }
  consecutive_failures_ = 0;
}

void CircuitBreaker::record_failure() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen) {
    // The probe failed: the backend is still down.
    trip_locked();
    return;
  }
  if (state_ == State::kClosed &&
      ++consecutive_failures_ >= cfg_.failure_threshold) {
    trip_locked();
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

BreakerCounters CircuitBreaker::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

BreakerFileSystem::BreakerFileSystem(FileSystem& inner, CircuitBreaker& breaker)
    : inner_(inner), breaker_(breaker) {}

IoError BreakerFileSystem::rejected(const stdfs::path& path) const {
  return IoError{IoError::Code::kCircuitOpen, ErrorClass::kTransient,
                 path.string(), "storage circuit breaker is open"};
}

namespace {

// kNotFound is an authoritative answer from a healthy backend (the
// path simply is not there — e.g. a racing spool consumer claimed it
// first), so it counts as breaker health, never as a failure.
template <typename T>
void record(CircuitBreaker& breaker, const Result<T, IoError>& r) {
  if (r.ok() || r.error().code == IoError::Code::kNotFound) {
    breaker.record_success();
  } else {
    breaker.record_failure();
  }
}

}  // namespace

Result<std::string, IoError> BreakerFileSystem::read_file(
    const stdfs::path& path) {
  if (!breaker_.allow()) return rejected(path);
  auto r = inner_.read_file(path);
  record(breaker_, r);
  return r;
}

Result<Unit, IoError> BreakerFileSystem::write_file(const stdfs::path& path,
                                                    std::string_view content) {
  if (!breaker_.allow()) return rejected(path);
  auto r = inner_.write_file(path, content);
  record(breaker_, r);
  return r;
}

Result<Unit, IoError> BreakerFileSystem::rename(const stdfs::path& from,
                                                const stdfs::path& to) {
  if (!breaker_.allow()) return rejected(from);
  auto r = inner_.rename(from, to);
  record(breaker_, r);
  return r;
}

Result<Unit, IoError> BreakerFileSystem::create_directories(
    const stdfs::path& path) {
  if (!breaker_.allow()) return rejected(path);
  auto r = inner_.create_directories(path);
  record(breaker_, r);
  return r;
}

Result<std::vector<stdfs::path>, IoError> BreakerFileSystem::list_dir(
    const stdfs::path& dir) {
  if (!breaker_.allow()) return rejected(dir);
  auto r = inner_.list_dir(dir);
  record(breaker_, r);
  return r;
}

Result<std::vector<stdfs::path>, IoError> BreakerFileSystem::list_tree(
    const stdfs::path& dir) {
  if (!breaker_.allow()) return rejected(dir);
  auto r = inner_.list_tree(dir);
  record(breaker_, r);
  return r;
}

Result<Unit, IoError> BreakerFileSystem::remove_all(const stdfs::path& path) {
  // An atomic-write temporary is removed only as the cleanup of a failed
  // write or rename. That cleanup is never shed, or the write that
  // tripped the breaker would leave its torn temporary behind; and its
  // success says nothing of the write path, so it must not reset the
  // failure count, or a backend that fails every write never trips.
  const bool cleanup = is_atomic_tmp_name(path);
  if (!cleanup && !breaker_.allow()) return rejected(path);
  auto r = inner_.remove_all(path);
  if (!cleanup || !r.ok()) record(breaker_, r);
  return r;
}

bool BreakerFileSystem::exists(const stdfs::path& path) {
  // Advisory; never a breaker decision point.
  return inner_.exists(path);
}

std::uintmax_t BreakerFileSystem::file_size(const stdfs::path& path) {
  return inner_.file_size(path);
}

}  // namespace acx::storage
