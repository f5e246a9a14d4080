#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>

#include "util/error.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace acx {

// Capped exponential backoff with deterministic seeded jitter: attempt
// k (1-based) sleeps min(initial * multiplier^(k-1), max) shortened by
// up to jitter_fraction of itself. The jitter is drawn from a stream
// seeded with (jitter_seed, per-call-site salt), so a fixed seed always
// produces the same sleeps — but two records retrying the same stage
// concurrently get different salts and therefore desynchronize instead
// of hammering the storage backend in lockstep (the thundering-herd
// fix; tests/test_util.cpp pins the determinism).
struct RetryPolicy {
  int max_attempts = 4;
  int initial_backoff_ms = 10;
  double multiplier = 2.0;
  int max_backoff_ms = 250;
  // Each sleep is uniform in [ceiling*(1-jitter_fraction), ceiling].
  // 0 restores the old fully-synchronized behavior.
  double jitter_fraction = 0.5;
  std::uint64_t jitter_seed = 0;

  // The jitter-free ceiling of attempt k's sleep.
  int backoff_ms_for(int attempt) const {
    double ms = initial_backoff_ms;
    for (int i = 1; i < attempt; ++i) {
      ms *= multiplier;
      if (ms >= max_backoff_ms) return max_backoff_ms;
    }
    return std::min(static_cast<int>(ms), max_backoff_ms);
  }

  // Attempt k's actual sleep, jittered from the caller's stream.
  int jittered_backoff_ms(int attempt, Xoshiro256& rng) const {
    const int ceiling = backoff_ms_for(attempt);
    if (jitter_fraction <= 0 || ceiling <= 0) return ceiling;
    const double cut = std::min(1.0, jitter_fraction);
    return ceiling - static_cast<int>(rng.next_double() * cut * ceiling);
  }
};

// Injected so tests retry instantly; production uses a real sleep.
using SleepFn = std::function<void(int /*milliseconds*/)>;

// The real sleep every SleepFn defaults to.
inline void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// True when a backoff sleep of the given length still fits the caller's
// remaining budget; retrying stops early when it does not (the deadline
// plumbing of the event engine). An empty function means "unbounded".
using RetryBudgetFn = std::function<bool(int /*next_backoff_ms*/)>;

// Re-runs `fn` while it returns a *transient* error, up to
// policy.max_attempts total attempts. Poison errors return immediately.
// `classify` maps E -> ErrorClass; `attempts_used` (optional) reports
// how many attempts ran. `jitter_salt` decorrelates this call site's
// jitter stream from every other's (pass a hash of the record/stage);
// `budget` (optional) can veto further retries when the next backoff
// would overrun a deadline.
template <class T, class E, class Fn, class Classify>
Result<T, E> run_with_retry(const RetryPolicy& policy, const SleepFn& sleep,
                            Classify classify, Fn fn,
                            int* attempts_used = nullptr,
                            std::uint64_t jitter_salt = 0,
                            const RetryBudgetFn& budget = {}) {
  std::uint64_t mix = policy.jitter_seed ^ (jitter_salt * 0x9e3779b97f4a7c15ULL);
  Xoshiro256 rng(splitmix64(mix));
  for (int attempt = 1;; ++attempt) {
    Result<T, E> r = fn();
    if (attempts_used) *attempts_used = attempt;
    if (r.ok()) return r;
    if (classify(r.error()) != ErrorClass::kTransient) return r;
    if (attempt >= policy.max_attempts) return r;
    const int backoff = policy.jittered_backoff_ms(attempt, rng);
    if (budget && !budget(backoff)) return r;
    if (sleep) sleep(backoff);
  }
}

}  // namespace acx
