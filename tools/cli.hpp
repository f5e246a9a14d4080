#pragma once

// The command-line layer of the acx_* tools: one flag-table parser, plus
// the flag table and modeled storage stack acx_batch and acx_serve
// share (engine, deadline, retry, storage-model, breaker and crash-hook
// options).

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/engine.hpp"
#include "util/breaker.hpp"
#include "util/faultfs.hpp"
#include "util/slowfs.hpp"

namespace acx::cli {

using Apply = std::function<bool(const char*)>;

// One flag: `apply` gets its value (nullptr for a switch, whose `value`
// placeholder is nullptr) and returns false when the value is unusable.
// A bracketed placeholder ("[DRIVER]") marks an optional value: the next
// argument is taken only when it is not itself a flag.
struct Flag {
  const char* name;
  const char* value;
  Apply apply;
  bool required = false;
};

// Flag-table helpers: each writes the parsed value into `dst`.
inline Apply text(std::string& dst) {
  return [&dst](const char* v) { return !(dst = v).empty(); };
}
inline Apply set(bool& dst, bool to) {
  return [&dst, to](const char*) {
    dst = to;
    return true;
  };
}
inline Apply number(double& dst, double min = -HUGE_VAL,
                    double below = HUGE_VAL) {
  return [&dst, min, below](const char* v) {
    dst = std::atof(v);
    return dst >= min && dst < below;
  };
}
template <class T>
Apply integer(T& dst, long long min = LLONG_MIN) {
  return [&dst, min](const char* v) {
    const long long n = std::atoll(v);
    dst = static_cast<T>(n);
    return n >= min;
  };
}
// `parse` maps a spelling to std::optional<T>, e.g. parse_driver.
template <class T, class Parse>
Apply parsed(T& dst, Parse parse) {
  return [&dst, parse](const char* v) {
    const auto p = parse(v);
    if (p) dst = *p;
    return p.has_value();
  };
}

// Parses argv against `flags`. Prints the usage line and returns false
// on an unknown flag, a bad or missing value, or a missing required
// flag.
bool parse_flags(int argc, char** argv, const std::vector<Flag>& flags);

// What the shared --storage-* and --breaker-* flags describe.
struct StorageModel {
  double fail_p = 0;  // read, write and rename fault probability
  std::uint64_t seed = 0;
  storage::SlowConfig slow;
  storage::BreakerConfig breaker;
};

// parse_flags over the tool's `own` flags plus the shared runner table
// (--work DIR required).
bool parse_runner_flags(int argc, char** argv, std::vector<Flag> own,
                        pipeline::EngineConfig& cfg, std::string& work,
                        StorageModel& model);

// Real -> Faulty (--storage-fail-p) -> Slow (--storage-latency-ms)
//      -> Breaker (always)
// with the breaker wired into cfg.runner, so every report carries its
// counter deltas.
class StorageStack {
 public:
  StorageStack(const StorageModel& model, pipeline::EngineConfig& cfg);
  FileSystem& fs() { return *top_; }

 private:
  RealFileSystem real_;
  std::unique_ptr<faultfs::FaultyFileSystem> faulty_;
  std::unique_ptr<storage::SlowFileSystem> slow_;
  storage::CircuitBreaker breaker_;
  std::unique_ptr<storage::BreakerFileSystem> top_;
};

// The "breaker: ..." summary line, printed only when the breaker acted.
void print_breaker(const storage::BreakerCounters& c);

}  // namespace acx::cli
