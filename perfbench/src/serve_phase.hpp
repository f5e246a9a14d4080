#pragma once

// Drives pipeline::SpoolServer on a resident WorkPool the way a client
// would: manifests are dropped into the spool by atomic rename, and
// completion is observed from outside the service by watching
// <spool>/done with inotify (IN_MOVED_TO) — the manifest lands there
// after the event's products and run_report.json are published. The
// observation resolution is the watcher thread's wake-up latency, well
// under a millisecond; kObserveResolutionS states the bound used.

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "pipeline/config.hpp"
#include "util/fs.hpp"

namespace perfbench {

inline constexpr double kObserveResolutionS = 1e-3;

// The service under test: a 2-thread resident pool shared by 2 event
// workers, scanning the spool every 5 ms.
inline constexpr int kPoolThreads = 2;
inline constexpr int kEventWorkers = 2;
inline constexpr int kPollMs = 5;

struct ServeShape {
  // Open-loop trickle: `trickle_events` manifests, one due every
  // 1 / trickle_rate seconds. Swarm: `swarm_events` manifests renamed
  // into the spool back to back.
  int trickle_events = 0;
  double trickle_rate = 1;
  int swarm_events = 0;
};

struct ServeResult {
  std::vector<double> latency;  // trickle: due -> observed done, seconds
  std::vector<double> service;  // trickle: run_report total_seconds
  std::vector<double> wait;     // latency - service
  double gen_lag_max = 0;       // how late the generator dropped, worst
  double swarm_seconds = 0;     // first rename -> last observed done, summed
  int swarm_events = 0;
  // From serve_stats.json at shutdown, summed over service instances.
  double served = 0;
  double pool_steals = 0;
  double pool_parks = 0;
  double cache_hits = 0;
  double cache_misses = 0;
};

// One trickle phase then one swarm phase through a fresh service
// instance, added to `out`. Event i of either phase reads
// inputs[i % inputs.size()]. Every event is checked
// (check_event) against `canonical`, keyed by input dir.
void run_serve(acx::FileSystem& fs, const std::filesystem::path& root,
               const std::vector<std::filesystem::path>& inputs,
               const acx::pipeline::RunnerConfig& runner,
               const ServeShape& shape,
               std::map<std::string, std::string>& canonical, Tally& tally,
               ServeResult& out);

}  // namespace perfbench
