#pragma once

#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "pipeline/engine.hpp"
#include "pipeline/report.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/result.hpp"
#include "util/work_pool.hpp"

namespace acx::pipeline {

// The resident service layer (docs/SERVE.md): the event engine fed by a
// spool directory of event manifests, with the record-level fan-out of
// every event on one persistent work-stealing WorkPool, so team spin-up
// and plan-cache warm-up are paid once per process instead of once per
// event.
struct ServeConfig : EngineConfig {
  // The service's engine defaults: the pool driver it exists for, two
  // events at once, a deeper admission queue.
  ServeConfig() {
    runner.driver = Driver::kPool;
    event_workers = 2;
    queue_capacity = 8;
  }
  // Spool scan cadence while idle, milliseconds.
  int poll_ms = 50;
  // Stop admitting after this many events (0 = unbounded) — the soak
  // and smoke harnesses use it as a deterministic stop.
  long long max_events = 0;
  // Exit once the spool, queue, and workers have all been idle this
  // long (0 = resident until the shutdown sentinel appears).
  double idle_exit_seconds = 0;
  // Rewrite serve_stats.json every N event completions (>= 1).
  int stats_every = 1;
  // The resident record-level pool, shared across events and wired into
  // runner.pool by the server. Null is legal (each event then spins a
  // transient pool — the anti-pattern the service exists to avoid;
  // acx_serve always passes one).
  WorkPool* pool = nullptr;
};

// One event's plan-cache measurement, sampled into the rolling
// trajectory that proves amortization across the event stream.
struct ServeEventSample {
  long long index = 0;  // 1-based completion order
  std::string event;
  std::string status;  // "ok" | "degraded" | "quarantined"
  long long hits = 0;
  long long misses = 0;
  double hit_rate = 0;  // hits / (hits + misses), 0 when untouched
  double seconds = 0;   // wall clock of the event's run
};

// The rolling snapshot written (atomically) to <work>/serve_stats.json
// after every stats_every completions and at shutdown. Schema
// documented in docs/SERVE.md.
struct ServeStats {
  static constexpr int kVersion = 1;

  double uptime_seconds = 0;
  std::string driver = "pool";
  int threads = 1;
  int event_workers = 1;
  std::size_t queue_capacity = 0;
  std::size_t queue_depth = 0;  // at snapshot time

  long long admitted = 0;    // manifests accepted onto the queue
  long long served = 0;      // events completed (reported), any status
  long long ok = 0;          // event-level statuses
  long long degraded = 0;
  long long quarantined = 0;
  long long malformed = 0;   // manifests rejected: unparseable/invalid
  long long duplicates = 0;  // manifests rejected: event id already seen
  long long in_flight = 0;   // popped but not yet completed

  // Summed EventOutcome counts: degraded records are ok records.
  long long records_ok = 0;
  long long records_degraded = 0;
  long long records_quarantined = 0;
  long long points = 0;

  long long cache_hits = 0;    // plan-cache traffic, summed over events
  long long cache_misses = 0;
  ServeEventSample first_event;  // index 0 = none served yet
  ServeEventSample last_event;
  std::vector<ServeEventSample> trajectory;  // downsampled, <= 256 rows

  // Pool counters (zeros when no shared pool is wired in).
  int pool_threads = 0;
  WorkPoolStats pool;

  // Breaker counter deltas since the service started.
  storage::BreakerCounters breaker;

  // Service-health counters: storage hiccups the service absorbed.
  long long scan_errors = 0;
  long long stats_write_failures = 0;

  Json to_json() const;
  std::string dump() const { return to_json().dump(2); }
};

inline constexpr const char* kServeStatsFileName = "serve_stats.json";
inline constexpr const char* kServeShutdownSentinel = "shutdown";
// The flock(2)-held file that marks a claim dir's owner alive.
inline constexpr const char* kClaimLockFileName = "owner.lock";

// Drives the resident service over one spool directory. Layout:
//   <spool>/<name>.json      incoming manifests (arrive by atomic rename)
//   <spool>/tmp/             producers stage here before renaming in
//   <spool>/claimed/<owner>/ one service instance's claims, plus the
//                            owner.lock it holds for its lifetime
//   <spool>/done/            manifest audit trail of completed events
//   <spool>/rejected/        malformed or duplicate manifests
//   <spool>/shutdown         sentinel: drain everything, then exit
//   <work>/events/<shard>/<event>/   one StageRunner work dir per event
//   <work>/serve_stats.json  the rolling snapshot
//
// A manifest is a JSON object {"event": ID, "input": DIR} with optional
// "priority_bytes" (admission priority under largest/smallest) and
// "deadline_soft_s"/"deadline_hard_s" per-event budget overrides.
// run() blocks until shutdown (sentinel, max_events, or idle_exit) and
// returns the final stats; record-level fan-out runs on config.pool.
//
// Crash contract: at startup, every claim dir whose lock can be taken
// belongs to a dead instance, and its manifests go back to the spool
// root to be claimed again; a live peer's claims are never touched.
class SpoolServer {
 public:
  SpoolServer(FileSystem& fs, ServeConfig config = {});

  Result<ServeStats, IoError> run(const std::filesystem::path& spool,
                                  const std::filesystem::path& work_root);

 private:
  // Parses and validates one claimed manifest; empty event on failure
  // with `error` describing why (for the rejected/ audit note).
  EventJob parse_manifest(const std::string& name, const std::string& text,
                          std::string& error) const;
  // Claims one spool-root manifest and admits it, or rejects it. False
  // once the engine stops admitting.
  bool claim(EventEngine& engine, const std::filesystem::path& manifest);
  void reject(const std::string& name, const std::string& why,
              bool duplicate);
  void serve_one(const EventJob& job);
  // Moves every manifest of one claim dir back to the spool root and
  // removes the dir; the caller holds the dir's owner lock.
  void hand_back(const std::filesystem::path& owner_dir);
  void record_completion(const EventOutcome& out);
  ServeStats snapshot();
  Result<Unit, IoError> write_stats(const ServeStats& snap);

  FileSystem& fs_;
  ServeConfig cfg_;

  std::filesystem::path spool_, claimed_, mine_, rejected_, done_, work_root_;
  double started_at_ = 0;
  storage::BreakerWindow breaker_;
  const EventEngine* engine_ = nullptr;  // run()'s engine, while it runs

  std::mutex stats_mu_;
  ServeStats stats_;
  std::set<std::string> seen_events_;
  long long trajectory_stride_ = 1;
};

}  // namespace acx::pipeline
