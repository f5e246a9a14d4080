#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pipeline/config.hpp"
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
// event. A tree run (spool_tree below) is the same service over a spool
// it fills itself from a directory of events.
struct ServeConfig {
  ServeConfig() { runner.driver = Driver::kPool; }  // the service's driver

  // Per-event pipeline configuration, deadline budget and breaker
  // included.
  RunnerConfig runner;
  // Inter-event concurrency: events running at once, each with the
  // configured driver's record fan-out inside.
  int event_workers = 2;
  // Admission blocks once this many events wait for a worker —
  // backpressure against a stalled worker pool.
  std::size_t queue_capacity = 8;
  // Work dirs shard as event_work_dir() says, so a huge run does not
  // pile them into one directory.
  int shards = 16;
  // Which admitted event a freed worker claims next.
  enum class Priority {
    kFifo,      // admission order
    kLargest,   // most priority bytes first (straggler avoidance)
    kSmallest,  // fewest priority bytes first (fast first results)
  };
  Priority priority = Priority::kFifo;
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

// The CLI/report spellings, indexed by Priority.
inline constexpr const char* kPriorityNames[] = {"fifo", "largest",
                                                 "smallest"};

inline const char* to_string(ServeConfig::Priority p) {
  return kPriorityNames[static_cast<int>(p)];
}

inline std::optional<ServeConfig::Priority> parse_priority(
    std::string_view name) {
  for (std::size_t i = 0; i < std::size(kPriorityNames); ++i) {
    if (name == kPriorityNames[i]) return ServeConfig::Priority(i);
  }
  return std::nullopt;
}

// One event handed to the engine.
struct EventJob {
  std::string event;                // event id
  std::filesystem::path input_dir;  // the directory holding its records
  std::filesystem::path work_dir;   // set on admission: the sharded work dir
  // Largest/smallest-first key: the manifest's priority_bytes (a tree
  // run sets it to the event's summed record bytes).
  std::uintmax_t priority_bytes = 0;
  double deadline_soft_s = -1;  // per-event overrides; < 0 = the runner's
  double deadline_hard_s = -1;
  std::string manifest;  // the spool claim it came from
};

// <work_root>/events/s<fnv1a64(event) % shards>/<event>: the work dir
// admission gives an event, and where a tree run looks for its report.
std::filesystem::path event_work_dir(const std::filesystem::path& work_root,
                                     const std::string& event, int shards);

// One event's outcome: what serve_stats.json accumulates. The record
// counts follow the run report's definition: degraded records are ok
// records, and ok + quarantined = records.
struct EventOutcome {
  std::string event;
  // "ok" | "degraded" | "quarantined" — the event report's status, or
  // "quarantined" when the run itself failed (see `error`).
  std::string status = "ok";
  std::string error;      // run-level failure slug; empty when the run ran
  int records_ok = 0;     // degraded included
  int records_degraded = 0;
  int records_quarantined = 0;
  long long points = 0;   // published data points
  double seconds = 0;     // wall clock of this event's run
  long long cache_hits = 0;  // plan-cache traffic of the run
  long long cache_misses = 0;
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
//   <spool>/done/            manifest audit trail of completed events,
//                            plus <name>.json.reason for a run that failed
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
  class Engine;  // the event engine run() drives (serve.cpp)

  // Parses and validates one claimed manifest; empty event on failure
  // with `error` describing why (for the rejected/ audit note).
  EventJob parse_manifest(const std::string& name, const std::string& text,
                          std::string& error) const;
  // Claims one spool-root manifest and admits it, or rejects it. False
  // once the engine stops admitting.
  bool claim(Engine& engine, const std::filesystem::path& manifest);
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
  const Engine* engine_ = nullptr;  // run()'s engine, while it runs

  std::mutex stats_mu_;
  ServeStats stats_;
  std::set<std::string> seen_events_;
  long long trajectory_stride_ = 1;
};

// Tree discovery (docs/SERVE.md, "Tree runs"): every directory under
// `root` holding *.v1 records is one event. Its id is the directory's
// path below `root` with '/' flattened to '_' ("root" for records at
// `root` itself), its priority_bytes the summed size of its records.
// Sorted by id. Two directories that flatten to one id fail the whole
// discovery with kEventIdCollision naming both; an id the spool would
// refuse is kept, so its manifest is rejected with a reason.
Result<std::vector<EventJob>, IoError> discover_events(
    FileSystem& fs, const RunnerConfig& runner,
    const std::filesystem::path& root);

// What a tree run's front half did with each discovered event.
struct TreeSpool {
  std::vector<std::string> spooled;  // ids written into the spool
  // Ids left out because they are done, each with the event status its
  // run report records ("ok" | "degraded" | "quarantined").
  std::vector<std::pair<std::string, std::string>> done;
};

// A tree run's front half: discovers the events under `root`, writes
// one manifest <event>.json per event into `spool`, then the shutdown
// sentinel, so SpoolServer::run over the same spool and work root
// drains exactly the tree and exits. Resume uses the spool's own state:
// an event is not spooled again while its manifest is in claimed/
// (startup reclaim re-serves a dead owner's, a live peer keeps its
// own), or once it is in done/ and its work dir validates.
Result<TreeSpool, IoError> spool_tree(FileSystem& fs, const ServeConfig& cfg,
                                      const std::filesystem::path& root,
                                      const std::filesystem::path& spool,
                                      const std::filesystem::path& work_root);

}  // namespace acx::pipeline
