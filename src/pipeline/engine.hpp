#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "pipeline/config.hpp"
#include "util/bounded_queue.hpp"
#include "util/fs.hpp"

namespace acx::pipeline {

// The event engine under both multi-event runners (docs/BATCH.md, "The
// event engine"): admit -> bounded priority queue -> event workers ->
// fresh-slate run -> record outcome. BatchRunner feeds it from
// directory discovery, SpoolServer from spool claims.
struct EngineConfig {
  // Per-event pipeline configuration, deadline budget and breaker
  // included.
  RunnerConfig runner;
  // Inter-event concurrency: events running at once, each with the
  // configured driver's record fan-out inside.
  int event_workers = 1;
  // admit() blocks once this many events wait for a worker —
  // backpressure against a stalled worker pool.
  std::size_t queue_capacity = 4;
  // Work dirs shard as <work_root>/events/s<fnv1a64(event) % shards>/
  // <event>, so a huge run does not pile them into one directory.
  int shards = 16;
  // Which admitted event a freed worker claims next.
  enum class Priority {
    kFifo,      // admission order
    kLargest,   // most priority bytes first (straggler avoidance)
    kSmallest,  // fewest priority bytes first (fast first results)
  };
  Priority priority = Priority::kFifo;
};

// The CLI/report spellings, indexed by Priority.
inline constexpr const char* kPriorityNames[] = {"fifo", "largest",
                                                 "smallest"};

inline const char* to_string(EngineConfig::Priority p) {
  return kPriorityNames[static_cast<int>(p)];
}

inline std::optional<EngineConfig::Priority> parse_priority(
    std::string_view name) {
  for (std::size_t i = 0; i < std::size(kPriorityNames); ++i) {
    if (name == kPriorityNames[i]) return EngineConfig::Priority(i);
  }
  return std::nullopt;
}

// One event handed to the engine.
struct EventJob {
  std::string event;                // event id
  std::filesystem::path input_dir;  // the directory holding its records
  std::filesystem::path work_dir;   // set by admit(): the sharded work dir
  // Largest/smallest-first key: summed record bytes (batch) or the
  // manifest's priority_bytes (service).
  std::uintmax_t priority_bytes = 0;
  double deadline_soft_s = -1;  // per-event overrides; < 0 = the runner's
  double deadline_hard_s = -1;
  std::string manifest;  // the spool claim it came from (service only)
};

// One event's outcome: a batch-report row, and what serve_stats.json
// accumulates. The record counts follow the run report's definition:
// degraded records are ok records, and ok + quarantined = records.
struct EventOutcome {
  std::string event;
  // "ok" | "degraded" | "quarantined" — the event report's status, or
  // "quarantined" when the run itself failed (see `error`).
  std::string status = "ok";
  bool resumed = false;   // skipped: a prior run's report validated
  std::string error;      // run-level failure slug; empty when the run ran
  std::string work_dir;
  int records_ok = 0;     // degraded included
  int records_degraded = 0;
  int records_quarantined = 0;
  long long points = 0;   // published data points
  double seconds = 0;     // wall clock of this event's run (0 if resumed)
  long long cache_hits = 0;    // plan-cache traffic of the run (serve
  long long cache_misses = 0;  // stats only, not in the batch report)
};

// Runs one event from a clean slate: its work dir is wiped first (a
// crashed run must not leak partial state into this one), then timed
// through StageRunner::run_event under the job's deadline overrides.
EventOutcome run_event_job(FileSystem& fs, const RunnerConfig& runner,
                           const EventJob& job);

class EventEngine {
 public:
  // Called on an event worker for every admitted job, in priority order.
  using Handler = std::function<void(const EventJob&)>;

  // Starts `workers` (>= 1) event workers.
  EventEngine(const EngineConfig& cfg, std::filesystem::path work_root,
              int workers, Handler handle);
  ~EventEngine() { drain(); }
  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  // Sets the job's work dir and queues it; blocks while the queue is
  // full. False once the engine is drained (the job is not admitted).
  bool admit(EventJob job);
  // Stops admission, lets the workers finish every queued job, joins.
  void drain();

  int workers() const { return static_cast<int>(workers_.size()); }
  std::size_t queue_depth() const { return queue_.size(); }
  long long in_flight() const { return in_flight_.load(); }
  bool idle() const { return queue_depth() == 0 && in_flight() == 0; }

 private:
  struct Less {  // "a ranks below b"; ties stay FIFO in the queue
    EngineConfig::Priority priority;
    bool operator()(const EventJob& a, const EventJob& b) const {
      using P = EngineConfig::Priority;
      if (priority == P::kLargest) return a.priority_bytes < b.priority_bytes;
      if (priority == P::kSmallest) return a.priority_bytes > b.priority_bytes;
      return false;  // fifo: equal priority everywhere
    }
  };

  std::filesystem::path work_root_;
  int shards_;
  Handler handle_;
  BoundedPriorityQueue<EventJob, Less> queue_;
  std::atomic<long long> in_flight_{0};
  std::vector<std::thread> workers_;
};

}  // namespace acx::pipeline
