#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/engine.hpp"
#include "pipeline/report.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace acx::pipeline {

// The multi-event batch layer (docs/BATCH.md): the event engine over a
// fixed source — every directory holding *.v1 records is one event,
// discovered once, drained, then reported.
struct BatchConfig : EngineConfig {
  // Resume mode: an event whose journal entry exists and whose work dir
  // still validates is skipped, its prior report taken as-is (and its
  // canonical projection therefore byte-identical). false reprocesses
  // everything.
  bool resume = true;
};

// The machine-readable outcome of one batch, written atomically to
// <work_root>/batch_report.json. Schema documented in docs/BATCH.md.
struct BatchReport {
  static constexpr int kVersion = 1;

  std::string input_root;
  std::string work_root;
  std::string driver = "seq";
  int threads = 1;
  int event_workers = 1;
  std::string priority = "fifo";
  double total_seconds = 0;
  // Sustained throughput over the *fresh* (non-resumed) events: resumed
  // events cost no processing, so counting them would flatter the rate.
  double records_per_second = 0;
  double points_per_second = 0;
  // Breaker counter deltas across the whole batch (zero when no
  // breaker is wired into the filesystem stack).
  storage::BreakerCounters breaker;
  std::vector<EventOutcome> events;  // sorted by event id

  int count_status(std::string_view status) const;
  int count_resumed() const;

  Json to_json() const;
  std::string dump() const { return to_json().dump(2); }
  static Result<BatchReport, std::string> from_json_text(
      const std::string& text);
};

inline constexpr const char* kBatchReportFileName = "batch_report.json";

// Drives a whole batch: discovers events (directories holding *.v1
// records anywhere under input_root) and runs them on the event engine
// under the configured priority.
//
// Work-root layout:
//   <work>/events/<shard>/<event>/   one StageRunner work dir per event
//   <work>/journal/<event>.json      completion journal (atomic)
//   <work>/batch_report.json         the batch outcome
//
// Crash contract: the journal entry is written (atomically) only after
// an event's report landed, so a mid-batch crash leaves either a
// journaled, validating event (skipped on resume) or an unjournaled one
// (wiped and reprocessed). Completed events' canonical reports are
// therefore byte-identical across crash/resume cycles.
class BatchRunner {
 public:
  BatchRunner(FileSystem& fs, BatchConfig config = {});

  Result<BatchReport, IoError> run(const std::filesystem::path& input_root,
                                   const std::filesystem::path& work_root);

 private:
  Result<std::vector<EventJob>, IoError> discover(
      const std::filesystem::path& input_root);
  // True when the event's journal entry and work dir both check out, so
  // the event can be skipped on resume. Fills `out` from the journal.
  bool try_resume(const EventJob& job, EventOutcome& out);
  EventOutcome run_one(const EventJob& job);

  FileSystem& fs_;
  BatchConfig cfg_;
  std::filesystem::path journal_dir_;
};

}  // namespace acx::pipeline
