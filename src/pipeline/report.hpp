#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/breaker.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace acx::pipeline {

// One attempt-group per stage executed for a record.
struct StageAttempt {
  std::string stage;
  int attempts = 1;  // total invocations (1 = no retry)
  bool ok = false;
  std::string error;   // reason slug of the final failure, empty when ok
  double seconds = 0;  // wall clock across all attempts of this stage
  // v5 profiling split, drained from the thread-local acx::perf
  // counters around the stage: how often the plan caches (ResponsePlan,
  // FftPlan, smoothing extents) served vs built, and how the stage's
  // time divides into amortizable plan setup vs the numeric kernels
  // proper. Untimed glue (I/O, validation) is in `seconds` only.
  long long cache_hits = 0;
  long long cache_misses = 0;
  double setup_seconds = 0;
  double kernel_seconds = 0;
};

// v6: one non-essential stage the executor skipped (deadline pressure)
// or forgave after a storage-layer failure, with the registered reason
// ("batch.deadline_soft", "storage.circuit_open", ...). A record with
// shed stages that still publishes its essential V2 is *degraded*, not
// quarantined — the graceful-degradation contract of docs/SERVE.md.
struct ShedStage {
  std::string stage;
  std::string reason;
};

struct RecordOutcome {
  enum class Status { kOk, kQuarantined };

  std::string record;      // record id, e.g. "SS01l"
  std::string input;       // input file path
  Status status = Status::kOk;
  // v6: published, but with non-essential stages shed. Only meaningful
  // for ok records; status_string() folds it into "degraded".
  bool degraded = false;
  std::vector<ShedStage> shed;
  // v6: published data points (sample count of the corrected record);
  // 0 for quarantined records. Feeds serve_stats.json's sustained
  // points/s metric.
  long long points = 0;
  std::string output;      // primary V2 path (ok records)
  // Every file the record produced, V2 first, then the F and R spectra
  // — the set acx_validate audits against out/.
  std::vector<std::string> outputs;
  std::string reason;      // quarantine reason slug (quarantined records)
  std::string quarantine;  // quarantine file path
  std::vector<StageAttempt> stages;
  int retries = 0;     // extra attempts beyond the first, summed over stages
  double seconds = 0;  // wall clock of this record, summed over stages

  // "ok" | "degraded" | "quarantined".
  const char* status_string() const {
    if (status == Status::kQuarantined) return "quarantined";
    return degraded ? "degraded" : "ok";
  }

  // Cost-extraction hook for the src/sched simulator: wall seconds per
  // *successful* stage of this record. Failed attempt groups are
  // excluded — a stage that never completed did not yield a cost
  // measurement, only a truncation of one.
  std::map<std::string, double> ok_stage_seconds() const;
};

// v7: one station's component rollup plus the outcome of its
// station-scoped phase (the rotd sweep). Stations are derived from
// record ids via formats::split_record_id — every record belongs to
// exactly one station (single-component ids form a station of their
// own with an empty component suffix).
struct StationOutcome {
  std::string station;
  // Component suffixes present in the input, sorted; duplicates kept.
  std::vector<std::string> components;
  int ok = 0;           // members published (degraded included)
  int quarantined = 0;  // members quarantined
  // Cross-component consistency flags raised for this station, sorted
  // registered "station.<slug>" reasons (docs/FORMATS.md).
  std::vector<std::string> checks;
  // "ok" (published .rotd) | "skipped" (ineligible: missing/unequal
  // horizontals, hard deadline) | "failed" (the sweep itself errored).
  std::string rotd_status = "skipped";
  std::string rotd_reason;  // registered reason when not ok, else ""
  std::string rotd_output;  // published .rotd path when ok, else ""
  std::vector<StageAttempt> stages;  // station-phase attempt groups
  int retries = 0;
  double seconds = 0;
};

// Per-stage aggregate of the v5 profiling fields, summed over records.
struct StageProfile {
  long long cache_hits = 0;
  long long cache_misses = 0;
  double setup_seconds = 0;
  double kernel_seconds = 0;
};

// The machine-readable outcome of one event run, written atomically to
// <work_dir>/run_report.json. Schema documented in docs/PIPELINE.md.
// v4 added the driver block: which of the four paper implementations
// ran, with how many threads, and the measured speedup against a
// sequential baseline when one was supplied. v5 adds the profiling
// split: per-stage cache_hits/cache_misses and setup_seconds vs
// kernel_seconds (plus the derived stage_profile block), so the
// plan-cache layer's effect is visible per run. canonical_dump() is
// unchanged — cache attribution depends on which record warmed a plan
// first, which is interleaving-dependent under the parallel drivers.
// v6 adds the robustness block: event-level status (ok|degraded|
// quarantined), per-record degraded/shed/points, the deadline budget
// with its soft-shed/hard-stop counters, and the storage circuit
// breaker's counter deltas for this run (docs/SERVE.md).
// v7 adds the stations block: per-station component rollups (which
// suffixes arrived, how many members published), the station.*
// consistency checks raised, and the station-phase rotd outcome with
// its own stage attempt groups (docs/PIPELINE.md, "Stations").
struct RunReport {
  static constexpr int kVersion = 7;

  std::string input_dir;
  std::string work_dir;
  std::string driver = "seq";  // "seq"|"seq-opt"|"partial"|"full"|"pool"
  int threads = 1;             // resolved team size (1 for sequential)
  // baseline_total_seconds / total_seconds, when a baseline report was
  // supplied (acx_process --baseline); 0 = not measured, omitted.
  double speedup_vs_sequential = 0;
  double total_seconds = 0;  // wall clock of the whole event run
  // v6: the deadline budget this event ran under (0 = unbounded) and
  // the breaker counter deltas observed during the run (all zero when
  // no BreakerFileSystem is in the stack).
  double deadline_soft_seconds = 0;
  double deadline_hard_seconds = 0;
  storage::BreakerCounters breaker;
  std::vector<RecordOutcome> records;
  std::vector<StationOutcome> stations;  // v7, one per station

  // v6 event-level status: "quarantined" when the event published
  // nothing (every record quarantined), "degraded" when any surviving
  // record shed stages, else "ok".
  const char* status() const;

  int count_ok() const;         // ok records, degraded included
  int count_degraded() const;
  int count_quarantined() const;
  int count_retries() const;
  long long total_points() const;  // published data points, summed
  // Derived deadline counters: shed entries attributed to the soft
  // deadline, and records stopped by the hard one.
  int deadline_soft_sheds() const;
  int deadline_hard_stops() const;
  // Wall clock summed per stage name over every record and every
  // station-phase attempt group — the numbers the Table I per-stage
  // benches are driven from.
  std::map<std::string, double> stage_totals() const;
  // Each stage's fraction of the summed stage wall clock (0..1). This
  // is how the paper's "Stage IX is 57.2% of the sequential run" claim
  // is measured on our own runs: stage_shares()["response"].
  std::map<std::string, double> stage_shares() const;
  // v5: per-stage cache traffic and setup-vs-kernel seconds, summed
  // over records — what scripts/speedup_table.py renders and the bench
  // gate watches for setup-cost regressions.
  std::map<std::string, StageProfile> stage_profile() const;

  // Determinism: records ordered by id, each record's outputs array
  // sorted; stations ordered by name, each station's checks sorted.
  // The runner calls this before serializing, so the report is
  // byte-stable across drivers and thread interleavings (timings aside).
  void sort_records();

  Json to_json() const;
  std::string dump() const { return to_json().dump(2); }

  // The driver-independent projection of to_json() on the sorted
  // report: the identity, timing and attempt-group keys are dropped by
  // name, and the input/output/quarantine/rotd paths rebased onto
  // "<input>"/"<work>" placeholders. What is left — statuses, counts,
  // outputs, reasons, stations — is byte-identical across the five
  // drivers and across thread counts; the equivalence tests diff it
  // directly. A field added to to_json() lands here unless dropped.
  std::string canonical_dump() const;

  // Strict re-read (used by acx_validate and the tests).
  static Result<RunReport, std::string> from_json_text(const std::string& text);
};

inline constexpr const char* kRunReportFileName = "run_report.json";

// The breaker block every report carries (run report, serve stats):
// {rejected_ops, opens, half_open_recoveries}. The strict
// reader rejects a missing block or a negative or missing counter.
Json breaker_to_json(const storage::BreakerCounters& c);
Result<storage::BreakerCounters, std::string> breaker_from_json(
    const Json& root);

}  // namespace acx::pipeline
