#include "pipeline/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "util/perf.hpp"
#include "util/rng.hpp"

namespace acx::pipeline {

namespace stdfs = std::filesystem;

namespace {

StageError from_io(const IoError& e) {
  // reason_slug keeps the family split: breaker rejections surface as
  // storage.circuit_open, everything else as io.<code>.
  return StageError{e.klass, reason_slug(e), e.to_string()};
}

// Failures the storage layer (filesystem, latency shim, breaker) caused,
// as opposed to the record's own data being bad. Only these are
// forgivable on sheddable stages — numerical poison still quarantines.
bool is_storage_reason(const std::string& reason) {
  return reason.rfind("io.", 0) == 0 || reason.rfind("storage.", 0) == 0;
}

}  // namespace

RecordExecutor::RecordExecutor(FileSystem& fs, const RunnerConfig& cfg)
    : fs_(fs), cfg_(cfg) {}

void RecordExecutor::instantiate(const StageGraph& graph,
                                 bool prune_redundant) {
  plan_.clear();
  for (const StageNode* node : graph.plan(prune_redundant)) {
    plan_.push_back({node, node->make()});
  }
  station_plan_.clear();
  for (const StageNode* node : graph.station_plan(prune_redundant)) {
    station_plan_.push_back({node, node->make_station()});
  }
}

RecordSlot RecordExecutor::make_slot(const stdfs::path& input,
                                     const stdfs::path& work_dir) const {
  RecordSlot slot;
  slot.outcome.record = input.stem().string();
  slot.outcome.input = input.string();
  slot.ctx.fs = &fs_;
  slot.ctx.input_path = input;
  slot.ctx.scratch_dir = work_dir / "scratch" / slot.outcome.record;
  slot.ctx.out_dir = work_dir / "out";
  slot.ctx.record_id = slot.outcome.record;
  slot.input_bytes = fs_.file_size(input);
  return slot;
}

namespace {

// Fault-injection gate shared by the record and station paths: counts
// the invocation under the lock, and when it matches the configured
// fault either kills the process or manufactures the stage_crash error.
Result<Unit, StageError> injected_fault_or(
    const StageFault& f, std::mutex& mu, std::map<std::string, int>& counters,
    const char* name, const std::function<Result<Unit, StageError>()>& run) {
  int invocation = 0;
  {
    std::lock_guard<std::mutex> lock(mu);
    invocation = ++counters[name];
  }
  if (!f.stage.empty() && f.stage == name &&
      invocation == f.kill_on_invocation) {
    // Whole-process death (power loss / OOM-kill model): no destructors,
    // no report — exactly the mid-run crash a restart recovers
    // from. 137 mirrors a SIGKILLed exit status.
    if (f.kill_process) std::_Exit(137);
    return StageError{
        f.transient ? ErrorClass::kTransient : ErrorClass::kPoison,
        std::string("stage_crash.") + name,
        "injected stage fault on invocation " + std::to_string(invocation)};
  }
  return run();
}

}  // namespace

Result<Unit, StageError> RecordExecutor::run_stage_once(Stage& stage,
                                                        RecordContext& ctx) {
  return injected_fault_or(cfg_.stage_fault, invocations_mu_, invocations_,
                           stage.name(), [&] { return stage.run(ctx); });
}

Result<Unit, StageError> RecordExecutor::run_station_once(
    StationStage& stage, StationContext& ctx) {
  return injected_fault_or(cfg_.stage_fault, invocations_mu_, invocations_,
                           stage.name(), [&] { return stage.run(ctx); });
}

bool RecordExecutor::run_step(
    const std::string& name, const std::string& key,
    std::vector<StageAttempt>& stages, int& retries, double& seconds,
    StageError& failure, const std::function<Result<Unit, StageError>()>& fn) {
  int attempts = 0;
  // A stage runs start-to-finish on this thread, so the delta of the
  // thread-local perf counters across the retry loop is exactly the
  // cache traffic and setup/kernel time this stage incurred.
  const perf::Counters before = perf::local();
  const auto started = std::chrono::steady_clock::now();
  // Jitter salt: stable per (record-or-station, stage) regardless of
  // scheduling, so a fixed jitter_seed reproduces every sleep while
  // concurrent slots retrying the same stage stay decorrelated.
  const std::uint64_t salt = fnv1a64(key) ^ fnv1a64(name);
  RetryBudgetFn budget;
  if (deadline_ && deadline_->config().hard_seconds > 0) {
    budget = [this](int backoff_ms) {
      return backoff_ms < deadline_->remaining_hard_ms();
    };
  }
  auto r = run_with_retry<Unit, StageError>(
      cfg_.retry, cfg_.sleep,
      [](const StageError& e) { return e.klass; }, fn, &attempts, salt,
      budget);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - started;
  const perf::Counters after = perf::local();
  StageAttempt attempt;
  attempt.stage = name;
  attempt.attempts = attempts;
  attempt.ok = r.ok();
  attempt.seconds = elapsed.count();
  attempt.cache_hits =
      static_cast<long long>(after.cache_hits - before.cache_hits);
  attempt.cache_misses =
      static_cast<long long>(after.cache_misses - before.cache_misses);
  attempt.setup_seconds = after.setup_seconds - before.setup_seconds;
  attempt.kernel_seconds = after.kernel_seconds - before.kernel_seconds;
  if (!r.ok()) {
    failure = r.error();
    attempt.error = failure.reason;
  }
  retries += attempts - 1;
  seconds += attempt.seconds;
  stages.push_back(std::move(attempt));
  return r.ok();
}

bool RecordExecutor::run_step(
    const std::string& name, RecordOutcome& outcome, StageError& failure,
    const std::function<Result<Unit, StageError>()>& fn) {
  return run_step(name, outcome.record, outcome.stages, outcome.retries,
                  outcome.seconds, failure, fn);
}

void RecordExecutor::setup_scratch(RecordSlot& slot) {
  // A slot the station pre-scan already quarantined skips the whole
  // chain: no scratch dir, no attempts — finalize() quarantines it with
  // the pre-scan's station.* reason.
  if (slot.failed) return;
  const bool ok = run_step("scratch_setup", slot.outcome, slot.failure, [&] {
    (void)fs_.remove_all(slot.ctx.scratch_dir);
    auto made = fs_.create_directories(slot.ctx.scratch_dir);
    if (!made.ok()) {
      return Result<Unit, StageError>(from_io(made.error()));
    }
    return Result<Unit, StageError>(Unit{});
  });
  if (!ok) slot.failed = true;
}

void RecordExecutor::shed_stage(RecordSlot& slot, const PlannedStage& ps,
                                std::string reason) {
  slot.outcome.degraded = true;
  slot.outcome.shed.push_back({ps.node->name, std::move(reason)});
  // Scrub anything the stage may have partially published into out/, so
  // the report's outputs array (and the validator's inventory) only see
  // what actually survived.
  stdfs::path* out = nullptr;
  if (ps.node->name == "fourier") out = &slot.ctx.fourier_path;
  if (ps.node->name == "response") out = &slot.ctx.response_path;
  if (out && !out->empty()) {
    (void)fs_.remove_all(*out);
    out->clear();
  }
}

void RecordExecutor::run_stage(RecordSlot& slot, const PlannedStage& ps) {
  if (slot.failed) return;
  // Hard deadline: no further work on any stage. The record quarantines
  // as batch.deadline_hard; the event finalizes with what completed.
  if (deadline_ && deadline_->hard_expired()) {
    StageAttempt attempt;
    attempt.stage = ps.node->name;
    attempt.attempts = 0;
    attempt.ok = false;
    attempt.error = "batch.deadline_hard";
    slot.outcome.stages.push_back(std::move(attempt));
    slot.failure = StageError{ErrorClass::kPoison, "batch.deadline_hard",
                              "hard deadline expired before stage '" +
                                  ps.node->name + "'"};
    slot.failed = true;
    return;
  }
  // Soft deadline: skip the non-essential enrichments outright; the
  // record publishes as degraded instead of blowing the budget.
  if (ps.node->sheddable && deadline_ && deadline_->soft_expired()) {
    shed_stage(slot, ps, "batch.deadline_soft");
    return;
  }
  if (!run_step(ps.node->name, slot.outcome, slot.failure,
                [&] { return run_stage_once(*ps.stage, slot.ctx); })) {
    // A sheddable stage lost to the storage layer (flaky backend, open
    // breaker) is forgiven: shed it and keep the record alive. Its own
    // data being bad (numerical poison) still quarantines.
    if (ps.node->sheddable && is_storage_reason(slot.failure.reason)) {
      shed_stage(slot, ps,
                 slot.failure.klass == ErrorClass::kPoison
                     ? slot.failure.reason
                     : "transient_exhausted." + slot.failure.reason);
      return;
    }
    slot.failed = true;
  }
}

void RecordExecutor::quarantine_record(const stdfs::path& quarantine_dir,
                                       RecordSlot& slot) {
  RecordOutcome& outcome = slot.outcome;
  outcome.status = RecordOutcome::Status::kQuarantined;
  outcome.reason = slot.failure.klass == ErrorClass::kPoison
                       ? slot.failure.reason
                       : "transient_exhausted." + slot.failure.reason;

  // Preserve the original bytes for post-mortem. If the input itself is
  // unreadable, quarantine a marker describing why.
  std::string content = slot.ctx.raw;
  if (content.empty()) {
    auto rd = fs_.read_file(slot.ctx.input_path);
    content = rd.ok() ? std::move(rd).take()
                      : "<input unreadable: " + rd.error().to_string() + ">\n";
  }
  const stdfs::path dest =
      quarantine_dir / (outcome.record + "." + outcome.reason);
  auto wrote = retry_io<Unit>(
      cfg_, [&] { return atomic_write_file(fs_, dest, content); });
  if (wrote.ok()) outcome.quarantine = dest.string();
}

void RecordExecutor::finalize(RecordSlot& slot, const stdfs::path& work_dir) {
  if (!slot.failed) {
    slot.outcome.status = RecordOutcome::Status::kOk;
    slot.outcome.output = slot.ctx.output_path.string();
    slot.outcome.points =
        static_cast<long long>(slot.ctx.record.samples.size());
    for (const stdfs::path* p : {&slot.ctx.output_path, &slot.ctx.fourier_path,
                                 &slot.ctx.response_path}) {
      if (!p->empty()) slot.outcome.outputs.push_back(p->string());
    }
    // Byte-stable reports regardless of stage order: outputs are listed
    // alphabetically (.f, .r, .v2), not in publication order.
    std::sort(slot.outcome.outputs.begin(), slot.outcome.outputs.end());
  } else {
    // Earlier stages may already have published spectra into out/; a
    // quarantined record must leave no outputs behind, or the validator
    // (rightly) flags them as unclaimed.
    for (const stdfs::path* p : {&slot.ctx.output_path, &slot.ctx.fourier_path,
                                 &slot.ctx.response_path}) {
      if (!p->empty()) (void)fs_.remove_all(*p);
    }
    quarantine_record(work_dir / "quarantine", slot);
  }

  // Scratch is per-record; drop it either way (best effort — leftovers
  // are caught by the validator, not silently tolerated).
  (void)fs_.remove_all(slot.ctx.scratch_dir);
  slot.processed = true;
}

void RecordExecutor::run_record(RecordSlot& slot, const stdfs::path& work_dir) {
  setup_scratch(slot);
  for (const PlannedStage& ps : plan_) run_stage(slot, ps);
  finalize(slot, work_dir);
}

void RecordExecutor::run_station(StationSlot& slot) {
  // A graph without station stages has no verdict to settle — the slot
  // keeps whatever status the runner seeded (skipped).
  if (station_plan_.empty()) return;
  for (const PlannedStationStage& ps : station_plan_) {
    if (slot.failed) break;
    // Hard deadline: the station phase stops where it stands, exactly
    // like a record mid-chain.
    if (deadline_ && deadline_->hard_expired()) {
      StageAttempt attempt;
      attempt.stage = ps.node->name;
      attempt.attempts = 0;
      attempt.ok = false;
      attempt.error = "batch.deadline_hard";
      slot.outcome.stages.push_back(std::move(attempt));
      slot.failure = StageError{ErrorClass::kPoison, "batch.deadline_hard",
                                "hard deadline expired before stage '" +
                                    ps.node->name + "'"};
      slot.failed = true;
      break;
    }
    if (!run_step(ps.node->name, slot.outcome.station, slot.outcome.stages,
                  slot.outcome.retries, slot.outcome.seconds, slot.failure,
                  [&] { return run_station_once(*ps.stage, slot.ctx); })) {
      slot.failed = true;
    }
  }
  if (!slot.failed) {
    slot.outcome.rotd_status = "ok";
    slot.outcome.rotd_output = slot.ctx.rotd_path.string();
  } else {
    slot.outcome.rotd_status = "failed";
    slot.outcome.rotd_reason =
        slot.failure.klass == ErrorClass::kPoison
            ? slot.failure.reason
            : "transient_exhausted." + slot.failure.reason;
    // The rotd stage publishes atomically on success only, but scrub
    // defensively: a failed station must leave no station output behind.
    if (!slot.ctx.rotd_path.empty()) {
      (void)fs_.remove_all(slot.ctx.rotd_path);
      slot.ctx.rotd_path.clear();
    }
  }
}

}  // namespace acx::pipeline
