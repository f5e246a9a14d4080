#include "pipeline/runner.hpp"

#include <algorithm>
#include <cstddef>
#include <map>

#include "formats/component_set.hpp"
#include "formats/v1.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/graph.hpp"
#include "pipeline/scheduler.hpp"
#include "util/work_pool.hpp"

namespace acx::pipeline {

namespace stdfs = std::filesystem;

StageRunner::StageRunner(FileSystem& fs, RunnerConfig config)
    : fs_(fs), cfg_(std::move(config)) {}

Result<RunReport, IoError> StageRunner::run_event(const stdfs::path& input_dir,
                                                  const stdfs::path& work_dir) {
  const double run_started = steady_now_seconds();
  // The reported team size: the pool driver's is the shared pool's real
  // worker count when one is wired in (the resident service), otherwise
  // the transient pool it will spin up.
  int threads = 1;
  if (cfg_.driver == Driver::kPool && cfg_.pool) {
    threads = cfg_.pool->thread_count();
  } else if (is_parallel(cfg_.driver)) {
    threads = resolve_threads(cfg_.threads);
  }

  RunReport report;
  report.input_dir = input_dir.string();
  report.work_dir = work_dir.string();
  report.driver = to_string(cfg_.driver);
  report.threads = threads;

  auto made = create_dirs(fs_, cfg_,
                          {work_dir / "out", work_dir / "quarantine",
                           work_dir / "scratch"});
  if (!made.ok()) return std::move(made).take_error();

  auto listed = retry_io<std::vector<stdfs::path>>(
      cfg_, [&] { return fs_.list_dir(input_dir); });
  if (!listed.ok()) return std::move(listed).take_error();

  // The full driver's response stage runs its period loop as the nested
  // `omp for` of the paper's fully-parallelized variant; the graph's
  // stage factories capture the team size at construction.
  RunnerConfig effective = cfg_;
  if (cfg_.driver == Driver::kFullParallel) {
    effective.spectrum.response_threads = threads;
  }
  const StageGraph graph =
      StageGraph::standard(effective.correction, effective.spectrum);
  if (auto audit = graph.verify(); !audit.ok()) {
    return IoError{IoError::Code::kGraphInvalid, ErrorClass::kPoison,
                   work_dir.string(), audit.error()};
  }

  RecordExecutor exec(fs_, effective);
  exec.instantiate(graph, prunes_redundant(cfg_.driver));

  // Arm the per-event deadline budget before any worker starts; the
  // tracker is read-only from here on, so the parallel drivers may poll
  // it without locking. Stamp the budget (and the breaker's counters,
  // when one is wired in) into the v6 report.
  DeadlineTracker deadline(cfg_.deadline, cfg_.now);
  deadline.start();
  exec.set_deadline(&deadline);
  report.deadline_soft_seconds = cfg_.deadline.soft_seconds;
  report.deadline_hard_seconds = cfg_.deadline.hard_seconds;
  const storage::BreakerWindow breaker(cfg_.breaker);

  // Sorted inputs give a deterministic slot order, so the report (and
  // the fail-fast stopping point of the sequential drivers) does not
  // depend on directory enumeration order.
  std::vector<stdfs::path> inputs;
  for (const stdfs::path& path : listed.value()) {
    if (path.extension() == formats::kV1Extension) inputs.push_back(path);
  }
  std::sort(inputs.begin(), inputs.end());

  std::vector<RecordSlot> slots;
  slots.reserve(inputs.size());
  for (const stdfs::path& input : inputs) {
    slots.push_back(exec.make_slot(input, work_dir));
  }

  // ---- Station pre-scan (docs/FORMATS.md, "Component sets") ----
  // Cross-component consistency checks on the V1 headers before any
  // stage runs: records that fail are pre-quarantined with a typed
  // station.* reason (slot.failed is already set, so the executor skips
  // their whole chain and finalize() quarantines them). Headers that
  // cannot be read or parsed are deferred silently — the parse stage
  // owns those failures and reports them with the richer parse.*
  // taxonomy. The scan is serial and driver-independent, so the
  // canonical report stays byte-identical across drivers.
  std::vector<bool> parsed(slots.size(), false);
  std::vector<formats::RecordHeader> headers(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    auto rd =
        retry_io<std::string>(cfg_, [&] { return fs_.read_file(inputs[i]); });
    if (!rd.ok()) continue;
    auto hdr = formats::read_v1_header(rd.value());
    if (!hdr.ok()) continue;
    headers[i] = std::move(hdr).take();
    parsed[i] = true;
  }

  // Stations are derived from record ids (formats::split_record_id),
  // never from header metadata — the grouping must be recomputable from
  // the report alone. std::map iteration gives station-sorted order.
  std::map<std::string, std::vector<std::size_t>> station_members;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    station_members[formats::split_record_id(slots[i].outcome.record).first]
        .push_back(i);
  }

  std::map<std::string, std::vector<std::string>> station_checks;
  auto flag = [&station_checks](const std::string& station, const char* slug) {
    std::vector<std::string>& checks = station_checks[station];
    std::string reason = std::string("station.") + slug;
    if (std::find(checks.begin(), checks.end(), reason) == checks.end()) {
      checks.push_back(reason);
    }
    return reason;
  };
  auto prequarantine = [&slots](std::size_t i, const std::string& reason,
                                std::string detail) {
    if (slots[i].failed) return;  // first reason wins
    slots[i].failed = true;
    slots[i].failure =
        StageError{ErrorClass::kPoison, reason, std::move(detail)};
  };

  for (const auto& [station, members] : station_members) {
    // short_duration: the header announces less signal than the floor —
    // too short for any spectral product to mean anything.
    for (std::size_t i : members) {
      if (!parsed[i]) continue;
      const double duration =
          headers[i].dt * static_cast<double>(headers[i].npts);
      if (duration < cfg_.min_station_duration_s) {
        prequarantine(i, flag(station, "short_duration"),
                      "header announces " + std::to_string(duration) +
                          " s of signal; the station floor is " +
                          std::to_string(cfg_.min_station_duration_s) + " s");
      }
    }
    // duplicate_component: two headers of one station claim the same
    // component — every claimant quarantines (no way to pick a winner).
    std::map<std::string, std::vector<std::size_t>> claims;
    for (std::size_t i : members) {
      if (parsed[i]) claims[headers[i].component].push_back(i);
    }
    for (const auto& [component, claimants] : claims) {
      if (claimants.size() < 2) continue;
      const std::string reason = flag(station, "duplicate_component");
      for (std::size_t i : claimants) {
        prequarantine(i, reason,
                      "header claims component '" + component +
                          "' already claimed by another input of station '" +
                          station + "'");
      }
    }
    // dt_mismatch: the parsed headers of one station disagree on the
    // sampling interval — no member is trustworthy, all quarantine.
    bool have_dt = false;
    bool mismatch = false;
    double dt0 = 0;
    for (std::size_t i : members) {
      if (!parsed[i]) continue;
      if (!have_dt) {
        dt0 = headers[i].dt;
        have_dt = true;
      } else if (headers[i].dt != dt0) {
        mismatch = true;
      }
    }
    if (mismatch) {
      const std::string reason = flag(station, "dt_mismatch");
      for (std::size_t i : members) {
        if (parsed[i]) {
          prequarantine(i, reason,
                        "components of station '" + station +
                            "' disagree on the sampling interval");
        }
      }
    }
  }

  auto scheduler =
      make_scheduler(cfg_.driver, threads, cfg_.keep_going, cfg_.pool);
  scheduler->run(exec, slots, work_dir);

  // ---- Station phase ----
  // Group the processed slots back into stations, decide eligibility
  // for the station-scoped stages, and fan the eligible ones out under
  // the same scheduling policy as the records. Component sample vectors
  // are borrowed from the record slots (post-detrend corrected
  // acceleration), so the slots must outlive this phase.
  std::vector<StationSlot> station_slots;
  station_slots.reserve(station_members.size());
  for (const auto& [station, members] : station_members) {
    StationSlot st;
    st.ctx.fs = &fs_;
    st.ctx.out_dir = work_dir / "out";
    st.ctx.station = station;
    st.outcome.station = station;
    if (auto it = station_checks.find(station); it != station_checks.end()) {
      st.outcome.checks = it->second;
    }
    RecordSlot* comp_l = nullptr;
    RecordSlot* comp_t = nullptr;
    RecordSlot* comp_v = nullptr;
    bool any = false;
    for (std::size_t i : members) {
      RecordSlot& slot = slots[i];
      if (!slot.processed) continue;
      any = true;
      const auto [name, component] =
          formats::split_record_id(slot.outcome.record);
      st.outcome.components.push_back(component);
      if (slot.outcome.status == RecordOutcome::Status::kOk) {
        ++st.outcome.ok;
        if (component == "l") comp_l = &slot;
        if (component == "t") comp_t = &slot;
        if (component == "v") comp_v = &slot;
      } else {
        ++st.outcome.quarantined;
      }
    }
    // Fail-fast stop: a station none of whose members were processed
    // has no report entry to roll up.
    if (!any) continue;
    // Eligibility for the rotd sweep: both horizontals published, with
    // equal lengths and sampling intervals. Anything else is a typed
    // skip — the component records stay published, only the station
    // product is withheld.
    const char* skip = nullptr;
    if (!comp_l || !comp_t) {
      skip = "missing_component";
    } else if (comp_l->ctx.record.samples.size() !=
               comp_t->ctx.record.samples.size()) {
      skip = "length_mismatch";
    } else if (comp_l->ctx.record.header.dt != comp_t->ctx.record.header.dt) {
      skip = "dt_mismatch";
    }
    if (skip) {
      st.outcome.rotd_status = "skipped";
      st.outcome.rotd_reason = flag(station, skip);
      st.outcome.checks = station_checks[station];
    } else {
      st.ctx.event_id = comp_l->ctx.record.header.event_id;
      st.ctx.date = comp_l->ctx.record.header.date;
      st.ctx.dt = comp_l->ctx.record.header.dt;
      st.ctx.comp_l = &comp_l->ctx.record.samples;
      st.ctx.comp_t = &comp_t->ctx.record.samples;
      if (comp_v) st.ctx.comp_v = &comp_v->ctx.record.samples;
    }
    station_slots.push_back(std::move(st));
  }
  // Collect the eligible slots only after the vector is final — the
  // scheduler gets stable pointers.
  std::vector<StationSlot*> eligible;
  for (StationSlot& st : station_slots) {
    if (st.outcome.rotd_reason.empty()) eligible.push_back(&st);
  }
  scheduler->run_stations(exec, eligible);

  for (RecordSlot& slot : slots) {
    if (slot.processed) report.records.push_back(std::move(slot.outcome));
  }
  for (StationSlot& st : station_slots) {
    report.stations.push_back(std::move(st.outcome));
  }

  (void)fs_.remove_all(work_dir / "scratch");

  report.total_seconds = steady_now_seconds() - run_started;
  if (cfg_.baseline_total_seconds > 0 && report.total_seconds > 0) {
    report.speedup_vs_sequential =
        cfg_.baseline_total_seconds / report.total_seconds;
  }
  report.breaker = breaker.delta();
  report.sort_records();

  auto wrote = retry_io<Unit>(cfg_, [&] {
    return atomic_write_file(fs_, work_dir / kRunReportFileName,
                             report.dump());
  });
  if (!wrote.ok()) return std::move(wrote).take_error();
  return report;
}

Result<RunReport, IoError> run_pipeline(FileSystem& fs,
                                        const stdfs::path& input_dir,
                                        const stdfs::path& work_dir,
                                        const RunnerConfig& config) {
  StageRunner runner(fs, config);
  return runner.run_event(input_dir, work_dir);
}

}  // namespace acx::pipeline
