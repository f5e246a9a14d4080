#include "pipeline/batch.hpp"

#include <algorithm>
#include <map>
#include <mutex>

#include "formats/v1.hpp"
#include "pipeline/scheduler.hpp"
#include "pipeline/validate.hpp"
#include "util/clock.hpp"

namespace acx::pipeline {

namespace stdfs = std::filesystem;

int BatchReport::count_status(std::string_view status) const {
  int n = 0;
  for (const EventOutcome& e : events) {
    if (e.status == status) ++n;
  }
  return n;
}

int BatchReport::count_resumed() const {
  int n = 0;
  for (const EventOutcome& e : events) {
    if (e.resumed) ++n;
  }
  return n;
}

namespace {

bool is_event_status(std::string_view s) {
  return s == "ok" || s == "degraded" || s == "quarantined";
}

Json outcome_to_json(const EventOutcome& e) {
  Json je = Json::object();
  je.set("event", e.event);
  je.set("status", e.status);
  je.set("resumed", e.resumed);
  if (!e.error.empty()) je.set("error", e.error);
  je.set("work_dir", e.work_dir);
  je.set("records_ok", e.records_ok);
  je.set("records_degraded", e.records_degraded);
  je.set("records_quarantined", e.records_quarantined);
  je.set("points", static_cast<double>(e.points));
  je.set("seconds", e.seconds);
  return je;
}

Result<EventOutcome, std::string> outcome_from_json(const Json& je) {
  if (!je.is_object()) return std::string("event entry is not an object");
  EventOutcome e;
  e.event = je.get_string("event");
  if (e.event.empty()) return std::string("event entry missing id");
  e.status = je.get_string("status");
  if (!is_event_status(e.status)) {
    return "event '" + e.event + "' has bad status '" + e.status + "'";
  }
  const Json* resumed = je.find("resumed");
  e.resumed = resumed && resumed->is_bool() && resumed->boolean();
  e.error = je.get_string("error");
  e.work_dir = je.get_string("work_dir");
  e.records_ok = static_cast<int>(je.get_number("records_ok", -1));
  e.records_degraded = static_cast<int>(je.get_number("records_degraded", -1));
  e.records_quarantined =
      static_cast<int>(je.get_number("records_quarantined", -1));
  e.points = static_cast<long long>(je.get_number("points", -1));
  e.seconds = je.get_number("seconds", -1);
  if (e.records_ok < 0 || e.records_degraded < 0 ||
      e.records_quarantined < 0 || e.points < 0 || e.seconds < 0) {
    return "event '" + e.event + "' has a negative or missing counter";
  }
  return e;
}

}  // namespace

Json BatchReport::to_json() const {
  Json root = Json::object();
  root.set("version", kVersion);
  root.set("input_root", input_root);
  root.set("work_root", work_root);
  root.set("driver", driver);
  root.set("threads", threads);
  root.set("event_workers", event_workers);
  root.set("priority", priority);
  root.set("total_seconds", total_seconds);
  root.set("records_per_second", records_per_second);
  root.set("points_per_second", points_per_second);

  root.set("breaker", breaker_to_json(breaker));

  Json counts = Json::object();
  counts.set("events", static_cast<int>(events.size()));
  counts.set("ok", count_status("ok"));
  counts.set("degraded", count_status("degraded"));
  counts.set("quarantined", count_status("quarantined"));
  counts.set("resumed", count_resumed());
  root.set("counts", std::move(counts));

  Json evs = Json::array();
  for (const EventOutcome& e : events) evs.push(outcome_to_json(e));
  root.set("events", std::move(evs));
  return root;
}

Result<BatchReport, std::string> BatchReport::from_json_text(
    const std::string& text) {
  auto parsed = Json::parse(text);
  if (!parsed.ok()) {
    const auto& e = parsed.error();
    return "batch_report.json is not valid JSON at byte " +
           std::to_string(e.offset) + ": " + e.detail;
  }
  const Json root = std::move(parsed).take();
  if (!root.is_object()) {
    return std::string("batch report root is not an object");
  }
  if (root.get_number("version", -1) != kVersion) {
    return std::string("unsupported batch report version");
  }

  BatchReport report;
  report.input_root = root.get_string("input_root");
  report.work_root = root.get_string("work_root");
  report.driver = root.get_string("driver");
  if (!parse_driver(report.driver)) {
    return "batch report driver '" + report.driver + "' is not a known driver";
  }
  report.threads = static_cast<int>(root.get_number("threads", 0));
  report.event_workers = static_cast<int>(root.get_number("event_workers", 0));
  if (report.threads < 1 || report.event_workers < 1) {
    return std::string("batch report threads/event_workers must be >= 1");
  }
  report.priority = root.get_string("priority");
  if (!parse_priority(report.priority)) {
    return "batch report priority '" + report.priority + "' is unknown";
  }
  report.total_seconds = root.get_number("total_seconds", -1);
  report.records_per_second = root.get_number("records_per_second", -1);
  report.points_per_second = root.get_number("points_per_second", -1);
  if (report.total_seconds < 0 || report.records_per_second < 0 ||
      report.points_per_second < 0) {
    return std::string("batch report throughput fields negative or missing");
  }

  auto breaker = breaker_from_json(root);
  if (!breaker.ok()) return "batch report " + breaker.error();
  report.breaker = breaker.value();

  const Json* evs = root.find("events");
  if (!evs || !evs->is_array()) {
    return std::string("batch report has no events array");
  }
  for (const Json& je : evs->items()) {
    auto e = outcome_from_json(je);
    if (!e.ok()) return e.error();
    report.events.push_back(std::move(e).take());
  }
  for (std::size_t i = 1; i < report.events.size(); ++i) {
    if (!(report.events[i - 1].event < report.events[i].event)) {
      return std::string("batch report events are not sorted unique by id");
    }
  }

  if (const Json* counts = root.find("counts")) {
    if (static_cast<int>(counts->get_number("events", -1)) !=
            static_cast<int>(report.events.size()) ||
        static_cast<int>(counts->get_number("ok", -1)) !=
            report.count_status("ok") ||
        static_cast<int>(counts->get_number("degraded", -1)) !=
            report.count_status("degraded") ||
        static_cast<int>(counts->get_number("quarantined", -1)) !=
            report.count_status("quarantined") ||
        static_cast<int>(counts->get_number("resumed", -1)) !=
            report.count_resumed()) {
      return std::string("batch report counts disagree with events array");
    }
  } else {
    return std::string("batch report has no counts block");
  }
  return report;
}

BatchRunner::BatchRunner(FileSystem& fs, BatchConfig config)
    : fs_(fs), cfg_(std::move(config)) {}

Result<std::vector<EventJob>, IoError> BatchRunner::discover(
    const stdfs::path& input_root) {
  auto tree = retry_io<std::vector<stdfs::path>>(
      cfg_.runner, [&] { return fs_.list_tree(input_root); });
  if (!tree.ok()) return std::move(tree).take_error();

  // Group the records by their holding directory: every directory with
  // at least one *.v1 file anywhere under the root is one event. Nested
  // roots flatten to a path-derived id so the journal stays one flat
  // file per event.
  std::map<std::string, EventJob> events;
  for (const stdfs::path& p : tree.value()) {
    if (p.extension() != formats::kV1Extension) continue;
    const stdfs::path dir = p.parent_path();
    std::string id = dir.lexically_relative(input_root).generic_string();
    if (id.empty() || id == ".") id = "root";
    std::replace(id.begin(), id.end(), '/', '_');
    EventJob& job = events[id];
    job.event = id;
    job.input_dir = dir;
    // Summed record bytes: the largest/smallest-first key, and a cheap
    // straggler predictor.
    job.priority_bytes += fs_.file_size(p);
  }

  std::vector<EventJob> out;
  out.reserve(events.size());
  for (auto& [id, job] : events) out.push_back(std::move(job));
  return out;
}

bool BatchRunner::try_resume(const EventJob& job, EventOutcome& out) {
  const stdfs::path entry = journal_dir_ / (job.event + ".json");
  if (!fs_.exists(entry)) return false;
  auto text = fs_.read_file(entry);
  if (!text.ok()) return false;
  auto parsed = Json::parse(text.value());
  if (!parsed.ok()) return false;
  auto outcome = outcome_from_json(parsed.value());
  if (!outcome.ok()) return false;
  // The journal says the event completed — trust it only if the work
  // dir still audits clean (report present, outputs intact, no partial
  // writes). Anything less and the event is reprocessed from scratch.
  if (!validate_workdir(fs_, job.work_dir).clean()) return false;
  out = std::move(outcome).take();
  out.resumed = true;
  return true;
}

EventOutcome BatchRunner::run_one(const EventJob& job) {
  EventOutcome out = run_event_job(fs_, cfg_.runner, job);
  // A run-level failure is deliberately left unjournaled, so the next
  // resume retries it.
  if (!out.error.empty()) return out;

  // Journal last: its (atomic) existence certifies the report landed.
  auto wrote = retry_io<Unit>(cfg_.runner, [&] {
    return atomic_write_file(fs_, journal_dir_ / (job.event + ".json"),
                             outcome_to_json(out).dump(2));
  });
  if (!wrote.ok()) {
    out.status = "quarantined";
    out.error = reason_slug(wrote.error());
  }
  return out;
}

Result<BatchReport, IoError> BatchRunner::run(const stdfs::path& input_root,
                                              const stdfs::path& work_root) {
  const double run_started = steady_now_seconds();
  journal_dir_ = work_root / "journal";
  auto made =
      create_dirs(fs_, cfg_.runner, {work_root / "events", journal_dir_});
  if (!made.ok()) return std::move(made).take_error();

  auto discovered = discover(input_root);
  if (!discovered.ok()) return std::move(discovered).take_error();
  std::vector<EventJob> jobs = std::move(discovered).take();

  const storage::BreakerWindow breaker(cfg_.runner.breaker);
  std::mutex mu;
  std::vector<EventOutcome> outcomes;
  const int workers =
      std::min(cfg_.event_workers, static_cast<int>(jobs.size()));
  EventEngine engine(cfg_, work_root, workers, [&](const EventJob& job) {
    EventOutcome out;
    if (!cfg_.resume || !try_resume(job, out)) out = run_one(job);
    std::lock_guard<std::mutex> lock(mu);
    outcomes.push_back(std::move(out));
  });
  // The engine only closes in drain(), so every admit is accepted.
  for (EventJob& job : jobs) engine.admit(std::move(job));
  engine.drain();

  BatchReport report;
  report.input_root = input_root.string();
  report.work_root = work_root.string();
  report.driver = to_string(cfg_.runner.driver);
  report.threads =
      is_parallel(cfg_.runner.driver) ? resolve_threads(cfg_.runner.threads)
                                      : 1;
  report.event_workers = engine.workers();
  report.priority = to_string(cfg_.priority);
  report.events = std::move(outcomes);
  std::sort(report.events.begin(), report.events.end(),
            [](const EventOutcome& a, const EventOutcome& b) {
              return a.event < b.event;
            });

  report.total_seconds = steady_now_seconds() - run_started;
  // Sustained throughput counts only the events this run actually
  // processed; resumed events were free and would flatter the rate.
  long long fresh_records = 0, fresh_points = 0;
  for (const EventOutcome& e : report.events) {
    if (e.resumed) continue;
    fresh_records += e.records_ok;
    fresh_points += e.points;
  }
  if (report.total_seconds > 0) {
    report.records_per_second =
        static_cast<double>(fresh_records) / report.total_seconds;
    report.points_per_second =
        static_cast<double>(fresh_points) / report.total_seconds;
  }
  report.breaker = breaker.delta();

  auto wrote = retry_io<Unit>(cfg_.runner, [&] {
    return atomic_write_file(fs_, work_root / kBatchReportFileName,
                             report.dump());
  });
  if (!wrote.ok()) return std::move(wrote).take_error();
  return report;
}

}  // namespace acx::pipeline
