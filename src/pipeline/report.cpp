#include "pipeline/report.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string_view>

#include "formats/component_set.hpp"
#include "pipeline/config.hpp"
#include "pipeline/reasons.hpp"

namespace acx::pipeline {

std::map<std::string, double> RecordOutcome::ok_stage_seconds() const {
  std::map<std::string, double> out;
  for (const StageAttempt& s : stages) {
    if (s.ok) out[s.stage] += s.seconds;
  }
  return out;
}

int RunReport::count_ok() const {
  int n = 0;
  for (const auto& r : records) {
    if (r.status == RecordOutcome::Status::kOk) ++n;
  }
  return n;
}

int RunReport::count_degraded() const {
  int n = 0;
  for (const auto& r : records) {
    if (r.status == RecordOutcome::Status::kOk && r.degraded) ++n;
  }
  return n;
}

int RunReport::count_quarantined() const {
  return static_cast<int>(records.size()) - count_ok();
}

long long RunReport::total_points() const {
  long long n = 0;
  for (const auto& r : records) n += r.points;
  return n;
}

const char* RunReport::status() const {
  if (!records.empty() && count_ok() == 0) return "quarantined";
  return count_degraded() > 0 ? "degraded" : "ok";
}

namespace {

// Strip the retry wrapper so reason comparisons see the family slug.
std::string_view unwrap_exhausted(std::string_view reason) {
  constexpr std::string_view kExhausted = "transient_exhausted.";
  if (reason.substr(0, kExhausted.size()) == kExhausted) {
    reason.remove_prefix(kExhausted.size());
  }
  return reason;
}

}  // namespace

int RunReport::deadline_soft_sheds() const {
  int n = 0;
  for (const auto& r : records) {
    for (const auto& s : r.shed) {
      if (unwrap_exhausted(s.reason) == "batch.deadline_soft") ++n;
    }
  }
  return n;
}

int RunReport::deadline_hard_stops() const {
  int n = 0;
  for (const auto& r : records) {
    if (r.status == RecordOutcome::Status::kQuarantined &&
        unwrap_exhausted(r.reason) == "batch.deadline_hard") {
      ++n;
    }
  }
  return n;
}

int RunReport::count_retries() const {
  int n = 0;
  for (const auto& r : records) n += r.retries;
  for (const auto& st : stations) n += st.retries;
  return n;
}

std::map<std::string, double> RunReport::stage_totals() const {
  std::map<std::string, double> totals;
  for (const auto& r : records) {
    for (const auto& s : r.stages) totals[s.stage] += s.seconds;
  }
  for (const auto& st : stations) {
    for (const auto& s : st.stages) totals[s.stage] += s.seconds;
  }
  return totals;
}

std::map<std::string, double> RunReport::stage_shares() const {
  std::map<std::string, double> shares = stage_totals();
  double sum = 0;
  for (const auto& [stage, seconds] : shares) sum += seconds;
  if (sum <= 0) {
    for (auto& [stage, share] : shares) share = 0;
    return shares;
  }
  for (auto& [stage, share] : shares) share /= sum;
  return shares;
}

std::map<std::string, StageProfile> RunReport::stage_profile() const {
  std::map<std::string, StageProfile> profile;
  const auto fold = [&profile](const std::vector<StageAttempt>& stages) {
    for (const auto& s : stages) {
      StageProfile& p = profile[s.stage];
      p.cache_hits += s.cache_hits;
      p.cache_misses += s.cache_misses;
      p.setup_seconds += s.setup_seconds;
      p.kernel_seconds += s.kernel_seconds;
    }
  };
  for (const auto& r : records) fold(r.stages);
  for (const auto& st : stations) fold(st.stages);
  return profile;
}

void RunReport::sort_records() {
  std::sort(records.begin(), records.end(),
            [](const RecordOutcome& a, const RecordOutcome& b) {
              return a.record < b.record;
            });
  for (RecordOutcome& r : records) {
    std::sort(r.outputs.begin(), r.outputs.end());
    std::sort(r.shed.begin(), r.shed.end(),
              [](const ShedStage& a, const ShedStage& b) {
                return a.stage < b.stage;
              });
  }
  std::sort(stations.begin(), stations.end(),
            [](const StationOutcome& a, const StationOutcome& b) {
              return a.station < b.station;
            });
  for (StationOutcome& st : stations) {
    std::sort(st.components.begin(), st.components.end());
    std::sort(st.checks.begin(), st.checks.end());
  }
}

namespace {

// The keys canonical_dump() drops wherever they appear in to_json():
// where and how the run went (dirs, driver, team size), its timing,
// its budget and breaker deltas, and the per-stage attempt groups,
// whose retry counts and profiling split depend on the interleaving.
constexpr std::string_view kNonCanonicalKeys[] = {
    "version", "input_dir", "work_dir", "driver", "threads",
    "speedup_vs_sequential", "total_seconds", "deadline", "breaker",
    "stage_totals", "stage_shares", "stage_profile",
    "output", "retries", "seconds", "stages"};

// A path, or an array of paths, rebased onto `placeholder` when it
// lives under `dir`, so the canonical view compares across work dirs.
// Anything else (the counts block's numeric "input") passes through.
Json rebased(const Json& v, const std::string& dir, const char* placeholder) {
  if (v.is_array()) {
    Json out = Json::array();
    for (const Json& p : v.items()) out.push(rebased(p, dir, placeholder));
    return out;
  }
  if (!v.is_string() || dir.empty() || v.str().rfind(dir, 0) != 0) return v;
  return Json(placeholder + v.str().substr(dir.size()));
}

// to_json() minus kNonCanonicalKeys, with the four path-valued keys
// rebased: "input" onto <input>, the rest onto <work>.
Json canonical(const Json& v, const RunReport& r) {
  if (v.is_array()) {
    Json out = Json::array();
    for (const Json& item : v.items()) out.push(canonical(item, r));
    return out;
  }
  if (!v.is_object()) return v;
  Json out = Json::object();
  for (const auto& [key, value] : v.fields()) {
    if (std::find(std::begin(kNonCanonicalKeys), std::end(kNonCanonicalKeys),
                  key) != std::end(kNonCanonicalKeys)) {
      continue;
    }
    if (key == "input") {
      out.set(key, rebased(value, r.input_dir, "<input>"));
    } else if (key == "outputs" || key == "quarantine" ||
               key == "rotd_output") {
      out.set(key, rebased(value, r.work_dir, "<work>"));
    } else {
      out.set(key, canonical(value, r));
    }
  }
  return out;
}

// One stages[] attempt-group array, shared by records and stations.
Json stage_attempts_to_json(const std::vector<StageAttempt>& stages) {
  Json out = Json::array();
  for (const StageAttempt& s : stages) {
    Json js = Json::object();
    js.set("stage", s.stage);
    js.set("attempts", s.attempts);
    js.set("ok", s.ok);
    if (!s.error.empty()) js.set("error", s.error);
    js.set("seconds", s.seconds);
    js.set("cache_hits", static_cast<double>(s.cache_hits));
    js.set("cache_misses", static_cast<double>(s.cache_misses));
    js.set("setup_seconds", s.setup_seconds);
    js.set("kernel_seconds", s.kernel_seconds);
    out.push(std::move(js));
  }
  return out;
}

}  // namespace

std::string RunReport::canonical_dump() const {
  RunReport sorted = *this;
  sorted.sort_records();
  return canonical(sorted.to_json(), sorted).dump(2);
}

Json RunReport::to_json() const {
  Json root = Json::object();
  root.set("version", kVersion);
  root.set("input_dir", input_dir);
  root.set("work_dir", work_dir);
  root.set("driver", driver);
  root.set("threads", threads);
  root.set("status", status());
  if (speedup_vs_sequential > 0) {
    root.set("speedup_vs_sequential", speedup_vs_sequential);
  }
  root.set("total_seconds", total_seconds);

  // v6 robustness blocks — always present, zeroed when the run had no
  // deadline budget / no breaker in the filesystem stack.
  Json deadline = Json::object();
  deadline.set("soft_seconds", deadline_soft_seconds);
  deadline.set("hard_seconds", deadline_hard_seconds);
  deadline.set("soft_sheds", deadline_soft_sheds());
  deadline.set("hard_stops", deadline_hard_stops());
  root.set("deadline", std::move(deadline));

  root.set("breaker", breaker_to_json(breaker));

  Json totals = Json::object();
  for (const auto& [stage, seconds] : stage_totals()) {
    totals.set(stage, seconds);
  }
  root.set("stage_totals", std::move(totals));

  Json shares = Json::object();
  for (const auto& [stage, share] : stage_shares()) {
    shares.set(stage, share);
  }
  root.set("stage_shares", std::move(shares));

  Json profile = Json::object();
  for (const auto& [stage, p] : stage_profile()) {
    Json jp = Json::object();
    jp.set("cache_hits", static_cast<double>(p.cache_hits));
    jp.set("cache_misses", static_cast<double>(p.cache_misses));
    jp.set("setup_seconds", p.setup_seconds);
    jp.set("kernel_seconds", p.kernel_seconds);
    profile.set(stage, std::move(jp));
  }
  root.set("stage_profile", std::move(profile));

  Json counts = Json::object();
  counts.set("input", static_cast<int>(records.size()));
  counts.set("ok", count_ok());
  counts.set("degraded", count_degraded());
  counts.set("quarantined", count_quarantined());
  counts.set("retries", count_retries());
  counts.set("stations", static_cast<int>(stations.size()));
  root.set("counts", std::move(counts));

  Json recs = Json::array();
  for (const auto& r : records) {
    Json jr = Json::object();
    jr.set("record", r.record);
    jr.set("input", r.input);
    jr.set("status", r.status_string());
    if (r.status == RecordOutcome::Status::kOk) {
      jr.set("output", r.output);
      jr.set("points", static_cast<double>(r.points));
      Json outs = Json::array();
      for (const std::string& o : r.outputs) outs.push(Json(o));
      jr.set("outputs", std::move(outs));
      if (!r.shed.empty()) {
        Json shed = Json::array();
        for (const ShedStage& s : r.shed) {
          Json js = Json::object();
          js.set("stage", s.stage);
          js.set("reason", s.reason);
          shed.push(std::move(js));
        }
        jr.set("shed", std::move(shed));
      }
    } else {
      jr.set("reason", r.reason);
      jr.set("quarantine", r.quarantine);
    }
    jr.set("retries", r.retries);
    jr.set("seconds", r.seconds);
    jr.set("stages", stage_attempts_to_json(r.stages));
    recs.push(std::move(jr));
  }
  root.set("records", std::move(recs));

  // v7 stations block: component rollups plus the station-phase rotd
  // outcome with its own stage attempt groups.
  Json stats = Json::array();
  for (const auto& st : stations) {
    Json js = Json::object();
    js.set("station", st.station);
    Json comps = Json::array();
    for (const std::string& c : st.components) comps.push(Json(c));
    js.set("components", std::move(comps));
    js.set("ok", st.ok);
    js.set("quarantined", st.quarantined);
    if (!st.checks.empty()) {
      Json checks = Json::array();
      for (const std::string& c : st.checks) checks.push(Json(c));
      js.set("checks", std::move(checks));
    }
    js.set("rotd_status", st.rotd_status);
    if (!st.rotd_reason.empty()) js.set("rotd_reason", st.rotd_reason);
    if (!st.rotd_output.empty()) js.set("rotd_output", st.rotd_output);
    js.set("retries", st.retries);
    js.set("seconds", st.seconds);
    js.set("stages", stage_attempts_to_json(st.stages));
    stats.push(std::move(js));
  }
  root.set("stations", std::move(stats));
  return root;
}

namespace {

// One stages[] attempt-group array, shared by the record and station
// parsers. Returns an error message, empty on success; a missing or
// non-array stages field parses as no attempts (old reports).
std::string parse_stage_attempts(const Json& jr, const std::string& owner,
                                 std::vector<StageAttempt>& out) {
  const Json* stages = jr.find("stages");
  if (!stages || !stages->is_array()) return std::string();
  for (const Json& js : stages->items()) {
    StageAttempt s;
    s.stage = js.get_string("stage");
    s.attempts = static_cast<int>(js.get_number("attempts", 1));
    const Json* ok = js.find("ok");
    s.ok = ok && ok->is_bool() && ok->boolean();
    s.error = js.get_string("error");
    s.seconds = js.get_number("seconds", 0);
    if (s.seconds < 0) {
      return owner + " stage '" + s.stage + "' has negative seconds";
    }
    s.cache_hits = static_cast<long long>(js.get_number("cache_hits", 0));
    s.cache_misses = static_cast<long long>(js.get_number("cache_misses", 0));
    s.setup_seconds = js.get_number("setup_seconds", 0);
    s.kernel_seconds = js.get_number("kernel_seconds", 0);
    if (s.cache_hits < 0 || s.cache_misses < 0 || s.setup_seconds < 0 ||
        s.kernel_seconds < 0) {
      return owner + " stage '" + s.stage + "' has a negative profiling field";
    }
    out.push_back(std::move(s));
  }
  return std::string();
}

}  // namespace

Result<RunReport, std::string> RunReport::from_json_text(
    const std::string& text) {
  auto parsed = Json::parse(text);
  if (!parsed.ok()) {
    const auto& e = parsed.error();
    return "run_report.json is not valid JSON at byte " +
           std::to_string(e.offset) + ": " + e.detail;
  }
  const Json root = std::move(parsed).take();
  if (!root.is_object()) return std::string("run report root is not an object");
  if (root.get_number("version", -1) != kVersion) {
    return std::string("unsupported run report version");
  }

  RunReport report;
  report.input_dir = root.get_string("input_dir");
  report.work_dir = root.get_string("work_dir");
  report.driver = root.get_string("driver");
  if (!parse_driver(report.driver)) {
    return "run report driver '" + report.driver + "' is not a known driver";
  }
  report.threads = static_cast<int>(root.get_number("threads", 0));
  if (report.threads < 1) {
    return std::string("run report threads must be >= 1");
  }
  if (const Json* speedup = root.find("speedup_vs_sequential")) {
    if (!speedup->is_number() || !std::isfinite(speedup->number()) ||
        speedup->number() <= 0) {
      return std::string(
          "run report speedup_vs_sequential is not a positive number");
    }
    report.speedup_vs_sequential = speedup->number();
  }
  report.total_seconds = root.get_number("total_seconds", 0);
  if (report.total_seconds < 0) {
    return std::string("run report total_seconds is negative");
  }

  const Json* recs = root.find("records");
  if (!recs || !recs->is_array()) {
    return std::string("run report has no records array");
  }
  for (const Json& jr : recs->items()) {
    if (!jr.is_object()) return std::string("record entry is not an object");
    RecordOutcome r;
    r.record = jr.get_string("record");
    r.input = jr.get_string("input");
    const std::string status = jr.get_string("status");
    if (status == "ok") {
      r.status = RecordOutcome::Status::kOk;
    } else if (status == "degraded") {
      r.status = RecordOutcome::Status::kOk;
      r.degraded = true;
    } else if (status == "quarantined") {
      r.status = RecordOutcome::Status::kQuarantined;
    } else {
      return "record '" + r.record + "' has bad status '" + status + "'";
    }
    r.output = jr.get_string("output");
    r.points = static_cast<long long>(jr.get_number("points", 0));
    if (r.points < 0) {
      return "record '" + r.record + "' has negative points";
    }
    if (const Json* shed = jr.find("shed")) {
      if (!shed->is_array()) {
        return "record '" + r.record + "' shed is not an array";
      }
      for (const Json& js : shed->items()) {
        if (!js.is_object()) {
          return "record '" + r.record + "' shed entry is not an object";
        }
        ShedStage s;
        s.stage = js.get_string("stage");
        s.reason = js.get_string("reason");
        if (s.stage.empty() || s.reason.empty()) {
          return "record '" + r.record + "' shed entry missing stage or reason";
        }
        r.shed.push_back(std::move(s));
      }
    }
    // A degraded record is one that shed stages; the flag and the shed
    // array must agree (quarantined records carry neither).
    if (r.status == RecordOutcome::Status::kOk && r.degraded == r.shed.empty()) {
      return "record '" + r.record + "' degraded flag disagrees with shed list";
    }
    if (r.status == RecordOutcome::Status::kQuarantined &&
        (r.degraded || !r.shed.empty())) {
      return "quarantined record '" + r.record + "' carries shed stages";
    }
    if (const Json* outs = jr.find("outputs")) {
      if (!outs->is_array()) {
        return "record '" + r.record + "' outputs is not an array";
      }
      for (const Json& jo : outs->items()) {
        if (!jo.is_string()) {
          return "record '" + r.record + "' outputs entry is not a string";
        }
        r.outputs.push_back(jo.str());
      }
    }
    r.reason = jr.get_string("reason");
    r.quarantine = jr.get_string("quarantine");
    r.retries = static_cast<int>(jr.get_number("retries", 0));
    r.seconds = jr.get_number("seconds", 0);
    if (std::string err =
            parse_stage_attempts(jr, "record '" + r.record + "'", r.stages);
        !err.empty()) {
      return err;
    }
    if (r.record.empty()) return std::string("record entry missing id");
    report.records.push_back(std::move(r));
  }

  // v7 stations array: parse, then cross-check against the grouping the
  // record ids derive.
  const Json* stats = root.find("stations");
  if (!stats || !stats->is_array()) {
    return std::string("run report has no stations array");
  }
  for (const Json& js : stats->items()) {
    if (!js.is_object()) return std::string("station entry is not an object");
    StationOutcome st;
    st.station = js.get_string("station");
    if (st.station.empty()) return std::string("station entry missing name");
    const Json* comps = js.find("components");
    if (!comps || !comps->is_array()) {
      return "station '" + st.station + "' has no components array";
    }
    for (const Json& jc : comps->items()) {
      if (!jc.is_string()) {
        return "station '" + st.station + "' components entry is not a string";
      }
      st.components.push_back(jc.str());
    }
    st.ok = static_cast<int>(js.get_number("ok", -1));
    st.quarantined = static_cast<int>(js.get_number("quarantined", -1));
    if (st.ok < 0 || st.quarantined < 0) {
      return "station '" + st.station + "' counters are negative or missing";
    }
    if (const Json* checks = js.find("checks")) {
      if (!checks->is_array()) {
        return "station '" + st.station + "' checks is not an array";
      }
      for (const Json& jc : checks->items()) {
        if (!jc.is_string() || jc.str().rfind("station.", 0) != 0 ||
            !is_registered_reason(jc.str())) {
          return "station '" + st.station + "' carries an unregistered check";
        }
        st.checks.push_back(jc.str());
      }
    }
    st.rotd_status = js.get_string("rotd_status");
    st.rotd_reason = js.get_string("rotd_reason");
    st.rotd_output = js.get_string("rotd_output");
    if (st.rotd_status == "ok") {
      if (st.rotd_output.empty() || !st.rotd_reason.empty()) {
        return "station '" + st.station + "' rotd ok entry is inconsistent";
      }
    } else if (st.rotd_status == "skipped" || st.rotd_status == "failed") {
      if (st.rotd_reason.empty() || !is_registered_reason(st.rotd_reason) ||
          !st.rotd_output.empty()) {
        return "station '" + st.station + "' rotd " + st.rotd_status +
               " entry is inconsistent";
      }
    } else {
      return "station '" + st.station + "' has bad rotd_status '" +
             st.rotd_status + "'";
    }
    st.retries = static_cast<int>(js.get_number("retries", 0));
    st.seconds = js.get_number("seconds", 0);
    if (st.retries < 0 || st.seconds < 0) {
      return "station '" + st.station + "' has negative retries or seconds";
    }
    if (std::string err = parse_stage_attempts(
            js, "station '" + st.station + "'", st.stages);
        !err.empty()) {
      return err;
    }
    report.stations.push_back(std::move(st));
  }

  // The stations array must be exactly the grouping the record ids
  // derive (formats::split_record_id), with matching member rollups.
  {
    struct ExpectedStation {
      std::vector<std::string> components;
      int ok = 0;
      int quarantined = 0;
    };
    std::map<std::string, ExpectedStation> expected;
    for (const RecordOutcome& r : report.records) {
      const auto [name, comp] = formats::split_record_id(r.record);
      ExpectedStation& e = expected[name];
      e.components.push_back(comp);
      if (r.status == RecordOutcome::Status::kOk) {
        ++e.ok;
      } else {
        ++e.quarantined;
      }
    }
    if (report.stations.size() != expected.size()) {
      return std::string("stations array disagrees with the record grouping");
    }
    std::set<std::string> seen_station;
    for (const StationOutcome& st : report.stations) {
      if (!seen_station.insert(st.station).second) {
        return "duplicate station '" + st.station + "'";
      }
      auto it = expected.find(st.station);
      if (it == expected.end()) {
        return "station '" + st.station + "' matches no record id prefix";
      }
      ExpectedStation e = it->second;
      std::sort(e.components.begin(), e.components.end());
      std::vector<std::string> got = st.components;
      std::sort(got.begin(), got.end());
      if (got != e.components || st.ok != e.ok ||
          st.quarantined != e.quarantined) {
        return "station '" + st.station +
               "' rollup disagrees with the records array";
      }
      // A published .rotd needs both horizontal members to have
      // published — anything else is a doctored report.
      if (st.rotd_status == "ok") {
        bool l_ok = false;
        bool t_ok = false;
        for (const RecordOutcome& r : report.records) {
          if (r.status != RecordOutcome::Status::kOk) continue;
          const auto [name, comp] = formats::split_record_id(r.record);
          if (name != st.station) continue;
          if (comp == "l") l_ok = true;
          if (comp == "t") t_ok = true;
        }
        if (!l_ok || !t_ok) {
          return "station '" + st.station +
                 "' reports rotd ok without both horizontals";
        }
      }
    }
  }

  // Cross-check the counts block against the records array.
  if (const Json* counts = root.find("counts")) {
    if (static_cast<int>(counts->get_number("input", -1)) !=
            static_cast<int>(report.records.size()) ||
        static_cast<int>(counts->get_number("ok", -1)) != report.count_ok() ||
        static_cast<int>(counts->get_number("degraded", -1)) !=
            report.count_degraded() ||
        static_cast<int>(counts->get_number("quarantined", -1)) !=
            report.count_quarantined() ||
        static_cast<int>(counts->get_number("stations", -1)) !=
            static_cast<int>(report.stations.size())) {
      return std::string("run report counts disagree with records array");
    }
  } else {
    return std::string("run report has no counts block");
  }

  // The event-level status must be the one the records derive.
  if (root.get_string("status") != report.status()) {
    return std::string("run report status disagrees with records array");
  }

  // v6 deadline block: budget plus derived soft-shed/hard-stop counters.
  const Json* deadline = root.find("deadline");
  if (!deadline || !deadline->is_object()) {
    return std::string("run report has no deadline block");
  }
  report.deadline_soft_seconds = deadline->get_number("soft_seconds", -1);
  report.deadline_hard_seconds = deadline->get_number("hard_seconds", -1);
  if (report.deadline_soft_seconds < 0 || report.deadline_hard_seconds < 0) {
    return std::string("run report deadline budget is negative or missing");
  }
  if (static_cast<int>(deadline->get_number("soft_sheds", -1)) !=
          report.deadline_soft_sheds() ||
      static_cast<int>(deadline->get_number("hard_stops", -1)) !=
          report.deadline_hard_stops()) {
    return std::string(
        "run report deadline counters disagree with records array");
  }

  // v6 breaker block: non-negative counter deltas.
  auto breaker = breaker_from_json(root);
  if (!breaker.ok()) return "run report " + breaker.error();
  report.breaker = breaker.value();

  // The stage_totals block must agree with the per-stage seconds in the
  // records array (within float-formatting slack).
  const Json* totals = root.find("stage_totals");
  if (!totals || !totals->is_object()) {
    return std::string("run report has no stage_totals block");
  }
  const auto computed = report.stage_totals();
  for (const auto& [stage, seconds] : computed) {
    const Json* entry = totals->find(stage);
    if (!entry || !entry->is_number() ||
        std::fabs(entry->number() - seconds) > 1e-6 + 1e-6 * seconds) {
      return "stage_totals entry for '" + stage +
             "' disagrees with the records array";
    }
  }
  if (totals->fields().size() != computed.size()) {
    return std::string("stage_totals names a stage the records array lacks");
  }

  // Same for the derived stage_shares block.
  const Json* shares = root.find("stage_shares");
  if (!shares || !shares->is_object()) {
    return std::string("run report has no stage_shares block");
  }
  const auto computed_shares = report.stage_shares();
  for (const auto& [stage, share] : computed_shares) {
    const Json* entry = shares->find(stage);
    if (!entry || !entry->is_number() ||
        std::fabs(entry->number() - share) > 1e-6) {
      return "stage_shares entry for '" + stage +
             "' disagrees with the records array";
    }
  }
  if (shares->fields().size() != computed_shares.size()) {
    return std::string("stage_shares names a stage the records array lacks");
  }

  // The derived stage_profile block must agree with the per-stage
  // profiling fields in the records array (counts exactly, seconds
  // within float-formatting slack).
  const Json* profile = root.find("stage_profile");
  if (!profile || !profile->is_object()) {
    return std::string("run report has no stage_profile block");
  }
  const auto computed_profile = report.stage_profile();
  for (const auto& [stage, p] : computed_profile) {
    const Json* entry = profile->find(stage);
    if (!entry || !entry->is_object()) {
      return "stage_profile entry for '" + stage + "' is missing";
    }
    const bool counts_match =
        static_cast<long long>(entry->get_number("cache_hits", -1)) ==
            p.cache_hits &&
        static_cast<long long>(entry->get_number("cache_misses", -1)) ==
            p.cache_misses;
    const bool seconds_match =
        std::fabs(entry->get_number("setup_seconds", -1) - p.setup_seconds) <=
            1e-6 + 1e-6 * p.setup_seconds &&
        std::fabs(entry->get_number("kernel_seconds", -1) - p.kernel_seconds) <=
            1e-6 + 1e-6 * p.kernel_seconds;
    if (!counts_match || !seconds_match) {
      return "stage_profile entry for '" + stage +
             "' disagrees with the records array";
    }
  }
  if (profile->fields().size() != computed_profile.size()) {
    return std::string("stage_profile names a stage the records array lacks");
  }

  // An ok record's outputs array, when present, must include the
  // primary output.
  for (const RecordOutcome& r : report.records) {
    if (r.status != RecordOutcome::Status::kOk || r.outputs.empty()) continue;
    bool found = false;
    for (const std::string& o : r.outputs) found = found || o == r.output;
    if (!found) {
      return "record '" + r.record + "' outputs array omits its output";
    }
  }
  return report;
}

Json breaker_to_json(const storage::BreakerCounters& c) {
  Json breaker = Json::object();
  breaker.set("rejected_ops", static_cast<double>(c.rejected_ops));
  breaker.set("opens", c.opens);
  breaker.set("half_open_recoveries", c.half_open_recoveries);
  return breaker;
}

Result<storage::BreakerCounters, std::string> breaker_from_json(
    const Json& root) {
  const Json* breaker = root.find("breaker");
  if (!breaker || !breaker->is_object()) {
    return std::string("has no breaker block");
  }
  storage::BreakerCounters c;
  c.rejected_ops =
      static_cast<long long>(breaker->get_number("rejected_ops", -1));
  c.opens = static_cast<int>(breaker->get_number("opens", -1));
  c.half_open_recoveries =
      static_cast<int>(breaker->get_number("half_open_recoveries", -1));
  if (c.rejected_ops < 0 || c.opens < 0 || c.half_open_recoveries < 0) {
    return std::string("breaker counters are negative or missing");
  }
  return c;
}

}  // namespace acx::pipeline
