#include "sched/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace acx::sched {

const DriverModel* SchedModel::driver(const std::string& name) const {
  for (const DriverModel& d : drivers) {
    if (d.driver == name) return &d;
  }
  return nullptr;
}

namespace {

DriverModel model_driver(const std::string& name, TaskGraph graph, int procs,
                         std::uint64_t seed) {
  DriverModel d;
  d.driver = name;
  d.work = graph.work();
  d.span = graph.span();
  d.schedule = list_schedule(graph, procs, seed);
  d.makespan = d.schedule.makespan;
  d.brent_lower = std::max(d.work / procs, d.span);
  d.brent_upper = d.work / procs + d.span;
  d.graph = std::move(graph);
  return d;
}

}  // namespace

Result<SchedModel, std::string> analyze(
    const CostModel& model, const std::vector<pipeline::StageShape>& shape,
    const AnalysisOptions& options) {
  if (options.procs < 1) {
    return std::string("analyze: procs must be >= 1");
  }
  if (model.records.empty()) {
    return std::string("analyze: cost model has no records");
  }
  std::set<std::string> known;
  for (const pipeline::StageShape& s : shape) known.insert(s.name);
  for (const RecordCosts& r : model.records) {
    for (const auto& [stage, seconds] : r.stage_seconds) {
      if (!known.count(stage)) {
        return "analyze: cost model stage '" + stage +
               "' is not in the stage graph shape";
      }
    }
  }

  SchedModel out;
  out.procs = options.procs;
  out.seed = options.seed;
  out.response_split =
      options.response_split > 0 ? options.response_split : options.procs;
  out.model = model;

  std::vector<pipeline::StageShape> pruned;
  for (const pipeline::StageShape& s : shape) {
    if (!s.redundant) pruned.push_back(s);
  }
  GraphOptions graph_opt;
  graph_opt.split_stage = options.split_stage;
  graph_opt.split = out.response_split;

  // Sequential Original needs the redundant stages' costs; a model
  // built from a seq-opt report never measured them, so the seq row is
  // omitted and speedups anchor on Sequential Optimized instead.
  bool have_redundant = true;
  for (const pipeline::StageShape& s : shape) {
    if (s.redundant && !model.has_stage(s.name)) have_redundant = false;
  }
  if (have_redundant) {
    out.drivers.push_back(model_driver(
        "seq", serial_graph(model, shape), options.procs, options.seed));
  }
  out.drivers.push_back(model_driver(
      "seq-opt", serial_graph(model, pruned), options.procs, options.seed));
  out.drivers.push_back(model_driver(
      "partial", barrier_graph(model, pruned), options.procs, options.seed));
  out.drivers.push_back(
      model_driver("full", record_graph(model, pruned, graph_opt),
                   options.procs, options.seed));

  out.anchor = have_redundant ? "seq" : "seq-opt";
  const double anchor_makespan = out.driver(out.anchor)->makespan;
  for (DriverModel& d : out.drivers) {
    d.speedup = d.makespan > 0 ? anchor_makespan / d.makespan : 0;
  }

  for (const pipeline::StageShape& s : shape) {
    if (!model.has_stage(s.name)) continue;
    StageModel sm;
    sm.stage = s.name;
    sm.redundant = s.redundant;
    sm.station_scoped = s.station_scoped;
    sm.seq_seconds = model.stage_work(s.name);
    TaskGraph isolated = stage_graph(model, s.name, graph_opt);
    sm.tasks = static_cast<int>(isolated.tasks.size());
    const Schedule sched =
        list_schedule(isolated, options.procs, options.seed);
    sm.modeled_seconds = sched.makespan;
    sm.speedup =
        sm.modeled_seconds > 0 ? sm.seq_seconds / sm.modeled_seconds : 0;
    out.stages.push_back(std::move(sm));
  }
  const double anchor_work = out.driver(out.anchor)->work;
  double paper_work = anchor_work;
  for (const StageModel& sm : out.stages) {
    if (sm.station_scoped) paper_work -= sm.seq_seconds;
  }
  for (StageModel& sm : out.stages) {
    if (sm.station_scoped) {
      sm.station_share = anchor_work > 0 ? sm.seq_seconds / anchor_work : 0;
    } else {
      sm.share = paper_work > 0 ? sm.seq_seconds / paper_work : 0;
    }
  }

  for (const int procs : options.sweep) {
    if (procs < 1) return std::string("analyze: sweep procs must be >= 1");
    SweepPoint point;
    point.procs = procs;
    point.makespan =
        list_schedule(record_graph(model, pruned, graph_opt), procs,
                      options.seed)
            .makespan;
    point.speedup =
        point.makespan > 0 ? anchor_makespan / point.makespan : 0;
    out.sweep.push_back(point);
  }
  return out;
}

Json SchedModel::to_json() const {
  Json root = Json::object();
  root.set("version", 2);
  root.set("tool", "acx_sched");
  root.set("procs", procs);
  root.set("seed", static_cast<double>(seed));
  root.set("response_split", response_split);
  root.set("anchor", anchor);
  root.set("source", model.source);
  root.set("records", static_cast<int>(model.records.size()));
  root.set("points", static_cast<double>(model.total_points()));

  Json excluded = Json::object();
  excluded.set("quarantined", model.excluded_quarantined);
  excluded.set("degraded", model.excluded_degraded);
  root.set("excluded", std::move(excluded));
  Json flagged = Json::object();
  flagged.set("degraded", model.flagged_degraded);
  flagged.set("retried", model.flagged_retried);
  flagged.set("floored_costs", model.floored_costs);
  root.set("flagged", std::move(flagged));

  Json measured = Json::array();
  for (const MeasuredRun& m : model.measured) {
    Json jm = Json::object();
    jm.set("driver", m.driver);
    jm.set("threads", m.threads);
    jm.set("total_seconds", m.total_seconds);
    measured.push(std::move(jm));
  }
  root.set("measured", std::move(measured));

  Json jdrivers = Json::array();
  for (const DriverModel& d : drivers) {
    Json jd = Json::object();
    jd.set("driver", d.driver);
    jd.set("work", d.work);
    jd.set("span", d.span);
    jd.set("makespan", d.makespan);
    jd.set("brent_lower", d.brent_lower);
    jd.set("brent_upper", d.brent_upper);
    jd.set("speedup", d.speedup);
    jdrivers.push(std::move(jd));
  }
  root.set("drivers", std::move(jdrivers));

  Json jstages = Json::array();
  for (const StageModel& s : stages) {
    Json js = Json::object();
    js.set("stage", s.stage);
    js.set("redundant", s.redundant);
    js.set("station_scoped", s.station_scoped);
    js.set("tasks", s.tasks);
    js.set("seq_seconds", s.seq_seconds);
    js.set("share", s.share);
    js.set("station_share", s.station_share);
    js.set("modeled_seconds", s.modeled_seconds);
    js.set("speedup", s.speedup);
    jstages.push(std::move(js));
  }
  root.set("stages", std::move(jstages));

  Json jsweep = Json::array();
  for (const SweepPoint& p : sweep) {
    Json jp = Json::object();
    jp.set("procs", p.procs);
    jp.set("makespan", p.makespan);
    jp.set("speedup", p.speedup);
    jsweep.push(std::move(jp));
  }
  root.set("sweep", std::move(jsweep));
  return root;
}

}  // namespace acx::sched
