#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/graph.hpp"
#include "sched/cost_model.hpp"
#include "sched/simulator.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace acx::sched {

struct AnalysisOptions {
  // Virtual processor count; default 12, the logical processors of the
  // paper's i5-12450H.
  int procs = 12;
  // Tie-break seed of the list scheduler (docs/SCHED.md); the default
  // is fixed so unseeded runs are byte-stable.
  std::uint64_t seed = 12450;
  // Chunk count of the full driver's nested Stage-IX split; 0 = procs.
  int response_split = 0;
  std::string split_stage = "response";
  // Extra processor counts to sweep the full driver across.
  std::vector<int> sweep;
};

// One driver's modeled execution: the work/span of its task graph, the
// simulated makespan on P processors, the Brent bounds
// max(T1/P, Tinf) <= Tp <= T1/P + Tinf the makespan must respect, and
// the speedup against the modeled sequential anchor.
struct DriverModel {
  std::string driver;
  double work = 0;
  double span = 0;
  double makespan = 0;
  double brent_lower = 0;
  double brent_upper = 0;
  double speedup = 0;
  TaskGraph graph;      // retained for Gantt rendering
  Schedule schedule;
};

// One stage modeled in isolation on P processors — the Fig. 11 rows.
// The paper's chain is record-scoped; a station-scoped stage (rotd) is
// a repo extension, so it carries its share in its own field and stays
// out of the paper-chain denominator.
struct StageModel {
  std::string stage;
  bool redundant = false;
  bool station_scoped = false;
  int tasks = 0;
  double seq_seconds = 0;  // summed cost across records
  double share = 0;  // record-scoped rows: of the anchor's paper-chain work
  double station_share = 0;  // station-scoped rows: of all anchor work
  double modeled_seconds = 0;
  double speedup = 0;  // seq_seconds / modeled_seconds
};

struct SweepPoint {
  int procs = 0;
  double makespan = 0;
  double speedup = 0;
};

// The whole modeled evaluation of one cost model. `anchor` names the
// driver the speedups divide by: "seq" when the model carries costs for
// every redundant stage, else "seq-opt".
struct SchedModel {
  int procs = 12;
  std::uint64_t seed = 12450;
  int response_split = 0;
  std::string anchor;
  CostModel model;
  std::vector<DriverModel> drivers;  // seq?, seq-opt, partial, full
  std::vector<StageModel> stages;    // full-plan order
  std::vector<SweepPoint> sweep;

  const DriverModel* driver(const std::string& name) const;
  // Deterministic sched_report JSON (schema documented in
  // docs/SCHED.md); same model in, identical bytes out.
  Json to_json() const;
};

// Model all four drivers (seq only when the redundant stages have
// costs) plus the per-stage isolation rows and the optional sweep.
// `shape` is the stage graph's shape() — pass a custom one in tests.
Result<SchedModel, std::string> analyze(
    const CostModel& model, const std::vector<pipeline::StageShape>& shape,
    const AnalysisOptions& options);

}  // namespace acx::sched
