// acx_sched — deterministic schedule simulator over measured costs.
//
//   acx_sched --report RUN_REPORT [--report RUN_REPORT ...]
//             [--procs P] [--sweep P1,P2,...] [--seed S] [--split N]
//             [--include-degraded] [--synth-costs]
//             [--gantt [DRIVER]] [--json FILE]
//
// Loads per-(record, stage) costs from one or more v6 run_report.json
// files (the first report is authoritative; later ones fill stages or
// records it lacks and contribute measured wall-clock anchors), builds
// the paper's four driver schedules over the standard stage graph, and
// replays them on P virtual processors (default 12, the logical
// processors of the paper's i5-12450H). Prints modeled makespans,
// speedups, work/span with Brent bounds, and per-stage Fig.-11 rows;
// --json writes the machine-readable sched report docs/SCHED.md
// documents, which scripts/paper_figures.py renders into the Table I /
// Fig. 11 / Fig. 13 CSVs. Everything is a pure function of the inputs
// and flags — no wall clock, seeded tie-breaks — so repeated runs are
// byte-identical.
//
// Exit codes: 0 ok; 1 unreadable or unusable input; 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cli.hpp"
#include "pipeline/graph.hpp"
#include "sched/analysis.hpp"
#include "sched/cost_model.hpp"
#include "sched/gantt.hpp"
#include "util/fs.hpp"

namespace {

bool parse_int_list(const std::string& text, std::vector<int>& out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    if (item.empty()) return false;
    char* end = nullptr;
    const long value = std::strtol(item.c_str(), &end, 10);
    if (*end != '\0' || value < 1) return false;
    out.push_back(static_cast<int>(value));
    pos = comma + 1;
  }
  return !out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> report_paths;
  std::string json_path;
  std::string gantt_driver;
  bool gantt = false;
  acx::sched::CostModelOptions model_opt;
  acx::sched::AnalysisOptions opt;
  bool synth_costs = false;

  namespace cli = acx::cli;
  const bool parsed = cli::parse_flags(
      argc, argv,
      {{"--report", "RUN_REPORT",
        [&](const char* v) {
          report_paths.push_back(v);
          return true;
        },
        true},
       {"--procs", "P", cli::integer(opt.procs, 1)},
       {"--sweep", "P1,P2,...",
        [&](const char* v) { return parse_int_list(v, opt.sweep); }},
       {"--seed", "S", cli::integer(opt.seed)},
       {"--split", "N", cli::integer(opt.response_split, 1)},
       {"--include-degraded", nullptr,
        cli::set(model_opt.include_degraded, true)},
       {"--synth-costs", nullptr, cli::set(synth_costs, true)},
       {"--gantt", "[DRIVER]",
        [&](const char* v) {
          gantt = true;
          gantt_driver = v ? v : "";
          return true;
        }},
       {"--json", "FILE", cli::text(json_path)}});
  if (!parsed) return 2;

  acx::RealFileSystem fs;
  acx::sched::CostModel model;
  bool have_model = false;
  for (const std::string& path : report_paths) {
    auto text = fs.read_file(path);
    if (!text.ok()) {
      std::fprintf(stderr, "acx_sched: cannot read %s: %s\n", path.c_str(),
                   text.error().to_string().c_str());
      return 1;
    }
    auto report = acx::pipeline::RunReport::from_json_text(text.value());
    if (!report.ok()) {
      std::fprintf(stderr, "acx_sched: bad report %s: %s\n", path.c_str(),
                   report.error().c_str());
      return 1;
    }
    auto extracted =
        synth_costs
            ? acx::sched::cost_model_from_profile(report.value(), model_opt)
            : acx::sched::cost_model_from_report(report.value(), model_opt);
    if (!extracted.ok()) {
      std::fprintf(stderr, "acx_sched: %s: %s\n", path.c_str(),
                   extracted.error().c_str());
      return 1;
    }
    if (!have_model) {
      model = std::move(extracted).take();
      have_model = true;
    } else {
      acx::sched::merge_cost_model(model, extracted.value());
    }
  }

  const auto shape = acx::pipeline::StageGraph::standard().shape();
  auto analyzed = acx::sched::analyze(model, shape, opt);
  if (!analyzed.ok()) {
    std::fprintf(stderr, "acx_sched: %s\n", analyzed.error().c_str());
    return 1;
  }
  const acx::sched::SchedModel& result = analyzed.value();

  std::printf(
      "acx_sched: %zu records (%lld points) from %s on %d virtual procs "
      "(seed %llu, split %d)\n",
      result.model.records.size(), result.model.total_points(),
      result.model.source.c_str(), result.procs,
      static_cast<unsigned long long>(result.seed), result.response_split);
  if (result.model.excluded_quarantined || result.model.excluded_degraded) {
    std::printf("  excluded: %d quarantined, %d degraded\n",
                result.model.excluded_quarantined,
                result.model.excluded_degraded);
  }
  if (result.model.flagged_degraded || result.model.flagged_retried ||
      result.model.floored_costs) {
    std::printf("  flagged: %d degraded, %d retried, %d floored costs\n",
                result.model.flagged_degraded, result.model.flagged_retried,
                result.model.floored_costs);
  }
  for (const auto& m : result.model.measured) {
    std::printf("  measured %-8s t=%-2d %.6fs\n", m.driver.c_str(),
                m.threads, m.total_seconds);
  }

  std::printf("\n%-8s %12s %12s %12s %12s %12s %8s\n", "driver", "work T1",
              "span Tinf", "makespan", "brent lo", "brent hi", "speedup");
  for (const auto& d : result.drivers) {
    std::printf("%-8s %11.6fs %11.6fs %11.6fs %11.6fs %11.6fs %7.2fx\n",
                d.driver.c_str(), d.work, d.span, d.makespan, d.brent_lower,
                d.brent_upper, d.speedup);
  }

  // `share` is of the paper chain's work; a station-scoped row shows
  // its share of all work under `station` instead.
  std::printf("\n%-14s %6s %12s %8s %8s %12s %9s\n", "stage", "tasks",
              "seq cost", "share", "station", "modeled", "speedup");
  for (const auto& s : result.stages) {
    char share[16], station[16];
    std::snprintf(share, sizeof share, "%.2f%%", 100.0 * s.share);
    std::snprintf(station, sizeof station, "%.2f%%", 100.0 * s.station_share);
    std::printf("%-14s %6d %11.6fs %8s %8s %11.6fs %8.2fx%s\n",
                s.stage.c_str(), s.tasks, s.seq_seconds,
                s.station_scoped ? "-" : share, s.station_scoped ? station : "-",
                s.modeled_seconds, s.speedup,
                s.redundant ? "  (redundant)" : "");
  }

  if (!result.sweep.empty()) {
    std::printf("\n%-8s %12s %8s\n", "procs", "makespan", "speedup");
    for (const auto& p : result.sweep) {
      std::printf("%-8d %11.6fs %7.2fx\n", p.procs, p.makespan, p.speedup);
    }
  }

  if (gantt) {
    for (const auto& d : result.drivers) {
      if (!gantt_driver.empty() && d.driver != gantt_driver) continue;
      std::printf("\n[%s]\n%s", d.driver.c_str(),
                  acx::sched::render_gantt(d.graph, d.schedule).c_str());
    }
  }

  if (!json_path.empty()) {
    const std::string text = result.to_json().dump(2);
    auto wrote = acx::atomic_write_file(fs, json_path, text);
    if (!wrote.ok()) {
      std::fprintf(stderr, "acx_sched: cannot write %s: %s\n",
                   json_path.c_str(), wrote.error().to_string().c_str());
      return 1;
    }
  }
  return 0;
}
