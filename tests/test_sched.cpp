// src/sched unit coverage: cost extraction from real v6 run reports
// (quarantined/degraded filtering, retry exclusion, flooring, merging),
// the four task-graph builders, and the list scheduler's determinism
// and Brent-bound discipline. The worked-example numbers live in
// tests/test_sched_contract.cpp; this file covers the machinery.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "pipeline/graph.hpp"
#include "pipeline/report.hpp"
#include "sched/analysis.hpp"
#include "sched/cost_model.hpp"
#include "sched/gantt.hpp"
#include "sched/simulator.hpp"

namespace acx::sched {
namespace {

using pipeline::RecordOutcome;
using pipeline::RunReport;
using pipeline::StageAttempt;

StageAttempt attempt(const std::string& stage, double seconds, bool ok = true,
                     int attempts = 1) {
  StageAttempt a;
  a.stage = stage;
  a.seconds = seconds;
  a.ok = ok;
  a.attempts = attempts;
  if (!ok) a.error = "io.read_failed";
  return a;
}

RecordOutcome ok_record(const std::string& id, long long points,
                        std::vector<StageAttempt> stages) {
  RecordOutcome r;
  r.record = id;
  r.points = points;
  r.stages = std::move(stages);
  for (const StageAttempt& s : r.stages) r.retries += s.attempts - 1;
  return r;
}

// A small but fully-formed v6 report: two clean records, one retried,
// one quarantined, one degraded (shed its response stage).
RunReport sample_report() {
  RunReport report;
  report.input_dir = "sample-event";
  report.driver = "seq";
  report.threads = 1;
  report.total_seconds = 10.0;

  report.records.push_back(ok_record(
      "SS01", 1000,
      {attempt("parse", 0.5), attempt("response", 3.0),
       attempt("write_v2", 0.25)}));
  report.records.push_back(ok_record(
      "SS02", 800,
      {attempt("parse", 0.4), attempt("response", 2.0),
       attempt("write_v2", 0.2)}));

  // Retried: parse took two attempts; its seconds still count once.
  report.records.push_back(ok_record(
      "SS03", 600,
      {attempt("parse", 0.9, true, 2), attempt("response", 1.5),
       attempt("write_v2", 0.15)}));

  RecordOutcome quarantined;
  quarantined.record = "SS04";
  quarantined.status = RecordOutcome::Status::kQuarantined;
  quarantined.reason = "v1.bad_magic";
  quarantined.stages = {attempt("parse", 0.1, /*ok=*/false)};
  report.records.push_back(quarantined);

  RecordOutcome degraded = ok_record(
      "SS05", 500, {attempt("parse", 0.3), attempt("write_v2", 0.1)});
  degraded.degraded = true;
  degraded.shed = {{"response", "batch.deadline_soft"}};
  report.records.push_back(degraded);

  // v7 stations block. These ids carry no l/t/v suffix, so each record
  // is its own single-component station and the rotd stage is skipped —
  // exactly what the runner emits; the strict parser cross-checks it.
  for (const RecordOutcome& r : report.records) {
    pipeline::StationOutcome st;
    st.station = r.record;
    st.components = {""};
    st.ok = r.status == RecordOutcome::Status::kOk ? 1 : 0;
    st.quarantined = 1 - st.ok;
    st.rotd_status = "skipped";
    st.rotd_reason = "station.missing_component";
    report.stations.push_back(std::move(st));
  }

  report.sort_records();
  return report;
}

TEST(SchedCostModel, ExtractsOkStagesAndFiltersOutcasts) {
  auto model = cost_model_from_report(sample_report(), {});
  ASSERT_TRUE(model.ok()) << model.error();
  const CostModel& m = model.value();

  // SS04 quarantined, SS05 degraded: both out by default.
  ASSERT_EQ(m.records.size(), 3u);
  EXPECT_EQ(m.excluded_quarantined, 1);
  EXPECT_EQ(m.excluded_degraded, 1);
  EXPECT_EQ(m.records[0].record, "SS01");
  EXPECT_EQ(m.records[2].record, "SS03");
  EXPECT_TRUE(m.records[2].retried);
  EXPECT_EQ(m.flagged_retried, 1);
  EXPECT_EQ(m.total_points(), 2400);
  EXPECT_DOUBLE_EQ(m.stage_work("response"), 6.5);
  EXPECT_DOUBLE_EQ(m.records[0].stage_seconds.at("parse"), 0.5);
  // The measured anchor rides along.
  ASSERT_EQ(m.measured.size(), 1u);
  EXPECT_EQ(m.measured[0].driver, "seq");
  EXPECT_DOUBLE_EQ(m.measured[0].total_seconds, 10.0);
  // No NaN or non-positive cost survives extraction.
  for (const RecordCosts& r : m.records) {
    for (const auto& [stage, seconds] : r.stage_seconds) {
      EXPECT_TRUE(std::isfinite(seconds)) << r.record << "/" << stage;
      EXPECT_GT(seconds, 0) << r.record << "/" << stage;
    }
  }
}

TEST(SchedCostModel, IncludeDegradedKeepsShedRecordFlagged) {
  CostModelOptions opt;
  opt.include_degraded = true;
  auto model = cost_model_from_report(sample_report(), opt);
  ASSERT_TRUE(model.ok()) << model.error();
  const CostModel& m = model.value();
  ASSERT_EQ(m.records.size(), 4u);
  EXPECT_EQ(m.excluded_degraded, 0);
  EXPECT_EQ(m.flagged_degraded, 1);
  const RecordCosts* shed = m.find("SS05");
  ASSERT_NE(shed, nullptr);
  EXPECT_TRUE(shed->shed_flagged);
  // The shed stage never ran, so it must not appear as a cost.
  EXPECT_EQ(shed->stage_seconds.count("response"), 0u);
  EXPECT_EQ(shed->stage_seconds.count("parse"), 1u);
}

TEST(SchedCostModel, FailedAttemptGroupsYieldNoCost) {
  RunReport report = sample_report();
  // Give SS01 a failed extra stage group: excluded from its costs.
  for (RecordOutcome& r : report.records) {
    if (r.record == "SS01") {
      r.stages.push_back(attempt("fourier", 9.9, /*ok=*/false));
    }
  }
  auto model = cost_model_from_report(report, {});
  ASSERT_TRUE(model.ok()) << model.error();
  const RecordCosts* r1 = model.value().find("SS01");
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->stage_seconds.count("fourier"), 0u);
}

TEST(SchedCostModel, ZeroCostsAreFlooredAndCorruptCostsRejected) {
  RunReport report = sample_report();
  for (RecordOutcome& r : report.records) {
    if (r.record == "SS02") r.stages.push_back(attempt("detrend", 0.0));
  }
  auto model = cost_model_from_report(report, {});
  ASSERT_TRUE(model.ok()) << model.error();
  EXPECT_EQ(model.value().floored_costs, 1);
  EXPECT_DOUBLE_EQ(model.value().find("SS02")->stage_seconds.at("detrend"),
                   1e-9);

  for (RecordOutcome& r : report.records) {
    if (r.record == "SS02") r.stages.back().seconds = -1.0;
  }
  EXPECT_FALSE(cost_model_from_report(report, {}).ok());
  for (RecordOutcome& r : report.records) {
    if (r.record == "SS02") {
      r.stages.back().seconds = std::nan("");
    }
  }
  EXPECT_FALSE(cost_model_from_report(report, {}).ok());
}

TEST(SchedCostModel, AllRecordsUnusableIsAnError) {
  RunReport report;
  report.driver = "seq";
  RecordOutcome q;
  q.record = "SS01";
  q.status = RecordOutcome::Status::kQuarantined;
  report.records.push_back(q);
  auto model = cost_model_from_report(report, {});
  ASSERT_FALSE(model.ok());
  EXPECT_NE(model.error().find("quarantined"), std::string::npos);
}

TEST(SchedCostModel, ProfileSynthesisSpreadsStageTotals) {
  auto model = cost_model_from_profile(sample_report(), {});
  ASSERT_TRUE(model.ok()) << model.error();
  const CostModel& m = model.value();
  // Profile mode keeps every non-quarantined record (degraded too).
  ASSERT_EQ(m.records.size(), 4u);
  // Each record gets stage_total / 4. stage_totals() sums every
  // attempt, successful or not, so SS04's failed 0.1 s parse is in:
  // 0.5 + 0.4 + 0.9 + 0.1 + 0.3 = 2.2.
  EXPECT_DOUBLE_EQ(m.records[0].stage_seconds.at("parse"), 2.2 / 4.0);
  // Totals are preserved.
  EXPECT_NEAR(m.stage_work("parse"), 2.2, 1e-12);
}

TEST(SchedCostModel, MergeFirstReportWins) {
  auto first = cost_model_from_report(sample_report(), {});
  ASSERT_TRUE(first.ok());
  CostModel merged = std::move(first).take();

  RunReport other = sample_report();
  other.driver = "seq-opt";
  other.total_seconds = 7.0;
  for (RecordOutcome& r : other.records) {
    for (StageAttempt& s : r.stages) s.seconds *= 100;  // must lose
    if (r.record == "SS01") r.stages.push_back(attempt("reparse", 0.05));
  }
  auto second = cost_model_from_report(other, {});
  ASSERT_TRUE(second.ok());
  merge_cost_model(merged, second.value());

  // Existing (record, stage) costs kept from the first report; the new
  // stage filled in from the second; both anchors present.
  EXPECT_DOUBLE_EQ(merged.find("SS01")->stage_seconds.at("parse"), 0.5);
  EXPECT_DOUBLE_EQ(merged.find("SS01")->stage_seconds.at("reparse"), 0.05);
  ASSERT_EQ(merged.measured.size(), 2u);
  EXPECT_EQ(merged.measured[1].driver, "seq-opt");
}

TEST(SchedCostModel, RoundTripsThroughSerializedReport) {
  // The extraction contract holds for a report that went through JSON,
  // not just an in-memory struct.
  const RunReport report = sample_report();
  auto reread = RunReport::from_json_text(report.dump());
  ASSERT_TRUE(reread.ok()) << reread.error();
  auto direct = cost_model_from_report(report, {});
  auto via_json = cost_model_from_report(reread.value(), {});
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via_json.ok());
  ASSERT_EQ(direct.value().records.size(), via_json.value().records.size());
  for (std::size_t i = 0; i < direct.value().records.size(); ++i) {
    EXPECT_EQ(direct.value().records[i].stage_seconds,
              via_json.value().records[i].stage_seconds);
  }
}

// --- graphs and scheduler ---

CostModel toy_model() {
  auto model = cost_model_from_report(sample_report(), {});
  EXPECT_TRUE(model.ok());
  return std::move(model).take();
}

TEST(SchedSimulator, SerialGraphIsOneChain) {
  const auto shape = pipeline::StageGraph::standard().shape();
  const TaskGraph g = serial_graph(toy_model(), shape);
  ASSERT_EQ(g.tasks.size(), 9u);  // 3 records x 3 measured stages
  EXPECT_DOUBLE_EQ(g.work(), g.span());
  for (std::size_t i = 1; i < g.tasks.size(); ++i) {
    ASSERT_EQ(g.tasks[i].deps.size(), 1u);
    EXPECT_EQ(g.tasks[i].deps[0], static_cast<int>(i) - 1);
  }
  // A chain on any processor count takes exactly the work.
  EXPECT_DOUBLE_EQ(list_schedule(g, 8, 1).makespan, g.work());
}

TEST(SchedSimulator, BarrierGraphHoldsStagesApart) {
  const auto shape = pipeline::StageGraph::standard().shape();
  const TaskGraph g = barrier_graph(toy_model(), shape);
  const Schedule s = list_schedule(g, 8, 1);
  // With barriers the makespan is the sum of per-stage maxima:
  // parse max 0.9, response max 3.0, write_v2 max 0.25.
  EXPECT_DOUBLE_EQ(s.makespan, 0.9 + 3.0 + 0.25);
}

TEST(SchedSimulator, RecordGraphSplitsResponseAndKeepsWork) {
  const auto shape = pipeline::StageGraph::standard().shape();
  GraphOptions opt;
  opt.split = 4;
  const TaskGraph g = record_graph(toy_model(), shape, opt);
  // 3 records x (parse + 4 response chunks + write_v2).
  ASSERT_EQ(g.tasks.size(), 18u);
  EXPECT_NEAR(g.work(), 0.5 + 3.0 + 0.25 + 0.4 + 2.0 + 0.2 + 0.9 + 1.5 +
                            0.15,
              1e-12);
  // Splitting shortens the span: SS01's chain is 0.5 + 3.0/4 + 0.25.
  EXPECT_NEAR(g.span(), 0.5 + 0.75 + 0.25, 1e-12);
  // write_v2 waits for every response chunk of its record, plus the
  // fall-through edge its missing peaks/fourier deps resolve to
  // (parse, the nearest ancestor that ran).
  for (const Task& t : g.tasks) {
    if (t.stage == "write_v2") {
      EXPECT_EQ(t.deps.size(), 5u);
    }
  }
}

TEST(SchedSimulator, MissingDepFallsThroughToAncestor) {
  // A record whose report lacks an intermediate stage still forms a
  // connected chain (pruned/shed stages are skipped, not broken over).
  CostModel m;
  RecordCosts r;
  r.record = "X";
  r.points = 1;
  r.stage_seconds = {{"parse", 1.0}, {"write_v2", 1.0}};
  m.records.push_back(r);
  const auto shape = pipeline::StageGraph::standard().shape();
  const TaskGraph g = record_graph(m, shape, {});
  ASSERT_EQ(g.tasks.size(), 2u);
  ASSERT_EQ(g.tasks[1].stage, "write_v2");
  ASSERT_EQ(g.tasks[1].deps.size(), 1u);
  EXPECT_EQ(g.tasks[0].stage, "parse");
  EXPECT_EQ(g.tasks[1].deps[0], 0);
  EXPECT_DOUBLE_EQ(g.span(), 2.0);
}

TEST(SchedSimulator, ScheduleIsDeterministicAndBrentBounded) {
  const auto shape = pipeline::StageGraph::standard().shape();
  GraphOptions opt;
  opt.split = 3;
  const TaskGraph g = record_graph(toy_model(), shape, opt);
  for (const int procs : {1, 2, 4, 12}) {
    const Schedule a = list_schedule(g, procs, 12450);
    const Schedule b = list_schedule(g, procs, 12450);
    ASSERT_EQ(a.placements.size(), b.placements.size());
    for (std::size_t i = 0; i < a.placements.size(); ++i) {
      EXPECT_EQ(a.placements[i].task, b.placements[i].task);
      EXPECT_EQ(a.placements[i].proc, b.placements[i].proc);
      EXPECT_DOUBLE_EQ(a.placements[i].start, b.placements[i].start);
    }
    const double lower = std::max(g.work() / procs, g.span());
    const double upper = g.work() / procs + g.span();
    EXPECT_GE(a.makespan, lower - 1e-12) << procs;
    EXPECT_LE(a.makespan, upper + 1e-12) << procs;
    // Every task placed exactly once, no processor overlap.
    ASSERT_EQ(a.placements.size(), g.tasks.size());
  }
  // Different seeds may reorder ties but never violate the bounds.
  for (const std::uint64_t seed : {1ull, 7ull, 99ull}) {
    const double makespan = list_schedule(g, 4, seed).makespan;
    EXPECT_GE(makespan, std::max(g.work() / 4, g.span()) - 1e-12);
    EXPECT_LE(makespan, g.work() / 4 + g.span() + 1e-12);
  }
}

TEST(SchedAnalysis, AnchorsOnSeqOptWhenRedundantCostsAbsent) {
  // toy_model has no reparse/fas_preview/repeaks costs, so there is no
  // honest Sequential Original model; the anchor must say so.
  const auto shape = pipeline::StageGraph::standard().shape();
  AnalysisOptions opt;
  opt.procs = 4;
  auto res = analyze(toy_model(), shape, opt);
  ASSERT_TRUE(res.ok()) << res.error();
  EXPECT_EQ(res.value().anchor, "seq-opt");
  EXPECT_EQ(res.value().driver("seq"), nullptr);
  EXPECT_DOUBLE_EQ(res.value().driver("seq-opt")->speedup, 1.0);
  EXPECT_GT(res.value().driver("full")->speedup,
            res.value().driver("seq-opt")->speedup);
}

TEST(SchedAnalysis, StationStagesStayOutOfThePaperChainShares) {
  // A station pseudo-row (rotd, a repo extension) must not dilute the
  // paper chain's shares: record-scoped shares are of record-scoped
  // work and sum to 1; the station row carries its share of all work
  // in station_share instead.
  CostModel m = toy_model();
  RecordCosts station;
  station.record = "ST01";
  station.stage_seconds["rotd"] = 6.0;
  m.records.push_back(station);
  auto res = analyze(m, pipeline::StageGraph::standard().shape(), {});
  ASSERT_TRUE(res.ok()) << res.error();
  const double paper_work = 3.75 + 2.6 + 2.55;
  double paper_shares = 0;
  for (const StageModel& s : res.value().stages) {
    if (s.stage == "rotd") {
      EXPECT_TRUE(s.station_scoped);
      EXPECT_EQ(s.share, 0.0);
      EXPECT_NEAR(s.station_share, 6.0 / (paper_work + 6.0), 1e-12);
      continue;
    }
    EXPECT_FALSE(s.station_scoped) << s.stage;
    EXPECT_EQ(s.station_share, 0.0) << s.stage;
    paper_shares += s.share;
    if (s.stage == "response") {
      EXPECT_NEAR(s.share, 6.5 / paper_work, 1e-12);
    }
  }
  EXPECT_NEAR(paper_shares, 1.0, 1e-12);
}

TEST(SchedAnalysis, UnknownStageInCostsIsRejected) {
  CostModel m = toy_model();
  m.records[0].stage_seconds["not_a_stage"] = 1.0;
  auto res = analyze(m, pipeline::StageGraph::standard().shape(), {});
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.error().find("not_a_stage"), std::string::npos);
}

TEST(SchedAnalysis, SweepCoversRequestedProcCounts) {
  AnalysisOptions opt;
  opt.procs = 4;
  opt.sweep = {1, 2, 8};
  auto res =
      analyze(toy_model(), pipeline::StageGraph::standard().shape(), opt);
  ASSERT_TRUE(res.ok()) << res.error();
  ASSERT_EQ(res.value().sweep.size(), 3u);
  EXPECT_EQ(res.value().sweep[0].procs, 1);
  // More processors never slow the model down.
  EXPECT_GE(res.value().sweep[0].makespan, res.value().sweep[1].makespan);
  EXPECT_GE(res.value().sweep[1].makespan, res.value().sweep[2].makespan);
}

TEST(SchedGantt, RendersOneRowPerProcessor) {
  const auto shape = pipeline::StageGraph::standard().shape();
  const TaskGraph g = record_graph(toy_model(), shape, {});
  const Schedule s = list_schedule(g, 3, 12450);
  const std::string chart = render_gantt(g, s, 40);
  EXPECT_NE(chart.find("gantt: 3 procs"), std::string::npos);
  EXPECT_NE(chart.find("p00 |"), std::string::npos);
  EXPECT_NE(chart.find("p02 |"), std::string::npos);
  EXPECT_EQ(chart.find("p03 |"), std::string::npos);
  EXPECT_NE(chart.find("legend:"), std::string::npos);
  EXPECT_EQ(chart, render_gantt(g, s, 40));  // pure function
}

}  // namespace
}  // namespace acx::sched
