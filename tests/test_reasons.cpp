#include <gtest/gtest.h>

#include <set>
#include <string>

#include "pipeline/graph.hpp"
#include "pipeline/reasons.hpp"
#include "pipeline/runner.hpp"
#include "pipeline/stage.hpp"
#include "pipeline/validate.hpp"
#include "synth/synth.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"

namespace acx::pipeline {
namespace {

TEST(Reasons, RegistryIsNonEmptyUniqueAndWellFormed) {
  const std::vector<std::string>& reasons = registered_reasons();
  ASSERT_FALSE(reasons.empty());
  std::set<std::string> unique(reasons.begin(), reasons.end());
  EXPECT_EQ(unique.size(), reasons.size()) << "duplicate reason in registry";
  for (const std::string& r : reasons) {
    // Every legal reason is "<family>.<slug>" with a lowercase family.
    const auto dot = r.find('.');
    ASSERT_NE(dot, std::string::npos) << r;
    EXPECT_GT(dot, 0u) << r;
    EXPECT_LT(dot + 1, r.size()) << r;
  }
}

TEST(Reasons, KnownReasonsFromEveryFamilyAreRegistered) {
  for (const char* reason :
       {"parse.bad_magic", "parse.bad_value", "signal.too_short",
        "signal.non_finite", "spectrum.no_corner", "spectrum.bad_grid",
        "io.write_failed", "stage_crash.parse", "stage_crash.response"}) {
    EXPECT_TRUE(is_registered_reason(reason)) << reason;
  }
}

TEST(Reasons, TransientExhaustedPrefixWrapsAnyRegisteredReason) {
  EXPECT_TRUE(is_registered_reason("transient_exhausted.io.write_failed"));
  EXPECT_TRUE(is_registered_reason("transient_exhausted.stage_crash.demean"));
  EXPECT_FALSE(is_registered_reason("transient_exhausted.not.a_reason"));
  EXPECT_FALSE(is_registered_reason("transient_exhausted."));
}

TEST(Reasons, UnknownReasonsAreRejected) {
  for (const char* reason :
       {"", "bogus", "spectrum.", "stage_crash.nope", "parse.bad_magic.extra",
        "PARSE.bad_magic", "io.unknown_slug"}) {
    EXPECT_FALSE(is_registered_reason(reason)) << reason;
  }
}

TEST(Reasons, StageNameTableMatchesTheDefaultChain) {
  // stage_crash.<stage> legality is derived from kStageNames; the table
  // must track the real chain (plus scratch_setup, which the runner
  // times like a stage but builds outside default_stages, plus the
  // station-scoped stages that run after the per-record chain).
  const auto stages = default_stages();
  std::vector<std::string> expected = {"scratch_setup"};
  for (const auto& s : stages) expected.emplace_back(s->name());
  // The graph outlives the loop: station_plan points into it.
  const StageGraph graph = StageGraph::standard();
  for (const StageNode* n : graph.station_plan(/*prune_redundant=*/false)) {
    expected.emplace_back(n->name);
  }
  std::vector<std::string> table;
  for (const char* name : kStageNames) table.emplace_back(name);
  EXPECT_EQ(table, expected);
}

TEST(Reasons, ValidatorFlagsUnregisteredQuarantineReason) {
  test::TempDir tmp("reasons");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  synth::EventSpec spec = synth::paper_events()[0];
  spec.n_files = 2;
  synth::SynthConfig scfg;
  scfg.scale = 0.02;
  ASSERT_TRUE(synth::build_event_dataset(fs, input, spec, scfg).ok());
  // Corrupt one input so the run quarantines it with a registered
  // parse reason.
  auto listed = fs.list_dir(input);
  ASSERT_TRUE(listed.ok());
  ASSERT_TRUE(fs.write_file(listed.value().front(), "garbage\n").ok());

  RunnerConfig cfg;
  cfg.sleep = [](int) {};
  auto run = run_pipeline(fs, input, work, cfg);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run.value().count_quarantined(), 1);
  ASSERT_TRUE(validate_workdir(fs, work).clean());

  // Rewrite the report with a reason nothing registers; the quarantine
  // file must be renamed to keep the claim consistent, then the audit
  // has to flag the unknown reason.
  auto text = fs.read_file(work / kRunReportFileName);
  ASSERT_TRUE(text.ok());
  std::string doctored = text.value();
  const std::string from = "parse.bad_magic";
  const std::string to = "parse.not_a_thing";
  for (auto pos = doctored.find(from); pos != std::string::npos;
       pos = doctored.find(from, pos)) {
    doctored.replace(pos, from.size(), to);
    pos += to.size();
  }
  ASSERT_NE(doctored, text.value());
  ASSERT_TRUE(fs.write_file(work / kRunReportFileName, doctored).ok());
  auto q_listed = fs.list_dir(work / "quarantine");
  ASSERT_TRUE(q_listed.ok());
  ASSERT_EQ(q_listed.value().size(), 1u);
  const std::filesystem::path old_q = q_listed.value().front();
  std::string q_name = old_q.filename().string();
  q_name.replace(q_name.find(from), from.size(), to);
  ASSERT_TRUE(fs.rename(old_q, old_q.parent_path() / q_name).ok());

  const ValidationSummary audit = validate_workdir(fs, work);
  EXPECT_FALSE(audit.clean());
  bool saw_unregistered = false;
  for (const auto& issue : audit.issues) {
    if (issue.kind == "unregistered_reason") saw_unregistered = true;
  }
  EXPECT_TRUE(saw_unregistered);
}

TEST(Reasons, EveryReportedReasonInARealRunIsRegistered) {
  // Drive the pipeline over a mix of healthy and poisoned inputs and
  // assert the report never invents a reason outside the registry.
  test::TempDir tmp("reasons");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  synth::EventSpec spec = synth::paper_events()[0];
  spec.n_files = 3;
  synth::SynthConfig scfg;
  scfg.scale = 0.02;
  ASSERT_TRUE(synth::build_event_dataset(fs, input, spec, scfg).ok());
  ASSERT_TRUE(fs.write_file(input / "AA01l.v1", "not a record\n").ok());
  ASSERT_TRUE(fs.write_file(input / "AA02l.v1",
                            "ACX-V1 1\nSTATION AA02\n").ok());

  RunnerConfig cfg;
  cfg.sleep = [](int) {};
  auto run = run_pipeline(fs, input, tmp.path() / "work", cfg);
  ASSERT_TRUE(run.ok());
  EXPECT_GE(run.value().count_quarantined(), 2);
  for (const RecordOutcome& r : run.value().records) {
    if (r.status == RecordOutcome::Status::kQuarantined) {
      EXPECT_TRUE(is_registered_reason(r.reason))
          << r.record << ": " << r.reason;
    }
  }
}

}  // namespace
}  // namespace acx::pipeline
