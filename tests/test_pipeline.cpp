#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "formats/spectra.hpp"
#include "formats/v1.hpp"
#include "formats/v2.hpp"
#include "pipeline/runner.hpp"
#include "pipeline/validate.hpp"
#include "synth/synth.hpp"
#include "test_helpers.hpp"

namespace acx::pipeline {
namespace {

RunnerConfig test_config() {
  RunnerConfig cfg;
  cfg.sleep = [](int) {};  // no real backoff sleeps in tests
  return cfg;
}

void build_small_event(FileSystem& fs, const std::filesystem::path& dir,
                       int n_files = 6) {
  synth::EventSpec spec = synth::paper_events()[0];
  spec.n_files = n_files;
  synth::SynthConfig cfg;
  cfg.scale = 0.02;
  auto written = synth::build_event_dataset(fs, dir, spec, cfg);
  ASSERT_TRUE(written.ok()) << written.error().to_string();
}

TEST(Pipeline, HappyPathProducesAllOutputsAndCleanReport) {
  test::TempDir tmp("pipeline");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  build_small_event(fs, input);

  auto run = run_pipeline(fs, input, work, test_config());
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const RunReport& report = run.value();

  EXPECT_EQ(report.records.size(), 6u);
  EXPECT_EQ(report.count_ok(), 6);
  EXPECT_EQ(report.count_quarantined(), 0);
  EXPECT_EQ(report.count_retries(), 0);

  for (const RecordOutcome& r : report.records) {
    EXPECT_EQ(r.status, RecordOutcome::Status::kOk);
    auto content = fs.read_file(r.output);
    ASSERT_TRUE(content.ok());
    auto v2 = formats::read_v2(content.value());
    ASSERT_TRUE(v2.ok()) << v2.error().to_string();
    EXPECT_EQ(v2.value().record.header.units, "cm/s2");
    EXPECT_EQ(v2.value().processing,
              (std::vector<std::string>{"calibrate", "demean", "corners",
                                        "bandpass", "detrend", "integrate",
                                        "peaks", "fourier", "response",
                                        "write_v2"}));
    // Demean + band-pass + detrend really happened: mean is ~0.
    const auto& s = v2.value().record.samples;
    const double mean = std::accumulate(s.begin(), s.end(), 0.0) /
                        static_cast<double>(s.size());
    EXPECT_NEAR(mean, 0.0, 1e-3);
    // The peak block is present and PGA matches the data block exactly.
    ASSERT_TRUE(v2.value().peaks.present);
    double max_abs = 0.0;
    for (const double v : s) max_abs = std::max(max_abs, std::fabs(v));
    EXPECT_NEAR(std::fabs(v2.value().peaks.pga.value), max_abs,
                1e-4 * max_abs);  // %12.4e data cells keep 5 digits
    // Processing history rode along as comments.
    EXPECT_FALSE(v2.value().comments.empty());
    // The spectral outputs are claimed alongside the V2 and pass their
    // own strict readers.
    // outputs are sorted for byte-stable reports: .f, .r, .v2.
    ASSERT_EQ(r.outputs.size(), 3u);
    EXPECT_EQ(r.outputs[2], r.output);
    auto f_content = fs.read_file(r.outputs[0]);
    ASSERT_TRUE(f_content.ok());
    auto f = formats::read_f(f_content.value());
    ASSERT_TRUE(f.ok()) << f.error().to_string();
    EXPECT_EQ(f.value().header.id(), r.record);
    auto r_content = fs.read_file(r.outputs[1]);
    ASSERT_TRUE(r_content.ok());
    auto rr = formats::read_r(r_content.value());
    ASSERT_TRUE(rr.ok()) << rr.error().to_string();
    EXPECT_EQ(rr.value().header.id(), r.record);
    EXPECT_EQ(rr.value().periods.size(), 600u);
    EXPECT_EQ(rr.value().dampings.size(), 5u);
  }

  const ValidationSummary audit = validate_workdir(fs, work);
  EXPECT_TRUE(audit.clean()) << audit.issues.front().kind << ": "
                             << audit.issues.front().detail;
  EXPECT_EQ(audit.records_ok, 6);
}

TEST(Pipeline, ReportRoundTripsThroughJson) {
  test::TempDir tmp("pipeline");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  build_small_event(fs, input, 3);

  auto run = run_pipeline(fs, input, work, test_config());
  ASSERT_TRUE(run.ok());

  auto text = fs.read_file(work / kRunReportFileName);
  ASSERT_TRUE(text.ok());
  auto parsed = RunReport::from_json_text(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const RunReport& back = parsed.value();
  EXPECT_EQ(back.records.size(), run.value().records.size());
  EXPECT_EQ(back.count_ok(), run.value().count_ok());
  for (std::size_t i = 0; i < back.records.size(); ++i) {
    EXPECT_EQ(back.records[i].record, run.value().records[i].record);
    EXPECT_EQ(back.records[i].output, run.value().records[i].output);
    ASSERT_EQ(back.records[i].stages.size(),
              run.value().records[i].stages.size());
  }
}

TEST(Pipeline, EmptyInputDirYieldsEmptyReport) {
  test::TempDir tmp("pipeline");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  ASSERT_TRUE(fs.create_directories(input).ok());
  auto run = run_pipeline(fs, input, tmp.path() / "work", test_config());
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run.value().records.empty());
}

TEST(Pipeline, NonV1FilesAreIgnored) {
  test::TempDir tmp("pipeline");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  build_small_event(fs, input, 3);
  ASSERT_TRUE(fs.write_file(input / "notes.txt", "not a record").ok());

  auto run = run_pipeline(fs, input, tmp.path() / "work", test_config());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().records.size(), 3u);
}

TEST(Pipeline, FailFastStopsAtFirstPoisonedRecord) {
  test::TempDir tmp("pipeline");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  build_small_event(fs, input, 4);

  // Poison the alphabetically first record.
  auto listed = fs.list_dir(input);
  ASSERT_TRUE(listed.ok());
  ASSERT_TRUE(fs.write_file(listed.value().front(), "garbage\n").ok());

  RunnerConfig cfg = test_config();
  cfg.keep_going = false;
  auto run = run_pipeline(fs, input, tmp.path() / "work", cfg);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().records.size(), 1u);
  EXPECT_EQ(run.value().records[0].status, RecordOutcome::Status::kQuarantined);
}

TEST(Pipeline, ValidatorFlagsTamperedWorkdir) {
  test::TempDir tmp("pipeline");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  build_small_event(fs, input, 3);
  ASSERT_TRUE(run_pipeline(fs, input, work, test_config()).ok());

  // A leftover atomic temp and an unclaimed output must both be caught.
  ASSERT_TRUE(
      fs.write_file(work / "out" / ".acx-tmp.SS01l.v2.0", "partial").ok());
  ASSERT_TRUE(fs.write_file(work / "out" / "rogue.v2", "not claimed").ok());

  const ValidationSummary audit = validate_workdir(fs, work);
  EXPECT_FALSE(audit.clean());
  bool saw_partial = false, saw_unexpected = false;
  for (const auto& issue : audit.issues) {
    if (issue.kind == "partial_write") saw_partial = true;
    if (issue.kind == "unexpected_file") saw_unexpected = true;
  }
  EXPECT_TRUE(saw_partial);
  EXPECT_TRUE(saw_unexpected);
}

TEST(Pipeline, ReportCarriesPerStageWallClock) {
  test::TempDir tmp("pipeline");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  build_small_event(fs, input, 3);

  auto run = run_pipeline(fs, input, work, test_config());
  ASSERT_TRUE(run.ok());
  const RunReport& report = run.value();

  EXPECT_GT(report.total_seconds, 0.0);
  for (const RecordOutcome& r : report.records) {
    double stage_sum = 0.0;
    for (const StageAttempt& s : r.stages) {
      EXPECT_GE(s.seconds, 0.0) << r.record << "/" << s.stage;
      stage_sum += s.seconds;
    }
    EXPECT_NEAR(r.seconds, stage_sum, 1e-9);
  }
  // Every stage of the chain shows up in the per-stage totals.
  const auto totals = report.stage_totals();
  for (const char* stage :
       {"scratch_setup", "stage_in", "parse", "calibrate", "demean",
        "corners", "bandpass", "detrend", "integrate", "peaks", "fourier",
        "response", "write_v2"}) {
    ASSERT_TRUE(totals.count(stage)) << stage;
    EXPECT_GE(totals.at(stage), 0.0) << stage;
  }
  // Stage shares sum to 1 and cover the same stages (the handle for the
  // paper's "Stage IX is 57.2% of the sequential run" measurement).
  const auto shares = report.stage_shares();
  EXPECT_EQ(shares.size(), totals.size());
  double share_sum = 0.0;
  for (const auto& [stage, share] : shares) {
    ASSERT_TRUE(totals.count(stage)) << stage;
    EXPECT_GE(share, 0.0);
    share_sum += share;
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-9);

  // The timings survive the JSON round trip (acx_validate relies on it).
  auto text = fs.read_file(work / kRunReportFileName);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text.value().find("\"stage_totals\""), std::string::npos);
  EXPECT_NE(text.value().find("\"total_seconds\""), std::string::npos);
  auto back = RunReport::from_json_text(text.value());
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_NEAR(back.value().total_seconds, report.total_seconds,
              1e-9 + 1e-9 * report.total_seconds);
}

formats::Record make_tiny_record(long npts, double value,
                                 const std::string& units) {
  formats::Record rec;
  rec.header.station = "TT01";
  rec.header.component = "l";
  rec.header.event_id = "EV99";
  rec.header.date = "2020-01-01";
  rec.header.dt = 0.005;
  rec.header.npts = npts;
  rec.header.units = units;
  for (long i = 0; i < npts; ++i) {
    rec.samples.push_back(value * (1.0 + 0.01 * static_cast<double>(i % 7)));
  }
  return rec;
}

TEST(Pipeline, TooShortRecordQuarantinesWithTypedSignalReason) {
  test::TempDir tmp("pipeline");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  ASSERT_TRUE(fs.create_directories(input).ok());
  // 30 samples parse fine but cannot carry the minimum 21-tap FIR
  // (needs >= 63): poison at the bandpass stage, not a parse error.
  ASSERT_TRUE(fs.write_file(input / "TT01l.v1",
                            formats::write_v1(make_tiny_record(30, 100.0,
                                                               "counts")))
                  .ok());

  auto run = run_pipeline(fs, input, tmp.path() / "work", test_config());
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run.value().records.size(), 1u);
  const RecordOutcome& r = run.value().records[0];
  EXPECT_EQ(r.status, RecordOutcome::Status::kQuarantined);
  EXPECT_EQ(r.reason, "signal.too_short");
  EXPECT_FALSE(r.stages.empty());
  EXPECT_EQ(r.stages.back().stage, "bandpass");
}

TEST(Pipeline, OverflowingRecordQuarantinesAsNonFinite) {
  test::TempDir tmp("pipeline");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  ASSERT_TRUE(fs.create_directories(input).ok());
  // Every sample near DBL_MAX: each is finite (so the strict parser
  // accepts the file), but the demean sum overflows to infinity — the
  // numerical chain must catch what the parser cannot.
  ASSERT_TRUE(fs.write_file(input / "TT01l.v1",
                            formats::write_v1(make_tiny_record(80, 1e308,
                                                               "cm/s2")))
                  .ok());

  auto run = run_pipeline(fs, input, tmp.path() / "work", test_config());
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run.value().records.size(), 1u);
  const RecordOutcome& r = run.value().records[0];
  EXPECT_EQ(r.status, RecordOutcome::Status::kQuarantined);
  EXPECT_EQ(r.reason, "signal.non_finite");
  EXPECT_EQ(r.stages.back().stage, "demean");
}

TEST(Pipeline, ValidatorFlagsOutputWithoutPeakBlock) {
  test::TempDir tmp("pipeline");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  build_small_event(fs, input, 3);
  auto run = run_pipeline(fs, input, work, test_config());
  ASSERT_TRUE(run.ok());

  // Strip the whole peak block from one claimed output. The file is
  // still a well-formed V2 (the block is optional in the format), but
  // the pipeline contract says outputs must carry it.
  auto content = fs.read_file(run.value().records[0].output);
  ASSERT_TRUE(content.ok());
  std::string text = content.value();
  for (const char* prefix : {"PGA ", "PGV ", "PGD "}) {
    const auto pos = text.find(prefix);
    ASSERT_NE(pos, std::string::npos);
    text.erase(pos, text.find('\n', pos) - pos + 1);
  }
  ASSERT_TRUE(fs.write_file(run.value().records[0].output, text).ok());

  const ValidationSummary audit = validate_workdir(fs, work);
  EXPECT_FALSE(audit.clean());
  bool saw_missing_peaks = false;
  for (const auto& issue : audit.issues) {
    if (issue.kind == "missing_peaks") saw_missing_peaks = true;
  }
  EXPECT_TRUE(saw_missing_peaks);
}

TEST(Pipeline, ValidatorFlagsCorruptOutput) {
  test::TempDir tmp("pipeline");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  build_small_event(fs, input, 3);
  auto run = run_pipeline(fs, input, work, test_config());
  ASSERT_TRUE(run.ok());

  // Corrupt one claimed output in place, one input at a time: a broken
  // V2, and an R file whose header claims 10^8 periods over 40 dampings,
  // a count the reader must diagnose rather than allocate for.
  const RecordOutcome& rec = run.value().records[0];
  const auto r_path =
      std::find_if(rec.outputs.begin(), rec.outputs.end(),
                   [](const std::string& p) { return p.ends_with(".r"); });
  ASSERT_NE(r_path, rec.outputs.end());
  auto r_text = fs.read_file(*r_path);
  ASSERT_TRUE(r_text.ok());
  std::string tampered = r_text.value();
  std::string dampings = "DAMPINGS 0.01";
  for (int i = 2; i <= 40; ++i) {
    dampings += (i < 10 ? ",0.0" : ",0.") + std::to_string(i);
  }
  for (const auto& [key, line] :
       {std::pair<std::string, std::string>{"NPERIODS ", "NPERIODS 100000000"},
        {"DAMPINGS ", dampings}}) {
    const auto pos = tampered.find("\n" + key);
    ASSERT_NE(pos, std::string::npos) << key;
    tampered.replace(pos + 1, tampered.find('\n', pos + 1) - pos - 1, line);
  }

  const std::pair<std::string, std::string> kCorruptions[] = {
      {rec.output, "ACX-V2 1\nbroken"}, {*r_path, tampered}};
  for (const auto& [path, text] : kCorruptions) {
    SCOPED_TRACE(path);
    auto original = fs.read_file(path);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(fs.write_file(path, text).ok());
    const ValidationSummary audit = validate_workdir(fs, work);
    EXPECT_FALSE(audit.clean());
    ASSERT_FALSE(audit.issues.empty());
    EXPECT_EQ(audit.issues[0].kind, "corrupt_output");
    ASSERT_TRUE(fs.write_file(path, original.value()).ok());
  }
}

}  // namespace
}  // namespace acx::pipeline
