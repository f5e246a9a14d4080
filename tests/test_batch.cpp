// The multi-event batch layer: bounded-queue admission, the two-axis
// scheduler, per-event deadline budgets (soft shed / hard stop),
// graceful degradation to `degraded` status, checkpoint/resume via the
// journal, and the kill-and-resume crash contract (spawning the real
// acx_batch binary and killing it mid-batch).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/batch.hpp"
#include "pipeline/runner.hpp"
#include "pipeline/validate.hpp"
#include "synth/synth.hpp"

#include "test_helpers.hpp"
#include "util/bounded_queue.hpp"
#include "util/breaker.hpp"
#include "util/faultfs.hpp"

namespace acx::pipeline {
namespace {

namespace stdfs = std::filesystem;

BatchConfig batch_config() {
  BatchConfig cfg;
  cfg.runner.sleep = [](int) {};
  return cfg;
}

void build_event(FileSystem& fs, const stdfs::path& dir, int n_files) {
  synth::EventSpec spec = synth::paper_events()[0];
  spec.n_files = n_files;
  synth::SynthConfig scfg;
  scfg.scale = 0.02;
  ASSERT_TRUE(synth::build_event_dataset(fs, dir, spec, scfg).ok());
}

// Reads one event's run report back out of the batch work tree.
RunReport event_report(FileSystem& fs, const BatchReport& batch,
                       const std::string& event) {
  for (const EventOutcome& e : batch.events) {
    if (e.event != event) continue;
    auto text = fs.read_file(stdfs::path(e.work_dir) / kRunReportFileName);
    EXPECT_TRUE(text.ok());
    auto parsed = RunReport::from_json_text(text.ok() ? text.value() : "{}");
    EXPECT_TRUE(parsed.ok()) << (parsed.ok() ? "" : parsed.error());
    if (parsed.ok()) return std::move(parsed).take();
  }
  ADD_FAILURE() << "event '" << event << "' not in the batch report";
  return RunReport{};
}

TEST(BoundedQueue, PopsByPriorityWithFifoTieBreak) {
  struct Item {
    int priority;
    int seq;
  };
  auto less = [](const Item& a, const Item& b) {
    return a.priority < b.priority;
  };
  BoundedPriorityQueue<Item, decltype(less)> q(8, less);
  ASSERT_EQ(q.push({1, 0}), QueuePushResult::kAccepted);
  ASSERT_EQ(q.push({3, 1}), QueuePushResult::kAccepted);
  ASSERT_EQ(q.push({1, 2}), QueuePushResult::kAccepted);
  ASSERT_EQ(q.push({3, 3}), QueuePushResult::kAccepted);
  q.close();
  EXPECT_EQ(q.push({9, 4}), QueuePushResult::kClosed)
      << "closed queue must refuse pushes with the typed result";

  std::vector<int> seqs;
  while (auto item = q.pop()) seqs.push_back(item->seq);
  // Highest priority first; equal priorities drain in push order.
  EXPECT_EQ(seqs, (std::vector<int>{1, 3, 0, 2}));
  EXPECT_FALSE(q.pop().has_value()) << "drained closed queue reports end";
}

TEST(BoundedQueue, PushBlocksAtCapacityUntilAConsumerPops) {
  auto less = [](int, int) { return false; };
  BoundedPriorityQueue<int, decltype(less)> q(2, less);

  int popped = 0;
  std::thread consumer([&] {
    while (q.pop()) ++popped;
  });
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(q.push(i), QueuePushResult::kAccepted);
    // push() only returns once admitted, so the producer can never
    // observe more than `capacity` queued elements.
    ASSERT_LE(q.size(), 2u) << "producer ran ahead of the capacity bound";
  }
  q.close();
  consumer.join();
  EXPECT_EQ(popped, 50);
}

TEST(BoundedQueue, CloseWakesProducersBlockedOnAFullQueueWithTypedResult) {
  // The service-shutdown seam: producers stuck in push() on a full
  // queue must be woken by close() and told kClosed — not hang, not
  // have their element silently admitted. Runs under the TSan CI leg.
  auto less = [](int, int) { return false; };
  BoundedPriorityQueue<int, decltype(less)> q(1, less);
  ASSERT_EQ(q.push(0), QueuePushResult::kAccepted);  // queue now full

  constexpr int kProducers = 4;
  std::atomic<int> closed_results{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      if (q.push(100 + p) == QueuePushResult::kClosed) {
        closed_results.fetch_add(1);
      }
    });
  }
  // Give the producers time to reach the blocked wait (best effort; the
  // assertion holds either way — close() must wake both the blocked
  // and the not-yet-blocked).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(q.size(), 1u) << "every producer must be blocked, not admitted";

  q.close();
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(closed_results.load(), kProducers)
      << "every blocked producer must observe the typed shutdown result";

  // close() drains: the element admitted before the close survives.
  auto survivor = q.pop();
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(*survivor, 0);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, ConcurrentCloseRaceNeverHangsOrDuplicates) {
  // Stress the close()/push()/pop() triple under the race detector:
  // whatever interleaving, accepted elements are popped exactly once
  // and refused elements not at all.
  auto less = [](int, int) { return false; };
  for (int round = 0; round < 20; ++round) {
    BoundedPriorityQueue<int, decltype(less)> q(2, less);
    std::atomic<int> accepted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < 10; ++i) {
          if (q.push(p * 10 + i) == QueuePushResult::kClosed) return;
          accepted.fetch_add(1);
        }
      });
    }
    std::atomic<int> popped{0};
    std::thread consumer([&] {
      while (q.pop()) popped.fetch_add(1);
    });
    if (round % 2 == 0) std::this_thread::yield();
    q.close();
    for (std::thread& t : producers) t.join();
    consumer.join();
    EXPECT_EQ(popped.load(), accepted.load()) << "round " << round;
  }
}

TEST(Batch, RunsEveryEventAndWritesAValidatingBatchReport) {
  test::TempDir tmp("batch");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  for (const char* ev : {"ev1", "ev2", "ev3", "ev4", "ev5"}) {
    build_event(fs, input / ev, 3);
  }

  BatchConfig cfg = batch_config();
  cfg.event_workers = 3;
  cfg.queue_capacity = 2;  // exercises backpressure on the producer
  cfg.shards = 4;
  auto run = BatchRunner(fs, cfg).run(input, work);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const BatchReport& report = run.value();

  ASSERT_EQ(report.events.size(), 5u);
  EXPECT_EQ(report.count_status("ok"), 5);
  EXPECT_EQ(report.count_resumed(), 0);
  EXPECT_GT(report.records_per_second, 0);
  EXPECT_GT(report.points_per_second, 0);
  for (const EventOutcome& e : report.events) {
    EXPECT_EQ(e.records_ok, 3) << e.event;
    EXPECT_GT(e.points, 0) << e.event;
    EXPECT_TRUE(validate_workdir(fs, e.work_dir).clean()) << e.event;
    EXPECT_TRUE(fs.exists(work / "journal" / (e.event + ".json"))) << e.event;
  }

  // The written batch report round-trips through the strict reader.
  auto text = fs.read_file(work / kBatchReportFileName);
  ASSERT_TRUE(text.ok());
  auto parsed = BatchReport::from_json_text(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().count_status("ok"), 5);
}

TEST(Batch, ResumeSkipsJournaledEventsAndKeepsReportsByteIdentical) {
  test::TempDir tmp("batch");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  for (const char* ev : {"ev1", "ev2", "ev3"}) build_event(fs, input / ev, 3);

  const BatchConfig cfg = batch_config();
  auto first = BatchRunner(fs, cfg).run(input, work);
  ASSERT_TRUE(first.ok());

  std::vector<std::string> canonical;
  for (const char* ev : {"ev1", "ev2", "ev3"}) {
    canonical.push_back(event_report(fs, first.value(), ev).canonical_dump());
  }

  // Invalidate ev2's journal: a rerun must reprocess exactly that event.
  ASSERT_TRUE(fs.remove_all(work / "journal" / "ev2.json").ok());
  auto second = BatchRunner(fs, cfg).run(input, work);
  ASSERT_TRUE(second.ok());
  for (const EventOutcome& e : second.value().events) {
    EXPECT_EQ(e.resumed, e.event != "ev2") << e.event;
    EXPECT_EQ(e.status, "ok") << e.event;
  }

  // Completed events keep byte-identical canonical projections across
  // the resume cycle — resumed or reprocessed alike.
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string ev = "ev" + std::to_string(i + 1);
    EXPECT_EQ(event_report(fs, second.value(), ev).canonical_dump(),
              canonical[i])
        << ev;
  }

  // A third run resumes everything: zero fresh work, zero throughput.
  auto third = BatchRunner(fs, cfg).run(input, work);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().count_resumed(), 3);
  EXPECT_EQ(third.value().records_per_second, 0);
}

TEST(Batch, LargestFirstPriorityClaimsBiggestEventFirst) {
  test::TempDir tmp("batch");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  build_event(fs, input / "small", 2);
  build_event(fs, input / "big", 8);

  BatchConfig cfg = batch_config();
  cfg.priority = BatchConfig::Priority::kLargest;
  auto run = BatchRunner(fs, cfg).run(input, tmp.path() / "work");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().priority, "largest");
  EXPECT_EQ(run.value().count_status("ok"), 2);
}

TEST(Deadline, SoftExpiryShedsEnrichmentStagesAndPublishesDegraded) {
  test::TempDir tmp("deadline");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  build_event(fs, input, 4);

  RunnerConfig cfg;
  cfg.sleep = [](int) {};
  cfg.driver = Driver::kSequentialOptimized;  // prunes fas_preview
  cfg.deadline.soft_seconds = 0.5;
  // Manual clock: already past the soft budget (but far from any hard
  // one) when the first stage polls it.
  double t = 0;
  cfg.now = [&t] { return t += 1.0; };

  auto run = run_pipeline(fs, input, work, cfg);
  ASSERT_TRUE(run.ok());
  const RunReport& report = run.value();
  EXPECT_STREQ(report.status(), "degraded");
  EXPECT_EQ(report.count_ok(), 4);
  EXPECT_EQ(report.count_degraded(), 4);
  EXPECT_GT(report.total_points(), 0) << "degraded records still publish";
  // Each record shed exactly its two enrichment stages.
  EXPECT_EQ(report.deadline_soft_sheds(), 8);
  for (const RecordOutcome& r : report.records) {
    ASSERT_EQ(r.shed.size(), 2u) << r.record;
    EXPECT_EQ(r.shed[0].stage, "fourier");
    EXPECT_EQ(r.shed[1].stage, "response");
    EXPECT_EQ(r.shed[0].reason, "batch.deadline_soft");
    // The essential V2 must still be there; the spectra must not.
    EXPECT_TRUE(fs.exists(r.output)) << r.record;
    ASSERT_EQ(r.outputs.size(), 1u) << r.record;
  }
  EXPECT_TRUE(validate_workdir(fs, work).clean());

  // The v6 deadline block round-trips.
  auto text = fs.read_file(work / kRunReportFileName);
  ASSERT_TRUE(text.ok());
  auto parsed = RunReport::from_json_text(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().deadline_soft_seconds, 0.5);
  EXPECT_EQ(parsed.value().deadline_soft_sheds(), 8);
}

TEST(Deadline, HardExpiryStopsTheEventWithTypedQuarantines) {
  test::TempDir tmp("deadline");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  build_event(fs, input, 3);

  RunnerConfig cfg;
  cfg.sleep = [](int) {};
  cfg.deadline.hard_seconds = 0.5;
  double t = 0;
  cfg.now = [&t] { return t += 1.0; };  // expired at the first poll

  auto run = run_pipeline(fs, input, work, cfg);
  ASSERT_TRUE(run.ok());
  const RunReport& report = run.value();
  EXPECT_STREQ(report.status(), "quarantined");
  EXPECT_EQ(report.count_quarantined(), 3);
  EXPECT_EQ(report.deadline_hard_stops(), 3);
  for (const RecordOutcome& r : report.records) {
    EXPECT_EQ(r.reason, "batch.deadline_hard") << r.record;
  }
  // Typed, registered reason: the audit still comes back clean.
  EXPECT_TRUE(validate_workdir(fs, work).clean());
}

TEST(Deadline, RetryBackoffRespectsTheRemainingHardBudget) {
  test::TempDir tmp("deadline");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  build_event(fs, input, 1);

  // Every rename into out/ fails; without a deadline the executor would
  // sleep through the full backoff schedule (10+20+40ms) for each of
  // the three publishing stages.
  faultfs::FaultConfig faults;
  faults.path_filter = "/out/";
  faults.rename_fail_first_n = 1000;
  faultfs::FaultyFileSystem flaky(fs, faults);

  RunnerConfig cfg;
  cfg.driver = Driver::kSequentialOptimized;
  cfg.retry.jitter_fraction = 0;  // exact schedule: 10, 20, 40ms
  int slept_ms = 0;
  cfg.sleep = [&slept_ms](int ms) { slept_ms += ms; };
  // 25ms of hard budget, on a clock that only moves while sleeping.
  // fourier sleeps 10ms (its 20ms backoff is vetoed, remaining = 15ms),
  // response sleeps the remaining-budget-sized 10ms (20ms vetoed again),
  // and write_v2's very first 10ms backoff no longer fits (5ms left).
  cfg.deadline.hard_seconds = 0.025;
  cfg.now = [&slept_ms] { return slept_ms / 1000.0; };

  auto run = run_pipeline(flaky, input, work, cfg);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(slept_ms, 20) << "backoffs beyond the budget must be vetoed";
  EXPECT_EQ(run.value().count_quarantined(), 1);
}

TEST(Degradation, StorageFailureOnSheddableStageDegradesInsteadOfQuarantine) {
  test::TempDir tmp("degrade");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  build_event(fs, input, 4);

  // Every write of an .f artifact fails — the fourier stage cannot
  // publish, but it is sheddable, so records degrade instead of dying.
  faultfs::FaultConfig faults;
  faults.path_filter = ".f";
  faults.write_fail_first_n = 100000;
  faultfs::FaultyFileSystem flaky(fs, faults);

  RunnerConfig cfg;
  cfg.sleep = [](int) {};
  cfg.driver = Driver::kSequentialOptimized;
  auto run = run_pipeline(flaky, input, work, cfg);
  ASSERT_TRUE(run.ok());
  const RunReport& report = run.value();
  EXPECT_STREQ(report.status(), "degraded");
  EXPECT_EQ(report.count_ok(), 4);
  EXPECT_EQ(report.count_degraded(), 4);
  for (const RecordOutcome& r : report.records) {
    ASSERT_EQ(r.shed.size(), 1u) << r.record;
    EXPECT_EQ(r.shed[0].stage, "fourier");
    EXPECT_EQ(r.shed[0].reason, "transient_exhausted.io.injected_write_fault");
    // V2 and R published, F legitimately absent.
    EXPECT_EQ(r.outputs.size(), 2u) << r.record;
  }
  EXPECT_TRUE(validate_workdir(fs, work).clean());
}

TEST(Degradation, NumericalPoisonOnSheddableStageStillQuarantines) {
  test::TempDir tmp("degrade");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  build_event(fs, input, 3);

  // A poison stage_fault on a sheddable stage is the record's own data
  // being bad, not infrastructure — no forgiveness.
  RunnerConfig cfg;
  cfg.sleep = [](int) {};
  cfg.driver = Driver::kSequentialOptimized;
  cfg.stage_fault.stage = "response";
  cfg.stage_fault.kill_on_invocation = 2;

  auto run = run_pipeline(fs, input, work, cfg);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().count_quarantined(), 1);
  EXPECT_EQ(run.value().count_degraded(), 0);
  EXPECT_TRUE(validate_workdir(fs, work).clean());
}

// A FileSystem wrapper that rejects matching writes the way an open
// circuit breaker would — deterministic stand-in for the timing-driven
// open window.
class RejectWrites final : public FileSystem {
 public:
  RejectWrites(FileSystem& inner, std::string substring)
      : inner_(inner), substring_(std::move(substring)) {}

  Result<std::string, IoError> read_file(const stdfs::path& p) override {
    return inner_.read_file(p);
  }
  Result<Unit, IoError> write_file(const stdfs::path& p,
                                   std::string_view content) override {
    if (p.string().find(substring_) != std::string::npos) {
      return IoError{IoError::Code::kCircuitOpen, ErrorClass::kTransient,
                     p.string(), "storage circuit breaker is open"};
    }
    return inner_.write_file(p, content);
  }
  Result<Unit, IoError> rename(const stdfs::path& a,
                               const stdfs::path& b) override {
    return inner_.rename(a, b);
  }
  Result<Unit, IoError> create_directories(const stdfs::path& p) override {
    return inner_.create_directories(p);
  }
  Result<std::vector<stdfs::path>, IoError> list_dir(
      const stdfs::path& d) override {
    return inner_.list_dir(d);
  }
  Result<std::vector<stdfs::path>, IoError> list_tree(
      const stdfs::path& d) override {
    return inner_.list_tree(d);
  }
  Result<Unit, IoError> remove_all(const stdfs::path& p) override {
    return inner_.remove_all(p);
  }
  bool exists(const stdfs::path& p) override { return inner_.exists(p); }
  std::uintmax_t file_size(const stdfs::path& p) override {
    return inner_.file_size(p);
  }

 private:
  FileSystem& inner_;
  std::string substring_;
};

TEST(Degradation, CircuitOpenRejectionsShedWithTheStorageReason) {
  test::TempDir tmp("degrade");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  build_event(fs, input, 2);

  RejectWrites rejecting(fs, ".f");  // fourier spectra hit the open breaker
  RunnerConfig cfg;
  cfg.sleep = [](int) {};
  cfg.driver = Driver::kSequentialOptimized;
  auto run = run_pipeline(rejecting, input, work, cfg);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().count_degraded(), 2);
  for (const RecordOutcome& r : run.value().records) {
    ASSERT_EQ(r.shed.size(), 1u);
    EXPECT_EQ(r.shed[0].stage, "fourier");
    EXPECT_EQ(r.shed[0].reason, "transient_exhausted.storage.circuit_open");
  }
  EXPECT_TRUE(validate_workdir(fs, work).clean());
}

TEST(Breaker, OpensAndRecoversAcrossARunAndLandsInTheReport) {
  test::TempDir tmp("breaker");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  build_event(fs, input, 3);

  // The first six reads of input records fail: the breaker trips, then
  // (open_seconds = 0 → immediate half-open probes) recovers as soon as
  // the backend heals.
  faultfs::FaultConfig faults;
  faults.path_filter = "/input/";
  faults.read_fail_first_n = 6;
  faultfs::FaultyFileSystem flaky(fs, faults);

  storage::BreakerConfig bcfg;
  bcfg.failure_threshold = 2;
  bcfg.open_seconds = 0;
  bcfg.half_open_probes = 1;
  storage::CircuitBreaker breaker(bcfg);
  storage::BreakerFileSystem guarded(flaky, breaker);

  RunnerConfig cfg;
  cfg.sleep = [](int) {};
  cfg.retry.max_attempts = 8;  // enough to ride through the fault window
  cfg.breaker = &breaker;
  auto run = run_pipeline(guarded, input, work, cfg);
  ASSERT_TRUE(run.ok());
  const RunReport& report = run.value();
  EXPECT_EQ(report.count_ok(), 3) << "breaker + retries ride out the outage";
  EXPECT_GE(report.breaker.opens, 1);
  EXPECT_GE(report.breaker.half_open_recoveries, 1);
  EXPECT_TRUE(validate_workdir(fs, work).clean());

  // The counters round-trip through the v6 schema.
  auto text = fs.read_file(work / kRunReportFileName);
  ASSERT_TRUE(text.ok());
  auto parsed = RunReport::from_json_text(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().breaker.opens, report.breaker.opens);
  EXPECT_EQ(parsed.value().breaker.half_open_recoveries,
            report.breaker.half_open_recoveries);
}

TEST(Batch, DeadlinePressureDegradesEveryEventInTheBatchReport) {
  test::TempDir tmp("batch");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  for (const char* ev : {"ev1", "ev2"}) build_event(fs, input / ev, 2);

  BatchConfig cfg = batch_config();
  cfg.runner.driver = Driver::kSequentialOptimized;
  cfg.runner.deadline.soft_seconds = 0.5;
  double t = 0;
  cfg.runner.now = [&t] { return t += 1.0; };

  auto run = BatchRunner(fs, cfg).run(input, work);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().count_status("degraded"), 2);
  for (const EventOutcome& e : run.value().events) {
    EXPECT_EQ(e.records_degraded, 2) << e.event;
    EXPECT_GT(e.points, 0) << e.event;
  }
}

// --- Kill-and-resume: the crash contract, against the real binary ------

#ifdef ACX_BATCH_TOOL
int run_tool(const std::string& args) {
  const std::string cmd =
      std::string(ACX_BATCH_TOOL) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(KillResume, MidBatchProcessDeathResumesWithByteIdenticalReports) {
  test::TempDir tmp("killresume");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  // Event sizes stagger the kill: ev_a (2 records) completes and
  // journals; ev_b (4 records) draws the 3rd write_v2 invocation of its
  // own run and dies mid-event.
  build_event(fs, input / "ev_a", 2);
  build_event(fs, input / "ev_b", 4);
  build_event(fs, input / "ev_c", 3);

  const std::string common = "--input " + input.string() +
                             " --driver seq --event-workers 1 --shards 1 "
                             "--priority fifo";
  const auto work = tmp.path() / "work";
  const auto baseline_work = tmp.path() / "work-clean";

  // Fault-free reference run into its own work root.
  ASSERT_EQ(run_tool(common + " --work " + baseline_work.string()), 0);

  // Crash run: the process dies (exit 137, no journal for ev_b/ev_c).
  ASSERT_EQ(run_tool(common + " --work " + work.string() +
                     " --kill-stage write_v2 --kill-on 3"),
            137);
  EXPECT_TRUE(fs.exists(work / "journal" / "ev_a.json"));
  EXPECT_FALSE(fs.exists(work / "journal" / "ev_b.json"));
  EXPECT_FALSE(fs.exists(work / kBatchReportFileName));

  // Resume: ev_a is skipped off its journal, the survivors reprocess.
  ASSERT_EQ(run_tool(common + " --work " + work.string()), 0);
  auto text = fs.read_file(work / kBatchReportFileName);
  ASSERT_TRUE(text.ok());
  auto report = BatchReport::from_json_text(text.value());
  ASSERT_TRUE(report.ok()) << report.error();
  ASSERT_EQ(report.value().events.size(), 3u);
  EXPECT_EQ(report.value().count_status("ok"), 3) << "no event may be lost";
  EXPECT_EQ(report.value().count_resumed(), 1);
  for (const EventOutcome& e : report.value().events) {
    EXPECT_EQ(e.resumed, e.event == "ev_a") << e.event;
  }

  // Every event's canonical report is byte-identical to the fault-free
  // run — resumed and reprocessed alike.
  for (const char* ev : {"ev_a", "ev_b", "ev_c"}) {
    const stdfs::path rel = stdfs::path("events") / "s0" / ev /
                            kRunReportFileName;
    auto crashed = fs.read_file(work / rel);
    auto clean = fs.read_file(baseline_work / rel);
    ASSERT_TRUE(crashed.ok() && clean.ok()) << ev;
    auto a = RunReport::from_json_text(crashed.value());
    auto b = RunReport::from_json_text(clean.value());
    ASSERT_TRUE(a.ok() && b.ok()) << ev;
    EXPECT_EQ(a.value().canonical_dump(), b.value().canonical_dump()) << ev;
  }
}
// The acceptance storm: modeled latency + 10% seeded op faults + a
// mid-batch kill, then a resume under the same fault model. No event
// may be lost — each ends ok/degraded/quarantined with typed reasons —
// and any event that ends ok must be canonically byte-identical to the
// fault-free run. Everything is seeded, so outcomes are deterministic.
TEST(KillResume, SeededFaultStormLosesNoEventsAndKeepsOkReportsCanonical) {
  test::TempDir tmp("storm");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  build_event(fs, input / "ev_a", 2);
  build_event(fs, input / "ev_b", 4);
  build_event(fs, input / "ev_c", 3);

  const std::string common = "--input " + input.string() +
                             " --driver seq --event-workers 1 --shards 1 "
                             "--priority fifo";
  const std::string storm =
      " --storage-latency-ms 1 --storage-jitter-ms 1"
      " --storage-fail-p 0.1 --storage-seed 40 --max-retries 8"
      " --breaker-threshold 2 --breaker-open-s 0 --breaker-probes 1"
      " --jitter-seed 5";
  const auto work = tmp.path() / "work";
  const auto baseline_work = tmp.path() / "work-clean";

  ASSERT_EQ(run_tool(common + " --work " + baseline_work.string()), 0);

  ASSERT_EQ(run_tool(common + storm + " --work " + work.string() +
                     " --kill-stage write_v2 --kill-on 3"),
            137);
  EXPECT_FALSE(fs.exists(work / kBatchReportFileName));

  const int exit = run_tool(common + storm + " --work " + work.string());
  EXPECT_TRUE(exit == 0 || exit == 3) << "resume exit " << exit;
  auto text = fs.read_file(work / kBatchReportFileName);
  ASSERT_TRUE(text.ok());
  auto report = BatchReport::from_json_text(text.value());
  ASSERT_TRUE(report.ok()) << report.error();
  const BatchReport& batch = report.value();

  ASSERT_EQ(batch.events.size(), 3u) << "an event was lost";
  for (const EventOutcome& e : batch.events) {
    EXPECT_TRUE(e.status == "ok" || e.status == "degraded" ||
                e.status == "quarantined")
        << e.event << ": " << e.status;
  }
  // 10% faults against a 2-consecutive-failure threshold trip the
  // breaker at least once, and the zero-cooldown probe recovers it.
  EXPECT_GE(batch.breaker.opens, 1);
  EXPECT_GE(batch.breaker.half_open_recoveries, 1);

  // Whatever survived as "ok" must be indistinguishable from a run
  // that never saw a fault.
  int ok_events = 0;
  for (const EventOutcome& e : batch.events) {
    if (e.status != "ok") continue;
    ++ok_events;
    const stdfs::path rel = stdfs::path("events") / "s0" / e.event /
                            kRunReportFileName;
    auto stormy = fs.read_file(work / rel);
    auto clean = fs.read_file(baseline_work / rel);
    ASSERT_TRUE(stormy.ok() && clean.ok()) << e.event;
    auto a = RunReport::from_json_text(stormy.value());
    auto b = RunReport::from_json_text(clean.value());
    ASSERT_TRUE(a.ok() && b.ok()) << e.event;
    EXPECT_EQ(a.value().canonical_dump(), b.value().canonical_dump())
        << e.event;
  }
  EXPECT_GE(ok_events, 1) << "the storm should not wipe out every event";
}
#endif  // ACX_BATCH_TOOL

}  // namespace
}  // namespace acx::pipeline
