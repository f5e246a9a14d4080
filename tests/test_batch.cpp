// The multi-event batch layer: bounded-queue admission, per-event
// deadline budgets (soft shed / hard stop), graceful degradation to
// `degraded` status, and the tree run (`acx_serve --input`): discovery,
// resume off the spool's done/ and the kill-and-resume crash contract
// (spawning the real acx_serve binary and killing it mid-run).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pipeline/runner.hpp"
#include "pipeline/serve.hpp"
#include "pipeline/validate.hpp"
#include "synth/synth.hpp"

#include "test_helpers.hpp"
#include "util/bounded_queue.hpp"
#include "util/breaker.hpp"
#include "util/faultfs.hpp"

namespace acx::pipeline {
namespace {

namespace stdfs = std::filesystem;

void build_event(FileSystem& fs, const stdfs::path& dir, int n_files) {
  synth::EventSpec spec = synth::paper_events()[0];
  spec.n_files = n_files;
  synth::SynthConfig scfg;
  scfg.scale = 0.02;
  ASSERT_TRUE(synth::build_event_dataset(fs, dir, spec, scfg).ok());
}

// A tree run's engine: one sequential event at a time, no backoff sleeps.
ServeConfig tree_config() {
  ServeConfig cfg;
  cfg.runner.driver = Driver::kSequential;
  cfg.runner.sleep = [](int) {};
  cfg.event_workers = 1;
  cfg.poll_ms = 2;
  return cfg;
}

// One tree run in process over <root>/input, <root>/spool and
// <root>/work, as `acx_serve --input` runs it: spool, then drain.
struct TreeRun {
  std::vector<std::string> spooled;
  std::vector<std::pair<std::string, std::string>> done;  // skipped: id, status
  ServeStats stats;
};

TreeRun tree_run(FileSystem& fs, const ServeConfig& cfg,
                 const stdfs::path& root) {
  TreeRun out;
  auto spooled = spool_tree(fs, cfg, root / "input", root / "spool",
                            root / "work");
  EXPECT_TRUE(spooled.ok()) << spooled.error().to_string();
  out.spooled = spooled.ok() ? spooled.value().spooled
                             : std::vector<std::string>{};
  out.done = spooled.ok() ? spooled.value().done : out.done;
  auto served = SpoolServer(fs, cfg).run(root / "spool", root / "work");
  EXPECT_TRUE(served.ok()) << served.error().to_string();
  if (served.ok()) out.stats = served.value();
  return out;
}

// One event's run_report.json text, from the work dir admit() gave it.
std::string report_text(FileSystem& fs, const stdfs::path& work,
                        const std::string& event,
                        int shards = ServeConfig{}.shards) {
  auto text = fs.read_file(event_work_dir(work, event, shards) /
                           kRunReportFileName);
  EXPECT_TRUE(text.ok()) << event;
  return text.value_or("{}");
}

RunReport event_report(FileSystem& fs, const stdfs::path& work,
                       const std::string& event,
                       int shards = ServeConfig{}.shards) {
  auto parsed = RunReport::from_json_text(report_text(fs, work, event, shards));
  EXPECT_TRUE(parsed.ok()) << event << ": "
                           << (parsed.ok() ? "" : parsed.error());
  return parsed.ok() ? std::move(parsed).take() : RunReport{};
}

// Manifests (*.json) anywhere under `dir`.
int count_manifests(FileSystem& fs, const stdfs::path& dir) {
  int n = 0;
  for (const stdfs::path& p : fs.list_tree(dir).value_or({})) {
    if (p.extension() == ".json") ++n;
  }
  return n;
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

TEST(Batch, RunsEveryEventAndEveryWorkDirValidates) {
  test::TempDir tmp("batch");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto spool = tmp.path() / "spool";
  const auto work = tmp.path() / "work";
  for (const char* ev : {"ev1", "ev2", "ev3", "ev4", "ev5"}) {
    build_event(fs, input / ev, 3);
  }

  ServeConfig cfg = tree_config();
  cfg.event_workers = 3;
  cfg.queue_capacity = 2;  // exercises backpressure on the claimer
  cfg.shards = 4;
  const TreeRun run = tree_run(fs, cfg, tmp.path());

  EXPECT_EQ(run.spooled,
            (std::vector<std::string>{"ev1", "ev2", "ev3", "ev4", "ev5"}));
  EXPECT_EQ(run.stats.served, 5);
  EXPECT_EQ(run.stats.ok, 5);
  EXPECT_EQ(run.stats.records_ok, 15);
  EXPECT_GT(run.stats.points, 0);
  for (const char* ev : {"ev1", "ev2", "ev3", "ev4", "ev5"}) {
    const RunReport report = event_report(fs, work, ev, cfg.shards);
    EXPECT_EQ(report.count_ok(), 3) << ev;
    EXPECT_GT(report.total_points(), 0) << ev;
    EXPECT_TRUE(validate_workdir(fs, event_work_dir(work, ev, cfg.shards))
                    .clean())
        << ev;
    const std::string name = std::string(ev) + ".json";
    EXPECT_TRUE(fs.exists(spool / "done" / name)) << ev;
    EXPECT_FALSE(fs.exists(spool / "done" / (name + ".reason"))) << ev;

    // The manifest weighs the event by its summed record bytes.
    std::uintmax_t bytes = 0;
    for (const stdfs::path& p : fs.list_dir(input / ev).value_or({})) {
      bytes += fs.file_size(p);
    }
    auto manifest = Json::parse(fs.read_file(spool / "done" / name).value());
    ASSERT_TRUE(manifest.ok()) << ev;
    EXPECT_EQ(manifest.value().get_number("priority_bytes", -1),
              static_cast<double>(bytes))
        << ev;
  }
  EXPECT_EQ(count_manifests(fs, spool / "claimed"), 0);
  EXPECT_FALSE(fs.exists(spool / kServeShutdownSentinel));

  // The written stats round-trip as JSON and count the whole tree.
  auto text = fs.read_file(work / kServeStatsFileName);
  ASSERT_TRUE(text.ok());
  auto parsed = Json::parse(text.value());
  ASSERT_TRUE(parsed.ok());
  const Json* events = parsed.value().find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->get_number("served", -1), 5);
  EXPECT_EQ(events->get_number("ok", -1), 5);
}

TEST(Batch, ResumeSkipsDoneEventsAndKeepsReportsByteIdentical) {
  test::TempDir tmp("batch");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto spool = tmp.path() / "spool";
  const auto work = tmp.path() / "work";
  const std::vector<std::string> events = {"ev1", "ev2", "ev3"};
  for (const std::string& ev : events) build_event(fs, input / ev, 3);

  const ServeConfig cfg = tree_config();
  ASSERT_EQ(tree_run(fs, cfg, tmp.path()).stats.served, 3);
  std::vector<std::string> reports, canonical;
  for (const std::string& ev : events) {
    reports.push_back(report_text(fs, work, ev));
    canonical.push_back(event_report(fs, work, ev).canonical_dump());
  }

  // Drop ev2's done/ entry: a rerun must run exactly that event again.
  ASSERT_TRUE(fs.remove_all(spool / "done" / "ev2.json").ok());
  const TreeRun second = tree_run(fs, cfg, tmp.path());
  EXPECT_EQ(second.spooled, std::vector<std::string>{"ev2"});
  EXPECT_EQ(second.stats.served, 1);
  EXPECT_EQ(second.stats.ok, 1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    // A skipped event's whole report, timings included, is untouched:
    // it was not run again. The rerun one matches canonically.
    if (events[i] != "ev2") {
      EXPECT_EQ(report_text(fs, work, events[i]), reports[i]) << events[i];
    }
    EXPECT_EQ(event_report(fs, work, events[i]).canonical_dump(),
              canonical[i])
        << events[i];
  }

  // A done event whose work dir no longer validates runs again too.
  const auto outs =
      fs.list_dir(event_work_dir(work, "ev3", cfg.shards) / "out").value();
  ASSERT_FALSE(outs.empty());
  ASSERT_TRUE(fs.remove_all(outs.front()).ok());
  const TreeRun third = tree_run(fs, cfg, tmp.path());
  EXPECT_EQ(third.spooled, std::vector<std::string>{"ev3"});
  EXPECT_EQ(event_report(fs, work, "ev3").canonical_dump(), canonical[2]);

  // A fourth run finds everything done: nothing spooled, nothing served,
  // and every skipped event reported with its status.
  const TreeRun fourth = tree_run(fs, cfg, tmp.path());
  EXPECT_TRUE(fourth.spooled.empty());
  EXPECT_EQ(fourth.done, (std::vector<std::pair<std::string, std::string>>{
                             {"ev1", "ok"}, {"ev2", "ok"}, {"ev3", "ok"}}));
  EXPECT_EQ(fourth.stats.served, 0);
  EXPECT_EQ(count_manifests(fs, spool / "done"), 3);
}

TEST(Batch, LargestFirstPriorityClaimsBiggestEventFirst) {
  test::TempDir tmp("batch");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  // One worker, and manifests claimed in name order: FIFO would run
  // a-first, b-small, c-big. The whole tree is queued before the worker
  // starts, so largest-first orders all of it.
  build_event(fs, input / "a-first", 4);
  build_event(fs, input / "b-small", 2);
  build_event(fs, input / "c-big", 8);

  ServeConfig cfg = tree_config();
  cfg.priority = ServeConfig::Priority::kLargest;
  const TreeRun run = tree_run(fs, cfg, tmp.path());
  EXPECT_EQ(run.stats.ok, 3);
  std::vector<std::string> order;
  for (const ServeEventSample& s : run.stats.trajectory) {
    order.push_back(s.event);
  }
  EXPECT_EQ(order,
            (std::vector<std::string>{"c-big", "a-first", "b-small"}));
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

TEST(Breaker, FailedAtomicWriteCleanupNeitherResetsNorWaitsOnTheBreaker) {
  test::TempDir tmp("breaker");
  RealFileSystem fs;
  // Every write fails torn, leaving a temporary for atomic_write_file to
  // clean up.
  faultfs::FaultConfig faults;
  faults.write_fail_p = 1;
  faultfs::FaultyFileSystem flaky(fs, faults);
  storage::BreakerConfig bcfg;
  bcfg.failure_threshold = 2;
  bcfg.open_seconds = 60;
  storage::CircuitBreaker breaker(bcfg);
  storage::BreakerFileSystem guarded(flaky, breaker);

  // Two failed writes in a row trip the breaker: the successful cleanup
  // between them is not a success of the write path.
  EXPECT_FALSE(atomic_write_file(guarded, tmp.path() / "a.txt", "abcd").ok());
  EXPECT_EQ(breaker.state(), storage::CircuitBreaker::State::kClosed);
  EXPECT_FALSE(atomic_write_file(guarded, tmp.path() / "a.txt", "abcd").ok());
  EXPECT_EQ(breaker.state(), storage::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.counters().opens, 1);
  // The cleanup after the tripping write still ran: no torn temporary
  // is left behind.
  EXPECT_TRUE(fs.list_dir(tmp.path()).value_or({}).empty());
}

TEST(Batch, DeadlinePressureDegradesEveryEventInServeStats) {
  test::TempDir tmp("batch");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  for (const char* ev : {"ev1", "ev2"}) build_event(fs, input / ev, 2);

  ServeConfig cfg = tree_config();
  cfg.runner.driver = Driver::kSequentialOptimized;
  cfg.runner.deadline.soft_seconds = 0.5;
  auto ticks = std::make_shared<std::atomic<long long>>(0);
  cfg.runner.now = [ticks] { return static_cast<double>(++*ticks); };

  const TreeRun run = tree_run(fs, cfg, tmp.path());
  EXPECT_EQ(run.stats.served, 2);
  EXPECT_EQ(run.stats.degraded, 2);
  EXPECT_EQ(run.stats.records_degraded, 4);
  for (const char* ev : {"ev1", "ev2"}) {
    const RunReport report = event_report(fs, tmp.path() / "work", ev);
    EXPECT_EQ(report.count_degraded(), 2) << ev;
    EXPECT_GT(report.total_points(), 0) << ev;
  }
}

TEST(TreeRun, FlattenedIdCollisionFailsNamingBothDirectoriesAndSpoolsNothing) {
  test::TempDir tmp("tree");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto spool = tmp.path() / "spool";
  // a/b and a_b both flatten to event id a_b.
  build_event(fs, input / "a" / "b", 2);
  build_event(fs, input / "a_b", 3);

  auto spooled =
      spool_tree(fs, tree_config(), input, spool, tmp.path() / "work");
  ASSERT_FALSE(spooled.ok()) << "two directories merged into one event";
  EXPECT_EQ(spooled.error().code, IoError::Code::kEventIdCollision);
  EXPECT_NE(spooled.error().detail.find((input / "a" / "b").string()),
            std::string::npos)
      << spooled.error().detail;
  EXPECT_NE(spooled.error().detail.find((input / "a_b").string()),
            std::string::npos)
      << spooled.error().detail;
  EXPECT_EQ(count_manifests(fs, spool), 0);
  EXPECT_FALSE(fs.exists(spool / kServeShutdownSentinel));
}

TEST(TreeRun, RecordsAtTheRootCollideWithASubdirectoryNamedRoot) {
  test::TempDir tmp("tree");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  build_event(fs, input, 2);
  build_event(fs, input / "root", 2);

  auto found = discover_events(fs, tree_config().runner, input);
  ASSERT_FALSE(found.ok());
  EXPECT_EQ(found.error().code, IoError::Code::kEventIdCollision);
  EXPECT_NE(found.error().detail.find("'root'"), std::string::npos)
      << found.error().detail;
  EXPECT_NE(found.error().detail.find((input / "root").string()),
            std::string::npos)
      << found.error().detail;
}

TEST(TreeRun, AnIdTheSpoolRefusesIsRejectedWhileTheOtherEventsRun) {
  test::TempDir tmp("tree");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto spool = tmp.path() / "spool";
  build_event(fs, input / "ev 1", 2);
  build_event(fs, input / "ev2", 2);

  const TreeRun run = tree_run(fs, tree_config(), tmp.path());
  EXPECT_EQ(run.spooled, (std::vector<std::string>{"ev 1", "ev2"}));
  EXPECT_EQ(run.stats.served, 1);
  EXPECT_EQ(run.stats.ok, 1);
  EXPECT_EQ(run.stats.malformed, 1);
  EXPECT_TRUE(fs.exists(spool / "rejected" / "ev 1.json"));
  EXPECT_EQ(fs.read_file(spool / "rejected" / "ev 1.json.reason").value_or(""),
            "missing or invalid event id\n");
  EXPECT_TRUE(fs.exists(spool / "done" / "ev2.json"));
}

// --- Kill-and-resume: the crash contract, against the real binary ------

#ifdef ACX_SERVE_TOOL
int run_tool(const std::string& args) {
  const std::string cmd =
      std::string(ACX_SERVE_TOOL) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// `acx_serve --input` over <root>/input, spooling into <root>/<tag>-spool
// and working in <root>/<tag>-work.
std::string tree_args(const stdfs::path& root, const std::string& tag) {
  return "--input " + (root / "input").string() + " --spool " +
         (root / (tag + "-spool")).string() + " --work " +
         (root / (tag + "-work")).string() +
         " --driver seq --event-workers 1 --shards 1 --priority fifo";
}

// After a drain: every manifest in done/, none claimed or left in the
// spool root, the sentinel consumed.
void expect_drained(FileSystem& fs, const stdfs::path& spool, int events) {
  EXPECT_EQ(count_manifests(fs, spool / "done"), events);
  EXPECT_EQ(count_manifests(fs, spool / "claimed"), 0);
  int left = 0;
  for (const stdfs::path& p : fs.list_dir(spool).value_or({})) {
    if (p.extension() == ".json") ++left;
  }
  EXPECT_EQ(left, 0);
  EXPECT_FALSE(fs.exists(spool / kServeShutdownSentinel));
}

TEST(KillResume, MidBatchProcessDeathResumesWithByteIdenticalReports) {
  test::TempDir tmp("killresume");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  // Event sizes stagger the kill: ev_a (2 records) completes and lands
  // in done/; ev_b (4 records) draws the 3rd write_v2 invocation of its
  // own run and dies mid-event, with ev_c claimed behind it.
  build_event(fs, input / "ev_a", 2);
  build_event(fs, input / "ev_b", 4);
  build_event(fs, input / "ev_c", 3);
  const auto spool = tmp.path() / "crash-spool";
  const auto work = tmp.path() / "crash-work";
  const auto clean_work = tmp.path() / "clean-work";

  // Fault-free reference run into its own spool and work root.
  ASSERT_EQ(run_tool(tree_args(tmp.path(), "clean")), 0);

  // Crash run: the process dies (exit 137) with ev_b and ev_c claimed.
  ASSERT_EQ(run_tool(tree_args(tmp.path(), "crash") +
                     " --kill-stage write_v2 --kill-on 3"),
            137);
  EXPECT_TRUE(fs.exists(spool / "done" / "ev_a.json"));
  EXPECT_FALSE(fs.exists(spool / "done" / "ev_b.json"));
  EXPECT_EQ(count_manifests(fs, spool / "claimed"), 2);
  const std::string ev_a_report = report_text(fs, work, "ev_a", 1);

  // Resume with the same command: ev_a is skipped off done/, the dead
  // instance's claims are reclaimed and served.
  ASSERT_EQ(run_tool(tree_args(tmp.path(), "crash")), 0);
  expect_drained(fs, spool, 3);
  EXPECT_EQ(report_text(fs, work, "ev_a", 1), ev_a_report)
      << "a skipped event must not run again";
  auto stats = Json::parse(fs.read_file(work / kServeStatsFileName).value());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().find("events")->get_number("served", -1), 2);
  EXPECT_EQ(stats.value().find("events")->get_number("ok", -1), 2);

  // Every event's canonical report is byte-identical to the fault-free
  // run — skipped and reprocessed alike.
  for (const char* ev : {"ev_a", "ev_b", "ev_c"}) {
    EXPECT_EQ(event_report(fs, work, ev, 1).canonical_dump(),
              event_report(fs, clean_work, ev, 1).canonical_dump())
        << ev;
  }
}

// The acceptance storm: modeled latency + 10% seeded op faults + a
// mid-run kill, then a resume under the same fault model. No event may
// be lost — each ends in done/ as ok/degraded/quarantined, or with a
// reason note when its run failed — and any event that ends ok must be
// canonically byte-identical to the fault-free run. Everything is
// seeded, and with one event worker every spool claim precedes the
// first event, so outcomes are deterministic.
TEST(KillResume, SeededFaultStormLosesNoEventsAndKeepsOkReportsCanonical) {
  test::TempDir tmp("storm");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  build_event(fs, input / "ev_a", 2);
  build_event(fs, input / "ev_b", 4);
  build_event(fs, input / "ev_c", 3);
  const std::string storm =
      " --storage-latency-ms 1 --storage-jitter-ms 1"
      " --storage-fail-p 0.1 --storage-seed 40 --max-retries 8"
      " --breaker-threshold 2 --breaker-open-s 0 --breaker-probes 1"
      " --jitter-seed 5";
  const auto spool = tmp.path() / "storm-spool";
  const auto work = tmp.path() / "storm-work";
  const auto clean_work = tmp.path() / "clean-work";

  ASSERT_EQ(run_tool(tree_args(tmp.path(), "clean")), 0);
  ASSERT_EQ(run_tool(tree_args(tmp.path(), "storm") + storm +
                     " --kill-stage write_v2 --kill-on 3"),
            137);
  const int exit = run_tool(tree_args(tmp.path(), "storm") + storm);
  EXPECT_TRUE(exit == 0 || exit == 3) << "resume exit " << exit;
  expect_drained(fs, spool, 3);

  int ok_events = 0;
  for (const char* ev : {"ev_a", "ev_b", "ev_c"}) {
    const stdfs::path dir = event_work_dir(work, ev, 1);
    if (!fs.exists(dir / kRunReportFileName)) {
      // The run itself failed: its done/ note names the reason.
      EXPECT_FALSE(
          fs.read_file(spool / "done" / (std::string(ev) + ".json.reason"))
              .value_or("")
              .empty())
          << ev << " has neither a report nor a reason";
      continue;
    }
    const RunReport report = event_report(fs, work, ev, 1);
    const std::string status = report.status();
    EXPECT_TRUE(status == "ok" || status == "degraded" ||
                status == "quarantined")
        << ev << ": " << status;
    if (status != "ok") continue;
    // Whatever survived as "ok" must be indistinguishable from a run
    // that never saw a fault.
    ++ok_events;
    EXPECT_EQ(report.canonical_dump(),
              event_report(fs, clean_work, ev, 1).canonical_dump())
        << ev;
  }
  EXPECT_GE(ok_events, 1) << "the storm should not wipe out every event";

  // 10% faults against a 2-consecutive-failure threshold trip the
  // breaker at least once, and the zero-cooldown probe recovers it.
  auto stats = Json::parse(fs.read_file(work / kServeStatsFileName).value());
  ASSERT_TRUE(stats.ok());
  auto breaker = breaker_from_json(stats.value());
  ASSERT_TRUE(breaker.ok()) << breaker.error();
  EXPECT_GE(breaker.value().opens, 1);
  EXPECT_GE(breaker.value().half_open_recoveries, 1);
}
// A rerun serves nothing new, but the tree's outcome still counts the
// events it skips: a degraded event in done/ keeps the exit code at 3.
TEST(TreeRun, ARerunStillExitsThreeForAnAlreadyDoneDegradedEvent) {
  test::TempDir tmp("tree");
  RealFileSystem fs;
  build_event(fs, tmp.path() / "input" / "ev1", 2);
  build_event(fs, tmp.path() / "input" / "ev2", 2);
  const auto work = tmp.path() / "t-work";

  // An expired soft budget sheds the enrichment stages: degraded.
  ASSERT_EQ(run_tool(tree_args(tmp.path(), "t") + " --soft-deadline-s 1e-9"),
            3);
  for (const char* ev : {"ev1", "ev2"}) {
    EXPECT_STREQ(event_report(fs, work, ev, 1).status(), "degraded") << ev;
  }
  const std::string report = report_text(fs, work, "ev1", 1);

  // Rerun with no budget: nothing runs again, and the exit still says
  // the tree is not all ok.
  EXPECT_EQ(run_tool(tree_args(tmp.path(), "t")), 3);
  EXPECT_EQ(report_text(fs, work, "ev1", 1), report);
  auto stats = Json::parse(fs.read_file(work / kServeStatsFileName).value());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().find("events")->get_number("served", -1), 0);
}
#endif  // ACX_SERVE_TOOL

}  // namespace
}  // namespace acx::pipeline
