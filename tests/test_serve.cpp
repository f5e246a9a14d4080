// The resident service layer (pipeline/serve.hpp): spool admission by
// atomic rename, malformed/duplicate rejection with audit notes, the
// done/ note of a run that failed, drain-first shutdown via the
// sentinel, the serve_stats.json schema,
// the plan-cache amortization the shared WorkPool exists for, and the
// crash contract (dead-owner reclaim, spawning the real acx_serve binary
// and killing it mid-stream).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/serve.hpp"
#include "pipeline/validate.hpp"
#include "synth/synth.hpp"
#include "test_helpers.hpp"
#include "util/faultfs.hpp"
#include "util/work_pool.hpp"

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

// Stage a manifest the way a well-behaved producer does: write into
// tmp/, then rename into the spool root.
void drop_manifest(FileSystem& fs, const stdfs::path& spool,
                   const std::string& name, const std::string& body) {
  ASSERT_TRUE(fs.create_directories(spool / "tmp").ok());
  ASSERT_TRUE(fs.write_file(spool / "tmp" / name, body).ok());
  ASSERT_TRUE(fs.rename(spool / "tmp" / name, spool / name).ok());
}

std::string manifest_body(const std::string& event, const stdfs::path& input) {
  return "{\"event\": \"" + event + "\", \"input\": \"" + input.string() +
         "\"}\n";
}

// Manifests (*.json) anywhere under `dir`: claims sit one level down,
// in their owner's claim dir.
int count_manifests(FileSystem& fs, const stdfs::path& dir) {
  int n = 0;
  for (const stdfs::path& p : fs.list_tree(dir).value_or({})) {
    if (p.extension() == ".json") ++n;
  }
  return n;
}

// The served event's work dir: the shard admit() gave it.
stdfs::path served_dir(const stdfs::path& work, const std::string& event) {
  return event_work_dir(work, event, ServeConfig{}.shards);
}

RunReport read_report(FileSystem& fs, const stdfs::path& dir) {
  auto text = fs.read_file(dir / kRunReportFileName);
  EXPECT_TRUE(text.ok()) << dir;
  auto parsed = RunReport::from_json_text(text.value_or("{}"));
  EXPECT_TRUE(parsed.ok()) << (parsed.ok() ? "" : parsed.error());
  return parsed.ok() ? std::move(parsed).take() : RunReport{};
}

ServeConfig serve_config(WorkPool* pool) {
  ServeConfig cfg;
  cfg.runner.sleep = [](int) {};
  cfg.runner.threads = 2;
  cfg.pool = pool;
  cfg.poll_ms = 2;
  cfg.event_workers = 2;
  return cfg;
}

TEST(Serve, ServesSpooledEventsAndDrainsOnTheShutdownSentinel) {
  test::TempDir tmp("serve");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto spool = tmp.path() / "spool";
  const auto work = tmp.path() / "work";
  build_event(fs, input, 4);

  ASSERT_TRUE(fs.create_directories(spool).ok());
  for (const char* ev : {"ev-a", "ev-b", "ev-c"}) {
    drop_manifest(fs, spool, std::string(ev) + ".json",
                  manifest_body(ev, input));
  }
  // The sentinel is honored only once the spool is empty, so all three
  // manifests above are admitted and drained first.
  ASSERT_TRUE(fs.write_file(spool / kServeShutdownSentinel, "").ok());

  WorkPool pool(2);
  SpoolServer server(fs, serve_config(&pool));
  auto run = server.run(spool, work);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServeStats& stats = run.value();

  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.served, 3);
  EXPECT_EQ(stats.ok, 3);
  EXPECT_EQ(stats.malformed, 0);
  EXPECT_EQ(stats.in_flight, 0);
  EXPECT_EQ(stats.records_ok, 12);
  EXPECT_GT(stats.points, 0);
  EXPECT_EQ(stats.driver, "pool");
  EXPECT_EQ(stats.pool_threads, 2);
  EXPECT_GE(stats.pool.executed, 12);

  // Audit trail: every manifest in done/, none left in the root or
  // anywhere under claimed/, sentinel consumed so a restart does not
  // instantly exit.
  for (const char* ev : {"ev-a", "ev-b", "ev-c"}) {
    const std::string name = std::string(ev) + ".json";
    EXPECT_TRUE(fs.exists(spool / "done" / name)) << ev;
    EXPECT_FALSE(fs.exists(spool / name)) << ev;
  }
  EXPECT_EQ(count_manifests(fs, spool / "claimed"), 0);
  EXPECT_FALSE(fs.exists(spool / kServeShutdownSentinel));

  // Every event's work dir validates and its run report names the pool
  // driver; serve_stats.json exists and round-trips as JSON.
  int found = 0;
  for (const char* ev : {"ev-a", "ev-b", "ev-c"}) {
    for (int s = 0; s < 16; ++s) {
      const auto dir = work / "events" / ("s" + std::to_string(s)) / ev;
      if (!fs.exists(dir)) continue;
      ++found;
      EXPECT_TRUE(validate_workdir(fs, dir).clean()) << ev;
      auto report = fs.read_file(dir / kRunReportFileName);
      ASSERT_TRUE(report.ok());
      auto parsed = RunReport::from_json_text(report.value());
      ASSERT_TRUE(parsed.ok()) << parsed.error();
      EXPECT_EQ(parsed.value().driver, "pool") << ev;
      EXPECT_EQ(parsed.value().threads, 2) << ev;
    }
  }
  EXPECT_EQ(found, 3);

  auto stats_text = fs.read_file(work / kServeStatsFileName);
  ASSERT_TRUE(stats_text.ok());
  auto parsed = Json::parse(stats_text.value());
  ASSERT_TRUE(parsed.ok());
  const Json doc = std::move(parsed).take();
  EXPECT_EQ(doc.get_number("version", -1), ServeStats::kVersion);
  ASSERT_NE(doc.find("plan_cache"), nullptr);
  ASSERT_NE(doc.find("pool"), nullptr);
  ASSERT_NE(doc.find("events"), nullptr);
  pool.shutdown();
}

TEST(Serve, RejectsMalformedAndDuplicateManifestsWithAuditNotes) {
  test::TempDir tmp("serve");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto spool = tmp.path() / "spool";
  const auto work = tmp.path() / "work";
  build_event(fs, input, 2);

  ASSERT_TRUE(fs.create_directories(spool).ok());
  drop_manifest(fs, spool, "a-good.json", manifest_body("quake-1", input));
  drop_manifest(fs, spool, "bad-syntax.json", "{nope");
  drop_manifest(fs, spool, "bad-schema.json", "{\"event\": \"x\"}");
  drop_manifest(fs, spool, "bad-id.json",
                manifest_body("../escape", input));
  drop_manifest(fs, spool, "z-dup.json", manifest_body("quake-1", input));
  ASSERT_TRUE(fs.write_file(spool / kServeShutdownSentinel, "").ok());

  WorkPool pool(2);
  SpoolServer server(fs, serve_config(&pool));
  auto run = server.run(spool, work);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServeStats& stats = run.value();

  EXPECT_EQ(stats.served, 1);
  EXPECT_EQ(stats.ok, 1);
  EXPECT_EQ(stats.malformed, 3);
  EXPECT_EQ(stats.duplicates, 1);

  for (const char* name :
       {"bad-syntax.json", "bad-schema.json", "bad-id.json", "z-dup.json"}) {
    EXPECT_TRUE(fs.exists(spool / "rejected" / name)) << name;
    auto reason =
        fs.read_file(spool / "rejected" / (std::string(name) + ".reason"));
    EXPECT_TRUE(reason.ok()) << name;
    EXPECT_FALSE(reason.value_or("").empty()) << name;
  }
  EXPECT_TRUE(fs.exists(spool / "done" / "a-good.json"));
  pool.shutdown();
}

TEST(Serve, MaxEventsStopsAfterTheBudgetAndLosesNothing) {
  test::TempDir tmp("serve");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto spool = tmp.path() / "spool";
  const auto work = tmp.path() / "work";
  build_event(fs, input, 2);

  ASSERT_TRUE(fs.create_directories(spool).ok());
  for (int i = 0; i < 6; ++i) {
    const std::string ev = "ev-" + std::to_string(i);
    drop_manifest(fs, spool, ev + ".json", manifest_body(ev, input));
  }

  WorkPool pool(2);
  ServeConfig cfg = serve_config(&pool);
  cfg.max_events = 4;
  SpoolServer server(fs, cfg);
  auto run = server.run(spool, work);
  ASSERT_TRUE(run.ok()) << run.error().to_string();

  EXPECT_EQ(run.value().admitted, 4);
  EXPECT_EQ(run.value().served, 4);
  EXPECT_EQ(run.value().ok, 4);
  // The two unserved manifests stay in the spool root for the next
  // service instance — admission stopped, nothing was consumed.
  int left = 0;
  auto listed = fs.list_dir(spool);
  ASSERT_TRUE(listed.ok());
  for (const auto& p : listed.value()) {
    if (p.extension() == ".json") ++left;
  }
  EXPECT_EQ(left, 2);
  pool.shutdown();
}

TEST(Serve, PlanCacheHitsGrowAcrossTheEventStream) {
  // The amortization claim of docs/SERVE.md: with one resident process,
  // later events of the same shape hit the plan caches strictly more
  // than the first event (which paid the misses).
  test::TempDir tmp("serve");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto spool = tmp.path() / "spool";
  const auto work = tmp.path() / "work";
  build_event(fs, input, 3);

  ASSERT_TRUE(fs.create_directories(spool).ok());
  for (int i = 0; i < 5; ++i) {
    const std::string ev = "stream-" + std::to_string(i);
    drop_manifest(fs, spool, ev + ".json", manifest_body(ev, input));
  }
  ASSERT_TRUE(fs.write_file(spool / kServeShutdownSentinel, "").ok());

  WorkPool pool(2);
  ServeConfig cfg = serve_config(&pool);
  cfg.event_workers = 1;  // deterministic completion order
  SpoolServer server(fs, cfg);
  auto run = server.run(spool, work);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServeStats& stats = run.value();

  ASSERT_EQ(stats.served, 5);
  EXPECT_EQ(stats.first_event.index, 1);
  EXPECT_EQ(stats.last_event.index, 5);
  EXPECT_GT(stats.last_event.hits, 0);
  // Later events never pay more misses than the first (the caches are
  // process-global and only grow)...
  EXPECT_LE(stats.last_event.misses, stats.first_event.misses);
  // ...and the cumulative hit rate beats the first event's.
  EXPECT_GT(stats.last_event.hit_rate, 0.0);
  EXPECT_GE(stats.last_event.hit_rate, stats.first_event.hit_rate);
  ASSERT_EQ(stats.trajectory.size(), 5u);
  for (std::size_t i = 0; i < stats.trajectory.size(); ++i) {
    EXPECT_EQ(stats.trajectory[i].index, static_cast<long long>(i + 1));
    EXPECT_EQ(stats.trajectory[i].status, "ok");
  }
  pool.shutdown();
}

TEST(Serve, IdleExitStopsAQuietServiceWithoutASentinel) {
  test::TempDir tmp("serve");
  RealFileSystem fs;
  const auto spool = tmp.path() / "spool";
  const auto work = tmp.path() / "work";

  WorkPool pool(1);
  ServeConfig cfg = serve_config(&pool);
  cfg.idle_exit_seconds = 0.05;
  SpoolServer server(fs, cfg);
  auto run = server.run(spool, work);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  EXPECT_EQ(run.value().served, 0);
  EXPECT_GE(run.value().uptime_seconds, 0.05);
  // Even an idle service leaves a valid stats file behind.
  EXPECT_TRUE(fs.exists(work / kServeStatsFileName));
  pool.shutdown();
}

TEST(Serve, ManifestDeadlineOverridesDegradeOnlyThatEvent) {
  test::TempDir tmp("serve");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto spool = tmp.path() / "spool";
  const auto work = tmp.path() / "work";
  build_event(fs, input, 3);

  ASSERT_TRUE(fs.create_directories(spool).ok());
  // a-: an impossible soft budget -> sheds enrichment stages, lands
  // degraded. b-: no override -> inherits the (unbounded) default.
  drop_manifest(fs, spool, "a-tight.json",
                "{\"event\": \"tight\", \"input\": \"" + input.string() +
                    "\", \"deadline_soft_s\": 0.000001}");
  drop_manifest(fs, spool, "b-roomy.json", manifest_body("roomy", input));
  ASSERT_TRUE(fs.write_file(spool / kServeShutdownSentinel, "").ok());

  WorkPool pool(2);
  ServeConfig cfg = serve_config(&pool);
  cfg.event_workers = 1;
  SpoolServer server(fs, cfg);
  auto run = server.run(spool, work);
  ASSERT_TRUE(run.ok()) << run.error().to_string();

  EXPECT_EQ(run.value().served, 2);
  EXPECT_EQ(run.value().degraded, 1);
  EXPECT_EQ(run.value().ok, 1);
  pool.shutdown();
}

TEST(Serve, RestartReclaimsDeadOwnersClaimsAndNeverTouchesALivePeers) {
  test::TempDir tmp("serve");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto spool = tmp.path() / "spool";
  const auto work = tmp.path() / "work";
  build_event(fs, input, 2);

  // A dead instance's claim dir: an owner lock nobody holds, and the two
  // claims it stranded.
  const auto dead = spool / "claimed" / "4242-1";
  ASSERT_TRUE(fs.create_directories(dead).ok());
  ASSERT_TRUE(fs.write_file(dead / kClaimLockFileName, "").ok());
  for (const char* ev : {"dead-a", "dead-b"}) {
    const std::string name = std::string(ev) + ".json";
    ASSERT_TRUE(fs.write_file(dead / name, manifest_body(ev, input)).ok());
  }
  // A live peer's claim dir: its owner lock stays held throughout.
  const auto live = spool / "claimed" / "4343-1";
  ASSERT_TRUE(fs.create_directories(live).ok());
  ASSERT_TRUE(fs.write_file(live / kClaimLockFileName, "").ok());
  ASSERT_TRUE(
      fs.write_file(live / "live-c.json", manifest_body("live-c", input)).ok());
  const int peer = ::open((live / kClaimLockFileName).c_str(), O_RDWR);
  ASSERT_GE(peer, 0);
  ASSERT_EQ(::flock(peer, LOCK_EX | LOCK_NB), 0);
  ASSERT_TRUE(fs.write_file(spool / kServeShutdownSentinel, "").ok());

  WorkPool pool(2);
  auto run = SpoolServer(fs, serve_config(&pool)).run(spool, work);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  EXPECT_EQ(run.value().served, 2);
  EXPECT_EQ(run.value().ok, 2);
  EXPECT_TRUE(fs.exists(spool / "done" / "dead-a.json"));
  EXPECT_TRUE(fs.exists(spool / "done" / "dead-b.json"));
  EXPECT_FALSE(fs.exists(dead)) << "a reclaimed claim dir is removed";
  // Hands off the live peer's claim.
  EXPECT_TRUE(fs.exists(live / "live-c.json"));
  EXPECT_FALSE(fs.exists(spool / "done" / "live-c.json"));

  // Once the peer dies, the next start re-serves its claim.
  ::close(peer);
  ASSERT_TRUE(fs.write_file(spool / kServeShutdownSentinel, "").ok());
  auto rerun = SpoolServer(fs, serve_config(&pool)).run(spool, work);
  ASSERT_TRUE(rerun.ok()) << rerun.error().to_string();
  EXPECT_EQ(rerun.value().served, 1);
  EXPECT_TRUE(fs.exists(spool / "done" / "live-c.json"));
  EXPECT_EQ(count_manifests(fs, spool / "claimed"), 0);
  pool.shutdown();
}

TEST(Serve, RejectPathRetriesAndWritesWholeNotesUnderSeededStorageFaults) {
  // 20% read/write/rename faults: every malformed manifest must still
  // reach rejected/ with an intact note, and none may stay claimed.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    test::TempDir tmp("serve");
    RealFileSystem fs;
    const auto spool = tmp.path() / "spool";
    ASSERT_TRUE(fs.create_directories(spool).ok());
    for (int i = 0; i < 20; ++i) {
      drop_manifest(fs, spool, "bad-" + std::to_string(i) + ".json", "{nope");
    }
    ASSERT_TRUE(fs.write_file(spool / kServeShutdownSentinel, "").ok());

    faultfs::FaultConfig faults;
    faults.seed = seed;
    faults.read_fail_p = faults.write_fail_p = faults.rename_fail_p = 0.2;
    faultfs::FaultyFileSystem flaky(fs, faults);
    WorkPool pool(1);
    ServeConfig cfg = serve_config(&pool);
    cfg.runner.retry.max_attempts = 7;
    auto run = SpoolServer(flaky, cfg).run(spool, tmp.path() / "work");
    ASSERT_TRUE(run.ok()) << "seed " << seed << ": "
                          << run.error().to_string();
    EXPECT_EQ(run.value().malformed, 20) << "seed " << seed;
    EXPECT_EQ(count_manifests(fs, spool / "claimed"), 0) << "seed " << seed;
    auto rejected = fs.list_dir(spool / "rejected");
    ASSERT_TRUE(rejected.ok());
    EXPECT_EQ(rejected.value().size(), 40u) << "seed " << seed;
    for (int i = 0; i < 20; ++i) {
      const std::string name = "bad-" + std::to_string(i) + ".json";
      EXPECT_TRUE(fs.exists(spool / "rejected" / name)) << name;
      const std::string note =
          fs.read_file(spool / "rejected" / (name + ".reason")).value_or("");
      EXPECT_EQ(note.rfind("not valid JSON at byte ", 0), 0u) << note;
      EXPECT_EQ(note.back(), '\n') << "torn note: " << note;
    }
    pool.shutdown();
  }
}

TEST(Serve, AFailedScanIsNeverTakenForAnEmptySpool) {
  // Manifests and the sentinel are in place before the service starts,
  // as a tree run leaves them. Every attempt of the first scan fails:
  // that scan saw nothing, so it must not honor the sentinel, and the
  // next scan claims and serves all of them.
  test::TempDir tmp("serve");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto spool = tmp.path() / "spool";
  build_event(fs, input, 2);
  ASSERT_TRUE(fs.create_directories(spool).ok());
  for (const char* ev : {"ev-a", "ev-b"}) {
    drop_manifest(fs, spool, std::string(ev) + ".json",
                  manifest_body(ev, input));
  }
  ASSERT_TRUE(fs.write_file(spool / kServeShutdownSentinel, "").ok());

  faultfs::FaultConfig faults;
  faults.list_fail_first_n = 3;  // both attempts of scan 1, then one retry
  faultfs::FaultyFileSystem flaky(fs, faults);
  WorkPool pool(1);
  ServeConfig cfg = serve_config(&pool);
  cfg.runner.retry.max_attempts = 2;
  auto run = SpoolServer(flaky, cfg).run(spool, tmp.path() / "work");
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  EXPECT_EQ(run.value().scan_errors, 1);
  EXPECT_EQ(run.value().served, 2);
  EXPECT_EQ(count_manifests(fs, spool / "done"), 2);
  EXPECT_FALSE(fs.exists(spool / kServeShutdownSentinel));
  pool.shutdown();
}

TEST(Serve, RecordCountsAgreeAcrossRunReportAndServeStats) {
  // An expired soft deadline sheds every record's enrichment stages, so
  // each record is both ok and degraded. The run report's definition —
  // degraded records are ok records, ok + quarantined = records — must
  // read the same in run_report.json and serve_stats.json.
  test::TempDir tmp("serve");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  build_event(fs, input / "ev", 3);
  auto ticks = std::make_shared<std::atomic<long long>>(0);
  const NowFn clock = [ticks] { return static_cast<double>(++*ticks); };

  const auto spool = tmp.path() / "spool";
  const auto work = tmp.path() / "serve-work";
  ASSERT_TRUE(fs.create_directories(spool).ok());
  drop_manifest(fs, spool, "ev.json", manifest_body("ev", input / "ev"));
  ASSERT_TRUE(fs.write_file(spool / kServeShutdownSentinel, "").ok());
  WorkPool pool(2);
  ServeConfig scfg = serve_config(&pool);
  scfg.runner.now = clock;
  scfg.runner.deadline.soft_seconds = 0.5;
  auto served = SpoolServer(fs, scfg).run(spool, work);
  ASSERT_TRUE(served.ok()) << served.error().to_string();
  const RunReport serve_run = read_report(fs, served_dir(work, "ev"));
  EXPECT_EQ(serve_run.count_degraded(), 3);
  auto text = fs.read_file(work / kServeStatsFileName);
  ASSERT_TRUE(text.ok());
  auto doc = Json::parse(text.value());
  ASSERT_TRUE(doc.ok());
  const Json* records = doc.value().find("records");
  ASSERT_NE(records, nullptr);
  EXPECT_EQ(records->get_number("ok", -1), serve_run.count_ok());
  EXPECT_EQ(records->get_number("degraded", -1), serve_run.count_degraded());
  EXPECT_EQ(records->get_number("quarantined", -1),
            serve_run.count_quarantined());
  pool.shutdown();
}

TEST(Serve, RunLevelFailureLeavesItsReasonInDoneUntilARerunSucceeds) {
  // A manifest whose input directory does not exist: the event is
  // reported quarantined and its manifest reaches done/, with a note
  // naming why, since no run report was written.
  test::TempDir tmp("serve");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto spool = tmp.path() / "spool";
  const auto work = tmp.path() / "work";
  ASSERT_TRUE(fs.create_directories(spool).ok());
  drop_manifest(fs, spool, "gone.json", manifest_body("gone", input));
  ASSERT_TRUE(fs.write_file(spool / kServeShutdownSentinel, "").ok());

  WorkPool pool(2);
  auto run = SpoolServer(fs, serve_config(&pool)).run(spool, work);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  EXPECT_EQ(run.value().served, 1);
  EXPECT_EQ(run.value().quarantined, 1);
  EXPECT_TRUE(fs.exists(spool / "done" / "gone.json"));
  const std::string note =
      fs.read_file(spool / "done" / "gone.json.reason").value_or("");
  EXPECT_EQ(note.rfind("io.", 0), 0u) << note;
  EXPECT_EQ(note.back(), '\n') << note;
  EXPECT_FALSE(fs.exists(served_dir(work, "gone") / kRunReportFileName));

  // Once the input exists, a rerun of the same manifest succeeds and
  // leaves no stale note behind.
  build_event(fs, input, 2);
  drop_manifest(fs, spool, "gone.json", manifest_body("gone", input));
  ASSERT_TRUE(fs.write_file(spool / kServeShutdownSentinel, "").ok());
  auto rerun = SpoolServer(fs, serve_config(&pool)).run(spool, work);
  ASSERT_TRUE(rerun.ok()) << rerun.error().to_string();
  EXPECT_EQ(rerun.value().ok, 1);
  EXPECT_TRUE(fs.exists(spool / "done" / "gone.json"));
  EXPECT_FALSE(fs.exists(spool / "done" / "gone.json.reason"));
  pool.shutdown();
}

// --- Kill-and-restart: the crash contract, against the real binary -----

#ifdef ACX_SERVE_TOOL
int run_tool(const std::string& args) {
  const std::string cmd =
      std::string(ACX_SERVE_TOOL) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(KillRestart, KilledServiceRestartsAndServesEveryManifestExactlyOnce) {
  test::TempDir tmp("killrestart");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto spool = tmp.path() / "spool";
  const auto work = tmp.path() / "work";
  // ev-0 (2 records) completes; ev-1 (4 records) draws the 3rd write_v2
  // invocation of its own run and dies mid-event, with the rest of the
  // stream already claimed behind it.
  build_event(fs, input / "a", 2);
  build_event(fs, input / "b", 4);
  build_event(fs, input / "c", 3);
  const char* inputs[] = {"a", "b", "c", "c", "c", "c"};
  ASSERT_TRUE(fs.create_directories(spool).ok());
  for (int i = 0; i < 6; ++i) {
    const std::string ev = "ev-" + std::to_string(i);
    drop_manifest(fs, spool, ev + ".json",
                  manifest_body(ev, input / inputs[i]));
  }
  ASSERT_TRUE(fs.write_file(spool / kServeShutdownSentinel, "").ok());

  const std::string common = "--spool " + spool.string() + " --work " +
                             work.string() +
                             " --driver seq --event-workers 1";
  ASSERT_EQ(run_tool(common + " --kill-stage write_v2 --kill-on 3"), 137);
  EXPECT_TRUE(fs.exists(spool / "done" / "ev-0.json"));
  EXPECT_GT(count_manifests(fs, spool / "claimed"), 0)
      << "the crash should strand claims";

  // Restart: the dead instance's claims go back to the spool root and
  // are served; every manifest ends in done/ exactly once.
  ASSERT_EQ(run_tool(common), 0);
  EXPECT_EQ(count_manifests(fs, spool / "done"), 6);
  EXPECT_EQ(count_manifests(fs, spool / "claimed"), 0);
  EXPECT_EQ(count_manifests(fs, spool / "rejected"), 0);
  for (int i = 0; i < 6; ++i) {
    const std::string ev = "ev-" + std::to_string(i);
    EXPECT_TRUE(fs.exists(spool / "done" / (ev + ".json"))) << ev;
    EXPECT_FALSE(fs.exists(spool / (ev + ".json"))) << ev;
    EXPECT_TRUE(validate_workdir(fs, served_dir(work, ev)).clean()) << ev;
  }
}
#endif  // ACX_SERVE_TOOL

}  // namespace
}  // namespace acx::pipeline
