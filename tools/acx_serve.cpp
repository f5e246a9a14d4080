// acx_serve — resident accelerogram-processing service.
//
//   acx_serve --spool DIR --work DIR [--input ROOT] [--poll-ms MS]
//             [--max-events N] [--idle-exit-s S] [--stats-every N]
//             [--stats] [the runner flags; tools/cli.cpp]
//
// Watches --spool for event manifests (docs/SERVE.md has the protocol)
// and runs each admitted event on the event engine over the modeled
// storage stack, with every event's record fan-out on ONE persistent
// work-stealing pool owned by this process: thread spin-up and
// plan-cache warm-up are paid once per service lifetime. A restart
// re-serves whatever a killed instance had claimed.
//
// --input ROOT makes it a tree run: every directory under ROOT holding
// *.v1 records is spooled as one event, then the shutdown sentinel, so
// the service drains the tree and exits. Rerunning the same command
// resumes: events already in done/ with a validating work dir are not
// run again, but their statuses still count toward the exit code.
// --kill-stage/--kill-on arm the crash hook (exit 137 on the K-th
// invocation of NAME) for the kill-and-restart tests.
//
// Stops on the `shutdown` sentinel (drains first), after --max-events,
// or after --idle-exit-s of quiet. Exit codes: 0 = every served (and,
// in a tree run, every already-done) event ok; 3 = some event degraded
// or quarantined, or some manifest rejected; 1 = the service (or the
// tree discovery) failed; 2 = usage.

#include <cstdio>
#include <string>

#include "cli.hpp"
#include "pipeline/serve.hpp"
#include "util/work_pool.hpp"

int main(int argc, char** argv) {
  std::string spool_dir, work_root, input_root;
  bool stats_to_stdout = false;
  acx::pipeline::ServeConfig cfg;
  acx::cli::StorageModel model;
  const bool parsed = acx::cli::parse_runner_flags(
      argc, argv,
      {{"--spool", "DIR", acx::cli::text(spool_dir), true},
       {"--input", "ROOT", acx::cli::text(input_root)},
       {"--poll-ms", "MS", acx::cli::integer(cfg.poll_ms, 1)},
       {"--max-events", "N", acx::cli::integer(cfg.max_events, 0)},
       {"--idle-exit-s", "S", acx::cli::number(cfg.idle_exit_seconds, 0)},
       {"--stats-every", "N", acx::cli::integer(cfg.stats_every, 1)},
       {"--stats", nullptr, acx::cli::set(stats_to_stdout, true)}},
      cfg, work_root, model);
  if (!parsed) return 2;

  acx::cli::StorageStack storage(model, cfg);
  int done_not_ok = 0;  // a tree run's already-done events that are not ok
  if (!input_root.empty()) {
    auto tree = acx::pipeline::spool_tree(storage.fs(), cfg, input_root,
                                          spool_dir, work_root);
    if (!tree.ok()) {
      std::fprintf(stderr, "acx_serve: tree run failed: %s\n",
                   tree.error().to_string().c_str());
      return 1;
    }
    for (const auto& [event, status] : tree.value().done) {
      done_not_ok += status != "ok";
    }
    std::fprintf(stderr,
                 "acx_serve: spooled %zu event%s from %s; %zu already "
                 "done, %d of them not ok\n",
                 tree.value().spooled.size(),
                 tree.value().spooled.size() == 1 ? "" : "s",
                 input_root.c_str(), tree.value().done.size(), done_not_ok);
  }

  // The process-lifetime pool: every event's record fan-out lands here.
  acx::WorkPool pool(cfg.runner.threads);
  cfg.pool = &pool;

  std::fprintf(stderr,
               "acx_serve: watching %s (driver %s, %d pool thread%s, "
               "%d event worker%s)\n",
               spool_dir.c_str(), acx::pipeline::to_string(cfg.runner.driver),
               pool.thread_count(), pool.thread_count() == 1 ? "" : "s",
               cfg.event_workers, cfg.event_workers == 1 ? "" : "s");

  auto run = acx::pipeline::SpoolServer(storage.fs(), cfg)
                 .run(spool_dir, work_root);
  pool.shutdown();
  if (!run.ok()) {
    std::fprintf(stderr, "acx_serve: service failed: %s\n",
                 run.error().to_string().c_str());
    return 1;
  }
  const acx::pipeline::ServeStats& stats = run.value();

  std::printf(
      "acx_serve: served %lld events (%lld ok, %lld degraded, "
      "%lld quarantined) in %.3fs; rejected %lld malformed, "
      "%lld duplicate\n",
      stats.served, stats.ok, stats.degraded, stats.quarantined,
      stats.uptime_seconds, stats.malformed, stats.duplicates);
  const double up = stats.uptime_seconds;
  std::printf(
      "  sustained: %.1f records/s, %.0f points/s; plan cache "
      "%lld hits / %lld misses\n",
      up > 0 ? stats.records_ok / up : 0.0, up > 0 ? stats.points / up : 0.0,
      stats.cache_hits, stats.cache_misses);
  acx::cli::print_breaker(stats.breaker);
  if (stats_to_stdout) std::fputs(stats.dump().c_str(), stdout);

  const bool clean = stats.served == stats.ok && stats.malformed == 0 &&
                     stats.duplicates == 0 && done_not_ok == 0;
  return clean ? 0 : 3;
}
