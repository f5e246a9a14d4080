// acx_batch — resilient multi-event batch runner.
//
//   acx_batch --input ROOT --work DIR [--no-resume] [--report]
//             [the runner flags shared with acx_serve; tools/cli.cpp]
//
// Every directory under --input holding *.v1 records is one event, run
// on the event engine over the modeled storage stack. Completed events
// journal under <work>/journal; a rerun of the same command resumes,
// skipping every journaled event whose work dir still validates.
// --kill-stage/--kill-on arm the crash hook (exit 137 on the K-th
// invocation of NAME) for the kill-and-resume tests. See docs/BATCH.md.
//
// Exit codes: 0 = every event ok; 3 = batch completed but some event
// degraded or quarantined; 1 = the batch itself failed; 2 = usage.

#include <cstdio>
#include <string>

#include "cli.hpp"
#include "pipeline/batch.hpp"

int main(int argc, char** argv) {
  std::string input_root, work_root;
  bool report_to_stdout = false;
  acx::pipeline::BatchConfig cfg;
  acx::cli::StorageModel model;
  const bool parsed = acx::cli::parse_runner_flags(
      argc, argv,
      {{"--input", "ROOT", acx::cli::text(input_root), true},
       {"--no-resume", nullptr, acx::cli::set(cfg.resume, false)},
       {"--report", nullptr, acx::cli::set(report_to_stdout, true)}},
      cfg, work_root, model);
  if (!parsed) return 2;

  acx::cli::StorageStack storage(model, cfg);
  auto run = acx::pipeline::BatchRunner(storage.fs(), cfg)
                 .run(input_root, work_root);
  if (!run.ok()) {
    std::fprintf(stderr, "acx_batch: batch failed: %s\n",
                 run.error().to_string().c_str());
    return 1;
  }
  const acx::pipeline::BatchReport& report = run.value();

  std::printf(
      "acx_batch: %zu events (%d ok, %d degraded, %d quarantined, "
      "%d resumed), driver %s x %d worker%s\n",
      report.events.size(), report.count_status("ok"),
      report.count_status("degraded"), report.count_status("quarantined"),
      report.count_resumed(), report.driver.c_str(), report.event_workers,
      report.event_workers == 1 ? "" : "s");
  std::printf("  sustained: %.1f records/s, %.0f points/s over %.3fs\n",
              report.records_per_second, report.points_per_second,
              report.total_seconds);
  acx::cli::print_breaker(report.breaker);
  for (const auto& e : report.events) {
    if (e.status != "ok") {
      std::printf("  %-11s %s%s%s\n", e.status.c_str(), e.event.c_str(),
                  e.error.empty() ? "" : ": ", e.error.c_str());
    }
  }
  if (report_to_stdout) std::fputs(report.dump().c_str(), stdout);

  return report.count_status("ok") == static_cast<int>(report.events.size())
             ? 0
             : 3;
}
