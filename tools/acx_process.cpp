// acx_process — fault-tolerant pipeline runner.
//
//   acx_process --input DIR --work DIR
//               [--driver seq|seq-opt|partial|full] [--threads N]
//               [--bandpass fir|butter]
//               [--baseline REPORT] [--keep-going|--fail-fast]
//               [--max-retries N] [--report] [--canonical]
//
// Processes every *.v1 record in --input with one of the paper's four
// drivers (default seq, the Sequential Original). Poisoned records are
// quarantined under <work>/quarantine and the run continues (unless
// --fail-fast); transient I/O errors are retried with capped
// exponential backoff. Outcomes land in <work>/run_report.json.
// --threads sets the OpenMP team size of the parallel drivers (0 = all
// hardware threads); --baseline points at a sequential run's
// run_report.json, and stamps speedup_vs_sequential into this run's
// report.
//
// Exit codes: 0 = all records ok; 3 = completed but some records
// quarantined; 1 = the run itself failed (work dir or report I/O).

#include <algorithm>
#include <cstdio>
#include <string>

#include "cli.hpp"
#include "pipeline/runner.hpp"
#include "util/fs.hpp"
#include "util/simd.hpp"

int main(int argc, char** argv) {
  std::string input_dir, work_dir, baseline_path;
  bool report_to_stdout = false;
  bool canonical_to_stdout = false;
  acx::pipeline::RunnerConfig cfg;
  int retries = cfg.retry.max_attempts - 1;
  namespace cli = acx::cli;
  const bool parsed = cli::parse_flags(
      argc, argv,
      {{"--input", "DIR", cli::text(input_dir), true},
       {"--work", "DIR", cli::text(work_dir), true},
       {"--driver", "seq|seq-opt|partial|full|pool",
        cli::parsed(cfg.driver, acx::pipeline::parse_driver)},
       {"--threads", "N", cli::integer(cfg.threads, 0)},
       {"--bandpass", "fir|butter",
        cli::parsed(cfg.correction.bandpass, acx::pipeline::parse_bandpass)},
       {"--baseline", "REPORT", cli::text(baseline_path)},
       {"--keep-going", nullptr, cli::set(cfg.keep_going, true)},
       {"--fail-fast", nullptr, cli::set(cfg.keep_going, false)},
       {"--max-retries", "N", cli::integer(retries)},
       {"--report", nullptr, cli::set(report_to_stdout, true)},
       {"--canonical", nullptr, cli::set(canonical_to_stdout, true)}});
  if (!parsed) return 2;
  cfg.retry.max_attempts = std::max(1, retries + 1);
  if (!cfg.keep_going && acx::pipeline::is_parallel(cfg.driver)) {
    std::fprintf(stderr,
                 "acx_process: --fail-fast has no serial notion of 'first' "
                 "under a parallel driver; running keep-going\n");
    cfg.keep_going = true;
  }

  acx::RealFileSystem fs;
  if (!baseline_path.empty()) {
    auto text = fs.read_file(baseline_path);
    if (!text.ok()) {
      std::fprintf(stderr, "acx_process: cannot read baseline: %s\n",
                   text.error().to_string().c_str());
      return 1;
    }
    auto baseline = acx::pipeline::RunReport::from_json_text(text.value());
    if (!baseline.ok()) {
      std::fprintf(stderr, "acx_process: bad baseline report: %s\n",
                   baseline.error().c_str());
      return 1;
    }
    cfg.baseline_total_seconds = baseline.value().total_seconds;
  }

  auto run = acx::pipeline::run_pipeline(fs, input_dir, work_dir, cfg);
  if (!run.ok()) {
    std::fprintf(stderr, "acx_process: run failed: %s\n",
                 run.error().to_string().c_str());
    return 1;
  }
  const acx::pipeline::RunReport& report = run.value();

  // With --canonical, stdout is exactly the canonical dump (consumers
  // cmp it byte-for-byte); the human summary — which carries wall-clock
  // timings that vary run to run — moves to stderr.
  std::FILE* log = canonical_to_stdout ? stderr : stdout;
  std::fprintf(
      log,
      "acx_process: driver %s, %d thread%s: %zu records, %d ok, "
      "%d quarantined, %d retries\n",
      report.driver.c_str(), report.threads, report.threads == 1 ? "" : "s",
      report.records.size(), report.count_ok(), report.count_quarantined(),
      report.count_retries());
  if (report.speedup_vs_sequential > 0) {
    std::fprintf(log, "  speedup vs sequential baseline: %.2fx\n",
                 report.speedup_vs_sequential);
  }
  {
    long long hits = 0, misses = 0;
    double setup = 0, kernel = 0;
    for (const auto& [stage, p] : report.stage_profile()) {
      hits += p.cache_hits;
      misses += p.cache_misses;
      setup += p.setup_seconds;
      kernel += p.kernel_seconds;
    }
    if (hits + misses > 0) {
      // The kernel tier names the host, so timings taken on two
      // hosts can be told apart.
      std::fprintf(
          log,
          "  plan caches: %lld hits / %lld misses, %.3fs setup, "
          "%.3fs kernel (%s)\n",
          hits, misses, setup, kernel, acx::simd::active_kernels());
    }
  }
  for (const auto& r : report.records) {
    if (r.status == acx::pipeline::RecordOutcome::Status::kQuarantined) {
      std::fprintf(log, "  quarantined %-8s %s\n", r.record.c_str(),
                   r.reason.c_str());
    }
  }
  if (report_to_stdout) std::fputs(report.dump().c_str(), stdout);
  // The driver-independent projection (timings dropped, dirs rebased):
  // what CI's ACX_SIMD=ON/OFF equivalence leg diffs byte-for-byte.
  if (canonical_to_stdout) {
    std::fputs(report.canonical_dump().c_str(), stdout);
  }

  return report.count_quarantined() == 0 ? 0 : 3;
}
