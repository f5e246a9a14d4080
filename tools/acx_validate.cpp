// acx_validate — audits a pipeline work dir against its run_report.json:
// atomic-write leftovers, missing/corrupt V2 outputs, unclaimed files,
// quarantine consistency. Exits nonzero on any inconsistency.
//
//   acx_validate --work DIR

#include <cstdio>
#include <string>

#include "cli.hpp"
#include "pipeline/validate.hpp"

int main(int argc, char** argv) {
  std::string work_dir;
  if (!acx::cli::parse_flags(
          argc, argv, {{"--work", "DIR", acx::cli::text(work_dir), true}})) {
    return 2;
  }

  acx::RealFileSystem fs;
  const acx::pipeline::ValidationSummary summary =
      acx::pipeline::validate_workdir(fs, work_dir);

  std::printf("acx_validate: %d ok, %d quarantined, %zu issue(s)\n",
              summary.records_ok, summary.records_quarantined,
              summary.issues.size());
  for (const auto& issue : summary.issues) {
    std::printf("  [%s] %s\n", issue.kind.c_str(), issue.detail.c_str());
  }
  return summary.clean() ? 0 : 1;
}
