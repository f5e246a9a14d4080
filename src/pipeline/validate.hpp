#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "util/fs.hpp"

namespace acx::pipeline {

struct ValidationIssue {
  std::string kind;    // "partial_write", "missing_output", ...
  std::string detail;
};

struct ValidationSummary {
  std::string status;  // the report's event status; empty if unreadable
  int records_ok = 0;
  int records_quarantined = 0;
  int stations_rotd_ok = 0;  // stations whose .rotd passed the audit
  std::vector<ValidationIssue> issues;

  bool clean() const { return issues.empty(); }
};

// Audits a pipeline work dir against its run_report.json:
//  - no atomic-write temporaries anywhere under the tree (proves no
//    partially-written file survived any fault);
//  - every "ok" record's claimed outputs pass the strict reader for
//    their format (.v2, .f, .r), and the F/R spectra are present;
//  - every quarantined record has its quarantine file and a reason
//    from the src/pipeline/reasons.hpp registry;
//  - every station whose rotd_status is "ok" claims a .rotd that the
//    strict reader accepts and whose header names that station;
//    skipped/failed stations carry a registered reason and no output
//    (component-set consistency itself is cross-checked against the
//    record grouping by RunReport::from_json_text);
//  - out/ and quarantine/ contain nothing the report doesn't claim;
//  - scratch/ is gone (or empty);
//  - the report's counts block matches its records array.
ValidationSummary validate_workdir(FileSystem& fs,
                                   const std::filesystem::path& work_dir);

}  // namespace acx::pipeline
