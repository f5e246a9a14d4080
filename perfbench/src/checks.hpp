#pragma once

// Output checks. Every check is one attempted operation; a failed check
// is one failure, so it lands in fail_frac and fails the run. The
// numeric checks are oracles (the scalar reference kernels), never
// pinned digests, so a change that legitimately re-pins output bytes
// does not break the benchmark.

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "pipeline/config.hpp"
#include "pipeline/report.hpp"
#include "util/fs.hpp"

namespace perfbench {

struct Tally {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  // the first few, for the log

  void count(bool ok, const std::string& what);
};

// One event's outcome and outputs: event status ok, zero quarantined
// records, no failed RotD station (a typed missing_component skip is
// expected), validate_workdir clean, and a canonical_dump byte-identical
// to the first run over the same input (the cross-driver contract).
// `canonical` holds the reference dump per input key.
void check_event(acx::FileSystem& fs, const std::filesystem::path& work_dir,
                 const acx::pipeline::RunReport& report,
                 const std::string& input_key,
                 std::map<std::string, std::string>& canonical, Tally& tally);

// Reads back one record's .r (and, when the event has an eligible
// station, that station's .rotd) from a finished work dir with the
// strict readers and compares a few grid cells against the scalar
// references (sdof_peak_response, rotd_spectrum_reference) evaluated on
// the corrected acceleration, within the files' %.4e print precision.
// Returns what was checked, for the log.
std::string check_oracles(acx::FileSystem& fs,
                          const std::filesystem::path& input_dir,
                          const std::filesystem::path& work_dir,
                          const std::filesystem::path& scratch_dir,
                          const acx::pipeline::RunnerConfig& cfg,
                          Tally& tally);

}  // namespace perfbench
