#pragma once

// The traced replay: one event's records pushed through the public
// functions of src/formats, src/signal, src/spectrum and util/fs in the
// seq-opt chain order of src/pipeline/stages.cpp, with a span around
// every call. It writes the same files the pipeline writes (into its
// own work dir), so the per-layer numbers describe the same work the
// end-to-end runs time. Any failing call throws std::runtime_error.

#include <cstddef>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "pipeline/config.hpp"
#include "trace.hpp"
#include "util/fs.hpp"

namespace perfbench {

struct ReplayOptions {
  Tracer* tracer = nullptr;       // null = spans off
  bool stations = true;           // run the station (RotD) phase
  std::size_t max_records = 0;    // replay only the first N records; 0 = all
  bool keep_corrected = false;    // return the corrected accelerations
};

struct ReplayResult {
  // Post-detrend acceleration (the series Stage IX and RotD consume),
  // by record id, with its sampling interval; filled when asked for.
  std::map<std::string, std::vector<double>> corrected;
  std::map<std::string, double> dt;
};

ReplayResult replay_event(acx::FileSystem& fs,
                          const std::filesystem::path& input_dir,
                          const std::filesystem::path& work_dir,
                          const acx::pipeline::RunnerConfig& cfg,
                          const ReplayOptions& opt);

}  // namespace perfbench
