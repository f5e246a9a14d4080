#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "formats/record.hpp"
#include "formats/v2.hpp"
#include "signal/timeseries.hpp"
#include "spectrum/corners.hpp"
#include "spectrum/fourier.hpp"
#include "spectrum/response.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/result.hpp"

namespace acx::pipeline {

// Stage failure: classified (transient errors are retried, poison
// quarantines the record), with a filesystem-safe reason slug that
// becomes the quarantine suffix and the report entry.
struct StageError {
  ErrorClass klass = ErrorClass::kPoison;
  std::string reason;  // e.g. "parse.bad_magic", "signal.too_short"
  std::string detail;
};

// Correction parameters of the V2 chain. The low/high corners are the
// FALLBACK band: the corners stage derives per-record FPL/FSL corners
// from the Fourier spectrum and the band-pass prefers those, dropping
// back to this fixed band only when the search reports no usable
// corner (docs/SPECTRUM.md, "Corner search"). taps is the FIR design
// length, shortened per record to min(taps, largest odd <= n/3) and
// never below kMinCorrectionTaps (shorter records are signal.too_short
// poison). See docs/SIGNAL.md.
// Which filter family the band-pass stage applies: the V2 chain's
// default windowed-sinc FIR, or the Butterworth SOS filtfilt scenario
// (the ObsPy-style IIR alternative — docs/SIGNAL.md, "Butterworth SOS
// band-pass"; selected with acx_process --bandpass butter).
enum class BandPassKind { kFir, kButterworth };

inline const char* to_string(BandPassKind k) {
  return k == BandPassKind::kFir ? "fir" : "butter";
}

inline std::optional<BandPassKind> parse_bandpass(std::string_view name) {
  if (name == "fir") return BandPassKind::kFir;
  if (name == "butter") return BandPassKind::kButterworth;
  return std::nullopt;
}

struct CorrectionConfig {
  double low_hz = 0.5;    // fallback long-period corner
  double high_hz = 25.0;  // fallback short-period corner
  int taps = 101;
  // Nominal instrument gain for counts -> cm/s2; replaced by
  // per-station calibration when station metadata lands.
  double counts_to_cms2 = 1.0 / 1000.0;
  // Filter family of the band-pass stage; kFir is the canonical chain
  // (the byte-equality contract is defined over it), kButterworth the
  // ObsPy-parity scenario.
  BandPassKind bandpass = BandPassKind::kFir;
  // Analog prototype order of the Butterworth path (ObsPy corners=4).
  int butter_order = 4;
};

inline constexpr int kMinCorrectionTaps = 21;

// Parameters of the spectral stages (corners, fourier, response).
struct SpectrumConfig {
  spectrum::FourierSpec fourier;         // FAS of the corrected record
  spectrum::CornerSearchConfig corners;  // FPL/FSL search tuning
  spectrum::ResponseGrid grid = spectrum::paper_grid();
  // OpenMP team size of the response stage's nested period loop (the
  // paper's inner `omp for` of the fully-parallel driver). 1 keeps the
  // kernel serial; the full driver sets it to the run's team size.
  int response_threads = 1;
  // Rotation angles of the station-scoped RotD sweep (1° steps over
  // a half turn by default — see src/spectrum/rotd.hpp). The sweep
  // fans across response_threads like the response stage.
  int rotd_angles = 180;
};

// Per-record working state threaded through the stages. Each record is
// processed inside its own scratch directory (the paper's temp-folder
// protocol), so a failing record can never corrupt a neighbour's state.
struct RecordContext {
  FileSystem* fs = nullptr;
  std::filesystem::path input_path;
  std::filesystem::path scratch_dir;
  std::filesystem::path out_dir;
  std::string record_id;  // "<station><component>", e.g. "SS01l"

  std::string raw;                       // staged-in bytes
  formats::Record record;                // parsed V1; corrected acc (cm/s2)
  std::vector<double> velocity;          // cm/s, from the integrate stage
  std::vector<double> displacement;      // cm, from the integrate stage
  formats::PeakSet peaks;                // PGA/PGV/PGD, from the peaks stage
  std::optional<spectrum::Corners> corners;  // FPL/FSL, when the search hit
  std::vector<std::string> processing;   // stages applied so far
  std::vector<std::string> history;      // V2 '#' comment lines
  std::filesystem::path output_path;     // set by the write stage
  std::filesystem::path fourier_path;    // set by the fourier stage
  std::filesystem::path response_path;   // set by the response stage
};

// A pipeline process (the reproduction's P#k). Stages must be
// idempotent: a retried stage re-runs from the same context state.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const char* name() const = 0;
  virtual Result<Unit, StageError> run(RecordContext& ctx) = 0;
};

// Instantiate one stage of the chain by name (the names of
// StageGraph::standard and pipeline/reasons.hpp kStageNames). Returns
// nullptr for an unknown name. Instances are re-entrant: they hold only
// their configuration, so the schedulers share one per graph node
// across records and threads.
std::unique_ptr<Stage> make_stage(std::string_view name,
                                  const CorrectionConfig& correction,
                                  const SpectrumConfig& spectrum);

// Station-scoped working state: the per-component chain has finished
// for every member of the station; the station stages combine the
// surviving components and publish station-level outputs to out_dir.
// The component sample vectors point into the owning RecordSlots'
// contexts (corrected acceleration, cm/s2) — valid for the duration of
// the station phase, null when that component is absent or failed.
struct StationContext {
  FileSystem* fs = nullptr;
  std::filesystem::path out_dir;
  std::string station;
  std::string event_id;
  std::string date;
  double dt = 0.0;
  const std::vector<double>* comp_l = nullptr;
  const std::vector<double>* comp_t = nullptr;
  const std::vector<double>* comp_v = nullptr;
  std::filesystem::path rotd_path;  // set by the rotd stage
};

// A station-scoped pipeline process. Same contract as Stage, over a
// StationContext: idempotent, re-entrant, shared across stations and
// threads by the schedulers.
class StationStage {
 public:
  virtual ~StationStage() = default;
  virtual const char* name() const = 0;
  virtual Result<Unit, StageError> run(StationContext& ctx) = 0;
};

// Instantiate one station-scoped stage by name ("rotd"). Returns
// nullptr for an unknown name.
std::unique_ptr<StationStage> make_station_stage(
    std::string_view name, const SpectrumConfig& spectrum);

// The full original chain (redundant stages included), instantiated in
// execution order from StageGraph::standard (src/pipeline/graph.hpp):
// stage_in -> parse -> reparse -> calibrate -> demean -> corners ->
// fas_preview -> bandpass -> detrend -> integrate -> peaks -> repeaks
// -> fourier -> response -> write_v2. Later PRs extend this toward the
// paper's full P#0–P#19 (plots, GEM). Stage-to-paper mapping:
// docs/PIPELINE.md.
std::vector<std::unique_ptr<Stage>> default_stages(
    const CorrectionConfig& correction = {},
    const SpectrumConfig& spectrum = {});

}  // namespace acx::pipeline
