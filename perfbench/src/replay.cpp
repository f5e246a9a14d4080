#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "formats/component_set.hpp"
#include "formats/spectra.hpp"
#include "formats/v1.hpp"
#include "formats/v2.hpp"
#include "signal/baseline.hpp"
#include "signal/fir.hpp"
#include "signal/integrate.hpp"
#include "signal/peaks.hpp"
#include "signal/timeseries.hpp"
#include "spectrum/corners.hpp"
#include "spectrum/fourier.hpp"
#include "spectrum/response.hpp"
#include "spectrum/rotd.hpp"

namespace perfbench {

namespace stdfs = std::filesystem;
namespace fmt = acx::formats;
namespace sig = acx::signal;
namespace spec = acx::spectrum;

namespace {

template <class T, class E>
T take(acx::Result<T, E> r, const std::string& what) {
  if (!r.ok()) {
    throw std::runtime_error("replay: " + what + ": " + r.error().to_string());
  }
  return std::move(r).take();
}

// The span-wrapped layer calls. Each is a leaf span whose layer is the
// ledger row its time lands in.
class Layers {
 public:
  Layers(acx::FileSystem& fs, Tracer* tracer) : fs_(fs), t_(tracer) {}

  std::string read(const stdfs::path& p) {
    SpanScope s(t_, "util.fs.read", "read_file");
    std::string content = take(fs_.read_file(p), p.string());
    s.add_work(static_cast<double>(content.size()));
    return content;
  }
  void atomic_write(const stdfs::path& p, const std::string& content) {
    SpanScope s(t_, "util.fs.atomic_write", "atomic_write_file");
    take(acx::atomic_write_file(fs_, p, content), p.string());
    s.add_work(static_cast<double>(content.size()));
  }
  void mkdirs(const stdfs::path& p) {
    SpanScope s(t_, "util.fs.dir", "create_directories");
    take(fs_.create_directories(p), p.string());
  }
  void remove_all(const stdfs::path& p) {
    SpanScope s(t_, "util.fs.dir", "remove_all");
    (void)fs_.remove_all(p);
  }
  std::vector<stdfs::path> list(const stdfs::path& p) {
    SpanScope s(t_, "util.fs.dir", "list_dir");
    return take(fs_.list_dir(p), p.string());
  }

  // A formats writer call: span + produced bytes.
  template <class F>
  std::string write(const char* function, F&& f) {
    SpanScope s(t_, "formats.write", function);
    std::string out = f();
    s.add_work(static_cast<double>(out.size()));
    return out;
  }

  Tracer* tracer() const { return t_; }

 private:
  acx::FileSystem& fs_;
  Tracer* t_;
};

struct RecordState {
  std::string id;
  stdfs::path input;
  stdfs::path scratch;
  std::string raw;
  fmt::Record record;
  std::optional<spec::Corners> corners;
  std::vector<double> velocity, displacement;
  fmt::PeakSet peaks;
  std::vector<std::string> history, processing;
};

void replay_record(Layers& io, RecordState& st, const stdfs::path& out_dir,
                   const acx::pipeline::RunnerConfig& cfg) {
  Tracer* t = io.tracer();
  const acx::pipeline::CorrectionConfig& corr = cfg.correction;
  const acx::pipeline::SpectrumConfig& sp = cfg.spectrum;
  auto stage = [&](const char* name) {
    return SpanScope(t, "pipeline.stage", name, st.id);
  };

  {
    SpanScope s = stage("scratch_setup");
    io.remove_all(st.scratch);
    io.mkdirs(st.scratch);
  }
  {
    SpanScope s = stage("stage_in");
    st.raw = io.read(st.input);
    io.atomic_write(st.scratch / st.input.filename(), st.raw);
  }
  {
    SpanScope s = stage("parse");
    SpanScope c(t, "formats.read_v1", "read_v1");
    st.record = take(fmt::read_v1(st.raw), "read_v1 " + st.id);
    c.add_work(static_cast<double>(st.raw.size()));
  }
  {
    SpanScope s = stage("calibrate");
    sig::TimeSeries probe{st.record.header.dt, sig::Units::kCounts, {}};
    probe.samples = st.record.samples;
    {
      SpanScope c(t, "signal.correction", "validate");
      take(sig::validate(probe), "validate " + st.id);
    }
    if (st.record.header.units == "counts") {
      for (double& v : st.record.samples) v *= corr.counts_to_cms2;
      char buf[96];
      std::snprintf(buf, sizeof buf, "calibrate: counts -> cm/s2 (gain %.3e)",
                    corr.counts_to_cms2);
      st.history.push_back(buf);
    }
    st.record.header.units = "cm/s2";
    st.processing.push_back("calibrate");
  }
  {
    SpanScope s = stage("demean");
    std::vector<double> samples = st.record.samples;
    {
      SpanScope c(t, "signal.correction", "remove_mean");
      take(sig::remove_mean(samples), "remove_mean " + st.id);
    }
    st.record.samples = std::move(samples);
    st.processing.push_back("demean");
  }
  {
    SpanScope s = stage("corners");
    std::optional<spec::FourierSpectrum> fas;
    {
      SpanScope c(t, "spectrum.fas", "fourier_amplitude");
      fas = take(spec::fourier_amplitude(st.record.samples,
                                         st.record.header.dt, sp.fourier),
                 "fourier_amplitude " + st.id);
    }
    SpanScope c(t, "spectrum.fas", "find_corners");
    auto found = spec::find_corners(*fas, sp.corners);
    if (found.ok()) {
      st.corners = found.value();
    } else if (found.error().code != spec::SpectrumError::Code::kNoCorner &&
               found.error().code != spec::SpectrumError::Code::kTooShort) {
      throw std::runtime_error("replay: find_corners " + st.id + ": " +
                               found.error().to_string());
    }
    st.history.push_back("corners: replayed search");
    st.processing.push_back("corners");
  }
  {
    SpanScope s = stage("bandpass");
    if (corr.bandpass != acx::pipeline::BandPassKind::kFir) {
      throw std::runtime_error("replay: only the FIR band-pass is replayed");
    }
    int taps = static_cast<int>(st.record.samples.size() / 3);
    if (taps % 2 == 0) --taps;
    taps = std::min(taps, corr.taps);
    const double low = st.corners ? st.corners->fsl_hz : corr.low_hz;
    const double high = st.corners ? st.corners->fpl_hz : corr.high_hz;
    std::vector<double> h;
    {
      SpanScope c(t, "signal.correction", "design_bandpass");
      h = take(sig::design_bandpass(sig::BandPassSpec{low, high, taps},
                                    st.record.header.dt),
               "design_bandpass " + st.id);
    }
    SpanScope c(t, "signal.correction", "filtfilt");
    st.record.samples =
        take(sig::filtfilt(h, st.record.samples), "filtfilt " + st.id);
    st.history.push_back("bandpass: replayed fir, zero-phase");
    st.processing.push_back("bandpass");
  }
  {
    SpanScope s = stage("detrend");
    std::vector<double> samples = st.record.samples;
    {
      SpanScope c(t, "signal.correction", "detrend_linear");
      take(sig::detrend_linear(samples), "detrend_linear " + st.id);
    }
    st.record.samples = std::move(samples);
    st.processing.push_back("detrend");
  }
  {
    SpanScope s = stage("integrate");
    sig::TimeSeries acc{st.record.header.dt, sig::Units::kCmPerS2, {}};
    acc.samples = st.record.samples;
    SpanScope c(t, "signal.correction", "integrate");
    sig::TimeSeries vel = take(sig::integrate(acc), "integrate " + st.id);
    sig::TimeSeries disp = take(sig::integrate(vel), "integrate " + st.id);
    st.velocity = std::move(vel.samples);
    st.displacement = std::move(disp.samples);
    st.history.push_back(
        "integrate: trapezoid, cm/s2 -> cm/s -> cm, v0 = d0 = 0");
    st.processing.push_back("integrate");
  }
  {
    SpanScope s = stage("peaks");
    const double dt = st.record.header.dt;
    SpanScope c(t, "signal.correction", "extract_peak");
    const sig::Peak pga = take(sig::extract_peak(st.record.samples, dt), "pga");
    const sig::Peak pgv = take(sig::extract_peak(st.velocity, dt), "pgv");
    const sig::Peak pgd = take(sig::extract_peak(st.displacement, dt), "pgd");
    st.peaks.present = true;
    st.peaks.pga = {pga.value, pga.time};
    st.peaks.pgv = {pgv.value, pgv.time};
    st.peaks.pgd = {pgd.value, pgd.time};
    st.processing.push_back("peaks");
  }
  {
    SpanScope s = stage("fourier");
    std::optional<spec::FourierSpectrum> fas;
    {
      SpanScope c(t, "spectrum.fas", "fourier_amplitude");
      fas = take(spec::fourier_amplitude(st.record.samples,
                                         st.record.header.dt, sp.fourier),
                 "fourier_amplitude " + st.id);
    }
    fmt::FRecord f;
    f.header = st.record.header;
    f.header.npts = static_cast<long>(fas->size());
    f.header.units = "cm/s";
    f.df = fas->df;
    f.nfft = static_cast<long>(fas->nfft);
    f.window = spec::to_string(fas->window);
    if (st.corners) {
      f.has_corners = true;
      f.fsl_hz = st.corners->fsl_hz;
      f.fpl_hz = st.corners->fpl_hz;
    }
    f.amplitude = fas->amplitude;
    const std::string name = st.id + std::string(fmt::kFExtension);
    const std::string content =
        io.write("write_f", [&] { return fmt::write_f(f); });
    io.atomic_write(st.scratch / name, content);
    io.atomic_write(out_dir / name, content);
    st.history.push_back("fourier: replayed fas");
    st.processing.push_back("fourier");
  }
  {
    SpanScope s = stage("response");
    std::optional<spec::ResponseSpectrum> rs;
    {
      SpanScope c(t, "spectrum.response", "response_spectrum");
      rs = take(spec::response_spectrum(st.record.samples, st.record.header.dt,
                                        sp.grid, sp.response_threads),
                "response_spectrum " + st.id);
      c.add_work(static_cast<double>(sp.grid.periods.size() *
                                     sp.grid.dampings.size() *
                                     st.record.samples.size()));
    }
    fmt::RRecord r;
    r.header = st.record.header;
    r.header.npts = static_cast<long>(rs->periods.size());
    r.header.units.clear();
    r.dampings = std::move(rs->dampings);
    r.periods = std::move(rs->periods);
    r.sd = std::move(rs->sd);
    r.sv = std::move(rs->sv);
    r.sa = std::move(rs->sa);
    const std::string name = st.id + std::string(fmt::kRExtension);
    const std::string content =
        io.write("write_r", [&] { return fmt::write_r(r); });
    io.atomic_write(st.scratch / name, content);
    io.atomic_write(out_dir / name, content);
    st.history.push_back("response: replayed nigam-jennings");
    st.processing.push_back("response");
  }
  {
    SpanScope s = stage("write_v2");
    fmt::V2Record v2;
    v2.record = st.record;
    v2.processing = st.processing;
    v2.processing.push_back("write_v2");
    v2.peaks = st.peaks;
    v2.comments = st.history;
    const std::string name = st.id + std::string(fmt::kV2Extension);
    const std::string content =
        io.write("write_v2", [&] { return fmt::write_v2(v2); });
    io.atomic_write(st.scratch / name, content);
    io.atomic_write(out_dir / name, content);
  }
  {
    SpanScope s(t, "pipeline.finalize", "finalize", st.id);
    io.remove_all(st.scratch);
  }
}

}  // namespace

ReplayResult replay_event(acx::FileSystem& fs, const stdfs::path& input_dir,
                          const stdfs::path& work_dir,
                          const acx::pipeline::RunnerConfig& cfg,
                          const ReplayOptions& opt) {
  Tracer* t = opt.tracer;
  Layers io(fs, t);
  ReplayResult result;
  SpanScope event(t, "pipeline.event", "run_event",
                  input_dir.filename().string());

  const stdfs::path out_dir = work_dir / "out";
  for (const char* sub : {"out", "quarantine", "scratch"}) {
    io.mkdirs(work_dir / sub);
  }
  std::vector<stdfs::path> inputs;
  for (const stdfs::path& p : io.list(input_dir)) {
    if (p.extension() == fmt::kV1Extension) inputs.push_back(p);
  }
  std::sort(inputs.begin(), inputs.end());
  if (opt.max_records > 0 && inputs.size() > opt.max_records) {
    inputs.resize(opt.max_records);
  }

  // The runner's station pre-scan: every header is read and parsed once
  // before any stage runs.
  {
    SpanScope s(t, "pipeline.prescan", "prescan");
    for (const stdfs::path& p : inputs) {
      const std::string raw = io.read(p);
      SpanScope c(t, "formats.read_v1", "read_v1_header");
      take(fmt::read_v1_header(raw), "read_v1_header " + p.string());
      c.add_work(static_cast<double>(raw.size()));
    }
  }

  std::vector<RecordState> records(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    RecordState& st = records[i];
    st.id = inputs[i].stem().string();
    st.input = inputs[i];
    st.scratch = work_dir / "scratch" / st.id;
    {
      SpanScope r(t, "pipeline.record", "record", st.id);
      replay_record(io, st, out_dir, cfg);
    }
  }

  // Station phase, in station order: both horizontals present, equal
  // lengths and sampling intervals -> one RotD sweep and one .rotd.
  if (opt.stations) {
    std::map<std::string, std::map<std::string, const RecordState*>> stations;
    for (const RecordState& st : records) {
      const auto [station, component] = fmt::split_record_id(st.id);
      stations[station][component] = &st;
    }
    for (const auto& [station, members] : stations) {
      auto l = members.find("l");
      auto tr = members.find("t");
      if (l == members.end() || tr == members.end()) continue;
      const fmt::Record& rl = l->second->record;
      const fmt::Record& rt = tr->second->record;
      if (rl.samples.size() != rt.samples.size() ||
          rl.header.dt != rt.header.dt) {
        continue;
      }
      SpanScope ss(t, "pipeline.station", "station", station);
      SpanScope s(t, "pipeline.stage", "rotd", station);
      std::optional<spec::RotdSpectrum> rs;
      {
        SpanScope c(t, "spectrum.rotd", "rotd_spectrum");
        rs = take(spec::rotd_spectrum(rl.samples, rt.samples, rl.header.dt,
                                      cfg.spectrum.grid,
                                      cfg.spectrum.rotd_angles,
                                      cfg.spectrum.response_threads),
                  "rotd_spectrum " + station);
        c.add_work(static_cast<double>(
            (cfg.spectrum.rotd_angles + 2) * cfg.spectrum.grid.periods.size() *
            cfg.spectrum.grid.dampings.size() * rl.samples.size()));
      }
      fmt::RotdRecord rd;
      rd.station = station;
      rd.event_id = rl.header.event_id;
      rd.date = rl.header.date;
      rd.dt = rl.header.dt;
      rd.angles = rs->angles;
      rd.dampings = std::move(rs->dampings);
      rd.periods = std::move(rs->periods);
      rd.rotd00 = std::move(rs->rotd00);
      rd.rotd50 = std::move(rs->rotd50);
      rd.rotd100 = std::move(rs->rotd100);
      rd.geomean = std::move(rs->geomean);
      const std::string content =
          io.write("write_rotd", [&] { return fmt::write_rotd(rd); });
      io.atomic_write(out_dir / (station + std::string(fmt::kRotdExtension)),
                      content);
    }
  }
  io.remove_all(work_dir / "scratch");

  if (opt.keep_corrected) {
    for (RecordState& st : records) {
      result.dt[st.id] = st.record.header.dt;
      result.corrected[st.id] = std::move(st.record.samples);
    }
  }
  return result;
}

}  // namespace perfbench
