#include "checks.hpp"

#include <cmath>
#include <exception>
#include <optional>
#include <type_traits>

#include "formats/component_set.hpp"
#include "formats/spectra.hpp"
#include "pipeline/validate.hpp"
#include "replay.hpp"
#include "spectrum/response.hpp"
#include "spectrum/rotd.hpp"

namespace perfbench {

namespace stdfs = std::filesystem;
namespace fmt = acx::formats;
namespace spec = acx::spectrum;

namespace {

// %.4e keeps five significant digits: the printed value is within half
// a unit of the fifth digit, i.e. at most 5e-5 relative. One full unit
// (1e-4) also absorbs a reference that differs from the production
// kernel in the last bits and lands on the other side of a rounding
// boundary.
constexpr double kPrintTolerance = 1e-4;

bool close(double printed, double reference) {
  return std::fabs(printed - reference) <=
         kPrintTolerance * std::fabs(reference) + 1e-300;
}

// Reads a file and parses it with a strict reader; empty on either
// failure.
template <class Reader>
auto read_strict(acx::FileSystem& fs, const stdfs::path& path, Reader reader)
    -> std::optional<std::decay_t<decltype(reader("").value())>> {
  auto text = fs.read_file(path);
  if (!text.ok()) return std::nullopt;
  auto parsed = reader(text.value());
  if (!parsed.ok()) return std::nullopt;
  return std::move(parsed).take();
}

std::vector<std::size_t> probe_indices(std::size_t n) {
  if (n == 0) return {};
  if (n < 3) return {0, n - 1};
  return {0, n / 2, n - 1};
}

}  // namespace

void Tally::count(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

void check_event(acx::FileSystem& fs, const stdfs::path& work_dir,
                 const acx::pipeline::RunReport& report,
                 const std::string& input_key,
                 std::map<std::string, std::string>& canonical, Tally& tally) {
  const std::string where = work_dir.filename().string();
  tally.count(std::string(report.status()) == "ok",
              where + ": event status " + report.status());
  for (const acx::pipeline::RecordOutcome& r : report.records) {
    tally.count(r.status == acx::pipeline::RecordOutcome::Status::kOk,
                where + ": record " + r.record + " quarantined (" + r.reason +
                    ")");
  }
  for (const acx::pipeline::StationOutcome& s : report.stations) {
    const bool ok = s.rotd_status == "ok" ||
                    (s.rotd_status == "skipped" &&
                     s.rotd_reason == "station.missing_component");
    tally.count(ok, where + ": station " + s.station + " rotd " +
                        s.rotd_status + " " + s.rotd_reason);
  }
  const acx::pipeline::ValidationSummary v =
      acx::pipeline::validate_workdir(fs, work_dir);
  tally.count(v.clean(), where + ": validate_workdir: " +
                             (v.clean() ? std::string()
                                        : v.issues.front().kind + " " +
                                              v.issues.front().detail));
  const std::string dump = report.canonical_dump();
  auto [it, inserted] = canonical.emplace(input_key, dump);
  tally.count(inserted || it->second == dump,
              where + ": canonical_dump differs from the first run of " +
                  input_key);
}

std::string check_oracles(acx::FileSystem& fs, const stdfs::path& input_dir,
                          const stdfs::path& work_dir,
                          const stdfs::path& scratch_dir,
                          const acx::pipeline::RunnerConfig& cfg,
                          Tally& tally) {
  // The corrected series of the first station's members, recomputed
  // through the public correction chain (three records cover one
  // triaxial station).
  ReplayOptions opt;
  opt.stations = false;
  opt.max_records = 3;
  opt.keep_corrected = true;
  ReplayResult replay;
  try {
    replay = replay_event(fs, input_dir, scratch_dir, cfg, opt);
  } catch (const std::exception& e) {
    tally.count(false, std::string("oracle replay: ") + e.what());
    return "none (replay failed)";
  }
  (void)fs.remove_all(scratch_dir);
  const spec::ResponseGrid& grid = cfg.spectrum.grid;
  const std::size_t cells = probe_indices(grid.periods.size()).size() *
                            probe_indices(grid.dampings.size()).size();
  std::string checked;

  // .r of the first record vs sdof_peak_response.
  {
    const auto& [id, acc] = *replay.corrected.begin();
    const double dt = replay.dt.at(id);
    const auto rr_read = read_strict(
        fs, work_dir / "out" / (id + std::string(fmt::kRExtension)),
        fmt::read_r);
    tally.count(rr_read.has_value(), "oracle: " + id + ".r unreadable");
    if (rr_read) {
      const fmt::RRecord& rr = *rr_read;
      bool ok = rr.periods.size() == grid.periods.size() &&
                rr.dampings.size() == grid.dampings.size();
      for (std::size_t d : probe_indices(grid.dampings.size())) {
        for (std::size_t p : probe_indices(grid.periods.size())) {
          if (!ok) break;
          auto ref = spec::sdof_peak_response(acc, dt, grid.periods[p],
                                              grid.dampings[d]);
          const std::size_t i = rr.index(d, p);
          ok = ref.ok() && close(rr.periods[p], grid.periods[p]) &&
               close(rr.sd[i], ref.value().sd) &&
               close(rr.sv[i], ref.value().sv) &&
               close(rr.sa[i], ref.value().sa);
        }
      }
      tally.count(ok, "oracle: " + id + ".r disagrees with sdof_peak_response");
      checked = id + ".r vs sdof_peak_response (" + std::to_string(cells) +
                " cells)";
    }
  }

  // .rotd of the first eligible station vs rotd_spectrum_reference,
  // evaluated on a sub-grid of probe cells (cells are independent).
  std::map<std::string, std::map<std::string, std::string>> stations;
  for (const auto& [id, acc] : replay.corrected) {
    const auto [station, component] = fmt::split_record_id(id);
    stations[station][component] = id;
  }
  for (const auto& [station, members] : stations) {
    if (!members.count("l") || !members.count("t")) continue;
    const stdfs::path rotd_path =
        work_dir / "out" / (station + std::string(fmt::kRotdExtension));
    if (!fs.exists(rotd_path)) continue;  // not eligible in the pipeline
    const std::vector<double>& l = replay.corrected.at(members.at("l"));
    const std::vector<double>& t = replay.corrected.at(members.at("t"));
    const double dt = replay.dt.at(members.at("l"));
    spec::ResponseGrid sub;
    const std::vector<std::size_t> ps = probe_indices(grid.periods.size());
    const std::vector<std::size_t> ds = probe_indices(grid.dampings.size());
    for (std::size_t p : ps) sub.periods.push_back(grid.periods[p]);
    for (std::size_t d : ds) sub.dampings.push_back(grid.dampings[d]);
    auto ref = spec::rotd_spectrum_reference(l, t, dt, sub,
                                             cfg.spectrum.rotd_angles);
    const auto rd = read_strict(fs, rotd_path, fmt::read_rotd);
    bool ok = ref.ok() && rd && rd->periods.size() == grid.periods.size() &&
              rd->dampings.size() == grid.dampings.size();
    for (std::size_t di = 0; ok && di < ds.size(); ++di) {
      for (std::size_t pi = 0; ok && pi < ps.size(); ++pi) {
        const std::size_t i = rd->index(ds[di], ps[pi]);
        const std::size_t j = ref.value().index(di, pi);
        ok = close(rd->rotd00[i], ref.value().rotd00[j]) &&
             close(rd->rotd50[i], ref.value().rotd50[j]) &&
             close(rd->rotd100[i], ref.value().rotd100[j]) &&
             close(rd->geomean[i], ref.value().geomean[j]);
      }
    }
    tally.count(ok, "oracle: " + station +
                        ".rotd disagrees with rotd_spectrum_reference");
    checked += ", " + station + ".rotd vs rotd_spectrum_reference (" +
               std::to_string(cells) + " cells)";
    break;
  }
  return checked;
}

}  // namespace perfbench
