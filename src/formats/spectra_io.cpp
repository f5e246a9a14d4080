#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <string_view>

#include "formats/scan.hpp"
#include "formats/spectra.hpp"

namespace acx::formats {

namespace {

using Code = ParseError::Code;
using scan::err;
using scan::parse_full_double;
using scan::parse_full_long;

// DAMPINGS: a comma-separated, strictly ascending list of ratios in
// [0, 1).
scan::Field dampings_field(std::vector<double>& dst) {
  return {"DAMPINGS", true, [&dst](std::string_view val) -> std::string {
            std::string_view rest = val;
            while (!rest.empty()) {
              const std::size_t comma = rest.find(',');
              const std::string_view tok = rest.substr(0, comma);
              double z = 0;
              if (!parse_full_double(tok, z) || !scan::in_range(z) || z < 0 ||
                  z >= 1) {
                return "DAMPINGS must be a comma-separated list of ratios in "
                       "[0, 1); got '" +
                       std::string(tok) + "'";
              }
              if (!dst.empty() && z <= dst.back()) {
                return "DAMPINGS must be strictly ascending";
              }
              dst.push_back(z);
              rest = comma == std::string_view::npos ? std::string_view{}
                                                     : rest.substr(comma + 1);
            }
            if (dst.empty()) return "DAMPINGS must name at least one ratio";
            return {};
          }};
}

// The damping-major block of R and RD: `nperiods` periods, positive and
// strictly ascending, then for each damping one row of every array in
// `rows`, none negative.
Result<Unit, ParseError> read_grid(
    scan::LineReader& lines, long nperiods, std::size_t ndamp,
    std::vector<double>& periods,
    std::initializer_list<std::vector<double>*> rows) {
  const long total =
      nperiods * (1 + static_cast<long>(rows.size() * ndamp));
  auto block = scan::read_data_block(lines, total);
  if (!block.ok()) return std::move(block).take_error();
  const std::vector<double> flat = std::move(block).take();

  const std::size_t np = static_cast<std::size_t>(nperiods);
  periods.assign(flat.begin(), flat.begin() + nperiods);
  for (std::size_t i = 0; i < np; ++i) {
    if (periods[i] <= 0) {
      return err(Code::kBadValue, 0, 0,
                 "period " + std::to_string(i) + " is not positive");
    }
    if (i > 0 && periods[i] <= periods[i - 1]) {
      return err(Code::kBadValue, 0, 0,
                 "periods must be strictly ascending (index " +
                     std::to_string(i) + ")");
    }
  }
  for (std::vector<double>* dst : rows) dst->resize(np * ndamp);
  std::size_t cursor = np;
  for (std::size_t d = 0; d < ndamp; ++d) {
    for (std::vector<double>* dst : rows) {
      for (std::size_t p = 0; p < np; ++p) {
        const double v = flat[cursor++];
        if (v < 0) {
          return err(Code::kBadValue, 0, 0,
                     "spectral value at damping " + std::to_string(d) +
                         ", period " + std::to_string(p) + " is negative");
        }
        (*dst)[d * np + p] = v;
      }
    }
  }
  return Unit{};
}

// The writer side: the DAMPINGS line, then the same damping-major block.
void append_grid(std::string& out, const std::vector<double>& dampings,
                 const std::vector<double>& periods,
                 std::initializer_list<const std::vector<double>*> rows) {
  out += "DAMPINGS ";
  char buf[32];
  for (std::size_t i = 0; i < dampings.size(); ++i) {
    if (i) out += ',';
    std::snprintf(buf, sizeof buf, "%.6e", dampings[i]);
    out += buf;
  }
  out += '\n';

  std::vector<double> flat;
  const std::size_t np = periods.size();
  flat.reserve(np * (1 + rows.size() * dampings.size()));
  flat.insert(flat.end(), periods.begin(), periods.end());
  for (std::size_t d = 0; d < dampings.size(); ++d) {
    const std::size_t base = d * np;
    for (const std::vector<double>* src : rows) {
      flat.insert(flat.end(), src->begin() + base, src->begin() + base + np);
    }
  }
  scan::append_data_block(out, flat);
}

}  // namespace

Result<FRecord, ParseError> read_f(std::string_view content) {
  FRecord out;
  RecordHeader& h = out.header;
  std::vector<scan::Field> table = scan::record_fields(h);
  table.insert(
      table.end(),
      {scan::count_field("NPTS", h.npts),
       {"UNITS", true,
        [&h](std::string_view val) -> std::string {
          if (val != "cm/s") {
            return "F spectra are in cm/s; got '" + std::string(val) + "'";
          }
          h.units = val;
          return {};
        },
        Code::kBadUnits},
       scan::positive_field("DF", out.df),
       {"NFFT", true,
        [&out](std::string_view val) -> std::string {
          long n = 0;
          if (!parse_full_long(val, n) || n < 2 || n % 2 != 0 ||
              n > scan::kMaxNpts) {
            return "NFFT must be an even integer in [2, " +
                   std::to_string(scan::kMaxNpts) + "]; got '" +
                   std::string(val) + "'";
          }
          out.nfft = n;
          return {};
        }},
       {"WINDOW", true,
        [&out](std::string_view val) -> std::string {
          if (val != "none" && val != "hann" && val != "hamming") {
            return "WINDOW must be none, hann or hamming; got '" +
                   std::string(val) + "'";
          }
          out.window = val;
          return {};
        }},
       scan::optional_field(scan::positive_field("FSL", out.fsl_hz)),
       scan::optional_field(scan::positive_field("FPL", out.fpl_hz))});

  scan::LineReader lines{content};
  auto seen = scan::scan_header(lines, kFMagic, table);
  if (!seen.ok()) return std::move(seen).take_error();

  // The corner pair (the last two entries) is optional but
  // all-or-nothing, like the V2 peaks.
  const bool has_fsl = seen.value()[table.size() - 2];
  if (has_fsl != seen.value().back()) {
    return err(Code::kMissingHeaderField, lines.line_start, lines.line_no,
               "corner block is partial: FSL and FPL must appear together");
  }
  out.has_corners = has_fsl;
  if (out.has_corners && !(out.fsl_hz < out.fpl_hz)) {
    return err(Code::kBadValue, lines.line_start, lines.line_no,
               "corners are degenerate: FSL must be below FPL");
  }

  // Geometry cross-checks tie the header fields to each other.
  if (h.npts != out.nfft / 2 + 1) {
    return err(Code::kBadValue, lines.line_start, lines.line_no,
               "NPTS must equal NFFT/2 + 1 = " +
                   std::to_string(out.nfft / 2 + 1) + "; got " +
                   std::to_string(h.npts));
  }
  const double expected_df = 1.0 / (static_cast<double>(out.nfft) * h.dt);
  if (std::fabs(out.df - expected_df) > 1e-6 * expected_df) {
    return err(Code::kBadValue, lines.line_start, lines.line_no,
               "DF disagrees with 1 / (NFFT * DT)");
  }

  auto block = scan::read_data_block(lines, h.npts);
  if (!block.ok()) return std::move(block).take_error();
  out.amplitude = std::move(block).take();
  for (std::size_t i = 0; i < out.amplitude.size(); ++i) {
    if (out.amplitude[i] < 0) {
      return err(Code::kBadValue, 0, 0,
                 "amplitude bin " + std::to_string(i) + " is negative");
    }
  }
  return out;
}

std::string write_f(const FRecord& record) {
  std::string out;
  scan::append_common_header(out, kFMagic, record.header);
  char buf[80];
  out += "NPTS " + std::to_string(record.header.npts) + "\n";
  out += "UNITS " + record.header.units + "\n";
  std::snprintf(buf, sizeof buf, "DF %.9e\n", record.df);
  out += buf;
  out += "NFFT " + std::to_string(record.nfft) + "\n";
  out += "WINDOW " + record.window + "\n";
  if (record.has_corners) {
    // %.9e survives the docs/SPECTRUM.md 1e-6 relative contract.
    std::snprintf(buf, sizeof buf, "FSL %.9e\n", record.fsl_hz);
    out += buf;
    std::snprintf(buf, sizeof buf, "FPL %.9e\n", record.fpl_hz);
    out += buf;
  }
  scan::append_data_block(out, record.amplitude);
  return out;
}

Result<RRecord, ParseError> read_r(std::string_view content) {
  RRecord out;
  RecordHeader& h = out.header;
  std::vector<scan::Field> table = scan::record_fields(h);
  table.push_back(scan::count_field("NPERIODS", h.npts));
  table.push_back(dampings_field(out.dampings));

  scan::LineReader lines{content};
  auto seen = scan::scan_header(lines, kRMagic, table);
  if (!seen.ok()) return std::move(seen).take_error();

  auto grid = read_grid(lines, h.npts, out.dampings.size(), out.periods,
                        {&out.sd, &out.sv, &out.sa});
  if (!grid.ok()) return std::move(grid).take_error();
  return out;
}

Result<RotdRecord, ParseError> read_rotd(std::string_view content) {
  RotdRecord out;
  long nperiods = 0;
  // Station-level header: no COMPONENT field (the whole point of the
  // format is that the result is orientation-independent).
  const std::vector<scan::Field> table = {
      scan::ident_field("STATION", out.station),
      scan::ident_field("EVENT", out.event_id),
      scan::date_field(out.date),
      scan::positive_field("DT", out.dt),
      scan::count_field("NPERIODS", nperiods),
      scan::count_field("ANGLES", out.angles, 36000),
      dampings_field(out.dampings)};

  scan::LineReader lines{content};
  auto seen = scan::scan_header(lines, kRotdMagic, table);
  if (!seen.ok()) return std::move(seen).take_error();

  auto grid = read_grid(lines, nperiods, out.dampings.size(), out.periods,
                        {&out.rotd00, &out.rotd50, &out.rotd100, &out.geomean});
  if (!grid.ok()) return std::move(grid).take_error();
  // The percentile ordering is an invariant of the sweep, not just a
  // convention: a file that breaks it was not produced by the kernel.
  for (std::size_t i = 0; i < out.rotd00.size(); ++i) {
    if (out.rotd00[i] > out.rotd50[i] || out.rotd50[i] > out.rotd100[i]) {
      return err(Code::kBadValue, 0, 0,
                 "RotD percentiles out of order at cell " + std::to_string(i) +
                     ": ROTD00 <= ROTD50 <= ROTD100 must hold");
    }
  }
  return out;
}

std::string write_rotd(const RotdRecord& record) {
  std::string out;
  out += kRotdMagic;
  out += " 1\n";
  out += "STATION " + record.station + "\n";
  out += "EVENT " + record.event_id + "\n";
  out += "DATE " + record.date + "\n";
  char buf[80];
  std::snprintf(buf, sizeof buf, "DT %.6e\n", record.dt);
  out += buf;
  out += "NPERIODS " + std::to_string(record.periods.size()) + "\n";
  out += "ANGLES " + std::to_string(record.angles) + "\n";
  append_grid(out, record.dampings, record.periods,
              {&record.rotd00, &record.rotd50, &record.rotd100,
               &record.geomean});
  return out;
}

std::string write_r(const RRecord& record) {
  std::string out;
  scan::append_common_header(out, kRMagic, record.header);
  out += "NPERIODS " + std::to_string(record.header.npts) + "\n";
  append_grid(out, record.dampings, record.periods,
              {&record.sd, &record.sv, &record.sa});
  return out;
}

}  // namespace acx::formats
