#include <algorithm>
#include <cstdio>
#include <string_view>

#include "formats/scan.hpp"
#include "formats/v1.hpp"
#include "formats/v2.hpp"

namespace acx::formats {

namespace {

using Code = ParseError::Code;
using scan::err;
using scan::is_ident;
using scan::parse_full_double;

struct ParsedRecord {
  Record record;
  std::vector<std::string> processing;
  PeakSet peaks;
  std::vector<std::string> comments;
};

// "PGA <value> <time>": two finite numbers, time non-negative.
scan::Field peak_field(std::string_view key, PeakEntry& dst) {
  return {key, /*required=*/false,
          [key, &dst](std::string_view val) -> std::string {
            const std::size_t sp = val.find(' ');
            double value = 0, time = 0;
            if (sp == std::string_view::npos ||
                !parse_full_double(val.substr(0, sp), value) ||
                !parse_full_double(val.substr(sp + 1), time) ||
                !scan::in_range(value) || !scan::in_range(time) || time < 0) {
              return std::string(key) +
                     " must be '<value> <time>' with finite value and "
                     "non-negative time; got '" +
                     std::string(val) + "'";
            }
            dst = {value, time};
            return {};
          }};
}

Result<ParsedRecord, ParseError> read_record(std::string_view content,
                                             std::string_view magic,
                                             bool is_v2,
                                             bool header_only = false) {
  ParsedRecord out;
  RecordHeader& h = out.record.header;
  std::vector<scan::Field> table = scan::record_fields(h);
  table.push_back(scan::count_field("NPTS", h.npts));
  table.push_back({"UNITS", true,
                   [&h, is_v2](std::string_view val) -> std::string {
                     if (val != "counts" && val != "cm/s2") {
                       return "UNITS must be 'counts' or 'cm/s2'; got '" +
                              std::string(val) + "'";
                     }
                     if (is_v2 && val != "cm/s2") {
                       return "V2 records must be in cm/s2";
                     }
                     h.units = val;
                     return {};
                   },
                   Code::kBadUnits});
  if (is_v2) {
    table.push_back(
        {"PROCESSED", true, [&out](std::string_view val) -> std::string {
           std::string_view rest = val;
           while (!rest.empty()) {
             const std::size_t comma = rest.find(',');
             const std::string_view stage = rest.substr(0, comma);
             if (!is_ident(stage)) {
               return "PROCESSED must be a comma-separated stage list";
             }
             out.processing.emplace_back(stage);
             rest = comma == std::string_view::npos ? std::string_view{}
                                                    : rest.substr(comma + 1);
           }
           if (out.processing.empty()) {
             return "PROCESSED must name at least one stage";
           }
           return {};
         }});
    table.push_back(peak_field("PGA", out.peaks.pga));
    table.push_back(peak_field("PGV", out.peaks.pgv));
    table.push_back(peak_field("PGD", out.peaks.pgd));
  }

  // Processing-history comments are part of the corrected format only;
  // V1 stays maximally strict.
  scan::LineReader lines{content};
  auto seen = scan::scan_header(lines, magic, table,
                                is_v2 ? &out.comments : nullptr);
  if (!seen.ok()) return std::move(seen).take_error();

  // The peak block (the last three entries) is optional but
  // all-or-nothing.
  if (is_v2) {
    const auto peaks_seen =
        std::count(seen.value().end() - 3, seen.value().end(), true);
    if (peaks_seen != 0 && peaks_seen != 3) {
      return err(Code::kMissingHeaderField, lines.line_start, lines.line_no,
                 "peak block is partial: PGA, PGV and PGD must appear "
                 "together");
    }
    out.peaks.present = peaks_seen == 3;
  }

  if (header_only) return out;

  auto samples = scan::read_data_block(lines, h.npts);
  if (!samples.ok()) return std::move(samples).take_error();
  out.record.samples = std::move(samples).take();

  return out;
}

void write_common(std::string& out, std::string_view magic,
                  const RecordHeader& h,
                  const std::vector<std::string>* processing,
                  const PeakSet* peaks,
                  const std::vector<std::string>* comments,
                  const std::vector<double>& samples) {
  scan::append_common_header(out, magic, h);
  out += "NPTS " + std::to_string(h.npts) + "\n";
  out += "UNITS " + h.units + "\n";
  if (processing) {
    out += "PROCESSED ";
    for (std::size_t i = 0; i < processing->size(); ++i) {
      if (i) out += ',';
      out += (*processing)[i];
    }
    out += '\n';
  }
  if (peaks && peaks->present) {
    // %.9e survives the docs/SIGNAL.md 1e-6 relative contract.
    char buf[80];
    std::snprintf(buf, sizeof buf, "PGA %.9e %.9e\n", peaks->pga.value,
                  peaks->pga.time);
    out += buf;
    std::snprintf(buf, sizeof buf, "PGV %.9e %.9e\n", peaks->pgv.value,
                  peaks->pgv.time);
    out += buf;
    std::snprintf(buf, sizeof buf, "PGD %.9e %.9e\n", peaks->pgd.value,
                  peaks->pgd.time);
    out += buf;
  }
  if (comments) {
    for (const std::string& c : *comments) {
      out += "# ";
      out += c;
      out += '\n';
    }
  }
  scan::append_data_block(out, samples);
}

}  // namespace

Result<Record, ParseError> read_v1(std::string_view content) {
  auto parsed = read_record(content, kV1Magic, /*is_v2=*/false);
  if (!parsed.ok()) return std::move(parsed).take_error();
  return std::move(parsed).take().record;
}

Result<RecordHeader, ParseError> read_v1_header(std::string_view content) {
  auto parsed =
      read_record(content, kV1Magic, /*is_v2=*/false, /*header_only=*/true);
  if (!parsed.ok()) return std::move(parsed).take_error();
  return std::move(parsed).take().record.header;
}

std::string write_v1(const Record& record) {
  std::string out;
  write_common(out, kV1Magic, record.header, nullptr, nullptr, nullptr,
               record.samples);
  return out;
}

Result<V2Record, ParseError> read_v2(std::string_view content) {
  auto parsed = read_record(content, kV2Magic, /*is_v2=*/true);
  if (!parsed.ok()) return std::move(parsed).take_error();
  ParsedRecord p = std::move(parsed).take();
  return V2Record{std::move(p.record), std::move(p.processing), p.peaks,
                  std::move(p.comments)};
}

std::string write_v2(const V2Record& record) {
  std::string out;
  write_common(out, kV2Magic, record.record.header, &record.processing,
               &record.peaks, &record.comments, record.record.samples);
  return out;
}

}  // namespace acx::formats
