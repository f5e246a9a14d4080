#pragma once

// The one scanner behind the strict text-format readers (V1/V2 in
// record_io.cpp; F, R and RD in spectra_io.cpp), and the byte-level
// contract they share (docs/FORMATS.md): line extraction with byte
// offsets, full-token numeric parsing, the ASCII/LF pre-scan, the header
// section driven by each format's field table, and the fixed-column data
// block. A reader supplies its table and keeps only its cross-field
// rules.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "formats/parse_error.hpp"
#include "formats/record.hpp"
#include "util/result.hpp"

namespace acx::formats::scan {

inline ParseError err(ParseError::Code code, std::size_t offset,
                      std::size_t line, std::string detail) {
  return ParseError{code, offset, line, std::move(detail)};
}

inline bool parse_full_double(std::string_view s, double& out) {
  // Leading spaces are the fixed-column padding; interior junk is not.
  std::size_t i = 0;
  while (i < s.size() && s[i] == ' ') ++i;
  s.remove_prefix(i);
  if (s.empty()) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

inline bool parse_full_long(std::string_view s, long& out) {
  if (s.empty()) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

inline constexpr long kMaxNpts = 100'000'000;

// The largest magnitude a reader accepts. The writers print numbers with
// no fewer than five significant digits (%12.4e), and a finite value
// above this rounds up past DBL_MAX there (1.79769e308 prints as
// 1.7977e+308), so the canonical rewrite of the file would not parse.
inline constexpr double kMaxMagnitude = 1.79764e308;

// Finite, and small enough that every writer prints it back in range.
inline bool in_range(double v) { return std::fabs(v) <= kMaxMagnitude; }

inline bool is_ident(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
          (c >= '0' && c <= '9') || c == '_' || c == '-')) {
      return false;
    }
  }
  return true;
}

inline bool is_date(std::string_view s) {
  if (s.size() != 10) return false;
  for (std::size_t i = 0; i < 10; ++i) {
    if (i == 4 || i == 7) {
      if (s[i] != '-') return false;
    } else if (s[i] < '0' || s[i] > '9') {
      return false;
    }
  }
  return true;
}

// Pulls lines out of the buffer, tracking byte offsets and 1-based line
// numbers for diagnostics.
struct LineReader {
  std::string_view text;
  std::size_t pos = 0;
  std::size_t line_no = 0;     // line number of the last returned line
  std::size_t line_start = 0;  // byte offset of the last returned line

  bool next(std::string_view& out) {
    if (pos >= text.size()) return false;
    line_start = pos;
    ++line_no;
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      out = text.substr(pos);
      pos = text.size();
    } else {
      out = text.substr(pos, nl - pos);
      pos = nl + 1;
    }
    return true;
  }
};

// Byte-level pre-scan: the formats are pure ASCII with LF endings, so
// binary corruption and CRLF conversions are caught with an exact
// offset before any structural parsing.
inline Result<Unit, ParseError> check_ascii(std::string_view content) {
  for (std::size_t i = 0; i < content.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(content[i]);
    if (c == '\r') {
      return err(ParseError::Code::kCrlfLineEnding, i, 0,
                 "carriage return: file has CRLF (or stray CR) line endings");
    }
    if (c != '\n' && c != '\t' && (c < 0x20 || c > 0x7e)) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "0x%02x", c);
      return err(ParseError::Code::kNonAsciiByte, i, 0,
                 std::string("byte ") + buf + " outside printable ASCII");
    }
  }
  return Unit{};
}

// First line: "<magic> <version>", version must be "1".
inline Result<Unit, ParseError> read_magic(LineReader& lines,
                                           std::string_view magic) {
  std::string_view line;
  if (!lines.next(line)) {
    return err(ParseError::Code::kEmptyFile, 0, 0, "file is empty");
  }
  const std::size_t sp = line.find(' ');
  const std::string_view file_magic = line.substr(0, sp);
  if (file_magic != magic) {
    return err(ParseError::Code::kBadMagic, lines.line_start, lines.line_no,
               "expected '" + std::string(magic) + "', got '" +
                   std::string(file_magic) + "'");
  }
  const std::string_view version =
      sp == std::string_view::npos ? std::string_view{} : line.substr(sp + 1);
  if (version != "1") {
    return err(ParseError::Code::kUnsupportedVersion, lines.line_start,
               lines.line_no,
               "unsupported version '" + std::string(version) + "'");
  }
  return Unit{};
}

// One entry of a format's field table: the header key, whether a file
// must carry it, and a setter that validates the value and stores it.
// The setter returns the rejection's detail, empty to accept; the
// scanner reports a rejection as `code` at the field's line.
struct Field {
  std::string_view key;
  bool required = true;
  std::function<std::string(std::string_view)> set;
  ParseError::Code code = ParseError::Code::kBadHeaderField;
};

inline Field optional_field(Field f) {
  f.required = false;
  return f;
}

// STATION and EVENT.
inline Field ident_field(std::string_view key, std::string& dst) {
  return {key, true, [key, &dst](std::string_view val) -> std::string {
            if (!is_ident(val)) {
              return std::string(key) + " must be a non-empty identifier";
            }
            dst = val;
            return {};
          }};
}

inline Field component_field(std::string& dst) {
  return {"COMPONENT", true, [&dst](std::string_view val) -> std::string {
            if (val != "l" && val != "t" && val != "v") {
              return "COMPONENT must be one of l, t, v; got '" +
                     std::string(val) + "'";
            }
            dst = val;
            return {};
          }};
}

inline Field date_field(std::string& dst) {
  return {"DATE", true, [&dst](std::string_view val) -> std::string {
            if (!is_date(val)) {
              return "DATE must be yyyy-mm-dd; got '" + std::string(val) + "'";
            }
            dst = val;
            return {};
          }};
}

// DT, DF and the F corners.
inline Field positive_field(std::string_view key, double& dst) {
  return {key, true, [key, &dst](std::string_view val) -> std::string {
            double v = 0;
            if (!parse_full_double(val, v) || !in_range(v) || v <= 0) {
              return std::string(key) +
                     " must be a finite positive number; got '" +
                     std::string(val) + "'";
            }
            dst = v;
            return {};
          }};
}

// NPTS, NPERIODS and ANGLES: an integer in [1, max].
inline Field count_field(std::string_view key, long& dst,
                         long max = kMaxNpts) {
  return {key, true, [key, &dst, max](std::string_view val) -> std::string {
            long n = 0;
            if (!parse_full_long(val, n) || n <= 0 || n > max) {
              return std::string(key) + " must be in [1, " +
                     std::to_string(max) + "]; got '" + std::string(val) +
                     "'";
            }
            dst = n;
            return {};
          }};
}

// The identity block V1, V2, F and R open with.
inline std::vector<Field> record_fields(RecordHeader& h) {
  return {ident_field("STATION", h.station), component_field(h.component),
          ident_field("EVENT", h.event_id), date_field(h.date),
          positive_field("DT", h.dt)};
}

// The header section every format shares: the magic line, then one
// "KEY value" line per table entry, in any order, until the DATA marker.
// Unknown and repeated keys are rejected at their line, and a missing
// field as the first one in table order, at the DATA line. With
// `comments`, V2's "#" lines are collected there instead of being
// unknown keys. On success `lines` stands on the DATA line, where a
// reader's cross-field checks report too, and the result flags which
// table entries appeared.
inline Result<std::vector<bool>, ParseError> scan_header(
    LineReader& lines, std::string_view magic, const std::vector<Field>& table,
    std::vector<std::string>* comments = nullptr) {
  auto ascii = check_ascii(lines.text);
  if (!ascii.ok()) return std::move(ascii).take_error();
  auto magic_ok = read_magic(lines, magic);
  if (!magic_ok.ok()) return std::move(magic_ok).take_error();

  std::vector<bool> seen(table.size());
  std::string_view line;
  while (lines.next(line)) {
    if (line == "DATA") {
      for (std::size_t f = 0; f < table.size(); ++f) {
        if (table[f].required && !seen[f]) {
          return err(ParseError::Code::kMissingHeaderField, lines.line_start,
                     lines.line_no,
                     "missing header field " + std::string(table[f].key));
        }
      }
      return seen;
    }
    if (comments && !line.empty() && line[0] == '#') {
      std::string_view body = line.substr(1);
      if (!body.empty() && body[0] == ' ') body.remove_prefix(1);
      comments->emplace_back(body);
      continue;
    }
    const std::size_t sp = line.find(' ');
    const std::string_view key = line.substr(0, sp);
    const std::string_view val =
        sp == std::string_view::npos ? std::string_view{} : line.substr(sp + 1);

    std::size_t f = 0;
    while (f < table.size() && table[f].key != key) ++f;
    if (f == table.size()) {
      return err(ParseError::Code::kBadHeaderField, lines.line_start,
                 lines.line_no,
                 "unknown header field '" + std::string(key) + "'");
    }
    if (seen[f]) {
      return err(ParseError::Code::kDuplicateHeaderField, lines.line_start,
                 lines.line_no,
                 "duplicate header field '" + std::string(key) + "'");
    }
    seen[f] = true;
    if (std::string why = table[f].set(val); !why.empty()) {
      return err(table[f].code, lines.line_start, lines.line_no,
                 std::move(why));
    }
  }
  return err(ParseError::Code::kMissingDataMarker, lines.text.size(),
             lines.line_no, "no DATA marker before end of file");
}

// Fixed-column data block after the DATA marker: `npts` cells of
// exactly kColumnWidth characters, kValuesPerLine per full line, every
// cell a number within kMaxMagnitude, then the END trailer and nothing
// but blank lines. Shared verbatim by every format that carries a data
// block.
inline Result<std::vector<double>, ParseError> read_data_block(
    LineReader& lines, long npts) {
  // `npts` comes from the header, so reserve no more cells than the
  // remaining bytes can hold: a tampered count must not allocate.
  const std::size_t content_size = lines.text.size();
  std::vector<double> samples;
  samples.reserve(std::min(static_cast<std::size_t>(npts),
                           (content_size - lines.pos) / kColumnWidth));
  std::string_view line;
  long remaining = npts;
  while (remaining > 0) {
    if (!lines.next(line)) {
      return err(ParseError::Code::kShortDataBlock, content_size,
                 lines.line_no,
                 "EOF with " + std::to_string(remaining) + " of " +
                     std::to_string(npts) + " samples missing");
    }
    if (line == "END") {
      return err(ParseError::Code::kShortDataBlock, lines.line_start,
                 lines.line_no,
                 "END with " + std::to_string(remaining) + " of " +
                     std::to_string(npts) + " samples missing");
    }
    const long cells = std::min<long>(kValuesPerLine, remaining);
    const std::size_t expected_len =
        static_cast<std::size_t>(cells) * kColumnWidth;
    if (line.size() != expected_len) {
      return err(ParseError::Code::kBadColumnWidth, lines.line_start,
                 lines.line_no,
                 "data line is " + std::to_string(line.size()) +
                     " chars, expected " + std::to_string(expected_len) +
                     " (" + std::to_string(cells) + " cells of " +
                     std::to_string(kColumnWidth) + ")");
    }
    for (long c = 0; c < cells; ++c) {
      const std::size_t cell_off = static_cast<std::size_t>(c) * kColumnWidth;
      const std::string_view cell = line.substr(cell_off, kColumnWidth);
      double v = 0;
      if (!parse_full_double(cell, v)) {
        return err(ParseError::Code::kMalformedNumber,
                   lines.line_start + cell_off, lines.line_no,
                   "cell '" + std::string(cell) + "' is not a number");
      }
      if (!in_range(v)) {
        return err(ParseError::Code::kNonFiniteSample,
                   lines.line_start + cell_off, lines.line_no,
                   "sample is " + std::string(cell));
      }
      samples.push_back(v);
    }
    remaining -= cells;
  }

  // END trailer, then nothing but blank lines.
  if (!lines.next(line)) {
    return err(ParseError::Code::kMissingEndMarker, content_size,
               lines.line_no, "EOF before END marker");
  }
  if (line != "END") {
    double probe = 0;
    const bool looks_like_data =
        line.size() >= kColumnWidth && line.size() % kColumnWidth == 0 &&
        parse_full_double(line.substr(0, kColumnWidth), probe);
    if (looks_like_data) {
      return err(ParseError::Code::kExcessData, lines.line_start,
                 lines.line_no,
                 "data past the declared NPTS=" + std::to_string(npts));
    }
    return err(ParseError::Code::kMissingEndMarker, lines.line_start,
               lines.line_no, "expected END, got '" + std::string(line) + "'");
  }
  while (lines.next(line)) {
    if (!line.empty()) {
      return err(ParseError::Code::kTrailingGarbage, lines.line_start,
                 lines.line_no, "content after END marker");
    }
  }
  return samples;
}

// The writer side of the magic line and the identity block of
// record_fields.
inline void append_common_header(std::string& out, std::string_view magic,
                                 const RecordHeader& h) {
  out += magic;
  out += " 1\n";
  out += "STATION " + h.station + "\n";
  out += "COMPONENT " + h.component + "\n";
  out += "EVENT " + h.event_id + "\n";
  out += "DATE " + h.date + "\n";
  char buf[80];
  std::snprintf(buf, sizeof buf, "DT %.6e\n", h.dt);
  out += buf;
}

// The writer side of the data block (everything from DATA to END).
inline void append_data_block(std::string& out,
                              const std::vector<double>& samples) {
  out += "DATA\n";
  char buf[32];
  for (std::size_t i = 0; i < samples.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%*.*e", kColumnWidth, 4, samples[i]);
    out += buf;
    if ((i + 1) % kValuesPerLine == 0 || i + 1 == samples.size()) out += '\n';
  }
  out += "END\n";
}

}  // namespace acx::formats::scan
