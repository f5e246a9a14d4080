#pragma once

#include <cstddef>
#include <string>

namespace acx::formats {

// Typed parse diagnostics for the strict format readers (V1/V2 records,
// F/R spectra, RD station spectra). Every rejection carries the code,
// the byte offset and 1-based line where the reader stopped, and a
// human-readable detail. Parse errors are always poison:
// re-reading the same bytes cannot succeed.
struct ParseError {
  enum class Code {
    kEmptyFile,
    kNonAsciiByte,
    kCrlfLineEnding,
    kBadMagic,
    kUnsupportedVersion,
    kMissingHeaderField,
    kBadHeaderField,
    kDuplicateHeaderField,
    kBadUnits,
    kMissingDataMarker,
    kBadColumnWidth,
    kMalformedNumber,
    kNonFiniteSample,
    kShortDataBlock,
    kExcessData,
    kMissingEndMarker,
    kTrailingGarbage,
    kBadValue,
  };

  Code code{};
  std::size_t byte_offset = 0;
  std::size_t line = 0;
  std::string detail;

  std::string to_string() const;
};

// Filesystem-safe identifier used in quarantine names and run_report.json
// ("parse.bad_magic", ...).
inline const char* slug(ParseError::Code c) {
  switch (c) {
    case ParseError::Code::kEmptyFile: return "empty_file";
    case ParseError::Code::kNonAsciiByte: return "non_ascii_byte";
    case ParseError::Code::kCrlfLineEnding: return "crlf_line_ending";
    case ParseError::Code::kBadMagic: return "bad_magic";
    case ParseError::Code::kUnsupportedVersion: return "unsupported_version";
    case ParseError::Code::kMissingHeaderField: return "missing_header_field";
    case ParseError::Code::kBadHeaderField: return "bad_header_field";
    case ParseError::Code::kDuplicateHeaderField:
      return "duplicate_header_field";
    case ParseError::Code::kBadUnits: return "bad_units";
    case ParseError::Code::kMissingDataMarker: return "missing_data_marker";
    case ParseError::Code::kBadColumnWidth: return "bad_column_width";
    case ParseError::Code::kMalformedNumber: return "malformed_number";
    case ParseError::Code::kNonFiniteSample: return "non_finite_sample";
    case ParseError::Code::kShortDataBlock: return "short_data_block";
    case ParseError::Code::kExcessData: return "excess_data";
    case ParseError::Code::kMissingEndMarker: return "missing_end_marker";
    case ParseError::Code::kTrailingGarbage: return "trailing_garbage";
    case ParseError::Code::kBadValue: return "bad_value";
  }
  return "unknown";
}

inline std::string ParseError::to_string() const {
  std::string s = "parse.";
  s += slug(code);
  s += " at byte " + std::to_string(byte_offset) + ", line " +
       std::to_string(line);
  if (!detail.empty()) {
    s += ": ";
    s += detail;
  }
  return s;
}

}  // namespace acx::formats
