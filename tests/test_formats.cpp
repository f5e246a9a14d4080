#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>

#include "formats/spectra.hpp"
#include "formats/v1.hpp"
#include "formats/v2.hpp"
#include "util/rng.hpp"

namespace acx::formats {
namespace {

Record make_record(long npts = 19) {
  Record rec;
  rec.header.station = "SS01";
  rec.header.component = "l";
  rec.header.event_id = "EV06";
  rec.header.date = "2019-07-07";
  rec.header.dt = 0.005;
  rec.header.npts = npts;
  rec.header.units = "counts";
  for (long i = 0; i < npts; ++i) {
    rec.samples.push_back(123.456 * std::sin(0.1 * static_cast<double>(i)) -
                          7.25);
  }
  return rec;
}

std::string replace_first(std::string text, const std::string& from,
                          const std::string& to) {
  const auto pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "corpus bug: '" << from << "' absent";
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

std::string drop_line(std::string text, const std::string& prefix) {
  const auto pos = text.find(prefix);
  EXPECT_NE(pos, std::string::npos) << "corpus bug: '" << prefix << "' absent";
  if (pos == std::string::npos) return text;
  const auto eol = text.find('\n', pos);
  text.erase(pos, eol - pos + 1);
  return text;
}

std::size_t data_start(const std::string& text) {
  const auto pos = text.find("DATA\n");
  EXPECT_NE(pos, std::string::npos);
  return pos + 5;
}

TEST(V1, WriterReaderRoundTrip) {
  const Record rec = make_record(19);
  const std::string text = write_v1(rec);
  auto back = read_v1(text);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  const Record& r = back.value();
  EXPECT_EQ(r.header.station, "SS01");
  EXPECT_EQ(r.header.component, "l");
  EXPECT_EQ(r.header.event_id, "EV06");
  EXPECT_EQ(r.header.date, "2019-07-07");
  EXPECT_DOUBLE_EQ(r.header.dt, 0.005);
  EXPECT_EQ(r.header.npts, 19);
  EXPECT_EQ(r.header.units, "counts");
  ASSERT_EQ(r.samples.size(), rec.samples.size());
  for (std::size_t i = 0; i < r.samples.size(); ++i) {
    // %12.4e keeps 5 significant digits.
    EXPECT_NEAR(r.samples[i], rec.samples[i],
                1e-4 * std::fabs(rec.samples[i]) + 1e-12);
  }
}

TEST(V1, CanonicalFormIsIdempotent) {
  const std::string text = write_v1(make_record(8));
  auto back = read_v1(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(write_v1(back.value()), text);  // golden: re-emit is byte-identical
}

TEST(V1, SingleSampleAndExactMultipleOfRowWidth) {
  for (const long npts : {1L, 8L, 16L}) {
    Record rec = make_record(npts);
    auto back = read_v1(write_v1(rec));
    ASSERT_TRUE(back.ok()) << "npts=" << npts << ": "
                           << back.error().to_string();
    EXPECT_EQ(back.value().header.npts, npts);
  }
}

TEST(V2, RoundTripWithProcessingList) {
  V2Record v2;
  v2.record = make_record(11);
  v2.record.header.units = "cm/s2";
  v2.processing = {"demean", "detrend", "write_v2"};
  auto back = read_v2(write_v2(v2));
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value().processing, v2.processing);
  EXPECT_EQ(back.value().record.header.units, "cm/s2");
}

TEST(V2, RoundTripWithPeaksAndComments) {
  V2Record v2;
  v2.record = make_record(11);
  v2.record.header.units = "cm/s2";
  v2.processing = {"calibrate", "demean", "write_v2"};
  v2.peaks.present = true;
  v2.peaks.pga = {-123.456789012, 0.035};
  v2.peaks.pgv = {4.5e-2, 0.04};
  v2.peaks.pgd = {1.25e-3, 0.055};
  v2.comments = {"bandpass: fir 0.50-25.00 Hz, 101 taps",
                 "integrate: trapezoid"};
  auto back = read_v2(write_v2(v2));
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  ASSERT_TRUE(back.value().peaks.present);
  // %.9e keeps 10 significant digits — far inside the 1e-6 contract.
  EXPECT_NEAR(back.value().peaks.pga.value, v2.peaks.pga.value, 1e-6);
  EXPECT_NEAR(back.value().peaks.pga.time, v2.peaks.pga.time, 1e-9);
  EXPECT_NEAR(back.value().peaks.pgv.value, v2.peaks.pgv.value, 1e-9);
  EXPECT_NEAR(back.value().peaks.pgd.value, v2.peaks.pgd.value, 1e-9);
  EXPECT_EQ(back.value().comments, v2.comments);
}

TEST(V2, PeakBlockIsAllOrNothing) {
  V2Record v2;
  v2.record = make_record(5);
  v2.record.header.units = "cm/s2";
  v2.processing = {"demean"};
  v2.peaks.present = true;
  v2.peaks.pga = {1.0, 0.0};
  v2.peaks.pgv = {2.0, 0.0};
  v2.peaks.pgd = {3.0, 0.0};
  // Dropping any one of the three peak lines must be rejected.
  for (const std::string prefix : {"PGA ", "PGV ", "PGD "}) {
    std::string text = drop_line(write_v2(v2), prefix);
    auto back = read_v2(text);
    ASSERT_FALSE(back.ok()) << "partial peak block accepted (no " << prefix
                            << ")";
    EXPECT_EQ(back.error().code, ParseError::Code::kMissingHeaderField);
  }
  // Non-finite or negative-time peak values are rejected too.
  auto nan_peak = read_v2(
      replace_first(write_v2(v2), "PGA 1.000000000e+00 0.000000000e+00",
                    "PGA nan 0.0"));
  ASSERT_FALSE(nan_peak.ok());
  EXPECT_EQ(nan_peak.error().code, ParseError::Code::kBadHeaderField);
  auto neg_time = read_v2(
      replace_first(write_v2(v2), "PGA 1.000000000e+00 0.000000000e+00",
                    "PGA 1.0 -0.5"));
  ASSERT_FALSE(neg_time.ok());
  EXPECT_EQ(neg_time.error().code, ParseError::Code::kBadHeaderField);
}

TEST(V1, RejectsPeakLinesAndComments) {
  // The corrected-format extensions must not leak into strict V1.
  const std::string valid = write_v1(make_record(4));
  auto with_peak = read_v1(
      replace_first(valid, "UNITS counts", "UNITS counts\nPGA 1.0 0.5"));
  ASSERT_FALSE(with_peak.ok());
  EXPECT_EQ(with_peak.error().code, ParseError::Code::kBadHeaderField);
  auto with_comment = read_v1(
      replace_first(valid, "UNITS counts", "UNITS counts\n# history"));
  ASSERT_FALSE(with_comment.ok());
  EXPECT_EQ(with_comment.error().code, ParseError::Code::kBadHeaderField);
}

TEST(V2, RejectsCountsUnits) {
  V2Record v2;
  v2.record = make_record(4);
  v2.record.header.units = "counts";
  v2.processing = {"demean"};
  auto back = read_v2(write_v2(v2));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code, ParseError::Code::kBadUnits);
}

TEST(V1, RejectsV2File) {
  V2Record v2;
  v2.record = make_record(4);
  v2.record.header.units = "cm/s2";
  v2.processing = {"demean"};
  auto back = read_v1(write_v2(v2));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code, ParseError::Code::kBadMagic);
}

// --- Malformed-record corpus ---------------------------------------------
// Every mutation must yield its exact ParseError code — never a crash,
// never silent acceptance.

struct MalformedCase {
  const char* name;
  std::function<std::string(std::string)> mutate;
  ParseError::Code expected;
};

TEST(V1MalformedCorpus, EveryFaultYieldsItsTypedError) {
  const std::string valid = write_v1(make_record(19));  // 8 + 8 + 3 layout
  const std::string full_line = valid.substr(data_start(valid), 96);

  const MalformedCase kCases[] = {
      {"empty_file", [](std::string) { return std::string(); },
       ParseError::Code::kEmptyFile},
      {"bad_magic",
       [](std::string s) { return replace_first(s, "ACX-V1", "XXX-V1"); },
       ParseError::Code::kBadMagic},
      {"unsupported_version",
       [](std::string s) { return replace_first(s, "ACX-V1 1", "ACX-V1 2"); },
       ParseError::Code::kUnsupportedVersion},
      {"missing_npts", [](std::string s) { return drop_line(s, "NPTS "); },
       ParseError::Code::kMissingHeaderField},
      {"missing_station",
       [](std::string s) { return drop_line(s, "STATION "); },
       ParseError::Code::kMissingHeaderField},
      {"non_numeric_dt",
       [](std::string s) { return replace_first(s, "DT 5.000000e-03", "DT abc"); },
       ParseError::Code::kBadHeaderField},
      {"negative_dt",
       [](std::string s) {
         return replace_first(s, "DT 5.000000e-03", "DT -5.000000e-03");
       },
       ParseError::Code::kBadHeaderField},
      {"zero_npts",
       [](std::string s) { return replace_first(s, "NPTS 19", "NPTS 0"); },
       ParseError::Code::kBadHeaderField},
      {"npts_overflowing_long",
       [](std::string s) {
         return replace_first(s, "NPTS 19", "NPTS 99999999999999999999");
       },
       ParseError::Code::kBadHeaderField},
      {"bad_component",
       [](std::string s) { return replace_first(s, "COMPONENT l", "COMPONENT x"); },
       ParseError::Code::kBadHeaderField},
      {"bad_date",
       [](std::string s) {
         return replace_first(s, "DATE 2019-07-07", "DATE 07/07/2019");
       },
       ParseError::Code::kBadHeaderField},
      {"unknown_units",
       [](std::string s) { return replace_first(s, "UNITS counts", "UNITS gal"); },
       ParseError::Code::kBadUnits},
      {"duplicate_station",
       [](std::string s) {
         return replace_first(s, "COMPONENT l", "STATION SS99\nCOMPONENT l");
       },
       ParseError::Code::kDuplicateHeaderField},
      {"unknown_header_field",
       [](std::string s) {
         return replace_first(s, "UNITS counts", "FOO bar\nUNITS counts");
       },
       ParseError::Code::kBadHeaderField},
      {"processed_in_v1",
       [](std::string s) {
         return replace_first(s, "UNITS counts",
                              "UNITS counts\nPROCESSED demean");
       },
       ParseError::Code::kBadHeaderField},
      {"missing_data_marker",
       [](std::string s) { return s.substr(0, s.find("DATA\n")); },
       ParseError::Code::kMissingDataMarker},
      {"short_data_block_line_removed",
       [](std::string s) {
         // Drop the final partial data line (3 cells + newline): the
         // reader then hits END with samples still missing.
         const auto end_pos = s.find("END\n");
         EXPECT_NE(end_pos, std::string::npos);
         return s.erase(end_pos - 37, 37);
       },
       ParseError::Code::kShortDataBlock},
      {"truncated_mid_cell",
       [&](std::string s) { return s.substr(0, data_start(s) + 97 + 50); },
       ParseError::Code::kBadColumnWidth},
      {"truncated_at_line_boundary",
       [&](std::string s) { return s.substr(0, data_start(s) + 97); },
       ParseError::Code::kShortDataBlock},
      {"wrong_column_width",
       [&](std::string s) {
         return s.erase(data_start(s), 1);  // first data line one char short
       },
       ParseError::Code::kBadColumnWidth},
      {"nan_sample",
       [&](std::string s) {
         return s.replace(data_start(s), 12, "         nan");
       },
       ParseError::Code::kNonFiniteSample},
      {"inf_sample",
       [&](std::string s) {
         return s.replace(data_start(s), 12, "        -inf");
       },
       ParseError::Code::kNonFiniteSample},
      {"malformed_number",
       [&](std::string s) {
         return s.replace(data_start(s), 12, "  1.23x4e+00");
       },
       ParseError::Code::kMalformedNumber},
      {"blank_number_cell",
       [&](std::string s) {
         return s.replace(data_start(s), 12, "            ");
       },
       ParseError::Code::kMalformedNumber},
      {"excess_data",
       [&](std::string s) {
         return replace_first(s, "END\n", full_line + "\nEND\n");
       },
       ParseError::Code::kExcessData},
      {"missing_end_marker",
       [](std::string s) { return replace_first(s, "END\n", ""); },
       ParseError::Code::kMissingEndMarker},
      {"trailing_garbage",
       [](std::string s) { return s + "junk after the trailer\n"; },
       ParseError::Code::kTrailingGarbage},
      {"crlf_line_endings",
       [](std::string s) {
         std::string out;
         for (const char c : s) {
           if (c == '\n') out += '\r';
           out += c;
         }
         return out;
       },
       ParseError::Code::kCrlfLineEnding},
      {"non_ascii_byte",
       [&](std::string s) {
         s[data_start(s) + 3] = static_cast<char>(0xff);
         return s;
       },
       ParseError::Code::kNonAsciiByte},
      {"control_byte",
       [&](std::string s) {
         s[data_start(s) + 3] = '\x01';
         return s;
       },
       ParseError::Code::kNonAsciiByte},
  };

  for (const MalformedCase& c : kCases) {
    SCOPED_TRACE(c.name);
    auto result = read_v1(c.mutate(valid));
    ASSERT_FALSE(result.ok()) << "malformed record was accepted";
    EXPECT_EQ(result.error().code, c.expected)
        << "got " << result.error().to_string();
  }
}

TEST(V1Diagnostics, ByteOffsetsPointAtTheFault) {
  const std::string valid = write_v1(make_record(19));

  auto bad_magic = read_v1(replace_first(valid, "ACX-V1", "XXX-V1"));
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.error().byte_offset, 0u);
  EXPECT_EQ(bad_magic.error().line, 1u);

  // CRLF: offset of the first CR byte.
  std::string crlf = valid;
  const auto first_nl = crlf.find('\n');
  crlf.insert(first_nl, "\r");
  auto r = read_v1(crlf);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ParseError::Code::kCrlfLineEnding);
  EXPECT_EQ(r.error().byte_offset, first_nl);

  // Malformed cell: offset of the cell, line of the data row.
  std::string bad_cell = valid;
  const auto cell_off = data_start(bad_cell) + 97;  // first cell, second row
  bad_cell.replace(cell_off, 12, "  1.23x4e+00");
  auto rc = read_v1(bad_cell);
  ASSERT_FALSE(rc.ok());
  EXPECT_EQ(rc.error().code, ParseError::Code::kMalformedNumber);
  EXPECT_EQ(rc.error().byte_offset, cell_off);
  EXPECT_EQ(rc.error().line, 11u);  // magic + 7 header + DATA + row1 -> row2
}

// --- F / R spectral formats ----------------------------------------------

FRecord make_f_record(bool with_corners = true) {
  FRecord f;
  f.header.station = "SS01";
  f.header.component = "l";
  f.header.event_id = "EV06";
  f.header.date = "2019-07-07";
  f.header.dt = 0.005;
  f.nfft = 64;
  f.header.npts = f.nfft / 2 + 1;
  f.header.units = "cm/s";
  f.df = 1.0 / (static_cast<double>(f.nfft) * f.header.dt);
  f.window = "hann";
  f.has_corners = with_corners;
  if (with_corners) {
    f.fsl_hz = 0.4;
    f.fpl_hz = 24.5;
  }
  for (long k = 0; k < f.header.npts; ++k) {
    f.amplitude.push_back(0.25 + 0.01 * static_cast<double>(k % 11));
  }
  return f;
}

RRecord make_r_record() {
  RRecord r;
  r.header.station = "SS02";
  r.header.component = "t";
  r.header.event_id = "EV03";
  r.header.date = "2018-01-24";
  r.header.dt = 0.005;
  r.dampings = {0.0, 0.05, 0.20};
  r.periods = {0.02, 0.1, 1.0, 10.0};
  r.header.npts = static_cast<long>(r.periods.size());
  const std::size_t cells = r.dampings.size() * r.periods.size();
  for (std::size_t i = 0; i < cells; ++i) {
    r.sd.push_back(1.0 + 0.1 * static_cast<double>(i));
    r.sv.push_back(2.0 + 0.1 * static_cast<double>(i));
    r.sa.push_back(3.0 + 0.1 * static_cast<double>(i));
  }
  return r;
}

TEST(FFormat, WriterReaderRoundTrip) {
  const FRecord f = make_f_record();
  auto back = read_f(write_f(f));
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  const FRecord& g = back.value();
  EXPECT_EQ(g.header.id(), f.header.id());
  EXPECT_EQ(g.header.units, "cm/s");
  EXPECT_EQ(g.nfft, f.nfft);
  EXPECT_EQ(g.window, f.window);
  EXPECT_NEAR(g.df, f.df, 1e-12);
  ASSERT_TRUE(g.has_corners);
  EXPECT_NEAR(g.fsl_hz, f.fsl_hz, 1e-9);
  EXPECT_NEAR(g.fpl_hz, f.fpl_hz, 1e-9);
  ASSERT_EQ(g.amplitude.size(), f.amplitude.size());
  for (std::size_t i = 0; i < g.amplitude.size(); ++i) {
    EXPECT_NEAR(g.amplitude[i], f.amplitude[i],
                1e-4 * std::fabs(f.amplitude[i]) + 1e-12);
  }
}

TEST(FFormat, CornerBlockIsOptionalButAllOrNothing) {
  const FRecord f = make_f_record(/*with_corners=*/false);
  const std::string text = write_f(f);
  EXPECT_EQ(text.find("FSL"), std::string::npos);
  auto back = read_f(text);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_FALSE(back.value().has_corners);

  // A lone FSL without FPL must be rejected as a partial corner block.
  const std::string partial = replace_first(
      write_f(make_f_record()), "FPL", "XPL");
  auto bad = read_f(partial);
  ASSERT_FALSE(bad.ok());
}

TEST(FFormat, RejectsInconsistentHeaders) {
  {
    // NPTS must equal NFFT/2 + 1.
    FRecord f = make_f_record();
    auto bad = read_f(replace_first(write_f(f), "NPTS 33", "NPTS 32"));
    ASSERT_FALSE(bad.ok());
  }
  {
    // DF must match 1 / (NFFT * DT).
    FRecord f = make_f_record();
    f.df *= 1.5;
    auto bad = read_f(write_f(f));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ParseError::Code::kBadValue);
  }
  {
    // Amplitudes are magnitudes: negative cells are corrupt.
    FRecord f = make_f_record();
    f.amplitude[3] = -1.0;
    auto bad = read_f(write_f(f));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ParseError::Code::kBadValue);
  }
  {
    // Wrong units for a FAS.
    auto bad = read_f(replace_first(write_f(make_f_record()),
                                    "UNITS cm/s", "UNITS cm/s2"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ParseError::Code::kBadUnits);
  }
  {
    // Unknown window name.
    auto bad = read_f(replace_first(write_f(make_f_record()),
                                    "WINDOW hann", "WINDOW tukey"));
    ASSERT_FALSE(bad.ok());
  }
}

TEST(FFormat, RejectsV1Magic) {
  auto bad = read_f(write_v1(make_record(8)));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ParseError::Code::kBadMagic);
}

TEST(RFormat, WriterReaderRoundTrip) {
  const RRecord r = make_r_record();
  auto back = read_r(write_r(r));
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  const RRecord& s = back.value();
  EXPECT_EQ(s.header.id(), r.header.id());
  ASSERT_EQ(s.dampings.size(), r.dampings.size());
  ASSERT_EQ(s.periods.size(), r.periods.size());
  for (std::size_t d = 0; d < r.dampings.size(); ++d) {
    EXPECT_NEAR(s.dampings[d], r.dampings[d], 1e-9);
    for (std::size_t p = 0; p < r.periods.size(); ++p) {
      const std::size_t i = r.index(d, p);
      EXPECT_NEAR(s.sd[i], r.sd[i], 1e-4 * r.sd[i]);
      EXPECT_NEAR(s.sv[i], r.sv[i], 1e-4 * r.sv[i]);
      EXPECT_NEAR(s.sa[i], r.sa[i], 1e-4 * r.sa[i]);
    }
  }
}

TEST(RFormat, RejectsBadGrids) {
  {
    // Dampings must ascend.
    auto bad = read_r(replace_first(
        write_r(make_r_record()), "DAMPINGS", "DAMPINGS 9.000000e-01,"));
    ASSERT_FALSE(bad.ok());
  }
  {
    // Periods must ascend: swap breaks monotonicity via a doctored
    // record rather than text surgery on the fixed-column block.
    RRecord r = make_r_record();
    std::swap(r.periods[1], r.periods[2]);
    auto bad = read_r(write_r(r));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ParseError::Code::kBadValue);
  }
  {
    // Negative spectral ordinates are corrupt.
    RRecord r = make_r_record();
    r.sa[0] = -5.0;
    auto bad = read_r(write_r(r));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ParseError::Code::kBadValue);
  }
  {
    // Truncated data block.
    const std::string text = write_r(make_r_record());
    const auto end_pos = text.rfind("END");
    std::string truncated = text.substr(0, text.rfind('\n', end_pos - 2));
    truncated += "\nEND\n";
    auto bad = read_r(truncated);
    ASSERT_FALSE(bad.ok());
  }
}

TEST(RFormat, RejectsMissingDampings) {
  std::string text = write_r(make_r_record());
  const auto pos = text.find("DAMPINGS");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, text.find('\n', pos) - pos + 1);
  auto bad = read_r(text);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ParseError::Code::kMissingHeaderField);
}

// --- RD station spectra ---------------------------------------------------

RotdRecord make_rotd_record() {
  RotdRecord rd;
  rd.station = "SS03";
  rd.event_id = "EV02";
  rd.date = "2018-01-24";
  rd.dt = 0.01;
  rd.angles = 180;
  rd.dampings = {0.02, 0.05};
  rd.periods = {0.05, 0.2, 1.0, 4.0};
  const std::size_t cells = rd.dampings.size() * rd.periods.size();
  for (std::size_t i = 0; i < cells; ++i) {
    const double base = 1.0 + 0.25 * static_cast<double>(i);
    rd.rotd00.push_back(base);
    rd.rotd50.push_back(base + 0.5);
    rd.rotd100.push_back(base + 1.0);
    rd.geomean.push_back(base + 0.4);
  }
  return rd;
}

TEST(RotdFormat, WriterReaderRoundTrip) {
  const RotdRecord rd = make_rotd_record();
  const std::string text = write_rotd(rd);
  auto back = read_rotd(text);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  const RotdRecord& s = back.value();
  EXPECT_EQ(s.station, rd.station);
  EXPECT_EQ(s.event_id, rd.event_id);
  EXPECT_EQ(s.date, rd.date);
  EXPECT_DOUBLE_EQ(s.dt, rd.dt);
  EXPECT_EQ(s.angles, rd.angles);
  ASSERT_EQ(s.dampings.size(), rd.dampings.size());
  ASSERT_EQ(s.periods.size(), rd.periods.size());
  for (std::size_t d = 0; d < rd.dampings.size(); ++d) {
    EXPECT_NEAR(s.dampings[d], rd.dampings[d], 1e-9);
    for (std::size_t p = 0; p < rd.periods.size(); ++p) {
      const std::size_t i = rd.index(d, p);
      EXPECT_NEAR(s.rotd00[i], rd.rotd00[i], 1e-4 * rd.rotd00[i]);
      EXPECT_NEAR(s.rotd50[i], rd.rotd50[i], 1e-4 * rd.rotd50[i]);
      EXPECT_NEAR(s.rotd100[i], rd.rotd100[i], 1e-4 * rd.rotd100[i]);
      EXPECT_NEAR(s.geomean[i], rd.geomean[i], 1e-4 * rd.geomean[i]);
    }
  }
  EXPECT_EQ(write_rotd(s), text);  // re-emit is byte-identical
}

TEST(RotdMalformedCorpus, EveryFaultYieldsItsTypedError) {
  const std::string valid = write_rotd(make_rotd_record());
  RotdRecord unordered = make_rotd_record();
  unordered.rotd50[5] = unordered.rotd100[5] + 1.0;
  const std::string unordered_text = write_rotd(unordered);

  const MalformedCase kCases[] = {
      {"component_line",
       [](std::string s) {
         return replace_first(s, "EVENT EV02", "COMPONENT l\nEVENT EV02");
       },
       ParseError::Code::kBadHeaderField},
      {"zero_angles",
       [](std::string s) { return replace_first(s, "ANGLES 180", "ANGLES 0"); },
       ParseError::Code::kBadHeaderField},
      {"too_many_angles",
       [](std::string s) {
         return replace_first(s, "ANGLES 180", "ANGLES 36001");
       },
       ParseError::Code::kBadHeaderField},
      {"missing_angles", [](std::string s) { return drop_line(s, "ANGLES "); },
       ParseError::Code::kMissingHeaderField},
      {"descending_dampings",
       [](std::string s) {
         return replace_first(s, "DAMPINGS 2.000000e-02,5.000000e-02",
                              "DAMPINGS 5.000000e-02,2.000000e-02");
       },
       ParseError::Code::kBadHeaderField},
      {"rotd50_above_rotd100", [&](std::string) { return unordered_text; },
       ParseError::Code::kBadValue},
  };

  for (const MalformedCase& c : kCases) {
    SCOPED_TRACE(c.name);
    auto result = read_rotd(c.mutate(valid));
    ASSERT_FALSE(result.ok()) << "malformed station spectrum was accepted";
    EXPECT_EQ(result.error().code, c.expected)
        << "got " << result.error().to_string();
  }
}

// A header count is outside input: a tampered NPTS or NPERIODS must come
// back as a typed error, never as an allocation sized from the count.
TEST(TamperedCounts, AreTypedErrorsNotAllocations) {
  std::string dampings = "DAMPINGS 0.01";
  for (int i = 2; i <= 40; ++i) {
    dampings += (i < 10 ? ",0.0" : ",0.") + std::to_string(i);
  }
  const std::string r = replace_first(
      replace_first(write_r(make_r_record()), "NPERIODS 4",
                    "NPERIODS 100000000"),
      "DAMPINGS 0.000000e+00,5.000000e-02,2.000000e-01", dampings);
  auto r_back = read_r(r);
  ASSERT_FALSE(r_back.ok());
  EXPECT_EQ(r_back.error().code, ParseError::Code::kShortDataBlock);

  const std::string rd = replace_first(
      replace_first(write_rotd(make_rotd_record()), "NPERIODS 4",
                    "NPERIODS 100000000"),
      "DAMPINGS 2.000000e-02,5.000000e-02", dampings);
  auto rd_back = read_rotd(rd);
  ASSERT_FALSE(rd_back.ok());
  EXPECT_EQ(rd_back.error().code, ParseError::Code::kBadColumnWidth);

  auto v1_back = read_v1(
      replace_first(write_v1(make_record(19)), "NPTS 19", "NPTS 100000000"));
  ASSERT_FALSE(v1_back.ok());
  EXPECT_EQ(v1_back.error().code, ParseError::Code::kBadColumnWidth);
}

// --- Mutation gate -------------------------------------------------------
// Seeded mutants of valid writer output for every format. Structure-aware
// edits swap, duplicate or drop header lines, set values to NaN, Inf, a
// denormal, a negative, an empty string or a huge count, and write long or
// non-ascending DAMPINGS lists; naive edits flip bits, truncate, insert
// tokens, and duplicate or delete lines. Every mutant must give a typed
// ParseError or a value whose rewrite is a write -> read fixed point, with
// no exception and no read over a second. The digest folds in every
// diagnosis (format, code, offset, line, detail) and every rewrite, so it
// pins the readers' behaviour: a change that alters any diagnosis updates
// kMutationDigest and lists each changed diagnosis.

constexpr std::uint64_t kMutationDigest = 0xdbab3d1d8c2ac9eeULL;
constexpr int kMutants = 50'000;

V2Record make_v2_record() {
  V2Record v2;
  v2.record = make_record(11);
  v2.record.header.units = "cm/s2";
  v2.processing = {"calibrate", "demean", "write_v2"};
  v2.peaks.present = true;
  v2.peaks.pga = {-123.456789012, 0.035};
  v2.peaks.pgv = {4.5e-2, 0.04};
  v2.peaks.pgd = {1.25e-3, 0.055};
  v2.comments = {"bandpass: fir 0.50-25.00 Hz, 101 taps",
                 "integrate: trapezoid"};
  return v2;
}

// A reader's answer to one input: its diagnosis, or the canonical
// rewrite of the value it accepted.
using Verdict = Result<std::string, ParseError>;

template <class Read, class Write>
Verdict verdict_of(Read read, Write write, std::string_view text) {
  auto value = read(text);
  if (!value.ok()) return std::move(value).take_error();
  return write(value.value());
}

struct GateFormat {
  const char* name;
  std::string seed;
  std::function<Verdict(std::string_view)> read;
};

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl; (nl = text.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.emplace_back(text.substr(start, nl - start));
  }
  lines.emplace_back(text.substr(start));
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i) text += '\n';
    text += lines[i];
  }
  return text;
}

// Every draw comes from Xoshiro256, never a std:: distribution, and each
// in its own statement (argument evaluation order is unspecified), so
// the mutants are the same on every platform and compiler.
struct Mutator {
  Xoshiro256 rng;

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng.next_in(0, n - 1));
  }
  template <std::size_t N>
  const char* pick(const char* const (&table)[N]) {
    return table[pick(N)];
  }

  std::string mutate(std::string text) {
    const int edits = 1 + static_cast<int>(rng.next_in(0, 2));
    for (int e = 0; e < edits; ++e) text = edit(std::move(text));
    return text;
  }

  std::string edit(std::string text) {
    static constexpr const char* kValues[] = {
        "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "4.9e-324",
        "1e-310", "2.2250738585072009e-308", "-1", "-0", "0", "",
        "-5.000000e-03", "1.7976931348623157e308", "100000000",
        "99999999999999999999", "+1", "0x10", " 1", "1 ", "1,2", "l",
        "counts", "cm/s2", "cm/s", "hann", "2019-07-07", "SS01"};
    static constexpr const char* kCounts[] = {
        "100000000", "100000001", "99999999", "36000", "36001", "2", "1",
        "0", "-1", "64", "66", "2147483648", "9223372036854775807",
        "99999999999999999999"};
    static constexpr const char* kCountKeys[] = {"NPTS", "NPERIODS",
                                                 "ANGLES", "NFFT"};
    static constexpr const char* kCells[] = {
        "nan", "-nan", "inf", "-inf", "4.9407e-324", "1.0000e-310",
        "-1.0000e+00", "-0.0000e+00", "0.0000e+00", "", "1.7977e+308",
        "1.79769e+308", "1.0000e+04", "  1.0000e+04"};
    static constexpr const char* kTokens[] = {
        " ", "\n", "DATA\n", "END\n", "#", ",", "-", "e", "0", "9", "nan",
        "1e308", "\t", "\r", "STATION X\n", "NPTS 1\n", "DAMPINGS 0.5\n",
        "PGA 1 1\n", "FSL 1\n", "  1.0000e+00"};

    std::vector<std::string> lines = split_lines(text);
    std::size_t data = 0;
    while (data < lines.size() && lines[data] != "DATA") ++data;
    const auto header_line = [&] { return 1 + pick(data - 1); };
    const auto key_of = [](const std::string& line) {
      return line.substr(0, line.find(' '));
    };

    switch (rng.next_in(0, 11)) {
      case 0: {  // swap two header lines (the magic line included)
        if (data < 2) break;
        const std::size_t a = pick(data), b = pick(data);
        std::swap(lines[a], lines[b]);
        return join_lines(lines);
      }
      case 1: {  // duplicate a header line
        if (data < 2) break;
        const std::string copy = lines[header_line()];
        lines.insert(lines.begin() + 1 + pick(data), copy);
        return join_lines(lines);
      }
      case 2:  // drop a header line
        if (data < 2) break;
        lines.erase(lines.begin() + header_line());
        return join_lines(lines);
      case 3: {  // set a header value
        if (data < 2) break;
        std::string& line = lines[header_line()];
        line = rng.next_in(0, 7) == 0 ? key_of(line)
                                      : key_of(line) + ' ' + pick(kValues);
        return join_lines(lines);
      }
      case 4: {  // a huge (or edge) count in one of the file's count keys
        std::vector<std::size_t> counts;
        for (std::size_t i = 1; i < data; ++i) {
          for (const char* key : kCountKeys) {
            if (key_of(lines[i]) == key) counts.push_back(i);
          }
        }
        if (counts.empty()) break;
        std::string& line = lines[counts[pick(counts.size())]];
        line = key_of(line) + ' ' + pick(kCounts);
        return join_lines(lines);
      }
      case 5: {  // a long DAMPINGS list, ascending or broken in one place
        const std::size_t n = pick(65);
        std::vector<double> z(n);
        for (std::size_t i = 0; i < n; ++i) {
          z[i] = static_cast<double>(i + 1) / static_cast<double>(n + 1);
        }
        if (n > 0 && rng.next_in(0, 3) == 0) {
          static constexpr double kBreaks[] = {1.0, -0.05, 0.0, 0.5};
          const std::size_t at = pick(n);
          z[at] = kBreaks[pick(std::size(kBreaks))];
        }
        std::string list = "DAMPINGS ";
        char buf[32];
        for (std::size_t i = 0; i < n; ++i) {
          std::snprintf(buf, sizeof buf, "%s%.6e", i ? "," : "", z[i]);
          list += buf;
        }
        if (rng.next_in(0, 7) == 0) list += pick(kTokens);
        for (std::size_t i = 1; i < data; ++i) {
          if (key_of(lines[i]) == "DAMPINGS") lines[i] = list;
        }
        return join_lines(lines);
      }
      case 6: {  // set a data cell
        if (data + 1 >= lines.size()) break;
        std::string& line = lines[data + 1 + pick(lines.size() - data - 1)];
        const std::size_t cells = line.size() / kColumnWidth;
        if (cells == 0) break;
        std::string cell = pick(kCells);
        if (cell.size() < kColumnWidth) {
          cell.insert(0, kColumnWidth - cell.size(), ' ');
        }
        line.replace(pick(cells) * kColumnWidth, kColumnWidth, cell);
        return join_lines(lines);
      }
      case 7: {  // flip one bit
        if (text.empty()) break;
        const std::size_t at = pick(text.size());
        text[at] ^= static_cast<char>(1 << rng.next_in(0, 7));
        return text;
      }
      case 8:  // truncate
        if (text.empty()) break;
        text.resize(pick(text.size()));
        return text;
      case 9: {  // insert a token
        const std::size_t at = pick(text.size() + 1);
        text.insert(at, pick(kTokens));
        return text;
      }
      case 10: {  // duplicate a line
        const std::string copy = lines[pick(lines.size())];
        lines.insert(lines.begin() + pick(lines.size() + 1), copy);
        return join_lines(lines);
      }
      case 11:  // delete a line
        lines.erase(lines.begin() + pick(lines.size()));
        return join_lines(lines);
    }
    return text;
  }
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Chains one verdict into the digest.
void fold(std::uint64_t& digest, const char* format, const Verdict& v) {
  std::string entry = hex64(digest) + ' ' + format;
  if (v.ok()) {
    entry += " ok\n" + v.value();
  } else {
    const ParseError& e = v.error();
    entry += std::string(" ") + slug(e.code) + ' ' +
             std::to_string(e.byte_offset) + ' ' + std::to_string(e.line) +
             ' ' + e.detail;
  }
  digest = fnv1a64(entry);
}

TEST(FormatsMutationGate, TypedErrorOrFixedPointWithAPinnedDigest) {
  const GateFormat kFormats[] = {
      {"V1", write_v1(make_record(19)),
       [](std::string_view t) { return verdict_of(read_v1, write_v1, t); }},
      {"V2", write_v2(make_v2_record()),
       [](std::string_view t) { return verdict_of(read_v2, write_v2, t); }},
      {"F", write_f(make_f_record(/*with_corners=*/true)),
       [](std::string_view t) { return verdict_of(read_f, write_f, t); }},
      {"F", write_f(make_f_record(/*with_corners=*/false)),
       [](std::string_view t) { return verdict_of(read_f, write_f, t); }},
      {"R", write_r(make_r_record()),
       [](std::string_view t) { return verdict_of(read_r, write_r, t); }},
      {"RD", write_rotd(make_rotd_record()),
       [](std::string_view t) {
         return verdict_of(read_rotd, write_rotd, t);
       }},
  };
  const GateFormat v1_header{
      "V1H", "", [](std::string_view t) {
        return verdict_of(read_v1_header,
                          [](const RecordHeader& h) {
                            return write_v1(Record{h, {}});
                          },
                          t);
      }};

  int throws = 0, slow = 0, not_fixed = 0, disagree = 0, accepted = 0;
  // Runs one reader under the time bound; accepted values must rewrite
  // to a fixed point.
  const auto judge = [&](const GateFormat& f, const std::string& text,
                         std::uint64_t& digest) -> Verdict {
    const auto t0 = std::chrono::steady_clock::now();
    Verdict v = f.read(text);
    if (std::chrono::steady_clock::now() - t0 > std::chrono::seconds(1)) {
      ++slow;
    }
    fold(digest, f.name, v);
    if (v.ok()) {
      ++accepted;
      const Verdict again = f.read(v.value());
      if (!again.ok() || again.value() != v.value()) {
        if (++not_fixed <= 3) {
          ADD_FAILURE() << f.name << " rewrite is not a fixed point:\n"
                        << v.value();
        }
      }
    }
    return v;
  };

  Mutator mutator{Xoshiro256(0x5eed'f0c5'a11d'7e57ULL)};
  std::uint64_t digest = 0;
  for (int m = 0; m < kMutants; ++m) {
    const GateFormat& f = kFormats[m % std::size(kFormats)];
    const std::string text = mutator.mutate(f.seed);
    try {
      const Verdict v = judge(f, text, digest);
      if (std::string_view(f.name) != "V1") continue;
      // The header-only read agrees with the full read: the same
      // diagnosis when it rejects, the same header when both accept.
      const Verdict h = judge(v1_header, text, digest);
      const auto header_of = [](const std::string& s) {
        return s.substr(0, s.find("\nDATA\n"));
      };
      const bool agree =
          h.ok() ? !v.ok() || header_of(v.value()) == header_of(h.value())
                 : !v.ok() && v.error().to_string() == h.error().to_string();
      if (!agree && ++disagree <= 3) {
        ADD_FAILURE() << "read_v1_header disagrees with read_v1 on:\n"
                      << text;
      }
    } catch (const std::exception& e) {
      if (++throws <= 3) {
        ADD_FAILURE() << "threw " << e.what() << " on:\n" << text;
      }
    } catch (...) {
      if (++throws <= 3) ADD_FAILURE() << "threw on:\n" << text;
    }
  }
  EXPECT_EQ(throws, 0);
  EXPECT_EQ(slow, 0);
  EXPECT_EQ(not_fixed, 0);
  EXPECT_EQ(disagree, 0);
  EXPECT_GT(accepted, kMutants / 100);  // the mutants reach the value paths
  EXPECT_EQ(digest, kMutationDigest)
      << "mutation digest is now 0x" << hex64(digest)
      << ": list every changed diagnosis and update kMutationDigest";
}

}  // namespace
}  // namespace acx::formats
