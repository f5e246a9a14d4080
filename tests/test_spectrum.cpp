#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "signal/fft.hpp"
#include "spectrum/corners.hpp"
#include "spectrum/fourier.hpp"
#include "spectrum/response.hpp"
#include "spectrum/response_plan.hpp"
#include "test_helpers.hpp"
#include "util/simd.hpp"

namespace acx::spectrum {
namespace {

constexpr double kPi = std::numbers::pi;

// --- Nigam–Jennings golden values ----------------------------------------
//
// The recurrence is exact for piecewise-linear excitation, so loading
// cases with closed-form solutions must match to near machine
// precision, not just to O(dt).

TEST(NigamJennings, UndampedStepMatchesClosedFormTo1e6) {
  // Ground step a(t) = a0 into an undamped oscillator:
  //   x(t)  = -(a0/w^2)(1 - cos wt),  max |x| = 2 a0 / w^2 at t = pi/w
  //   v(t)  = -(a0/w) sin wt,         max |v| = a0 / w at t = pi/(2w)
  //   |abs acc| = w^2 |x|,            max = 2 a0.
  // With period 2 s (w = pi) and dt = 0.005 s both extrema fall exactly
  // on sample instants, so the only error is roundoff.
  const double a0 = 100.0;  // cm/s2
  const double dt = 0.005;
  const double period = 2.0;
  const double w = 2.0 * kPi / period;
  const std::vector<double> acc(static_cast<std::size_t>(2.0 / dt) + 1, a0);

  auto peaks = sdof_peak_response(acc, dt, period, 0.0);
  ASSERT_TRUE(peaks.ok()) << peaks.error().to_string();
  const double sd = 2.0 * a0 / (w * w);
  const double sv = a0 / w;
  const double sa = 2.0 * a0;
  EXPECT_NEAR(peaks.value().sd, sd, 1e-6 * sd);
  EXPECT_NEAR(peaks.value().sv, sv, 1e-6 * sv);
  EXPECT_NEAR(peaks.value().sa, sa, 1e-6 * sa);
}

TEST(NigamJennings, DampedStepPeakDisplacementMatchesClosedFormTo1e6) {
  // Damped step response peaks at wd * t = pi with
  //   max |x| = (a0/w^2) (1 + exp(-zeta w pi / wd)).
  // Choose wd = pi exactly so the peak instant t = 1 s is a sample.
  const double a0 = 50.0;
  const double dt = 0.005;
  const double zeta = 0.05;
  const double wd = kPi;
  const double w = wd / std::sqrt(1.0 - zeta * zeta);
  const double period = 2.0 * kPi / w;
  const std::vector<double> acc(static_cast<std::size_t>(2.0 / dt) + 1, a0);

  auto peaks = sdof_peak_response(acc, dt, period, zeta);
  ASSERT_TRUE(peaks.ok()) << peaks.error().to_string();
  const double sd =
      a0 / (w * w) * (1.0 + std::exp(-zeta * w * kPi / wd));
  EXPECT_NEAR(peaks.value().sd, sd, 1e-6 * sd);
}

TEST(NigamJennings, ResonantHarmonicReachesSteadyStateAmplitudeTo1e6) {
  // Base excitation a0 sin(w t) at exact resonance: the steady-state
  // relative displacement amplitude is a0 / (2 zeta w^2) and the
  // absolute acceleration amplitude is sqrt(1 + 4 zeta^2) times w^2
  // that. Run long enough (256 s, zeta w t ~ 16) for the transient to
  // decay below the 1e-6 assertion floor; dt = 2.5e-4 keeps both the
  // piecewise-linear interpolation error of the sine and the
  // peak-sampling offset under 1e-7 relative.
  const double a0 = 10.0;
  const double zeta = 0.02;
  const double period = 2.0;
  const double w = 2.0 * kPi / period;
  const double dt = 2.5e-4;
  const std::size_t n = static_cast<std::size_t>(256.0 / dt) + 1;
  std::vector<double> acc(n);
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = a0 * std::sin(w * dt * static_cast<double>(i));
  }

  auto peaks = sdof_peak_response(acc, dt, period, zeta);
  ASSERT_TRUE(peaks.ok()) << peaks.error().to_string();
  const double sd = a0 / (2.0 * zeta * w * w);
  const double sa = sd * w * w * std::sqrt(1.0 + 4.0 * zeta * zeta);
  EXPECT_NEAR(peaks.value().sd, sd, 1e-6 * sd);
  EXPECT_NEAR(peaks.value().sa, sa, 1e-6 * sa);
}

TEST(NigamJennings, RejectsBadOscillatorParameters) {
  const std::vector<double> acc(128, 1.0);
  EXPECT_EQ(sdof_peak_response(acc, 0.005, 0.0, 0.05).error().code,
            SpectrumError::Code::kBadPeriod);
  EXPECT_EQ(sdof_peak_response(acc, 0.005, 1.0, 1.0).error().code,
            SpectrumError::Code::kBadDamping);
  EXPECT_EQ(sdof_peak_response(acc, 0.0, 1.0, 0.05).error().code,
            SpectrumError::Code::kBadSamplingInterval);
  EXPECT_EQ(sdof_peak_response({}, 0.005, 1.0, 0.05).error().code,
            SpectrumError::Code::kEmptyInput);
}

TEST(ResponseSpectrum, PaperGridHas600PeriodsAndFiveDampings) {
  const ResponseGrid grid = paper_grid();
  ASSERT_EQ(grid.periods.size(), 600u);
  ASSERT_EQ(grid.dampings.size(), 5u);
  EXPECT_NEAR(grid.periods.front(), 0.02, 1e-12);
  EXPECT_NEAR(grid.periods.back(), 10.0, 1e-9);
  EXPECT_EQ(grid.dampings,
            (std::vector<double>{0.0, 0.02, 0.05, 0.10, 0.20}));
  EXPECT_TRUE(validate_grid(grid).ok());
}

TEST(ResponseSpectrum, GridCellsMatchTheSingleOscillatorKernel) {
  // The grid evaluator is just the kernel mapped over cells; spot-check
  // that the damping-major layout indexes the right oscillator.
  std::vector<double> acc(512);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] = std::sin(0.11 * static_cast<double>(i)) +
             0.5 * std::cos(0.043 * static_cast<double>(i));
  }
  ResponseGrid grid;
  grid.periods = {0.1, 0.5, 2.0};
  grid.dampings = {0.02, 0.10};

  auto spec = response_spectrum(acc, 0.005, grid);
  ASSERT_TRUE(spec.ok()) << spec.error().to_string();
  const ResponseSpectrum& rs = spec.value();
  ASSERT_EQ(rs.sd.size(), 6u);
  for (std::size_t d = 0; d < grid.dampings.size(); ++d) {
    for (std::size_t p = 0; p < grid.periods.size(); ++p) {
      auto cell = sdof_peak_response(acc, 0.005, grid.periods[p],
                                     grid.dampings[d]);
      ASSERT_TRUE(cell.ok());
      const std::size_t i = rs.index(d, p);
      EXPECT_DOUBLE_EQ(rs.sd[i], cell.value().sd);
      EXPECT_DOUBLE_EQ(rs.sv[i], cell.value().sv);
      EXPECT_DOUBLE_EQ(rs.sa[i], cell.value().sa);
    }
  }
}

TEST(ResponseSpectrum, BatchKernelIsBitIdenticalToTheScalarRecurrence) {
  // The whole paper grid (3000 cells, 93 full blocks plus a 24-cell
  // tail) against one scalar kernel call per cell: bit-identical, not
  // merely close — the batch kernel's contract is exact equality.
  std::vector<double> acc(600);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] = std::sin(0.09 * static_cast<double>(i)) +
             0.3 * std::cos(0.017 * static_cast<double>(i));
  }
  const ResponseGrid grid = paper_grid();
  auto plan = ResponsePlan::build(0.01, grid);
  ASSERT_TRUE(plan.ok());
  const std::size_t cells = plan.value()->cells;
  ASSERT_EQ(cells, 3000u);

  std::vector<double> sd(cells), sv(cells), sa(cells);
  sdof_peak_response_batch(acc.data(), acc.size(), *plan.value(), 0, cells,
                           sd.data(), sv.data(), sa.data());
  for (std::size_t d = 0; d < grid.dampings.size(); ++d) {
    for (std::size_t p = 0; p < grid.periods.size(); ++p) {
      auto cell = sdof_peak_response(acc, 0.01, grid.periods[p],
                                     grid.dampings[d]);
      ASSERT_TRUE(cell.ok());
      const std::size_t i = d * grid.periods.size() + p;
      EXPECT_EQ(sd[i], cell.value().sd) << i;
      EXPECT_EQ(sv[i], cell.value().sv) << i;
      EXPECT_EQ(sa[i], cell.value().sa) << i;
    }
  }

  // A block-misaligned sub-range writes the same peaks at the same
  // absolute indices and touches nothing outside it.
  std::vector<double> psd(cells, -1.0), psv(cells, -1.0), psa(cells, -1.0);
  sdof_peak_response_batch(acc.data(), acc.size(), *plan.value(), 17, 103,
                           psd.data(), psv.data(), psa.data());
  for (std::size_t i = 0; i < cells; ++i) {
    if (i >= 17 && i < 103) {
      EXPECT_EQ(psd[i], sd[i]) << i;
      EXPECT_EQ(psv[i], sv[i]) << i;
      EXPECT_EQ(psa[i], sa[i]) << i;
    } else {
      EXPECT_EQ(psd[i], -1.0) << i;
    }
  }
}

TEST(ResponseSpectrum, PlanOverloadIsBitIdenticalForAnyThreadCount) {
  std::vector<double> acc(512);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] = std::cos(0.21 * static_cast<double>(i));
  }
  auto plan = ResponsePlan::build(0.005, paper_grid());
  ASSERT_TRUE(plan.ok());

  auto serial = response_spectrum(acc, *plan.value(), 1);
  ASSERT_TRUE(serial.ok());
  auto via_dt = response_spectrum(acc, 0.005, paper_grid());
  ASSERT_TRUE(via_dt.ok());
  EXPECT_EQ(serial.value().sd, via_dt.value().sd);
  const std::vector<int> teams =
      test::kTsanBuild ? std::vector<int>{1} : std::vector<int>{2, 5, 8};
  for (int threads : teams) {
    auto teamed = response_spectrum(acc, *plan.value(), threads);
    ASSERT_TRUE(teamed.ok()) << threads;
    EXPECT_EQ(serial.value().sd, teamed.value().sd) << threads;
    EXPECT_EQ(serial.value().sv, teamed.value().sv) << threads;
    EXPECT_EQ(serial.value().sa, teamed.value().sa) << threads;
  }
}

// --- Oracle-free guards of the batch kernel, at every tier --------------
//
// Each identity below holds bit for bit by exact arithmetic, so it
// needs no reference: multiplying by a power of two and negating are
// exact and commute with every operation of the recurrence, and an
// oscillator at rest under zero input stays at (signed) zero. A lane
// that does not start at rest, or a kernel that drops or repeats a
// time step at a block or sub-block edge, breaks them. Each guard runs
// on the paper grid at every tier this CPU has.

std::vector<double> guard_record() {
  // First sample 0, so leading zeros do not add a step to the input.
  std::vector<double> acc(700);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    const double t = static_cast<double>(i);
    acc[i] = std::sin(0.07 * t) + 0.5 * std::sin(0.61 * t) -
             0.2 * std::sin(2.3 * t);
  }
  return acc;
}

std::vector<double> times(std::vector<double> v, double factor) {
  for (double& x : v) x *= factor;
  return v;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

ResponseSpectrum paper_response(const std::vector<double>& acc) {
  auto rs = response_spectrum(acc, 0.01, paper_grid());
  EXPECT_TRUE(rs.ok());
  return rs.ok() ? rs.value() : ResponseSpectrum{};
}

TEST(ResponseSpectrum, ScalingTheRecordByAPowerOfTwoScalesEveryPeakExactly) {
  const auto acc = guard_record();
  test::for_each_tier([&](simd::Tier) {
    const ResponseSpectrum base = paper_response(acc);
    for (int k : {-7, 1, 9}) {
      const double factor = std::ldexp(1.0, k);
      const ResponseSpectrum scaled = paper_response(times(acc, factor));
      const char* name = simd::active_kernels();
      EXPECT_TRUE(same_bytes(scaled.sd, times(base.sd, factor)))
          << name << " 2^" << k;
      EXPECT_TRUE(same_bytes(scaled.sv, times(base.sv, factor)))
          << name << " 2^" << k;
      EXPECT_TRUE(same_bytes(scaled.sa, times(base.sa, factor)))
          << name << " 2^" << k;
    }
  });
}

TEST(ResponseSpectrum, NegatingTheRecordLeavesEveryPeakExactly) {
  const auto acc = guard_record();
  test::for_each_tier([&](simd::Tier) {
    const ResponseSpectrum base = paper_response(acc);
    const ResponseSpectrum negated = paper_response(times(acc, -1.0));
    EXPECT_TRUE(same_bytes(negated.sd, base.sd)) << simd::active_kernels();
    EXPECT_TRUE(same_bytes(negated.sv, base.sv)) << simd::active_kernels();
    EXPECT_TRUE(same_bytes(negated.sa, base.sa)) << simd::active_kernels();
  });
}

TEST(ResponseSpectrum, LeadingZerosLeaveEveryPeakExactly) {
  const auto acc = guard_record();
  ASSERT_EQ(acc[0], 0.0);
  test::for_each_tier([&](simd::Tier) {
    const ResponseSpectrum base = paper_response(acc);
    for (std::size_t zeros : {1, 37}) {
      std::vector<double> padded(zeros, 0.0);
      padded.insert(padded.end(), acc.begin(), acc.end());
      const ResponseSpectrum late = paper_response(padded);
      const char* name = simd::active_kernels();
      EXPECT_TRUE(same_bytes(late.sd, base.sd)) << name << " " << zeros;
      EXPECT_TRUE(same_bytes(late.sv, base.sv)) << name << " " << zeros;
      EXPECT_TRUE(same_bytes(late.sa, base.sa)) << name << " " << zeros;
    }
  });
}

// --- Fourier amplitude spectrum ------------------------------------------

TEST(Fourier, AmplitudeBinsAreDtTimesRfftMagnitudes) {
  // Cross-check the FAS against signal::rfft directly: with no window
  // and a power-of-two input, fourier_amplitude must be exactly
  // dt * |rfft(x)[k]| bin for bin.
  const double dt = 0.01;
  std::vector<double> x(256);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(0.2 * static_cast<double>(i)) +
           0.3 * std::cos(0.7 * static_cast<double>(i));
  }
  auto fas = fourier_amplitude(x, dt);
  ASSERT_TRUE(fas.ok()) << fas.error().to_string();
  auto bins = signal::rfft(x);
  ASSERT_TRUE(bins.ok());
  ASSERT_EQ(fas.value().size(), bins.value().size());
  ASSERT_EQ(fas.value().nfft, x.size());
  EXPECT_NEAR(fas.value().df, 1.0 / (dt * static_cast<double>(x.size())),
              1e-15);
  for (std::size_t k = 0; k < bins.value().size(); ++k) {
    const double expected = dt * std::abs(bins.value()[k]);
    EXPECT_NEAR(fas.value().amplitude[k], expected, 1e-12 + 1e-12 * expected)
        << "bin " << k;
  }
}

TEST(Fourier, ParsevalEnergyIsPreservedIncludingZeroPadding) {
  // One-sided Parseval with the dt*|X| scaling: summing w_k * A_k^2 * df
  // (w_k = 2 for interior bins, 1 for DC and Nyquist) recovers the
  // time-domain energy integral sum x^2 dt. Zero-padding to the next
  // power of two must not change the energy.
  const double dt = 0.005;
  std::vector<double> x(1000);  // pads to nfft = 1024
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(0.31 * static_cast<double>(i)) *
           std::exp(-1e-3 * static_cast<double>(i));
  }
  auto fas = fourier_amplitude(x, dt);
  ASSERT_TRUE(fas.ok());
  const FourierSpectrum& f = fas.value();
  ASSERT_EQ(f.nfft, 1024u);

  double time_energy = 0.0;
  for (const double v : x) time_energy += v * v * dt;
  double freq_energy = 0.0;
  for (std::size_t k = 0; k < f.size(); ++k) {
    const double weight = (k == 0 || k + 1 == f.size()) ? 1.0 : 2.0;
    freq_energy += weight * f.amplitude[k] * f.amplitude[k] * f.df;
  }
  EXPECT_NEAR(freq_energy, time_energy, 1e-9 * time_energy);
}

TEST(Fourier, WindowKeepsPassBandSinusoidAmplitude) {
  // Unit coherent gain: a bin-centred sinusoid keeps its spectral peak
  // within a few percent whichever taper is applied (the window only
  // redistributes leakage).
  const double dt = 0.01;
  const std::size_t n = 1024;
  const std::size_t k0 = 100;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * kPi * static_cast<double>(k0 * i) /
                    static_cast<double>(n));
  }
  double peaks[3];
  int idx = 0;
  for (const Window w : {Window::kNone, Window::kHann, Window::kHamming}) {
    FourierSpec spec;
    spec.window = w;
    auto fas = fourier_amplitude(x, dt, spec);
    ASSERT_TRUE(fas.ok());
    peaks[idx++] = fas.value().amplitude[k0];
  }
  EXPECT_NEAR(peaks[1], peaks[0], 0.05 * peaks[0]);
  EXPECT_NEAR(peaks[2], peaks[0], 0.05 * peaks[0]);
}

TEST(Fourier, RejectsBadInput) {
  EXPECT_EQ(fourier_amplitude({}, 0.005).error().code,
            SpectrumError::Code::kEmptyInput);
  EXPECT_EQ(fourier_amplitude({1.0, 2.0}, -1.0).error().code,
            SpectrumError::Code::kBadSamplingInterval);
  const std::vector<double> bad = {1.0, std::nan(""), 2.0};
  EXPECT_EQ(fourier_amplitude(bad, 0.005).error().code,
            SpectrumError::Code::kNonFinite);
}

// --- FPL/FSL corner search ------------------------------------------------

// A synthetic band spectrum with known 10%-crossings: floor at 0.01,
// linear ramp up over [f_lo, f_lo + 1], flat top at 1.0, linear ramp
// down over [f_hi - 2, f_hi]. The threshold crossing of a linear ramp
// survives moving-average smoothing (the average of a line is the
// line), so the found corners must sit at the analytic crossings.
FourierSpectrum make_band_spectrum(double dt, std::size_t nfft, double f_lo,
                                   double f_hi) {
  FourierSpectrum f;
  f.dt = dt;
  f.nfft = nfft;
  f.df = 1.0 / (static_cast<double>(nfft) * dt);
  f.amplitude.resize(nfft / 2 + 1);
  for (std::size_t k = 0; k < f.amplitude.size(); ++k) {
    const double freq = f.frequency_at(k);
    double a = 0.01;
    if (freq >= f_lo && freq < f_lo + 1.0) {
      a = 0.01 + 0.99 * (freq - f_lo);
    } else if (freq >= f_lo + 1.0 && freq < f_hi - 2.0) {
      a = 1.0;
    } else if (freq >= f_hi - 2.0 && freq < f_hi) {
      a = 1.0 - 0.99 * (freq - (f_hi - 2.0)) / 2.0;
    }
    f.amplitude[k] = a;
  }
  return f;
}

TEST(Corners, FindsKnownCornersOfSyntheticBandSpectrum) {
  // Band [2, 10] Hz. Crossings of 0.1 * peak: rising ramp hits 0.1 at
  // 2 + 0.09/0.99 = 2.0909 Hz; falling ramp at 8 + 2 * 0.9/0.99 =
  // 9.8182 Hz.
  const FourierSpectrum f = make_band_spectrum(0.01, 10000, 2.0, 10.0);
  auto corners = find_corners(f);
  ASSERT_TRUE(corners.ok()) << corners.error().to_string();
  EXPECT_NEAR(corners.value().fsl_hz, 2.0909, 0.15);
  EXPECT_NEAR(corners.value().fpl_hz, 9.8182, 0.15);
  EXPECT_LT(corners.value().fsl_hz, corners.value().fpl_hz);
}

TEST(Corners, FlatSpectrumHasNoCorner) {
  FourierSpectrum f;
  f.dt = 0.01;
  f.nfft = 2048;
  f.df = 1.0 / (2048.0 * 0.01);
  f.amplitude.assign(1025, 1.0);
  auto corners = find_corners(f);
  ASSERT_FALSE(corners.ok());
  EXPECT_EQ(corners.error().code, SpectrumError::Code::kNoCorner);
}

TEST(Corners, ShortSpectrumIsSoftTooShort) {
  FourierSpectrum f;
  f.dt = 0.01;
  f.nfft = 16;
  f.df = 1.0 / (16.0 * 0.01);
  f.amplitude.assign(9, 1.0);
  auto corners = find_corners(f);
  ASSERT_FALSE(corners.ok());
  EXPECT_EQ(corners.error().code, SpectrumError::Code::kTooShort);
}

TEST(Corners, EmptySpectrumIsRejected) {
  FourierSpectrum f;
  auto corners = find_corners(f);
  ASSERT_FALSE(corners.ok());
  EXPECT_EQ(corners.error().code, SpectrumError::Code::kEmptyInput);
}

TEST(Corners, InvalidConfigIsRejected) {
  const FourierSpectrum f = make_band_spectrum(0.01, 4096, 2.0, 10.0);
  CornerSearchConfig cfg;
  cfg.smoothing_bins = 8;  // must be odd
  EXPECT_EQ(find_corners(f, cfg).error().code, SpectrumError::Code::kBadGrid);
  cfg = {};
  cfg.threshold = 1.5;  // must be a fraction
  EXPECT_EQ(find_corners(f, cfg).error().code, SpectrumError::Code::kBadGrid);
}

}  // namespace
}  // namespace acx::spectrum
