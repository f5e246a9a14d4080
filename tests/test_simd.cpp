// Bit-identity contract of the explicit-SIMD kernels (docs/PERF.md,
// "SIMD kernels"): flipping acx::simd between scalar and SIMD paths
// must never change a single output byte — only the speed. Every test
// here runs the same kernel forced-scalar and then at each SIMD tier
// this CPU has (test::for_each_tier), and memcmp's the raw doubles.
// The overlap-save crossover is tested separately: method selection
// is a pure function of (taps, n), never of the toggle.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <numbers>
#include <string>
#include <vector>

#include "pipeline/runner.hpp"
#include "signal/fft.hpp"
#include "signal/fir.hpp"
#include "spectrum/response.hpp"
#include "spectrum/response_plan.hpp"
#include "spectrum/rotd.hpp"
#include "synth/synth.hpp"
#include "test_helpers.hpp"
#include "util/simd.hpp"

namespace {

constexpr double kPi = std::numbers::pi;

// Restores the process-wide toggle state on scope exit so a failing
// test cannot leak a forced-scalar state into later tests.
class SimdToggleGuard {
 public:
  explicit SimdToggleGuard(bool on) : prev_(acx::simd::enabled()) {
    acx::simd::set_enabled(on);
  }
  ~SimdToggleGuard() { acx::simd::set_enabled(prev_); }

 private:
  bool prev_;
};

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> synth_signal(std::size_t n, double phase = 0.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    x[i] = std::sin(0.013 * t + phase) + 0.4 * std::cos(0.371 * t) +
           0.05 * std::sin(1.7 * t + 0.2);
  }
  return x;
}

// --- Toggle API ----------------------------------------------------------

TEST(Simd, ToggleRoundTripsAndNamesKernels) {
  using acx::simd::Tier;
  using acx::test::kTierKernels;
  const bool before = acx::simd::enabled();
  {
    SimdToggleGuard off(false);
    EXPECT_FALSE(acx::simd::enabled());
    EXPECT_EQ(acx::simd::active_tier(), Tier::kScalar);
    EXPECT_STREQ(acx::simd::active_kernels(), "scalar");
  }
  {
    SimdToggleGuard on(true);
    EXPECT_TRUE(acx::simd::enabled());
    EXPECT_EQ(acx::simd::active_tier(), acx::simd::host_tier());
    EXPECT_STREQ(acx::simd::active_kernels(),
                 kTierKernels[static_cast<int>(acx::simd::host_tier())]);
    // A cap selects its tier where the CPU has it; a cap above the
    // host runs the host tier.
    acx::test::for_each_tier([&](Tier tier) {
      EXPECT_EQ(acx::simd::active_tier(), tier);
      EXPECT_EQ(acx::simd::enabled(), tier != Tier::kScalar);
      EXPECT_STREQ(acx::simd::active_kernels(),
                   kTierKernels[static_cast<int>(tier)]);
    });
    acx::simd::set_tier_cap(Tier::kAvx512);
    EXPECT_EQ(acx::simd::active_tier(), acx::simd::host_tier());
  }
  EXPECT_EQ(acx::simd::enabled(), before);
}

// --- Stage-IX batch kernel ----------------------------------------------

TEST(Simd, SdofBatchMatchesScalarBitForBit) {
  const double dt = 0.005;
  auto plan = acx::spectrum::ResponsePlan::build(dt, acx::spectrum::paper_grid());
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  const auto& p = *plan.value();
  const auto acc = synth_signal(1459);

  // Full grid plus ranges that start or end off the 32-cell block and
  // off the 8- and 16-cell register sub-blocks.
  struct Range {
    std::size_t begin, end;
  };
  const Range ranges[] = {{0, p.cells}, {0, 1},       {5, 37},    {16, 24},
                          {31, 97},    {2990, 3000}, {64, 64}};
  struct Peaks {
    std::vector<double> sd, sv, sa;
  };
  auto run = [&](const Range& r) {
    Peaks out{std::vector<double>(p.cells, -1),
              std::vector<double>(p.cells, -1),
              std::vector<double>(p.cells, -1)};
    acx::spectrum::sdof_peak_response_batch(acc.data(), acc.size(), p,
                                            r.begin, r.end, out.sd.data(),
                                            out.sv.data(), out.sa.data());
    return out;
  };
  std::vector<Peaks> oracle;
  {
    SimdToggleGuard off(false);
    for (const Range& r : ranges) oracle.push_back(run(r));
  }
  acx::test::for_each_tier(
      [&](acx::simd::Tier) {
        const char* name = acx::simd::active_kernels();
        for (std::size_t i = 0; i < std::size(ranges); ++i) {
          const Peaks got = run(ranges[i]);
          const std::size_t at = ranges[i].begin;
          EXPECT_TRUE(bytes_equal(oracle[i].sd, got.sd)) << name << " " << at;
          EXPECT_TRUE(bytes_equal(oracle[i].sv, got.sv)) << name << " " << at;
          EXPECT_TRUE(bytes_equal(oracle[i].sa, got.sa)) << name << " " << at;
        }
      },
      acx::simd::Tier::kSimd);
}

TEST(Simd, RotdSweepMatchesScalarBitForBit) {
  const double dt = 0.01;
  const auto l = synth_signal(700);
  const auto t = synth_signal(700, 0.9);
  // 7 x 5 = 35 cells: one full 32-lane block and a 3-cell tail, and
  // not a multiple of the 16-cell Stage-IX sub-block either.
  acx::spectrum::ResponseGrid grid;
  grid.periods = {0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 3.0};
  grid.dampings = {0.0, 0.02, 0.05, 0.1, 0.2};

  auto run = [&]() {
    auto r = acx::spectrum::rotd_spectrum(l, t, dt, grid, 45);
    EXPECT_TRUE(r.ok());
    return r.value();
  };
  acx::spectrum::RotdSpectrum a;
  {
    SimdToggleGuard off(false);
    a = run();
  }
  acx::test::for_each_tier(
      [&](acx::simd::Tier) {
        const auto b = run();
        const char* name = acx::simd::active_kernels();
        EXPECT_TRUE(bytes_equal(a.rotd00, b.rotd00)) << name;
        EXPECT_TRUE(bytes_equal(a.rotd50, b.rotd50)) << name;
        EXPECT_TRUE(bytes_equal(a.rotd100, b.rotd100)) << name;
        EXPECT_TRUE(bytes_equal(a.geomean, b.geomean)) << name;
      },
      acx::simd::Tier::kSimd);
}

// --- FFT family ----------------------------------------------------------

TEST(Simd, FftIfftRfftMatchScalarBitForBit) {
  using acx::signal::Complex;
  struct Transforms {
    std::vector<Complex> fwd, inv, rf;
  };
  auto run = [](const std::vector<double>& x,
                const std::vector<Complex>& cx) {
    Transforms out;
    out.fwd = acx::signal::fft(cx).value();
    out.inv = acx::signal::ifft(out.fwd).value();
    out.rf = acx::signal::rfft(x).value();
    return out;
  };
  auto same = [](const std::vector<Complex>& a, const std::vector<Complex>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
  };
  // Pow2 (radix-2 + split planes), non-pow2 (Bluestein over pow2), and
  // the rfft even-n native split fast path (half pow2 / half Bluestein)
  // plus the odd-n path.
  const std::size_t sizes[] = {2, 8, 1024, 360, 730, 731};
  std::vector<std::vector<double>> xs;
  std::vector<std::vector<Complex>> cxs;
  std::vector<Transforms> oracle;
  for (std::size_t n : sizes) {
    xs.push_back(synth_signal(n));
    std::vector<Complex> cx(n);
    for (std::size_t i = 0; i < n; ++i) {
      cx[i] = Complex(xs.back()[i], 0.3 * xs.back()[(i + 1) % n]);
    }
    cxs.push_back(std::move(cx));
    SimdToggleGuard off(false);
    oracle.push_back(run(xs.back(), cxs.back()));
  }
  acx::test::for_each_tier(
      [&](acx::simd::Tier) {
        const char* name = acx::simd::active_kernels();
        for (std::size_t c = 0; c < std::size(sizes); ++c) {
          const std::size_t n = sizes[c];
          const Transforms got = run(xs[c], cxs[c]);
          EXPECT_TRUE(same(oracle[c].fwd, got.fwd)) << name << " fft n=" << n;
          EXPECT_TRUE(same(oracle[c].inv, got.inv)) << name << " ifft n=" << n;
          EXPECT_TRUE(same(oracle[c].rf, got.rf)) << name << " rfft n=" << n;
          // Round trip under the SIMD path.
          for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(got.inv[i].real(), cxs[c][i].real(), 1e-9) << "n=" << n;
            EXPECT_NEAR(got.inv[i].imag(), cxs[c][i].imag(), 1e-9) << "n=" << n;
          }
        }
      },
      acx::simd::Tier::kSimd);
}

// --- Direct convolution --------------------------------------------------

TEST(Simd, DirectConvolveMatchesScalarBitForBit) {
  // Sizes straddling the 16-lane interior block and the head/tail split.
  struct Case {
    std::vector<double> h, x, y;
  };
  std::vector<Case> cases;
  for (std::size_t t : {1ul, 3ul, 5ul, 17ul, 31ul, 101ul}) {
    for (std::size_t n : {t, t + 1, t + 15, t + 16, t + 17, 3 * t + 7, 400ul}) {
      if (n < t) continue;
      Case c;
      c.h.resize(t);
      for (std::size_t i = 0; i < t; ++i) {
        c.h[i] = std::sin(0.1 * static_cast<double>(i) + 0.05);
      }
      c.x = synth_signal(n);
      SimdToggleGuard off(false);
      c.y = acx::signal::convolve_full(c.h, c.x,
                                       acx::signal::ConvolveMethod::kDirect);
      cases.push_back(std::move(c));
    }
  }
  acx::test::for_each_tier(
      [&](acx::simd::Tier) {
        for (const Case& c : cases) {
          const auto y = acx::signal::convolve_full(
              c.h, c.x, acx::signal::ConvolveMethod::kDirect);
          EXPECT_TRUE(bytes_equal(c.y, y)) << acx::simd::active_kernels()
                                           << " t=" << c.h.size()
                                           << " n=" << c.x.size();
        }
      },
      acx::simd::Tier::kSimd);
}

// --- Overlap-save --------------------------------------------------------

TEST(Simd, OverlapSaveSelectionIsPureInSizes) {
  using acx::signal::kOverlapSaveMinTaps;
  using acx::signal::overlap_save_selected;
  // Below the floor, never — the correction chain caps at 101 taps, so
  // the pipeline's numerics can never depend on the crossover.
  EXPECT_FALSE(overlap_save_selected(101, 35000));
  EXPECT_FALSE(overlap_save_selected(kOverlapSaveMinTaps - 1, 1u << 20));
  // At/above the floor the cost model decides; long kernels on long
  // records must go overlap-save.
  EXPECT_TRUE(overlap_save_selected(1001, 35000));
  EXPECT_TRUE(overlap_save_selected(11665, 35000));
  // The decision must not depend on the toggle.
  SimdToggleGuard off(false);
  EXPECT_TRUE(overlap_save_selected(11665, 35000));
  EXPECT_FALSE(overlap_save_selected(101, 35000));
}

TEST(Simd, OverlapSaveMatchesDirectNumerically) {
  // Forced-method comparison across the crossover region; overlap-save
  // rounds differently than direct, so the contract is relative error,
  // not bytes.
  for (std::size_t t : {129ul, 255ul, 1001ul}) {
    for (std::size_t n : {t, 2 * t + 13, 4096ul}) {
      if (n < t) continue;
      std::vector<double> h(t);
      for (std::size_t i = 0; i < t; ++i) {
        h[i] = std::cos(0.07 * static_cast<double>(i)) /
               static_cast<double>(t);
      }
      const auto x = synth_signal(n);
      const auto yd =
          acx::signal::convolve_full(h, x, acx::signal::ConvolveMethod::kDirect);
      const auto ys = acx::signal::convolve_full(
          h, x, acx::signal::ConvolveMethod::kOverlapSave);
      ASSERT_EQ(yd.size(), ys.size());
      double scale = 1.0;
      for (double v : yd) scale = std::max(scale, std::fabs(v));
      for (std::size_t i = 0; i < yd.size(); ++i) {
        ASSERT_NEAR(yd[i], ys[i], 1e-10 * scale)
            << "t=" << t << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Simd, AutoConvolveMatchesSelectedMethodBitForBit) {
  for (std::size_t t : {101ul, 1001ul}) {
    const std::size_t n = 8192;
    std::vector<double> h(t);
    for (std::size_t i = 0; i < t; ++i) {
      h[i] = std::sin(0.03 * static_cast<double>(i));
    }
    const auto x = synth_signal(n);
    const auto auto_y =
        acx::signal::convolve_full(h, x, acx::signal::ConvolveMethod::kAuto);
    const auto forced = acx::signal::convolve_full(
        h, x,
        acx::signal::overlap_save_selected(t, n)
            ? acx::signal::ConvolveMethod::kOverlapSave
            : acx::signal::ConvolveMethod::kDirect);
    EXPECT_TRUE(bytes_equal(auto_y, forced)) << "t=" << t;
  }
}

TEST(Simd, FiltFiltLongRecordAgreesAcrossMethods) {
  // The long-record scenario of the BM_FirOverlapSave bench: adaptive
  // taps = odd(n/3). Overlap-save must reproduce direct to rounding.
  const std::size_t n = 6000;
  int taps = static_cast<int>(n / 3);
  if (taps % 2 == 0) --taps;
  auto h = acx::signal::design_bandpass({0.5, 25.0, taps}, 0.005);
  ASSERT_TRUE(h.ok()) << h.error().to_string();
  const auto x = synth_signal(n);
  const auto yd = acx::signal::filtfilt(h.value(), x,
                                        acx::signal::ConvolveMethod::kDirect);
  const auto ya = acx::signal::filtfilt(h.value(), x,
                                        acx::signal::ConvolveMethod::kAuto);
  ASSERT_TRUE(yd.ok());
  ASSERT_TRUE(ya.ok());
  ASSERT_TRUE(acx::signal::overlap_save_selected(
      static_cast<std::size_t>(taps), n));
  double scale = 1.0;
  for (double v : yd.value()) scale = std::max(scale, std::fabs(v));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(yd.value()[i], ya.value()[i], 1e-10 * scale) << "i=" << i;
  }
}

// --- Whole-pipeline byte equality ---------------------------------------

TEST(Simd, FullDriverOutputsAreByteIdenticalAcrossToggle) {
  // The end-to-end form of the contract: a full-driver run at each
  // SIMD tier produces the same bytes in every output file
  // (.v2/.f/.r/.rotd) as a forced-scalar run. CI repeats this across
  // builds (-DACX_SIMD=OFF leg); this test repeats it across the
  // runtime toggle and tier cap in-process.
  acx::RealFileSystem fs;
  acx::test::TempDir tmp("simd_driver");
  const auto input = tmp.path() / "input";
  acx::synth::EventSpec spec = acx::synth::paper_events()[0];
  spec.n_files = 6;
  acx::synth::SynthConfig scfg;
  scfg.scale = 0.02;
  ASSERT_TRUE(acx::synth::build_event_dataset(fs, input, spec, scfg).ok());

  auto run_with = [&](const std::string& name) {
    acx::pipeline::RunnerConfig cfg;
    cfg.sleep = [](int) {};
    cfg.driver = acx::pipeline::Driver::kFullParallel;
    cfg.threads = 2;
    auto run = acx::pipeline::run_pipeline(fs, input, tmp.path() / name, cfg);
    EXPECT_TRUE(run.ok());
    return run.value();
  };
  acx::pipeline::RunReport off;
  {
    SimdToggleGuard guard(false);
    off = run_with("work_off");
  }

  acx::test::for_each_tier(
      [&](acx::simd::Tier) {
        const char* name = acx::simd::active_kernels();
        const auto on = run_with(std::string("work_") + name);
        ASSERT_EQ(on.records.size(), off.records.size()) << name;
        for (std::size_t i = 0; i < on.records.size(); ++i) {
          const auto& a = on.records[i];
          const auto& b = off.records[i];
          ASSERT_EQ(a.outputs.size(), b.outputs.size()) << a.record;
          for (std::size_t o = 0; o < a.outputs.size(); ++o) {
            auto left = fs.read_file(a.outputs[o]);
            auto right = fs.read_file(b.outputs[o]);
            ASSERT_TRUE(left.ok() && right.ok());
            EXPECT_EQ(left.value(), right.value()) << name << " "
                                                   << a.outputs[o];
          }
        }
        ASSERT_EQ(on.stations.size(), off.stations.size()) << name;
        for (std::size_t i = 0; i < on.stations.size(); ++i) {
          if (on.stations[i].rotd_output.empty()) continue;
          auto left = fs.read_file(on.stations[i].rotd_output);
          auto right = fs.read_file(off.stations[i].rotd_output);
          ASSERT_TRUE(left.ok() && right.ok());
          EXPECT_EQ(left.value(), right.value())
              << name << " " << on.stations[i].station;
        }
      },
      acx::simd::Tier::kSimd);
}

}  // namespace
