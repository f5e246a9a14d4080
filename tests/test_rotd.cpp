// The RotD kernel (src/spectrum/rotd.cpp): the linear-projection
// kernel must equal, byte for byte, an unpruned projection of the
// per-step component responses; match the rotate-and-sweep reference
// to 1e-9 relative; stay bit-identical across OpenMP team sizes;
// respect the RotD00 <= RotD50 <= RotD100 ordering; scale exactly with
// its input; be invariant under swapping and rotating the input pair;
// and fail with typed errors on malformed or overflowing input.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "spectrum/response.hpp"
#include "spectrum/response_plan.hpp"
#include "spectrum/rotd.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace acx::spectrum {
namespace {

constexpr double kDt = 0.01;

// A deterministic band-limited pair: two decorrelated enveloped noise
// traces, different per component, so the sweep has real structure.
std::vector<double> make_component(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed);
  std::vector<double> acc(n);
  double lp = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * kDt;
    const double envelope = t * std::exp(-1.5 * t);
    lp += 0.35 * (rng.next_gaussian() - lp);
    acc[i] = 120.0 * envelope * lp;
  }
  return acc;
}

ResponseGrid small_grid() {
  ResponseGrid grid;
  grid.periods = {0.1, 0.2, 0.5, 1.0, 2.0};
  grid.dampings = {0.02, 0.05};
  return grid;
}

TEST(Rotd, BatchedSweepMatchesTheScalarReference) {
  const auto l = make_component(1, 400);
  const auto t = make_component(2, 400);
  const ResponseGrid grid = small_grid();

  auto fast = rotd_spectrum(l, t, kDt, grid, /*angles=*/16);
  auto slow = rotd_spectrum_reference(l, t, kDt, grid, /*angles=*/16);
  ASSERT_TRUE(fast.ok()) << fast.error().to_string();
  ASSERT_TRUE(slow.ok()) << slow.error().to_string();

  const std::size_t cells = grid.periods.size() * grid.dampings.size();
  ASSERT_EQ(fast.value().rotd50.size(), cells);
  for (std::size_t i = 0; i < cells; ++i) {
    const double tol00 = 1e-9 * std::fabs(slow.value().rotd00[i]);
    const double tol50 = 1e-9 * std::fabs(slow.value().rotd50[i]);
    const double tol100 = 1e-9 * std::fabs(slow.value().rotd100[i]);
    EXPECT_NEAR(fast.value().rotd00[i], slow.value().rotd00[i], tol00) << i;
    EXPECT_NEAR(fast.value().rotd50[i], slow.value().rotd50[i], tol50) << i;
    EXPECT_NEAR(fast.value().rotd100[i], slow.value().rotd100[i], tol100) << i;
    EXPECT_NEAR(fast.value().geomean[i], slow.value().geomean[i],
                1e-9 * std::fabs(slow.value().geomean[i]))
        << i;
  }
}

TEST(Rotd, SweepIsBitIdenticalAcrossThreadCounts) {
  const auto l = make_component(3, 512);
  const auto t = make_component(4, 512);
  // The small grid at 32 angles, and the paper grid (94 cell blocks)
  // at the default 180 angles over team sizes 1-4.
  struct Case {
    ResponseGrid grid;
    int angles;
    std::vector<int> teams;
  };
  for (const Case& c : {Case{small_grid(), 32, {2, 3, 8}},
                        Case{paper_grid(), 180, {2, 3, 4}}}) {
    auto serial = rotd_spectrum(l, t, kDt, c.grid, c.angles, /*threads=*/1);
    ASSERT_TRUE(serial.ok()) << serial.error().to_string();
    for (int threads : c.teams) {
      auto teamed = rotd_spectrum(l, t, kDt, c.grid, c.angles, threads);
      ASSERT_TRUE(teamed.ok()) << teamed.error().to_string();
      // Exact vector equality: every cell block writes only its own
      // cells and no block's bytes depend on the thread running it, so
      // the team size must not change a single bit.
      EXPECT_EQ(serial.value().rotd00, teamed.value().rotd00) << threads;
      EXPECT_EQ(serial.value().rotd50, teamed.value().rotd50) << threads;
      EXPECT_EQ(serial.value().rotd100, teamed.value().rotd100) << threads;
      EXPECT_EQ(serial.value().geomean, teamed.value().geomean) << threads;
    }
  }
}

TEST(Rotd, PercentilesAreOrderedAndBracketTheComponents) {
  const auto l = make_component(5, 400);
  const auto t = make_component(6, 400);
  const ResponseGrid grid = small_grid();

  auto rotd = rotd_spectrum(l, t, kDt, grid);
  ASSERT_TRUE(rotd.ok()) << rotd.error().to_string();
  auto sa_l = response_spectrum(l, kDt, grid);
  ASSERT_TRUE(sa_l.ok());
  for (std::size_t i = 0; i < rotd.value().rotd50.size(); ++i) {
    EXPECT_LE(rotd.value().rotd00[i], rotd.value().rotd50[i]) << i;
    EXPECT_LE(rotd.value().rotd50[i], rotd.value().rotd100[i]) << i;
    EXPECT_GT(rotd.value().rotd00[i], 0.0) << i;
    // Angle 0 of the sweep is component l exactly, so l's SA is inside
    // the [RotD00, RotD100] envelope by construction.
    EXPECT_LE(rotd.value().rotd00[i], sa_l.value().sa[i] + 1e-12) << i;
    EXPECT_GE(rotd.value().rotd100[i], sa_l.value().sa[i] - 1e-12) << i;
  }
}

TEST(Rotd, RotatingTheInputPairByOneSweepStepLeavesPercentilesPut) {
  // Rotating (l, t) by exactly one sweep step shifts the sweep set by
  // one slot (the wrapped angle negates the trace, which |SA| ignores),
  // so the orientation-independent percentiles must not move.
  const auto l = make_component(7, 400);
  const auto t = make_component(8, 400);
  const int angles = 18;
  const double step = 3.14159265358979323846 / angles;
  std::vector<double> l2(l.size()), t2(l.size());
  for (std::size_t i = 0; i < l.size(); ++i) {
    l2[i] = l[i] * std::cos(step) + t[i] * std::sin(step);
    t2[i] = -l[i] * std::sin(step) + t[i] * std::cos(step);
  }
  const ResponseGrid grid = small_grid();
  auto a = rotd_spectrum(l, t, kDt, grid, angles);
  auto b = rotd_spectrum(l2, t2, kDt, grid, angles);
  ASSERT_TRUE(a.ok() && b.ok());
  for (std::size_t i = 0; i < a.value().rotd50.size(); ++i) {
    EXPECT_NEAR(a.value().rotd00[i], b.value().rotd00[i],
                1e-9 * a.value().rotd00[i])
        << i;
    EXPECT_NEAR(a.value().rotd50[i], b.value().rotd50[i],
                1e-9 * a.value().rotd50[i])
        << i;
    EXPECT_NEAR(a.value().rotd100[i], b.value().rotd100[i],
                1e-9 * a.value().rotd100[i])
        << i;
  }
}

TEST(Rotd, GeomeanIsTheRootProductOfTheComponentSpectra) {
  const auto l = make_component(9, 300);
  const auto t = make_component(10, 300);
  const ResponseGrid grid = small_grid();

  auto rotd = rotd_spectrum(l, t, kDt, grid, /*angles=*/4);
  auto sa_l = response_spectrum(l, kDt, grid);
  auto sa_t = response_spectrum(t, kDt, grid);
  ASSERT_TRUE(rotd.ok() && sa_l.ok() && sa_t.ok());
  for (std::size_t i = 0; i < rotd.value().geomean.size(); ++i) {
    const double expect = std::sqrt(sa_l.value().sa[i] * sa_t.value().sa[i]);
    EXPECT_NEAR(rotd.value().geomean[i], expect, 1e-9 * expect) << i;
  }
}

TEST(Rotd, MalformedInputsFailWithTypedErrors) {
  const auto l = make_component(11, 64);
  const ResponseGrid grid = small_grid();

  std::vector<double> shorter(l.begin(), l.end() - 1);
  auto mismatch = rotd_spectrum(l, shorter, kDt, grid);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.error().code, SpectrumError::Code::kComponentMismatch);

  for (int bad_angles : {0, -1, kRotdMaxAngles + 1}) {
    auto bad = rotd_spectrum(l, l, kDt, grid, bad_angles);
    ASSERT_FALSE(bad.ok()) << bad_angles;
    EXPECT_EQ(bad.error().code, SpectrumError::Code::kBadAngleCount)
        << bad_angles;
  }

  const std::vector<double> empty;
  auto none = rotd_spectrum(empty, empty, kDt, grid);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.error().code, SpectrumError::Code::kEmptyInput);

  const std::vector<double> one(1, 1.0);
  auto tiny = rotd_spectrum(one, one, kDt, grid);
  ASSERT_FALSE(tiny.ok());
  EXPECT_EQ(tiny.error().code, SpectrumError::Code::kTooShort);

  std::vector<double> poisoned = l;
  poisoned[7] = std::numeric_limits<double>::quiet_NaN();
  auto nan = rotd_spectrum(l, poisoned, kDt, grid);
  ASSERT_FALSE(nan.ok());
  EXPECT_EQ(nan.error().code, SpectrumError::Code::kNonFinite);

  // The scalar reference enforces the same contract.
  auto ref = rotd_spectrum_reference(l, shorter, kDt, grid);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.error().code, SpectrumError::Code::kComponentMismatch);
}

constexpr double kPi = 3.14159265358979323846;

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Twelve log-spaced periods up to 10 s at three dampings: 36 cells, one
// full kernel block and one padded one.
ResponseGrid block_grid() {
  ResponseGrid grid;
  for (int i = 0; i < 12; ++i) {
    grid.periods.push_back(0.05 * std::pow(200.0, i / 11.0));
  }
  grid.dampings = {0.0, 0.05, 0.2};
  return grid;
}

// The projection formulation with no prune: each cell's per-step
// absolute accelerations (A_l, A_t), rebuilt with NigamJennings in the
// batch kernel's op order, projected onto every sweep angle
// θ_k = k·(π/angles); percentiles by a full sort.
RotdSpectrum unpruned_projection(const std::vector<double>& l,
                                 const std::vector<double>& t, double dt,
                                 const ResponseGrid& grid, int angles) {
  const std::size_t na = static_cast<std::size_t>(angles);
  const double step = kPi / static_cast<double>(angles);
  std::vector<double> c(na), s(na), peaks(na);
  for (std::size_t k = 0; k < na; ++k) {
    c[k] = std::cos(static_cast<double>(k) * step);
    s[k] = std::sin(static_cast<double>(k) * step);
  }
  const std::size_t cells = grid.periods.size() * grid.dampings.size();
  RotdSpectrum out;
  out.rotd00.resize(cells);
  out.rotd50.resize(cells);
  out.rotd100.resize(cells);
  out.geomean.resize(cells);
  for (std::size_t d = 0; d < grid.dampings.size(); ++d) {
    for (std::size_t p = 0; p < grid.periods.size(); ++p) {
      const NigamJennings nj(2.0 * kPi / grid.periods[p], grid.dampings[d],
                             dt);
      double xl = 0, vl = 0, xt = 0, vt = 0, sa_l = 0, sa_t = 0;
      std::fill(peaks.begin(), peaks.end(), 0.0);
      for (std::size_t i = 0; i + 1 < l.size(); ++i) {
        const double xl1 =
            nj.a11 * xl + nj.a12 * vl + nj.b11 * l[i] + nj.b12 * l[i + 1];
        const double vl1 =
            nj.a21 * xl + nj.a22 * vl + nj.b21 * l[i] + nj.b22 * l[i + 1];
        const double xt1 =
            nj.a11 * xt + nj.a12 * vt + nj.b11 * t[i] + nj.b12 * t[i + 1];
        const double vt1 =
            nj.a21 * xt + nj.a22 * vt + nj.b21 * t[i] + nj.b22 * t[i + 1];
        xl = xl1;
        vl = vl1;
        xt = xt1;
        vt = vt1;
        const double al = nj.two_zw * vl + nj.w2 * xl;
        const double at = nj.two_zw * vt + nj.w2 * xt;
        sa_l = std::max(sa_l, std::fabs(al));
        sa_t = std::max(sa_t, std::fabs(at));
        for (std::size_t k = 0; k < na; ++k) {
          peaks[k] = std::max(peaks[k], std::fabs(al * c[k] + at * s[k]));
        }
      }
      std::sort(peaks.begin(), peaks.end());
      const std::size_t i = d * grid.periods.size() + p;
      out.rotd00[i] = peaks.front();
      out.rotd100[i] = peaks.back();
      out.rotd50[i] = na % 2 == 1 ? peaks[na / 2]
                                  : 0.5 * (peaks[na / 2 - 1] + peaks[na / 2]);
      out.geomean[i] = std::sqrt(sa_l * sa_t);
    }
  }
  return out;
}

struct PairCase {
  const char* name;
  std::vector<double> l, t;
};

std::vector<double> scaled(std::vector<double> x, double k) {
  for (double& v : x) v *= k;
  return x;
}

std::vector<PairCase> edge_pairs() {
  const std::size_t n = 600;
  const auto l = make_component(21, n);
  const auto t = make_component(22, n);
  std::vector<PairCase> cases;
  cases.push_back({"noise pair", l, t});
  cases.push_back({"t = 0", l, std::vector<double>(n, 0.0)});
  cases.push_back({"t = l", l, l});
  cases.push_back({"t = -0.125 l", l, scaled(l, -0.125)});
  PairCase circle{"circular", std::vector<double>(n), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * kPi * 1.3 * static_cast<double>(i) * kDt;
    circle.l[i] = 50.0 * std::sin(phase);
    circle.t[i] = 50.0 * std::cos(phase);
  }
  cases.push_back(circle);
  PairCase impulse{"impulse", std::vector<double>(n, 0.0),
                   std::vector<double>(n, 0.0)};
  impulse.l[37] = 250.0;
  impulse.t[37] = -90.0;
  cases.push_back(impulse);
  cases.push_back(
      {"zeros", std::vector<double>(n, 0.0), std::vector<double>(n, 0.0)});
  PairCase burst{"late burst", scaled(l, 1e-4), scaled(t, 1e-4)};
  for (std::size_t i = 0; i < 100; ++i) {
    burst.l[n - 100 + i] = 400.0 * l[150 + i];
    burst.t[n - 100 + i] = 400.0 * t[150 + i];
  }
  cases.push_back(burst);
  // 1.5 s of record against periods up to 10 s.
  cases.push_back({"short record", std::vector<double>(l.begin(), l.begin() + 150),
                   std::vector<double>(t.begin(), t.begin() + 150)});
  cases.push_back({"1e-150", scaled(l, 1e-150), scaled(t, 1e-150)});
  cases.push_back({"1e+150", scaled(l, 1e150), scaled(t, 1e150)});
  return cases;
}

TEST(Rotd, PrunedKernelEqualsTheUnprunedProjectionByteForByte) {
  // The seed-polygon prune only skips samples that cannot raise any
  // angle's peak, so it must not change a single bit — on either side
  // of the ACX_SIMD toggle, for even and odd angle counts, and on the
  // inputs whose seed polygon degenerates (collinear pairs, zeros).
  const ResponseGrid grid = block_grid();
  const bool simd_before = simd::enabled();
  for (const PairCase& pc : edge_pairs()) {
    for (int angles : {180, 45}) {
      const RotdSpectrum want =
          unpruned_projection(pc.l, pc.t, kDt, grid, angles);
      for (bool simd_on : {false, true}) {
        simd::set_enabled(simd_on);
        auto got = rotd_spectrum(pc.l, pc.t, kDt, grid, angles);
        ASSERT_TRUE(got.ok()) << pc.name << ": " << got.error().to_string();
        EXPECT_TRUE(same_bytes(got.value().rotd00, want.rotd00))
            << pc.name << " angles " << angles << " simd " << simd_on;
        EXPECT_TRUE(same_bytes(got.value().rotd50, want.rotd50))
            << pc.name << " angles " << angles << " simd " << simd_on;
        EXPECT_TRUE(same_bytes(got.value().rotd100, want.rotd100))
            << pc.name << " angles " << angles << " simd " << simd_on;
        EXPECT_TRUE(same_bytes(got.value().geomean, want.geomean))
            << pc.name << " angles " << angles << " simd " << simd_on;
      }
    }
  }
  simd::set_enabled(simd_before);
}

TEST(Rotd, EdgePairsStayWithin1e9OfTheRotateAndSweepReference) {
  // Relative to the cell's RotD100: on a collinear pair RotD00 is a
  // cancellation residue near zero in both formulations.
  const ResponseGrid grid = block_grid();
  for (const PairCase& pc : edge_pairs()) {
    auto fast = rotd_spectrum(pc.l, pc.t, kDt, grid, 180);
    auto slow = rotd_spectrum_reference(pc.l, pc.t, kDt, grid, 180);
    ASSERT_TRUE(fast.ok() && slow.ok()) << pc.name;
    for (std::size_t i = 0; i < fast.value().rotd50.size(); ++i) {
      const RotdSpectrum& f = fast.value();
      const RotdSpectrum& r = slow.value();
      const double tol = 1e-9 * r.rotd100[i];
      EXPECT_NEAR(f.rotd00[i], r.rotd00[i], tol) << pc.name;
      EXPECT_NEAR(f.rotd50[i], r.rotd50[i], tol) << pc.name;
      EXPECT_NEAR(f.rotd100[i], r.rotd100[i], tol) << pc.name;
      EXPECT_NEAR(f.geomean[i], r.geomean[i], 1e-9 * r.geomean[i]) << pc.name;
    }
  }
}

TEST(Rotd, ScalingTheInputByAPowerOfTwoScalesEveryOutputExactly) {
  const auto l = make_component(23, 500);
  const auto t = make_component(24, 500);
  const ResponseGrid grid = block_grid();
  auto base = rotd_spectrum(l, t, kDt, grid);
  ASSERT_TRUE(base.ok());
  for (int k : {20, -20}) {
    const double factor = std::ldexp(1.0, k);
    auto big = rotd_spectrum(scaled(l, factor), scaled(t, factor), kDt, grid);
    ASSERT_TRUE(big.ok()) << k;
    for (auto member : {&RotdSpectrum::rotd00, &RotdSpectrum::rotd50,
                        &RotdSpectrum::rotd100, &RotdSpectrum::geomean}) {
      EXPECT_TRUE(
          same_bytes(big.value().*member, scaled(base.value().*member, factor)))
          << "2^" << k;
    }
  }
}

TEST(Rotd, SwappingTheComponentsLeavesThePercentilesPut) {
  // With an even angle count, θ -> π/2 - θ maps the sweep onto itself
  // (mod π), so swapping l and t only reorders the angles; the drift is
  // the rounding of cos θ against sin(π/2 - θ).
  const auto l = make_component(25, 500);
  const auto t = make_component(26, 500);
  const ResponseGrid grid = block_grid();
  auto a = rotd_spectrum(l, t, kDt, grid, 180);
  auto b = rotd_spectrum(t, l, kDt, grid, 180);
  ASSERT_TRUE(a.ok() && b.ok());
  for (std::size_t i = 0; i < a.value().rotd50.size(); ++i) {
    const RotdSpectrum& x = a.value();
    const RotdSpectrum& y = b.value();
    EXPECT_NEAR(x.rotd00[i], y.rotd00[i], 1e-12 * x.rotd00[i]) << i;
    EXPECT_NEAR(x.rotd50[i], y.rotd50[i], 1e-12 * x.rotd50[i]) << i;
    EXPECT_NEAR(x.rotd100[i], y.rotd100[i], 1e-12 * x.rotd100[i]) << i;
    EXPECT_EQ(x.geomean[i], y.geomean[i]) << i;
  }
}

TEST(Rotd, RotatingThePairByWholeSweepStepsLeavesThePercentilesPut) {
  const auto l = make_component(27, 500);
  const auto t = make_component(28, 500);
  const ResponseGrid grid = block_grid();
  const int angles = 180;
  auto base = rotd_spectrum(l, t, kDt, grid, angles);
  ASSERT_TRUE(base.ok());
  for (int m : {1, 45, 90, 179}) {
    const double phi = m * kPi / angles;
    std::vector<double> l2(l.size()), t2(l.size());
    for (std::size_t i = 0; i < l.size(); ++i) {
      l2[i] = l[i] * std::cos(phi) + t[i] * std::sin(phi);
      t2[i] = -l[i] * std::sin(phi) + t[i] * std::cos(phi);
    }
    auto turned = rotd_spectrum(l2, t2, kDt, grid, angles);
    ASSERT_TRUE(turned.ok()) << m;
    for (std::size_t i = 0; i < base.value().rotd50.size(); ++i) {
      const RotdSpectrum& x = base.value();
      const RotdSpectrum& y = turned.value();
      EXPECT_NEAR(x.rotd00[i], y.rotd00[i], 1e-9 * x.rotd00[i]) << m;
      EXPECT_NEAR(x.rotd50[i], y.rotd50[i], 1e-9 * x.rotd50[i]) << m;
      EXPECT_NEAR(x.rotd100[i], y.rotd100[i], 1e-9 * x.rotd100[i]) << m;
    }
  }
}

TEST(Rotd, OverflowingResponsesAreANonFiniteErrorLikeTheReference) {
  // Finite input whose oscillator response overflows. A projection of
  // an infinite response can be inf·0 = NaN, which no peak comparison
  // keeps, so the kernel must not publish the finite peaks left over.
  const auto l = make_component(31, 400);
  const auto t = make_component(32, 400);
  const ResponseGrid grid = small_grid();
  const std::vector<PairCase> cases = {
      {"both huge", scaled(l, 1e307), scaled(t, 1e307)},
      {"t huge", l, scaled(t, 1e307)},
      {"l huge", scaled(l, 1e307), t},
  };
  for (const PairCase& pc : cases) {
    auto ref = rotd_spectrum_reference(pc.l, pc.t, kDt, grid, 16);
    ASSERT_FALSE(ref.ok()) << pc.name;
    ASSERT_EQ(ref.error().code, SpectrumError::Code::kNonFinite) << pc.name;
    for (int threads : {1, 3}) {
      auto got = rotd_spectrum(pc.l, pc.t, kDt, grid, 16, threads);
      ASSERT_FALSE(got.ok()) << pc.name;
      EXPECT_EQ(got.error().code, SpectrumError::Code::kNonFinite) << pc.name;
    }
  }
}

}  // namespace
}  // namespace acx::spectrum
