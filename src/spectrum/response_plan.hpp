#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "spectrum/response.hpp"

namespace acx::spectrum {

// Exact one-step propagator of x'' + 2*z*w*x' + w^2*x = -a(t) under
// piecewise-linear a(t) over one interval of length dt (Nigam &
// Jennings 1969). The recurrence
//   x_{i+1} = a11*x_i + a12*v_i + b11*a_i + b12*a_{i+1}
//   v_{i+1} = a21*x_i + a22*v_i + b21*a_i + b22*a_{i+1}
// is assembled by propagating the four unit states through the
// closed-form interval solution — algebraically identical to the
// published coefficient formulas, without their error-prone 1/w^3
// bookkeeping (docs/SPECTRUM.md derives both forms).
//
// This is the single source of the Stage-IX coefficients: the scalar
// kernel constructs one per call, and ResponsePlan below materializes
// one per grid cell — identical values by construction, which is half
// of the batch kernel's bit-identity contract (the other half is the
// operation order inside the recurrence loop).
struct NigamJennings {
  double a11, a12, a21, a22;
  double b11, b12, b21, b22;
  double two_zw, w2;  // absolute acceleration = -(2*z*w*v + w^2*x)

  NigamJennings(double w, double z, double dt) {
    const double beta = z * w;        // decay rate
    const double wd = w * std::sqrt(1.0 - z * z);  // damped frequency
    const double e = std::exp(-beta * dt);
    const double s = std::sin(wd * dt);
    const double c = std::cos(wd * dt);
    const double w3 = w * w * w;
    w2 = w * w;
    two_zw = 2.0 * beta;

    // Closed-form state at t = dt for initial state (x0, v0) and
    // forcing a(t) = a0 + m*t, m = (a1 - a0) / dt:
    //   particular: xp(t) = -(a0 + m*t)/w^2 + 2*z*m/w^3, vp(t) = -m/w^2
    //   homogeneous: e^{-beta t} (A cos wd t + B sin wd t),
    //     A = x0 - xp(0),  B = (v0 - vp(0) + beta*A) / wd.
    auto step = [&](double x0, double v0, double a0, double a1, double& x1,
                    double& v1) {
      const double m = (a1 - a0) / dt;
      const double xp0 = -a0 / w2 + 2.0 * z * m / w3;
      const double vp0 = -m / w2;
      const double xpdt = -(a0 + m * dt) / w2 + 2.0 * z * m / w3;
      const double a_h = x0 - xp0;
      const double b_h = (v0 - vp0 + beta * a_h) / wd;
      x1 = e * (a_h * c + b_h * s) + xpdt;
      v1 = e * ((-beta * a_h + wd * b_h) * c - (wd * a_h + beta * b_h) * s) +
           vp0;
    };

    step(1, 0, 0, 0, a11, a21);
    step(0, 1, 0, 0, a12, a22);
    step(0, 0, 1, 0, b11, b21);
    step(0, 0, 0, 1, b12, b22);
  }
};

// Precomputed Stage-IX coefficients for a whole (dt, grid) pair in
// structure-of-arrays layout: one entry per grid cell, damping-major
// (the same linear index as ResponseSpectrum::index). Building the
// paper grid costs 3000 NigamJennings evaluations; records of one
// event share dt, so the plan is built once per event and reused by
// every record on every thread (the plan is immutable after build).
struct ResponsePlan {
  double dt = 0.0;
  ResponseGrid grid;
  std::size_t cells = 0;  // dampings.size() * periods.size()
  std::vector<double> a11, a12, a21, a22;
  std::vector<double> b11, b12, b21, b22;
  std::vector<double> two_zw, w2;

  // Validates dt and the grid exactly like the scalar path
  // (kBadSamplingInterval / kBadGrid), then materializes every cell.
  static Result<std::shared_ptr<const ResponsePlan>, SpectrumError> build(
      double dt, const ResponseGrid& grid);
};

// Cells per block: response_spectrum hands the batch kernel blocks of
// this many cells, and RotD marches this many lanes in lockstep. The
// batch kernel's register sub-blocks divide it.
inline constexpr std::size_t kSdofBatchBlock = 32;

// The coefficients of cells [start, start + width) of a plan, copied
// out and zero-padded to W lanes: a padded lane stays at rest, so a
// kernel can march all W lanes whatever the width.
template <std::size_t W>
struct BlockCoeffs {
  double a11[W] = {}, a12[W] = {}, a21[W] = {}, a22[W] = {};
  double b11[W] = {}, b12[W] = {}, b21[W] = {}, b22[W] = {};
  double two_zw[W] = {}, w2[W] = {};

  BlockCoeffs(const ResponsePlan& plan, std::size_t start, std::size_t width) {
    const auto take = [&](const std::vector<double>& from, double* to) {
      std::copy_n(from.begin() + static_cast<std::ptrdiff_t>(start), width, to);
    };
    take(plan.a11, a11);
    take(plan.a12, a12);
    take(plan.a21, a21);
    take(plan.a22, a22);
    take(plan.b11, b11);
    take(plan.b12, b12);
    take(plan.b21, b21);
    take(plan.b22, b22);
    take(plan.two_zw, two_zw);
    take(plan.w2, w2);
  }
};

// Period-blocked batch recurrence: sweeps acc once per block of cells
// from [cell_begin, cell_end) — kSdofBatchBlock cells on the scalar
// tier, a register sub-block of 4 to 16 on the SIMD tiers — updating
// all oscillators of a block in lockstep, and writes the SD/SV/SA
// peaks at the cells' absolute indices in sd/sv/sa. The per-cell
// arithmetic is the scalar kernel's, in the scalar kernel's order, so
// the peaks are bit-identical to sdof_peak_response on every tier —
// the inner loop merely runs cells side by side (no per-period
// allocation). No validation and no finiteness check here; callers
// scan the peaks (acc must have >= 2 samples).
void sdof_peak_response_batch(const double* acc, std::size_t n,
                              const ResponsePlan& plan,
                              std::size_t cell_begin, std::size_t cell_end,
                              double* sd, double* sv, double* sa);

// Process-global, internally-locked, read-mostly plan cache keyed by
// (dt, periods, dampings) — exact double equality, which is the right
// notion here because grids are constructed once and dt comes off the
// record header verbatim. Lookups take a shared lock; a miss builds
// outside any lock and publishes under a unique lock (first insert
// wins). Invalid (dt, grid) pairs are reported, never cached. Every
// lookup feeds acx::perf cache counters.
class ResponsePlanCache {
 public:
  static ResponsePlanCache& instance();

  Result<std::shared_ptr<const ResponsePlan>, SpectrumError> get(
      double dt, const ResponseGrid& grid);

  // Drops every cached plan (cold-start for tests and microbenches).
  void clear();

 private:
  struct Impl;
  ResponsePlanCache();
  ~ResponsePlanCache();
  Impl* impl_;
};

// Plan-based spectrum evaluation: the cached-plan fast path that
// response_spectrum(acc, dt, grid, threads) wraps. Fans blocks of
// cells across `threads` (schedule(static) — block results do not
// depend on the team size, so the output is bit-identical for any
// thread count). Validates acc (kEmptyInput / kTooShort) and scans
// the peaks afterwards, reporting kNonFinite for the lowest failing
// cell exactly like the serial path.
Result<ResponseSpectrum, SpectrumError> response_spectrum(
    const std::vector<double>& acc, const ResponsePlan& plan, int threads = 1);

}  // namespace acx::spectrum
