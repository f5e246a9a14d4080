#include "spectrum/rotd.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>

#include "spectrum/response_plan.hpp"
#include "util/simd.hpp"

namespace acx::spectrum {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr std::size_t kLanes = kSdofBatchBlock;

// Seed directions of the prune polygon, unnormalized (scaling a
// direction does not move its arg max): 0°, 45°, 90°, 135°. The 0° and
// 90° seeds are the samples that set SA_l and SA_t.
constexpr int kSeeds = 4;
// How far inside the polygon a sample must lie to be skipped, as a
// fraction of the seed radius: seven orders of magnitude above the
// rounding error of a projection, so no rounding can let a skipped
// sample raise a peak (docs/SPECTRUM.md, "RotD sweep").
constexpr double kPruneMargin = 1e-9;

Result<Unit, SpectrumError> validate_pair(const std::vector<double>& acc_l,
                                          const std::vector<double>& acc_t,
                                          int angles) {
  if (angles < 1 || angles > kRotdMaxAngles) {
    return SpectrumError{SpectrumError::Code::kBadAngleCount,
                         "angle count must be in [1, " +
                             std::to_string(kRotdMaxAngles) + "]; got " +
                             std::to_string(angles)};
  }
  if (acc_l.size() != acc_t.size()) {
    return SpectrumError{SpectrumError::Code::kComponentMismatch,
                         "horizontal components disagree in length: l has " +
                             std::to_string(acc_l.size()) + " samples, t has " +
                             std::to_string(acc_t.size())};
  }
  if (acc_l.empty()) {
    return SpectrumError{SpectrumError::Code::kEmptyInput, "no samples"};
  }
  if (acc_l.size() < 2) {
    return SpectrumError{SpectrumError::Code::kTooShort,
                         "need at least 2 samples"};
  }
  // A NaN sample can slip through the peak accumulation (NaN loses
  // every max comparison), so the sweep checks its inputs up front.
  for (std::size_t i = 0; i < acc_l.size(); ++i) {
    if (!std::isfinite(acc_l[i]) || !std::isfinite(acc_t[i])) {
      return SpectrumError{SpectrumError::Code::kNonFinite,
                           "input sample " + std::to_string(i) +
                               " is not finite"};
    }
  }
  return Unit{};
}

// RotD00/50/100 of cell i from its `na` per-angle SA peaks: the min,
// the median (an even count averages the two middle order statistics)
// and the max. Reorders `col`.
void percentiles(double* col, std::size_t na, std::size_t i,
                 RotdSpectrum& out) {
  const auto [lo, hi] = std::minmax_element(col, col + na);
  out.rotd00[i] = *lo;
  out.rotd100[i] = *hi;
  double* mid = col + na / 2;
  std::nth_element(col, mid, col + na);
  out.rotd50[i] =
      na % 2 == 1 ? *mid : 0.5 * (*std::max_element(col, mid) + *mid);
}

RotdSpectrum empty_result(const ResponseGrid& grid, int angles,
                          std::size_t cells) {
  RotdSpectrum out;
  out.periods = grid.periods;
  out.dampings = grid.dampings;
  out.angles = angles;
  out.rotd00.resize(cells);
  out.rotd50.resize(cells);
  out.rotd100.resize(cells);
  out.geomean.resize(cells);
  return out;
}

// `f(i)` for i in [0, n): under `omp simd` on the SIMD paths, a plain
// loop on the scalar path. Lanes are independent and each keeps the
// scalar op order, so both give the same bits.
template <bool kSimd, typename F>
__attribute__((always_inline)) inline void for_each_lane(std::size_t n,
                                                         F&& f) {
  if constexpr (kSimd) {
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) f(i);
  } else {
    for (std::size_t i = 0; i < n; ++i) f(i);
  }
}

// The l and t oscillators of every lane, marched from rest in
// lockstep. step() is the one recurrence body both passes share: the
// batch kernel's expressions in its op order, so (al, at) are the
// absolute accelerations sdof_peak_response_batch takes the peaks of.
struct PairState {
  double xl[kLanes] = {}, vl[kLanes] = {}, xt[kLanes] = {}, vt[kLanes] = {};
  double al[kLanes] = {}, at[kLanes] = {};

  template <bool kSimd>
  __attribute__((always_inline)) inline void step(
      const BlockCoeffs<kLanes>& k, double l0, double l1, double t0,
      double t1) {
    for_each_lane<kSimd>(kLanes, [&](std::size_t j) {
      const double xl1 = k.a11[j] * xl[j] + k.a12[j] * vl[j] + k.b11[j] * l0 +
                         k.b12[j] * l1;
      const double vl1 = k.a21[j] * xl[j] + k.a22[j] * vl[j] + k.b21[j] * l0 +
                         k.b22[j] * l1;
      const double xt1 = k.a11[j] * xt[j] + k.a12[j] * vt[j] + k.b11[j] * t0 +
                         k.b12[j] * t1;
      const double vt1 = k.a21[j] * xt[j] + k.a22[j] * vt[j] + k.b21[j] * t0 +
                         k.b22[j] * t1;
      xl[j] = xl1;
      vl[j] = vl1;
      xt[j] = xt1;
      vt[j] = vt1;
      al[j] = k.two_zw[j] * vl1 + k.w2[j] * xl1;
      at[j] = k.two_zw[j] * vt1 + k.w2[j] * xt1;
    });
  }
};

// Raises one cell's per-angle peaks to the projection of the response
// sample (al, at) onto every sweep direction (c[k], s[k]).
template <bool kSimd>
__attribute__((always_inline)) inline void project(double* peaks,
                                                   const double* c,
                                                   const double* s,
                                                   std::size_t na, double al,
                                                   double at) {
  for_each_lane<kSimd>(na, [&](std::size_t k) {
    const double p = std::fabs(al * c[k] + at * s[k]);
    peaks[k] = p > peaks[k] ? p : peaks[k];
  });
}

// The prune polygon of every lane, as edge tests: lane j skips a
// sample P when |nx[e][j]·P.l + ny[e][j]·P.t| <= lim[e][j] for all e.
struct PrunePolygon {
  double nx[kSeeds][kLanes], ny[kSeeds][kLanes], lim[kSeeds][kLanes];

  // Lane j never skips.
  void disable(std::size_t j) {
    for (int e = 0; e < kSeeds; ++e) {
      nx[e][j] = ny[e][j] = 0.0;
      lim[e][j] = -1.0;
    }
  }

  // Lane j's seeds, oriented so that seed m lies on the side of its
  // direction u_m, are support points of the hull of ±samples for the
  // directions 0°, 45°, 90°, 135°, so the chain v0 v1 v2 v3 -v0 runs
  // half a turn around the origin in angular order. Each chain edge
  // A->B with its mirror image is one test |n·P| <= n·A - margin on
  // the outward unit normal n. When every edge keeps the origin
  // inside (n·A > margin), the tests carve out a region of the star
  // polygon through ±seeds, which lies inside the hull: a sample that
  // passes cannot beat, on any direction, the seed spanning it. A
  // repeated seed gives a zero-length edge and no test; an edge on a
  // line through the origin (collinear samples) gets lim < 0, and
  // the lane then projects every sample.
  void build(std::size_t j, const double* sl, const double* st) {
    const double side[kSeeds] = {sl[0], sl[1] + st[1], st[2], st[3] - sl[3]};
    double vl[kSeeds + 1], vt[kSeeds + 1], radius = 0.0;
    for (int m = 0; m < kSeeds; ++m) {
      vl[m] = side[m] < 0 ? -sl[m] : sl[m];
      vt[m] = side[m] < 0 ? -st[m] : st[m];
      radius = std::max(radius, std::hypot(vl[m], vt[m]));
    }
    vl[kSeeds] = -vl[0];
    vt[kSeeds] = -vt[0];
    const double margin = kPruneMargin * radius;
    for (int e = 0; e < kSeeds; ++e) {
      const double ex = vt[e + 1] - vt[e], ey = vl[e] - vl[e + 1];
      const double len = std::hypot(ex, ey);
      if (len == 0) {
        nx[e][j] = ny[e][j] = lim[e][j] = 0.0;
        continue;
      }
      nx[e][j] = ex / len;
      ny[e][j] = ey / len;
      lim[e][j] = nx[e][j] * vl[e] + ny[e][j] * vt[e] - margin;
      if (!std::isfinite(lim[e][j])) return disable(j);
    }
  }

  bool inside(std::size_t j, double al, double at) const {
    bool in = true;
    for (int e = 0; e < kSeeds; ++e) {
      in &= std::fabs(nx[e][j] * al + ny[e][j] * at) <= lim[e][j];
    }
    return in;
  }
};

// The angle table shared by every block: θ_k = k · (π / angles).
struct Sweep {
  std::size_t na;
  std::vector<double> c, s;

  explicit Sweep(int angles) : na(static_cast<std::size_t>(angles)) {
    const double step = kPi / static_cast<double>(angles);
    c.resize(na);
    s.resize(na);
    for (std::size_t k = 0; k < na; ++k) {
      c[k] = std::cos(static_cast<double>(k) * step);
      s[k] = std::sin(static_cast<double>(k) * step);
    }
  }
};

// One block of cells [start, start + width) of one call. `peaks` is
// the calling thread's cell-major peak table (kLanes x na); `bad[i]`
// flags a cell whose response is not finite.
struct BlockJob {
  const double* acc_l;
  const double* acc_t;
  std::size_t n;
  const ResponsePlan* plan;
  const Sweep* sweep;
  std::size_t start, width;
  double* peaks;
  RotdSpectrum* out;
  char* bad;
};

// Two passes over the pair, then the percentiles straight from the
// peak table. Every tier runs the full 32-lane body; rotd_block below
// instantiates it once per tier.
template <simd::Tier T>
__attribute__((always_inline)) inline void rotd_block_body(
    const BlockJob& job) {
  constexpr bool kSimd = T != simd::Tier::kScalar;
  const BlockCoeffs<kLanes> k(*job.plan, job.start, job.width);
  const std::size_t na = job.sweep->na;
  const double* c = job.sweep->c.data();
  const double* s = job.sweep->s.data();
  const double* acc_l = job.acc_l;
  const double* acc_t = job.acc_t;

  // Pass 1: per seed direction the best |P·u| and its sample — the
  // 0° and 90° bests are SA_l and SA_t, compared as the batch kernel
  // does — and a NaN poison that turns any non-finite response into a
  // typed error.
  double best[kSeeds][kLanes] = {};
  double seed_l[kSeeds][kLanes] = {}, seed_t[kSeeds][kLanes] = {};
  double poison[kLanes] = {};
  {
    PairState p;
    for (std::size_t i = 0; i + 1 < job.n; ++i) {
      p.step<kSimd>(k, acc_l[i], acc_l[i + 1], acc_t[i], acc_t[i + 1]);
      for_each_lane<kSimd>(kLanes, [&](std::size_t j) {
        const double al = p.al[j], at = p.at[j];
        const double q[kSeeds] = {std::fabs(al), std::fabs(al + at),
                                  std::fabs(at), std::fabs(al - at)};
        poison[j] += (al - al) + (at - at);
        // Selects with unconditional stores, so every update vectorizes.
        for (int m = 0; m < kSeeds; ++m) {
          const bool up = q[m] > best[m][j];
          best[m][j] = up ? q[m] : best[m][j];
          seed_l[m][j] = up ? al : seed_l[m][j];
          seed_t[m][j] = up ? at : seed_t[m][j];
        }
      });
    }
  }
  const double* sa_l = best[0];
  const double* sa_t = best[2];

  // The seeds open every angle's peak (they are samples of the record,
  // so this is the same max, taken early) and span the prune polygon.
  // Padded lanes never project; a poisoned cell is an error whatever
  // its peaks, so its lane only has to stay exact.
  PrunePolygon poly;
  for (std::size_t j = 0; j < kLanes; ++j) {
    double* row = job.peaks + j * na;
    std::fill(row, row + na, 0.0);
    if (j >= job.width || poison[j] != 0) {
      poly.disable(j);
      continue;
    }
    double sl[kSeeds], st[kSeeds];
    for (int m = 0; m < kSeeds; ++m) {
      sl[m] = seed_l[m][j];
      st[m] = seed_t[m][j];
      project<kSimd>(row, c, s, na, sl[m], st[m]);
    }
    poly.build(j, sl, st);
  }

  // Pass 2: the same recurrences again; only a sample outside its
  // lane's polygon is projected onto the sweep.
  {
    PairState p;
    long long outside[kLanes];
    for (std::size_t i = 0; i + 1 < job.n; ++i) {
      p.step<kSimd>(k, acc_l[i], acc_l[i + 1], acc_t[i], acc_t[i + 1]);
      for_each_lane<kSimd>(kLanes, [&](std::size_t j) {
        outside[j] = poly.inside(j, p.al[j], p.at[j]) ? 0 : 1;
      });
      for (std::size_t j = 0; j < job.width; ++j) {
        if (outside[j]) {
          project<kSimd>(job.peaks + j * na, c, s, na, p.al[j], p.at[j]);
        }
      }
    }
  }

  for (std::size_t j = 0; j < job.width; ++j) {
    const std::size_t cell = job.start + j;
    RotdSpectrum& out = *job.out;
    percentiles(job.peaks + j * na, na, cell, out);
    out.geomean[cell] = std::sqrt(sa_l[j] * sa_t[j]);
    job.bad[cell] = poison[j] != 0 || !std::isfinite(sa_l[j]) ||
                    !std::isfinite(sa_t[j]) || !std::isfinite(out.rotd100[cell]);
  }
}

void rotd_block(const BlockJob& job) {
  simd::dispatch([&]<simd::Tier T>() __attribute__((always_inline)) {
    rotd_block_body<T>(job);
  });
}

}  // namespace

Result<RotdSpectrum, SpectrumError> rotd_spectrum(
    const std::vector<double>& acc_l, const std::vector<double>& acc_t,
    double dt, const ResponseGrid& grid, int angles, int threads) {
  auto valid = validate_pair(acc_l, acc_t, angles);
  if (!valid.ok()) return std::move(valid).take_error();

  auto plan_or = ResponsePlanCache::instance().get(dt, grid);
  if (!plan_or.ok()) return std::move(plan_or).take_error();
  const std::shared_ptr<const ResponsePlan> plan = std::move(plan_or).take();
  const std::size_t cells = plan->cells;

  const Sweep sweep(angles);
  RotdSpectrum out = empty_result(grid, angles, cells);
  std::vector<char> bad(cells, 0);

  // Blocks write disjoint cells and a block's bytes do not depend on
  // which thread runs it, so the output is the same for any team size.
  const long long blocks =
      static_cast<long long>((cells + kLanes - 1) / kLanes);
#pragma omp parallel num_threads(threads) if (threads > 1)
  {
    std::vector<double> peaks(kLanes * sweep.na);
#pragma omp for schedule(static)
    for (long long blk = 0; blk < blocks; ++blk) {
      const std::size_t start = static_cast<std::size_t>(blk) * kLanes;
      rotd_block({acc_l.data(), acc_t.data(), acc_l.size(), plan.get(),
                  &sweep, start, std::min(kLanes, cells - start),
                  peaks.data(), &out, bad.data()});
    }
  }

  for (std::size_t i = 0; i < cells; ++i) {
    if (bad[i]) {
      return SpectrumError{SpectrumError::Code::kNonFinite,
                           "oscillator response is not finite at cell " +
                               std::to_string(i)};
    }
  }
  return out;
}

Result<RotdSpectrum, SpectrumError> rotd_spectrum_reference(
    const std::vector<double>& acc_l, const std::vector<double>& acc_t,
    double dt, const ResponseGrid& grid, int angles) {
  auto valid = validate_pair(acc_l, acc_t, angles);
  if (!valid.ok()) return std::move(valid).take_error();
  auto grid_ok = validate_grid(grid);
  if (!grid_ok.ok()) return std::move(grid_ok).take_error();

  // Rotate, then sweep each rotated trace cell by cell.
  const std::size_t cells = grid.dampings.size() * grid.periods.size();
  const Sweep sweep(angles);
  const std::size_t na = sweep.na;
  std::vector<double> sa_by_cell(cells * na);
  std::vector<double> rotated(acc_l.size());
  for (std::size_t k = 0; k < na; ++k) {
    for (std::size_t i = 0; i < acc_l.size(); ++i) {
      rotated[i] = acc_l[i] * sweep.c[k] + acc_t[i] * sweep.s[k];
    }
    for (std::size_t d = 0; d < grid.dampings.size(); ++d) {
      for (std::size_t p = 0; p < grid.periods.size(); ++p) {
        auto peaks = sdof_peak_response(rotated, dt, grid.periods[p],
                                        grid.dampings[d]);
        if (!peaks.ok()) return std::move(peaks).take_error();
        sa_by_cell[(d * grid.periods.size() + p) * na + k] = peaks.value().sa;
      }
    }
  }

  RotdSpectrum out = empty_result(grid, angles, cells);
  for (std::size_t i = 0; i < cells; ++i) {
    percentiles(sa_by_cell.data() + i * na, na, i, out);
  }
  for (std::size_t d = 0; d < grid.dampings.size(); ++d) {
    for (std::size_t p = 0; p < grid.periods.size(); ++p) {
      auto l = sdof_peak_response(acc_l, dt, grid.periods[p], grid.dampings[d]);
      if (!l.ok()) return std::move(l).take_error();
      auto t = sdof_peak_response(acc_t, dt, grid.periods[p], grid.dampings[d]);
      if (!t.ok()) return std::move(t).take_error();
      out.geomean[d * grid.periods.size() + p] =
          std::sqrt(l.value().sa * t.value().sa);
    }
  }
  return out;
}

}  // namespace acx::spectrum
