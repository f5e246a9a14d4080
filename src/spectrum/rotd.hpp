#pragma once

// Orientation-independent RotD spectra (docs/SPECTRUM.md, "RotD
// sweep"). The horizontal pair (l, t) of one station is rotated over
// an angle sweep
//   a(θ_k) = l·cos θ_k + t·sin θ_k,   θ_k = k · (π / angles),
// k = 0 .. angles-1, and the SA of every rotated series is evaluated
// on the (period, damping) grid. Per grid cell the percentiles over
// the sweep give RotD00 (min), RotD50 (median) and RotD100 (max); the
// geometric mean sqrt(SA_l · SA_t) of the unrotated components rides
// along.
//
// The Nigam–Jennings recurrence is linear in its input, so the rotated
// oscillator's absolute acceleration is A_l·cos θ_k + A_t·sin θ_k
// (Boore 2010): rotd_spectrum runs two recurrences per cell, not one
// per angle, and projects their per-step responses onto the sweep.

#include <cstddef>
#include <vector>

#include "spectrum/response.hpp"
#include "util/result.hpp"

namespace acx::spectrum {

// 1° resolution over [0°, 180°) — rotating by 180° negates the trace
// and leaves |SA| unchanged, so a half-turn covers every orientation.
inline constexpr int kRotdDefaultAngles = 180;
inline constexpr int kRotdMaxAngles = 36000;

// RotD percentile SA spectra, damping-major like ResponseSpectrum.
struct RotdSpectrum {
  std::vector<double> periods;
  std::vector<double> dampings;
  int angles = 0;
  std::vector<double> rotd00, rotd50, rotd100;  // SA percentiles, cm/s2
  std::vector<double> geomean;                  // sqrt(SA_l * SA_t)

  std::size_t index(std::size_t d, std::size_t p) const {
    return d * periods.size() + p;
  }
};

// The linear-projection kernel over the cached (dt, grid) ResponsePlan.
// Each block of kSdofBatchBlock cells makes two passes over the pair:
// the first runs the l and t recurrences (in the batch kernel's op
// order, so the geomean is bit-identical to sdof_peak_response_batch)
// and keeps a few extreme response samples per cell; the second runs
// them again and projects onto every angle only the samples outside
// the polygon those seeds span — the others cannot raise any angle's
// peak, so the result equals projecting every sample, bit for bit.
// Memory per call is a kSdofBatchBlock x angles peak table per thread,
// independent of the record length. `threads > 1` fans the cell
// blocks across an OpenMP team with a static schedule; blocks write
// disjoint cells, so the result is bit-identical for any team size
// and across the ACX_SIMD toggle. Any non-finite response fails with
// kNonFinite, reporting the lowest such cell.
Result<RotdSpectrum, SpectrumError> rotd_spectrum(
    const std::vector<double>& acc_l, const std::vector<double>& acc_t,
    double dt, const ResponseGrid& grid, int angles = kRotdDefaultAngles,
    int threads = 1);

// Scalar reference: rotate, then one sdof_peak_response call per
// (angle, cell), no batching, no plan, no threads. The acceptance
// contract pins the projection kernel to this to 1e-9 relative
// (tests/test_rotd.cpp); the bench compares their cost.
Result<RotdSpectrum, SpectrumError> rotd_spectrum_reference(
    const std::vector<double>& acc_l, const std::vector<double>& acc_t,
    double dt, const ResponseGrid& grid, int angles = kRotdDefaultAngles);

}  // namespace acx::spectrum
