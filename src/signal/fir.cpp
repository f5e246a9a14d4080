#include "signal/fir.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>

#include "signal/fft_plan.hpp"
#include "util/simd.hpp"

namespace acx::signal {

namespace {

constexpr double kPi = std::numbers::pi;

double sinc(double t) {
  if (t == 0.0) return 1.0;
  const double pt = kPi * t;
  return std::sin(pt) / pt;
}

std::size_t next_pow2(std::size_t v) {
  std::size_t m = 1;
  while (m < v) m <<= 1;
  return m;
}

// The historical scatter loop, kept verbatim: the ACX_SIMD=OFF direct
// path and the bit-identity oracle for the blocked form below. Each
// output y[o] accumulates its contributions x[i]*h[o-i] in ascending
// input order i.
std::vector<double> convolve_direct_scalar(const std::vector<double>& h,
                                           const std::vector<double>& x) {
  std::vector<double> y(x.size() + h.size() - 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xi = x[i];
    for (std::size_t k = 0; k < h.size(); ++k) y[i + k] += xi * h[k];
  }
  return y;
}

// Outputs marched side by side per block: wide enough to fill the
// vector units from one broadcast tap, small enough that the
// accumulators stay in registers.
constexpr std::size_t kConvBlock = 16;

// Blocked gather form of the same convolution. Per output the adds
// happen in ascending input order i — the interior walks the tap
// index k DOWNWARDS so lane o accumulates x[o-k]*h[k] with i = o-k
// ascending, exactly the scatter loop's per-output chain — so the
// result is bit-identical; the blocked lanes only make x loads
// contiguous and h[k] a broadcast, which is what lets the loop
// vectorize (the scatter form is a strided read-modify-write).
__attribute__((always_inline)) inline void convolve_direct_blocked(
    const double* __restrict h, std::size_t t, const double* __restrict x,
    std::size_t n, double* __restrict y) {
  const std::size_t full = n + t - 1;
  // Head: outputs with a truncated tap range (o < t-1).
  const std::size_t head_end = std::min(t - 1, full);
  for (std::size_t o = 0; o < head_end; ++o) {
    double acc = 0.0;
    const std::size_t i_hi = std::min(o, n - 1);
    for (std::size_t i = 0; i <= i_hi; ++i) acc += x[i] * h[o - i];
    y[o] = acc;
  }
  // Interior: full tap range, blocked across outputs.
  std::size_t o = t - 1;
  if (n >= t) {
    for (; o + kConvBlock <= n; o += kConvBlock) {
      double acc[kConvBlock] = {};
      for (std::size_t k = t; k-- > 0;) {
        const double hk = h[k];
        const double* xs = x + (o - k);
#pragma omp simd
        for (std::size_t j = 0; j < kConvBlock; ++j) acc[j] += xs[j] * hk;
      }
      for (std::size_t j = 0; j < kConvBlock; ++j) y[o + j] = acc[j];
    }
    for (; o < n; ++o) {
      double acc = 0.0;
      for (std::size_t k = t; k-- > 0;) acc += x[o - k] * h[k];
      y[o] = acc;
    }
  }
  // Tail: outputs past the last input (o >= n).
  for (std::size_t o2 = std::max(t - 1, n); o2 < full; ++o2) {
    double acc = 0.0;
    for (std::size_t i = o2 - t + 1; i < n; ++i) acc += x[i] * h[o2 - i];
    y[o2] = acc;
  }
}

std::vector<double> convolve_direct(const std::vector<double>& h,
                                    const std::vector<double>& x) {
  std::vector<double> y;
  simd::dispatch<simd::Tier::kAvx2>(
      [&]<simd::Tier T>() __attribute__((always_inline)) {
        if constexpr (T == simd::Tier::kScalar) {
          y = convolve_direct_scalar(h, x);
        } else {
          y.resize(x.size() + h.size() - 1);
          convolve_direct_blocked(h.data(), h.size(), x.data(), x.size(),
                                  y.data());
        }
      });
  return y;
}

// Overlap-save geometry for a (taps, n) pair: FFT length m (power of
// two, 4x the filter history, capped when a single block covers the
// whole output) and the per-block yield of valid outputs.
struct OverlapSavePlanShape {
  std::size_t m = 0;      // FFT length
  std::size_t step = 0;   // valid outputs per block (m - taps + 1)
  std::size_t full = 0;   // total outputs (n + taps - 1)
  std::size_t blocks = 0;
};

OverlapSavePlanShape overlap_save_shape(std::size_t taps, std::size_t n) {
  OverlapSavePlanShape s;
  s.full = n + taps - 1;
  s.m = std::max<std::size_t>(2, next_pow2(4 * (taps - 1)));
  const std::size_t single = std::max<std::size_t>(2, next_pow2(s.full));
  if (s.m >= single) s.m = single;
  s.step = s.m - (taps - 1);
  s.blocks = (s.full + s.step - 1) / s.step;
  return s;
}

// Cost-model constant: MAC-equivalents per FFT butterfly point-stage,
// calibrated against the scalar kernels so the OFF build never picks
// an overlap-save that loses to its direct loop (the SIMD build's
// split-complex FFT is cheaper still, so a kAuto overlap-save win in
// the OFF build is a larger win in the ON build).
constexpr double kFftMacEquiv = 12.0;

std::vector<double> convolve_overlap_save(const std::vector<double>& h,
                                          const std::vector<double>& x) {
  const std::size_t t = h.size();
  const std::size_t n = x.size();
  const OverlapSavePlanShape shape = overlap_save_shape(t, n);
  const std::size_t m = shape.m;
  const std::size_t overlap = t - 1;

  auto plan = FftPlanCache::instance().pow2(m);

  std::vector<Complex> kernel(m, Complex{});
  for (std::size_t i = 0; i < t; ++i) kernel[i] = Complex(h[i], 0.0);
  fft_pow2_execute_dispatch(kernel, *plan, false);

  std::vector<double> y(shape.full);
  std::vector<Complex> blk(m);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (std::size_t out0 = 0; out0 < shape.full; out0 += shape.step) {
    // The block sees x[out0 - overlap .. out0 - overlap + m - 1],
    // zero-padded outside [0, n); its circular convolution with h is
    // linear-correct from position `overlap` on, which lands exactly
    // on outputs out0, out0+1, ...
    for (std::size_t j = 0; j < m; ++j) {
      const long long src = static_cast<long long>(out0 + j) -
                            static_cast<long long>(overlap);
      blk[j] = (src >= 0 && src < static_cast<long long>(n))
                   ? Complex(x[static_cast<std::size_t>(src)], 0.0)
                   : Complex{};
    }
    fft_pow2_execute_dispatch(blk, *plan, false);
    for (std::size_t j = 0; j < m; ++j) {
      const double ar = blk[j].real();
      const double ai = blk[j].imag();
      const double br = kernel[j].real();
      const double bi = kernel[j].imag();
      blk[j] = Complex(ar * br - ai * bi, ar * bi + ai * br);
    }
    fft_pow2_execute_dispatch(blk, *plan, true);
    const std::size_t count = std::min(shape.step, shape.full - out0);
    for (std::size_t j = 0; j < count; ++j) {
      y[out0 + j] = blk[overlap + j].real() * inv_m;
    }
  }
  return y;
}

}  // namespace

bool overlap_save_selected(std::size_t taps, std::size_t n) {
  if (taps < kOverlapSaveMinTaps || n < taps) return false;
  const OverlapSavePlanShape s = overlap_save_shape(taps, n);
  // 2 FFTs per block plus the one-time kernel transform, against the
  // direct loop's n*taps multiply-adds.
  const double log2_m = std::log2(static_cast<double>(s.m));
  const double os_cost = static_cast<double>(2 * s.blocks + 1) *
                         static_cast<double>(s.m) * log2_m * kFftMacEquiv;
  const double direct_cost =
      static_cast<double>(n) * static_cast<double>(taps);
  return os_cost < direct_cost;
}

std::vector<double> convolve_full(const std::vector<double>& h,
                                  const std::vector<double>& x,
                                  ConvolveMethod method) {
  if (h.empty() || x.empty()) return {};
  const bool save =
      method == ConvolveMethod::kOverlapSave ||
      (method == ConvolveMethod::kAuto &&
       overlap_save_selected(h.size(), x.size()));
  return save ? convolve_overlap_save(h, x) : convolve_direct(h, x);
}

Result<std::vector<double>, SignalError> design_bandpass(
    const BandPassSpec& spec, double dt) {
  if (!std::isfinite(dt) || dt <= 0) {
    return SignalError{SignalError::Code::kBadSamplingInterval,
                       "dt must be finite and positive"};
  }
  if (spec.taps < kMinTaps || spec.taps > kMaxTaps || spec.taps % 2 == 0) {
    return SignalError{SignalError::Code::kBadTaps,
                       "taps must be odd and in [" + std::to_string(kMinTaps) +
                           ", " + std::to_string(kMaxTaps) + "]; got " +
                           std::to_string(spec.taps)};
  }
  const double nyquist = 0.5 / dt;
  if (!std::isfinite(spec.low_hz) || !std::isfinite(spec.high_hz) ||
      spec.low_hz <= 0 || spec.low_hz >= spec.high_hz ||
      spec.high_hz >= nyquist) {
    return SignalError{
        SignalError::Code::kBadCorners,
        "corners must satisfy 0 < low < high < Nyquist (" +
            std::to_string(nyquist) + " Hz); got [" +
            std::to_string(spec.low_hz) + ", " + std::to_string(spec.high_hz) +
            "]"};
  }

  // Normalized (cycles/sample) corners; ideal band-pass = difference of
  // two ideal low-passes, shaped by a Hamming window.
  const double f1 = spec.low_hz * dt;
  const double f2 = spec.high_hz * dt;
  const int m = (spec.taps - 1) / 2;
  std::vector<double> h(static_cast<std::size_t>(spec.taps));
  for (int k = 0; k < spec.taps; ++k) {
    const double x = static_cast<double>(k - m);
    const double ideal =
        2.0 * f2 * sinc(2.0 * f2 * x) - 2.0 * f1 * sinc(2.0 * f1 * x);
    const double window =
        0.54 - 0.46 * std::cos(2.0 * kPi * static_cast<double>(k) /
                               static_cast<double>(spec.taps - 1));
    h[static_cast<std::size_t>(k)] = ideal * window;
  }

  // Unit gain at the geometric-centre frequency sqrt(f1 f2).
  const double f0 = std::sqrt(f1 * f2);
  std::complex<double> resp{};
  for (int k = 0; k < spec.taps; ++k) {
    resp += h[static_cast<std::size_t>(k)] *
            std::polar(1.0, -2.0 * kPi * f0 * static_cast<double>(k));
  }
  const double gain = std::abs(resp);
  if (!(gain > 1e-12)) {
    return SignalError{SignalError::Code::kBadCorners,
                       "degenerate band: centre-frequency gain is ~0"};
  }
  for (double& v : h) v /= gain;
  return h;
}

Result<std::vector<double>, SignalError> filtfilt(
    const std::vector<double>& h, const std::vector<double>& x,
    ConvolveMethod method) {
  if (h.empty() || h.size() % 2 == 0) {
    return SignalError{SignalError::Code::kBadTaps,
                       "filter length must be odd and nonzero"};
  }
  if (x.empty()) {
    return SignalError{SignalError::Code::kEmptyInput, "no samples to filter"};
  }
  if (x.size() < h.size()) {
    return SignalError{SignalError::Code::kTooShort,
                       "record (" + std::to_string(x.size()) +
                           " samples) shorter than the filter (" +
                           std::to_string(h.size()) + " taps)"};
  }

  // Forward pass, time reversal, second pass, reversal back. The
  // zero-phase output of length n sits at offset taps-1 of the final
  // full convolution (see docs/SIGNAL.md).
  std::vector<double> y = convolve_full(h, x, method);
  std::reverse(y.begin(), y.end());
  y = convolve_full(h, y, method);
  std::reverse(y.begin(), y.end());

  std::vector<double> out(x.size());
  const std::size_t offset = h.size() - 1;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double v = y[offset + i];
    if (!std::isfinite(v)) {
      return SignalError{SignalError::Code::kNonFinite,
                         "filter output sample " + std::to_string(i) +
                             " is not finite"};
    }
    out[i] = v;
  }
  return out;
}

}  // namespace acx::signal
