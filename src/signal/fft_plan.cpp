#include "signal/fft_plan.hpp"

#include <map>
#include <mutex>
#include <numbers>
#include <shared_mutex>
#include <utility>

#include "signal/fft.hpp"
#include "util/perf.hpp"
#include "util/simd.hpp"

namespace acx::signal {

namespace {

constexpr double kPi = std::numbers::pi;

}  // namespace

Pow2Plan Pow2Plan::build(std::size_t n) {
  Pow2Plan plan;
  plan.n = n;
  plan.bitrev.resize(n);
  for (std::size_t i = 1; i < n; ++i) {
    plan.bitrev[i] = static_cast<std::uint32_t>(
        (plan.bitrev[i >> 1] >> 1) | ((i & 1) ? (n >> 1) : 0));
  }
  if (n >= 2) plan.twiddle.reserve(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      plan.twiddle.push_back(std::polar(
          1.0, -2.0 * kPi * static_cast<double>(k) / static_cast<double>(len)));
    }
  }
  plan.tw_re.resize(plan.twiddle.size());
  plan.tw_im.resize(plan.twiddle.size());
  for (std::size_t i = 0; i < plan.twiddle.size(); ++i) {
    plan.tw_re[i] = plan.twiddle[i].real();
    plan.tw_im[i] = plan.twiddle[i].imag();
  }
  return plan;
}

void fft_pow2_execute(std::vector<Complex>& a, const Pow2Plan& plan,
                      bool inverse) {
  const std::size_t n = a.size();
  if (n < 2) return;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const Complex* tw = plan.twiddle.data() + (len / 2 - 1);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex w = inverse ? std::conj(tw[k]) : tw[k];
        const Complex u = a[i + k];
        const Complex v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
      }
    }
  }
}

namespace {

// Split-complex butterfly sweep. Each (len, i) block's lanes are
// independent outputs, so `#pragma omp simd` across k vectorizes with
// unit stride; the per-lane arithmetic is exactly the std::complex
// kernel's finite-path formula — vr = xr*wr - xi*wi, vi = xr*wi +
// xi*wr, then u +/- v componentwise — in the same order, so results
// are bit-identical. The inverse conjugates by negating the twiddle
// imaginary part (sign flips are exact).
template <bool Inverse>
__attribute__((always_inline)) inline void fft_split_body(
    double* __restrict re, double* __restrict im, const Pow2Plan& plan) {
  const std::size_t n = plan.n;
  const double* tw_re_base = plan.tw_re.data();
  const double* tw_im_base = plan.tw_im.data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t h = len / 2;
    const double* wr = tw_re_base + (h - 1);
    const double* wi = tw_im_base + (h - 1);
    for (std::size_t i = 0; i < n; i += len) {
      double* r0 = re + i;
      double* i0 = im + i;
      double* r1 = re + i + h;
      double* i1 = im + i + h;
#pragma omp simd
      for (std::size_t k = 0; k < h; ++k) {
        const double wre = wr[k];
        const double wim = Inverse ? -wi[k] : wi[k];
        const double xr = r1[k];
        const double xi = i1[k];
        const double vr = xr * wre - xi * wim;
        const double vi = xr * wim + xi * wre;
        const double ur = r0[k];
        const double ui = i0[k];
        r0[k] = ur + vr;
        i0[k] = ui + vi;
        r1[k] = ur - vr;
        i1[k] = ui - vi;
      }
    }
  }
}

}  // namespace

void fft_pow2_execute_split(double* re, double* im, const Pow2Plan& plan,
                            bool inverse) {
  if (plan.n < 2) return;
  // The split path has no scalar form of its own: callers take the
  // interleaved kernel when the toggle is off.
  simd::dispatch<simd::Tier::kAvx2>(
      [&]<simd::Tier T>() __attribute__((always_inline)) {
        if (inverse) {
          fft_split_body<true>(re, im, plan);
        } else {
          fft_split_body<false>(re, im, plan);
        }
      });
}

void fft_pow2_execute_dispatch(std::vector<Complex>& a, const Pow2Plan& plan,
                               bool inverse) {
  const std::size_t n = a.size();
  if (n < 2) return;
  if (!simd::enabled()) {
    fft_pow2_execute(a, plan, inverse);
    return;
  }
  // Layout conversion fused with the bit-reversal permutation (the
  // gather through bitrev equals the scalar kernel's swap pass, since
  // bitrev is an involution); butterflies run on the planes, then the
  // natural-order result interleaves back.
  std::vector<double> re(n);
  std::vector<double> im(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Complex c = a[plan.bitrev[i]];
    re[i] = c.real();
    im[i] = c.imag();
  }
  fft_pow2_execute_split(re.data(), im.data(), plan, inverse);
  for (std::size_t i = 0; i < n; ++i) a[i] = Complex(re[i], im[i]);
}

BluesteinPlan BluesteinPlan::build(std::size_t n,
                                   std::shared_ptr<const Pow2Plan> pow2_m) {
  BluesteinPlan plan;
  plan.n = n;
  plan.pow2 = std::move(pow2_m);
  plan.m = plan.pow2->n;

  plan.chirp.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    plan.chirp[k] = std::polar(
        1.0, -kPi * static_cast<double>(k2) / static_cast<double>(n));
  }

  // Circular convolution kernels, transformed once per direction. The
  // forward kernel is the conjugate chirp; the inverse direction's
  // chirp is conj(chirp), so its kernel is the chirp itself.
  std::vector<Complex> b(plan.m, Complex{});
  b[0] = std::conj(plan.chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    b[k] = b[plan.m - k] = std::conj(plan.chirp[k]);
  }
  fft_pow2_execute(b, *plan.pow2, false);
  plan.bfft_fwd = std::move(b);

  std::vector<Complex> bi(plan.m, Complex{});
  bi[0] = plan.chirp[0];
  for (std::size_t k = 1; k < n; ++k) {
    bi[k] = bi[plan.m - k] = plan.chirp[k];
  }
  fft_pow2_execute(bi, *plan.pow2, false);
  plan.bfft_inv = std::move(bi);

  return plan;
}

struct FftPlanCache::Impl {
  std::shared_mutex mu;
  std::map<std::size_t, std::shared_ptr<const Pow2Plan>> pow2;
  std::map<std::size_t, std::shared_ptr<const BluesteinPlan>> bluestein;
  std::map<std::size_t, std::shared_ptr<const RfftPlan>> rfft;

  // Shared-lock probe, build outside any lock (builders may recurse
  // into sibling getters), publish under a unique lock; the first
  // insert wins so concurrent misses still converge on one shared
  // plan. A redundant build counts as a hit: exactly one miss is ever
  // recorded per cached key.
  template <typename T, typename Builder>
  std::shared_ptr<const T> get(
      std::map<std::size_t, std::shared_ptr<const T>>& map, std::size_t n,
      Builder&& builder) {
    {
      std::shared_lock lock(mu);
      auto it = map.find(n);
      if (it != map.end()) {
        perf::count_cache(true);
        return it->second;
      }
    }
    auto built = std::make_shared<const T>(builder());
    {
      std::unique_lock lock(mu);
      auto [it, inserted] = map.emplace(n, std::move(built));
      perf::count_cache(!inserted);
      return it->second;
    }
  }
};

FftPlanCache::FftPlanCache() : impl_(new Impl) {}
FftPlanCache::~FftPlanCache() { delete impl_; }

FftPlanCache& FftPlanCache::instance() {
  static FftPlanCache cache;
  return cache;
}

std::shared_ptr<const Pow2Plan> FftPlanCache::pow2(std::size_t n) {
  return impl_->get(impl_->pow2, n, [n] { return Pow2Plan::build(n); });
}

std::shared_ptr<const BluesteinPlan> FftPlanCache::bluestein(std::size_t n) {
  return impl_->get(impl_->bluestein, n, [this, n] {
    std::size_t m = 1;
    while (m < 2 * n - 1) m <<= 1;
    return BluesteinPlan::build(n, pow2(m));
  });
}

std::shared_ptr<const RfftPlan> FftPlanCache::rfft(std::size_t n) {
  return impl_->get(impl_->rfft, n, [this, n] {
    RfftPlan plan;
    plan.n = n;
    plan.untangle.resize(n / 2 + 1);
    for (std::size_t k = 0; k <= n / 2; ++k) {
      plan.untangle[k] = std::polar(
          1.0, -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n));
    }
    const std::size_t half = n / 2;
    if (is_power_of_two(half)) {
      plan.half_pow2 = pow2(half);
    } else {
      plan.half_bluestein = bluestein(half);
    }
    return plan;
  });
}

void FftPlanCache::clear() {
  std::unique_lock lock(impl_->mu);
  impl_->pow2.clear();
  impl_->bluestein.clear();
  impl_->rfft.clear();
}

}  // namespace acx::signal
