#include "spectrum/response_plan.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <tuple>
#include <utility>

#include "util/perf.hpp"
#include "util/simd.hpp"

namespace acx::spectrum {

namespace {

constexpr double kPi = 3.14159265358979323846;

}  // namespace

Result<std::shared_ptr<const ResponsePlan>, SpectrumError> ResponsePlan::build(
    double dt, const ResponseGrid& grid) {
  if (!std::isfinite(dt) || dt <= 0) {
    return SpectrumError{SpectrumError::Code::kBadSamplingInterval,
                         "dt must be finite and positive"};
  }
  auto grid_ok = validate_grid(grid);
  if (!grid_ok.ok()) return grid_ok.error();

  auto plan = std::make_shared<ResponsePlan>();
  plan->dt = dt;
  plan->grid = grid;
  const std::size_t periods = grid.periods.size();
  plan->cells = periods * grid.dampings.size();
  for (std::vector<double>* coeffs :
       {&plan->a11, &plan->a12, &plan->a21, &plan->a22, &plan->b11, &plan->b12,
        &plan->b21, &plan->b22, &plan->two_zw, &plan->w2}) {
    coeffs->resize(plan->cells);
  }
  for (std::size_t i = 0; i < plan->cells; ++i) {
    const std::size_t d = i / periods;
    const std::size_t p = i % periods;
    const double w = 2.0 * kPi / grid.periods[p];
    const NigamJennings k(w, grid.dampings[d], dt);
    plan->a11[i] = k.a11;
    plan->a12[i] = k.a12;
    plan->a21[i] = k.a21;
    plan->a22[i] = k.a22;
    plan->b11[i] = k.b11;
    plan->b12[i] = k.b12;
    plan->b21[i] = k.b21;
    plan->b22[i] = k.b22;
    plan->two_zw[i] = k.two_zw;
    plan->w2[i] = k.w2;
  }
  return std::shared_ptr<const ResponsePlan>(std::move(plan));
}

namespace {

// The original scalar batch loop, kept verbatim: the ACX_SIMD=OFF
// path and the bit-identity oracle of the explicit-SIMD variants
// below (tests/test_simd.cpp runs both and memcmp's the peaks).
void sdof_batch_scalar(const double* acc, std::size_t n,
                       const ResponsePlan& plan, std::size_t cell_begin,
                       std::size_t cell_end, double* sd, double* sv,
                       double* sa) {
  for (std::size_t start = cell_begin; start < cell_end;
       start += kSdofBatchBlock) {
    const std::size_t b = std::min(kSdofBatchBlock, cell_end - start);
    const double* a11 = plan.a11.data() + start;
    const double* a12 = plan.a12.data() + start;
    const double* a21 = plan.a21.data() + start;
    const double* a22 = plan.a22.data() + start;
    const double* b11 = plan.b11.data() + start;
    const double* b12 = plan.b12.data() + start;
    const double* b21 = plan.b21.data() + start;
    const double* b22 = plan.b22.data() + start;
    const double* two_zw = plan.two_zw.data() + start;
    const double* w2 = plan.w2.data() + start;

    double x[kSdofBatchBlock] = {};
    double v[kSdofBatchBlock] = {};
    double psd[kSdofBatchBlock] = {};
    double psv[kSdofBatchBlock] = {};
    double psa[kSdofBatchBlock] = {};

    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double acc0 = acc[i];
      const double acc1 = acc[i + 1];
      for (std::size_t j = 0; j < b; ++j) {
        const double x1 = a11[j] * x[j] + a12[j] * v[j] + b11[j] * acc0 +
                          b12[j] * acc1;
        const double v1 = a21[j] * x[j] + a22[j] * v[j] + b21[j] * acc0 +
                          b22[j] * acc1;
        x[j] = x1;
        v[j] = v1;
        const double abs_acc = std::fabs(two_zw[j] * v1 + w2[j] * x1);
        if (std::fabs(x1) > psd[j]) psd[j] = std::fabs(x1);
        if (std::fabs(v1) > psv[j]) psv[j] = std::fabs(v1);
        if (abs_acc > psa[j]) psa[j] = abs_acc;
      }
    }
    for (std::size_t j = 0; j < b; ++j) {
      sd[start + j] = psd[j];
      sv[start + j] = psv[j];
      sa[start + j] = psa[j];
    }
  }
}

// Cells per register sub-block of the SIMD body, per tier. The state
// and peaks of a sub-block are locals for the whole record, which the
// compiler keeps in vector registers, so a time step loads its
// coefficients from L1 and stores almost nothing. The AVX2 and AVX-512
// widths measured fastest; on the portable tier (SSE2 on x86-64) W = 4
// to 32 measured alike, and 4 is the widest whose state fits its 16
// registers (docs/PERF.md, "SIMD kernels"). Each width divides
// kSdofBatchBlock, so a 32-cell block of response_spectrum splits into
// whole sub-blocks.
template <simd::Tier T>
constexpr std::size_t kSubBlock = T == simd::Tier::kAvx512 ? 16
                                  : T == simd::Tier::kAvx2 ? 8
                                                           : 4;

// Explicit-SIMD body: the scalar loop's arithmetic in its per-lane op
// order, marched W cells at a time over zero-padded coefficients, with
// `#pragma omp simd` asserting lane independence. Vector lanes are
// separate oscillators, so the peaks are bit-identical to the scalar
// loop's; the peak updates compile to compare+blend (or maxpd — the
// peaks are never NaN, and max(abs, peak) keeps the peak when abs is
// NaN, matching the scalar compare-false path).
template <std::size_t W>
__attribute__((always_inline)) inline void sdof_batch_simd(
    const double* acc, std::size_t n, const ResponsePlan& plan,
    std::size_t cell_begin, std::size_t cell_end, double* sd, double* sv,
    double* sa) {
  static_assert(kSdofBatchBlock % W == 0);
  for (std::size_t start = cell_begin; start < cell_end; start += W) {
    const std::size_t width = std::min(W, cell_end - start);
    const BlockCoeffs<W> k(plan, start, width);
    double x[W] = {};
    double v[W] = {};
    double psd[W] = {};
    double psv[W] = {};
    double psa[W] = {};
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double acc0 = acc[i];
      const double acc1 = acc[i + 1];
#pragma omp simd
      for (std::size_t j = 0; j < W; ++j) {
        const double x1 = k.a11[j] * x[j] + k.a12[j] * v[j] +
                          k.b11[j] * acc0 + k.b12[j] * acc1;
        const double v1 = k.a21[j] * x[j] + k.a22[j] * v[j] +
                          k.b21[j] * acc0 + k.b22[j] * acc1;
        x[j] = x1;
        v[j] = v1;
        const double abs_acc = std::fabs(k.two_zw[j] * v1 + k.w2[j] * x1);
        psd[j] = std::fabs(x1) > psd[j] ? std::fabs(x1) : psd[j];
        psv[j] = std::fabs(v1) > psv[j] ? std::fabs(v1) : psv[j];
        psa[j] = abs_acc > psa[j] ? abs_acc : psa[j];
      }
    }
    std::copy_n(psd, width, sd + start);
    std::copy_n(psv, width, sv + start);
    std::copy_n(psa, width, sa + start);
  }
}

}  // namespace

void sdof_peak_response_batch(const double* acc, std::size_t n,
                              const ResponsePlan& plan,
                              std::size_t cell_begin, std::size_t cell_end,
                              double* sd, double* sv, double* sa) {
  simd::dispatch([&]<simd::Tier T>() __attribute__((always_inline)) {
    if constexpr (T == simd::Tier::kScalar) {
      sdof_batch_scalar(acc, n, plan, cell_begin, cell_end, sd, sv, sa);
    } else {
      sdof_batch_simd<kSubBlock<T>>(acc, n, plan, cell_begin, cell_end, sd,
                                    sv, sa);
    }
  });
}

struct ResponsePlanCache::Impl {
  using Key = std::tuple<double, std::vector<double>, std::vector<double>>;
  std::shared_mutex mu;
  std::map<Key, std::shared_ptr<const ResponsePlan>> plans;
};

ResponsePlanCache::ResponsePlanCache() : impl_(new Impl) {}
ResponsePlanCache::~ResponsePlanCache() { delete impl_; }

ResponsePlanCache& ResponsePlanCache::instance() {
  static ResponsePlanCache cache;
  return cache;
}

Result<std::shared_ptr<const ResponsePlan>, SpectrumError>
ResponsePlanCache::get(double dt, const ResponseGrid& grid) {
  Impl::Key key{dt, grid.periods, grid.dampings};
  {
    std::shared_lock lock(impl_->mu);
    auto it = impl_->plans.find(key);
    if (it != impl_->plans.end()) {
      perf::count_cache(true);
      return it->second;
    }
  }
  // Build outside any lock; invalid inputs are reported, not cached.
  auto built = ResponsePlan::build(dt, grid);
  if (!built.ok()) return built;
  {
    std::unique_lock lock(impl_->mu);
    auto [it, inserted] =
        impl_->plans.emplace(std::move(key), std::move(built).take());
    // A concurrent builder may have published first; either way the
    // map's plan wins, and exactly one miss is recorded per key.
    perf::count_cache(!inserted);
    return it->second;
  }
}

void ResponsePlanCache::clear() {
  std::unique_lock lock(impl_->mu);
  impl_->plans.clear();
}

Result<ResponseSpectrum, SpectrumError> response_spectrum(
    const std::vector<double>& acc, const ResponsePlan& plan, int threads) {
  if (acc.empty()) {
    return SpectrumError{SpectrumError::Code::kEmptyInput, "no samples"};
  }
  if (acc.size() < 2) {
    return SpectrumError{SpectrumError::Code::kTooShort,
                         "the recurrence needs at least 2 samples"};
  }

  ResponseSpectrum out;
  out.periods = plan.grid.periods;
  out.dampings = plan.grid.dampings;
  out.sd.resize(plan.cells);
  out.sv.resize(plan.cells);
  out.sa.resize(plan.cells);

  // Blocks touch disjoint cell ranges and each block's result is
  // independent of the team size, so schedule(static) keeps the output
  // bit-identical for any thread count.
  const long long blocks = static_cast<long long>(
      (plan.cells + kSdofBatchBlock - 1) / kSdofBatchBlock);
#pragma omp parallel for schedule(static) num_threads(threads) \
    if (threads > 1)
  for (long long blk = 0; blk < blocks; ++blk) {
    const std::size_t begin = static_cast<std::size_t>(blk) * kSdofBatchBlock;
    const std::size_t end = std::min(plan.cells, begin + kSdofBatchBlock);
    sdof_peak_response_batch(acc.data(), acc.size(), plan, begin, end,
                             out.sd.data(), out.sv.data(), out.sa.data());
  }

  for (std::size_t i = 0; i < plan.cells; ++i) {
    if (!std::isfinite(out.sd[i]) || !std::isfinite(out.sv[i]) ||
        !std::isfinite(out.sa[i])) {
      return SpectrumError{SpectrumError::Code::kNonFinite,
                           "oscillator response is not finite"};
    }
  }
  return out;
}

}  // namespace acx::spectrum
