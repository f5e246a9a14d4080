// Stage IX economics: the paper attributes 57.2% of the sequential
// runtime to response-spectra computation, so this file carries the
// names the CI regression gate watches ("spectrum.response" above all).
// Sizes follow the paper's per-file range (7.3K–35K samples).

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "spectrum/corners.hpp"
#include "spectrum/fourier.hpp"
#include "spectrum/response.hpp"
#include "spectrum/response_plan.hpp"
#include "spectrum/rotd.hpp"

namespace {

std::vector<double> bench_samples(std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * 0.005;
    x[i] = 80.0 * std::sin(2.0 * M_PI * 3.0 * t) * std::exp(-0.15 * t) +
           20.0 * std::sin(2.0 * M_PI * 9.0 * t);
  }
  return x;
}

void BM_Fourier(benchmark::State& state) {
  const auto x = bench_samples(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto fas = acx::spectrum::fourier_amplitude(x, 0.005);
    benchmark::DoNotOptimize(fas);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Corners(benchmark::State& state) {
  const auto x = bench_samples(static_cast<std::size_t>(state.range(0)));
  const auto fas = acx::spectrum::fourier_amplitude(x, 0.005);
  for (auto _ : state) {
    auto corners = acx::spectrum::find_corners(fas.value());
    benchmark::DoNotOptimize(corners);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(fas.value().size()));
}

void BM_Sdof(benchmark::State& state) {
  // One grid cell: the inner kernel the OpenMP drivers will spread
  // over (record x period).
  const auto x = bench_samples(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto peaks = acx::spectrum::sdof_peak_response(x, 0.005, 1.0, 0.05);
    benchmark::DoNotOptimize(peaks);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Response(benchmark::State& state) {
  // Full paper grid (600 periods x 5 dampings) over one record: the
  // sequential Stage IX cost per component.
  const auto x = bench_samples(static_cast<std::size_t>(state.range(0)));
  const auto grid = acx::spectrum::paper_grid();
  for (auto _ : state) {
    auto spec = acx::spectrum::response_spectrum(x, 0.005, grid);
    benchmark::DoNotOptimize(spec);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<long>(grid.periods.size() *
                                            grid.dampings.size()));
}

void BM_ResponsePlanCold(benchmark::State& state) {
  // Materializing the 3000 NigamJennings coefficient sets of the paper
  // grid — the per-record setup cost the plan cache amortizes away.
  const auto grid = acx::spectrum::paper_grid();
  for (auto _ : state) {
    auto plan = acx::spectrum::ResponsePlan::build(0.005, grid);
    benchmark::DoNotOptimize(plan);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(grid.periods.size() *
                                            grid.dampings.size()));
}

void BM_ResponsePlanCached(benchmark::State& state) {
  // The same lookup served warm: one shared-lock map probe.
  const auto grid = acx::spectrum::paper_grid();
  auto warm = acx::spectrum::ResponsePlanCache::instance().get(0.005, grid);
  benchmark::DoNotOptimize(warm);
  for (auto _ : state) {
    auto plan = acx::spectrum::ResponsePlanCache::instance().get(0.005, grid);
    benchmark::DoNotOptimize(plan);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SdofScalarBlock(benchmark::State& state) {
  // kSdofBatchBlock cells one at a time through the scalar kernel:
  // the pre-batch cost of one block's worth of Stage-IX work.
  const auto x = bench_samples(static_cast<std::size_t>(state.range(0)));
  const auto grid = acx::spectrum::paper_grid();
  for (auto _ : state) {
    for (std::size_t p = 0; p < acx::spectrum::kSdofBatchBlock; ++p) {
      auto peaks =
          acx::spectrum::sdof_peak_response(x, 0.005, grid.periods[p], 0.05);
      benchmark::DoNotOptimize(peaks);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<long>(acx::spectrum::kSdofBatchBlock));
}

void BM_SdofBatchBlock(benchmark::State& state) {
  // The same kSdofBatchBlock cells marched in lockstep by the batch
  // kernel over a cached plan — directly comparable to sdof_scalar32.
  const auto x = bench_samples(static_cast<std::size_t>(state.range(0)));
  const auto grid = acx::spectrum::paper_grid();
  const auto plan =
      acx::spectrum::ResponsePlanCache::instance().get(0.005, grid).value();
  std::vector<double> sd(plan->cells), sv(plan->cells), sa(plan->cells);
  for (auto _ : state) {
    acx::spectrum::sdof_peak_response_batch(
        x.data(), x.size(), *plan, 0, acx::spectrum::kSdofBatchBlock,
        sd.data(), sv.data(), sa.data());
    benchmark::DoNotOptimize(sd.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<long>(acx::spectrum::kSdofBatchBlock));
}

// Reduced RotD workload shared by the kernel/reference pair: the
// reference on the full paper grid x 180 angles costs seconds per
// iteration, far too slow to gate. 120 cells x 16 angles keeps the
// shape (two recurrences per cell, pruned projection onto the sweep,
// percentile combine) at CI-friendly cost.
acx::spectrum::ResponseGrid rotd_bench_grid() {
  acx::spectrum::ResponseGrid grid;
  for (int i = 0; i < 60; ++i) {
    grid.periods.push_back(0.05 * static_cast<double>(i + 1));
  }
  grid.dampings = {0.02, 0.05};
  return grid;
}
constexpr int kRotdBenchAngles = 16;

std::vector<double> rotd_bench_component(std::size_t n, double phase) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * 0.005;
    x[i] = 70.0 * std::sin(2.0 * M_PI * 2.5 * t + phase) *
               std::exp(-0.2 * t) +
           25.0 * std::sin(2.0 * M_PI * 7.0 * t + 2.0 * phase);
  }
  return x;
}

void BM_RotdSweep(benchmark::State& state) {
  // The linear-projection kernel over a cached plan — the station
  // stage's kernel, at the reduced workload.
  const auto l = rotd_bench_component(static_cast<std::size_t>(state.range(0)),
                                      0.0);
  const auto t = rotd_bench_component(static_cast<std::size_t>(state.range(0)),
                                      1.3);
  const auto grid = rotd_bench_grid();
  for (auto _ : state) {
    auto rotd =
        acx::spectrum::rotd_spectrum(l, t, 0.005, grid, kRotdBenchAngles);
    benchmark::DoNotOptimize(rotd);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          kRotdBenchAngles *
                          static_cast<long>(grid.periods.size() *
                                            grid.dampings.size()));
}

void BM_RotdScalarReference(benchmark::State& state) {
  // One sdof_peak_response call per (angle, cell) — what the sweep
  // would cost without batching or the plan cache.
  const auto l = rotd_bench_component(static_cast<std::size_t>(state.range(0)),
                                      0.0);
  const auto t = rotd_bench_component(static_cast<std::size_t>(state.range(0)),
                                      1.3);
  const auto grid = rotd_bench_grid();
  for (auto _ : state) {
    auto rotd = acx::spectrum::rotd_spectrum_reference(l, t, 0.005, grid,
                                                       kRotdBenchAngles);
    benchmark::DoNotOptimize(rotd);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          kRotdBenchAngles *
                          static_cast<long>(grid.periods.size() *
                                            grid.dampings.size()));
}

}  // namespace

BENCHMARK(BM_Fourier)->Name("spectrum.fourier")->Arg(7300)->Arg(35000);
BENCHMARK(BM_Corners)->Name("spectrum.corners")->Arg(7300)->Arg(35000);
BENCHMARK(BM_Sdof)->Name("spectrum.sdof")->Arg(7300)->Arg(35000);
BENCHMARK(BM_Response)->Name("spectrum.response")->Arg(7300);
BENCHMARK(BM_ResponsePlanCold)->Name("spectrum.response_plan_cold");
BENCHMARK(BM_ResponsePlanCached)->Name("spectrum.response_plan_cached");
BENCHMARK(BM_SdofScalarBlock)->Name("spectrum.sdof_scalar32")->Arg(7300);
BENCHMARK(BM_SdofBatchBlock)->Name("spectrum.sdof_batch32")->Arg(7300);
BENCHMARK(BM_RotdSweep)->Name("spectrum.rotd_sweep")->Arg(4000);
BENCHMARK(BM_RotdScalarReference)
    ->Name("spectrum.rotd_scalar")
    ->Arg(4000);

BENCHMARK_MAIN();
