// Tree-run economics (`acx_serve --input`): what spooling a directory of
// events and draining it through the event engine costs on top of the
// per-event pipeline, and what the engine buys back when storage has
// real latency. Three shapes:
//   batch.seq_zero_latency    — 1 worker over a zero-latency store: the
//                               pure orchestration overhead (discovery,
//                               manifests, claims, sharded work dirs,
//                               stats). Gated in bench/baseline.json.
//   batch.workers2_modeled    — 2 workers over the latency-modeled
//                               store: inter-event overlap hiding
//                               per-op storage latency. Measured and
//                               uploaded, not gated (timer-resolution
//                               dependent).
//   batch.resume_fast_path    — every event already in done/: the cost
//                               of a no-op rerun (one work-dir
//                               revalidation per event, an empty drain).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "pipeline/serve.hpp"
#include "synth/synth.hpp"
#include "util/fs.hpp"
#include "util/slowfs.hpp"

namespace {

namespace stdfs = std::filesystem;

// One synth input tree per process: four small events, shared by every
// bench (immutable; only the spool and work roots are per-iteration).
const stdfs::path& batch_input() {
  static const stdfs::path input = [] {
    const stdfs::path dir = stdfs::temp_directory_path() /
                            ("acx-bench-batch-" + std::to_string(::getpid()));
    acx::RealFileSystem fs;
    acx::synth::EventSpec spec = acx::synth::paper_events()[0];
    spec.n_files = 3;
    acx::synth::SynthConfig cfg;
    cfg.scale = 0.02;
    for (const char* ev : {"ev1", "ev2", "ev3", "ev4"}) {
      auto built =
          acx::synth::build_event_dataset(fs, dir / "input" / ev, spec, cfg);
      if (!built.ok()) std::abort();
    }
    return dir;
  }();
  return input;
}

acx::pipeline::ServeConfig base_config(int workers) {
  acx::pipeline::ServeConfig cfg;
  cfg.runner.driver = acx::pipeline::Driver::kSequentialOptimized;
  cfg.runner.sleep = [](int) {};
  cfg.event_workers = workers;
  cfg.queue_capacity = 4;
  cfg.poll_ms = 1;
  return cfg;
}

// One tree run: spool every event under input/, then drain.
void run_tree(acx::FileSystem& fs, const acx::pipeline::ServeConfig& cfg,
              long long& records) {
  const stdfs::path spool = batch_input() / "spool";
  const stdfs::path work = batch_input() / "work";
  auto spooled =
      acx::pipeline::spool_tree(fs, cfg, batch_input() / "input", spool, work);
  if (!spooled.ok()) std::abort();
  auto run = acx::pipeline::SpoolServer(fs, cfg).run(spool, work);
  if (!run.ok() || run.value().served != run.value().ok) std::abort();
  records = run.value().records_ok;
  benchmark::DoNotOptimize(run);
}

void run_batch(benchmark::State& state, acx::FileSystem& fs,
               const acx::pipeline::ServeConfig& cfg, bool keep_work) {
  acx::RealFileSystem real;
  long long records = 0;
  for (auto _ : state) {
    if (!keep_work) {
      state.PauseTiming();
      (void)real.remove_all(batch_input() / "spool");
      (void)real.remove_all(batch_input() / "work");
      state.ResumeTiming();
    }
    run_tree(fs, cfg, records);
    if (!keep_work && records != 12) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * records);
  state.counters["events"] = 4;
}

void BM_BatchSeqZeroLatency(benchmark::State& state) {
  acx::RealFileSystem fs;
  run_batch(state, fs, base_config(1), /*keep_work=*/false);
}

void BM_BatchWorkers2Modeled(benchmark::State& state) {
  acx::RealFileSystem real;
  acx::storage::SlowConfig slow;
  slow.base_ms = 0.2;
  slow.jitter_ms = 0.3;
  slow.per_kib_ms = 0.01;
  acx::storage::SlowFileSystem fs(real, slow);
  run_batch(state, fs, base_config(2), /*keep_work=*/false);
}

void BM_BatchResumeFastPath(benchmark::State& state) {
  acx::RealFileSystem fs;
  const acx::pipeline::ServeConfig cfg = base_config(1);
  // Run the tree once; every timed iteration then finds it all done.
  (void)fs.remove_all(batch_input() / "spool");
  (void)fs.remove_all(batch_input() / "work");
  long long records = 0;
  run_tree(fs, cfg, records);
  if (records != 12) std::abort();
  run_batch(state, fs, cfg, /*keep_work=*/true);
}

// The events run on pool threads, so the main thread's CPU clock would
// miss nearly all the work: measure process CPU (the gated metric) and
// real time (the overlap story) instead.
BENCHMARK(BM_BatchSeqZeroLatency)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_BatchWorkers2Modeled)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_BatchResumeFastPath)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
