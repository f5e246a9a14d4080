#pragma once

#include <filesystem>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "pipeline/stage.hpp"
#include "util/breaker.hpp"
#include "util/clock.hpp"
#include "util/retry.hpp"

namespace acx {
class WorkPool;  // util/work_pool.hpp
}

namespace acx::pipeline {

// The four pipeline implementations of the paper plus the resident
// service driver, selected at run time (acx_process --driver ...).
// Each is a Scheduler over the same StageGraph (src/pipeline/graph.hpp):
//   kSequential          — §III  Sequential Original: every stage of the
//                          full graph, redundant processes included, one
//                          record after another.
//   kSequentialOptimized — §IV   Sequential Optimized: the pruned graph
//                          (redundant stages removed), still one record
//                          at a time.
//   kPartialParallel     — §V    Partially Parallelized: the pruned
//                          graph executed stage-by-stage, each
//                          parallel-safe stage fanned across records
//                          with an OpenMP loop and a barrier between
//                          stages.
//   kFullParallel        — §VI   Fully Parallelized: record-level OpenMP
//                          fan-out over the whole pruned graph, with the
//                          response stage's period loop as a nested
//                          `omp for`.
//   kPool                — record-level fan-out onto the persistent
//                          work-stealing WorkPool (util/work_pool.hpp)
//                          instead of a per-run OpenMP team — the
//                          resident-service driver (docs/SERVE.md).
//                          Same pruned graph, byte-identical canonical
//                          output to the other drivers.
enum class Driver {
  kSequential,
  kSequentialOptimized,
  kPartialParallel,
  kFullParallel,
  kPool,
};

// The CLI/report spellings: "seq", "seq-opt", "partial", "full", "pool".
inline const char* to_string(Driver d) {
  switch (d) {
    case Driver::kSequential: return "seq";
    case Driver::kSequentialOptimized: return "seq-opt";
    case Driver::kPartialParallel: return "partial";
    case Driver::kFullParallel: return "full";
    case Driver::kPool: return "pool";
  }
  return "seq";
}

inline std::optional<Driver> parse_driver(std::string_view name) {
  if (name == "seq") return Driver::kSequential;
  if (name == "seq-opt") return Driver::kSequentialOptimized;
  if (name == "partial") return Driver::kPartialParallel;
  if (name == "full") return Driver::kFullParallel;
  if (name == "pool") return Driver::kPool;
  return std::nullopt;
}

// True for the drivers that run records concurrently (and therefore
// always keep going: fail-fast needs a serial notion of "first").
inline bool is_parallel(Driver d) {
  return d == Driver::kPartialParallel || d == Driver::kFullParallel ||
         d == Driver::kPool;
}

// True for the drivers that execute the pruned graph (every driver
// except Sequential Original, which runs the redundant stages too).
inline bool prunes_redundant(Driver d) { return d != Driver::kSequential; }

// Deterministic stage-crash injection: kill `stage` on its k-th
// invocation counted across the whole run. Poison by default (models a
// process crash on a specific record); transient=true models a flaky
// stage that succeeds when retried. Under the parallel drivers the
// count is still exact (it is taken under a lock) but which record
// draws the k-th invocation depends on thread interleaving.
struct StageFault {
  std::string stage;
  int kill_on_invocation = 0;  // 1-based; 0 disables
  bool transient = false;
  // Kill the whole process (std::_Exit) instead of failing the stage —
  // models power loss / OOM-kill mid-batch. The checkpoint/resume tests
  // spawn acx_batch with this armed, then resume the survivor.
  bool kill_process = false;
};

struct RunnerConfig {
  // Which driver executes the stage graph (the paper's four, or the
  // resident pool driver).
  Driver driver = Driver::kSequential;
  // OpenMP team size for the parallel drivers; 0 = the OpenMP default
  // (all hardware threads). Ignored by the sequential drivers. For the
  // pool driver this sizes the *transient* pool when no shared one is
  // given below.
  int threads = 0;
  // The resident work-stealing pool the kPool driver dispatches onto.
  // Non-owning; null makes PoolScheduler spin up a transient pool of
  // `threads` workers for the run (acx_process), while acx_serve wires
  // one process-lifetime pool through every event so team spin-up is
  // paid exactly once (docs/SERVE.md).
  WorkPool* pool = nullptr;
  // total_seconds of a sequential baseline report; when > 0 the run
  // report carries speedup_vs_sequential = baseline / this run.
  double baseline_total_seconds = 0;
  RetryPolicy retry;
  // Backoff sleep; tests inject a no-op.
  SleepFn sleep = sleep_ms;
  // Per-event wall-clock budget (util/clock.hpp). Soft expiry sheds the
  // graph's sheddable stages (record published as degraded); hard
  // expiry quarantines unfinished records as batch.deadline_hard and
  // finalizes the event with whatever completed. Retries never start a
  // backoff sleep that would overrun the remaining hard budget.
  DeadlineConfig deadline;
  // Monotonic clock for the deadline tracker; defaults to the steady
  // clock, tests inject a manual one.
  NowFn now;
  // Observed (never driven) by the runner: when the filesystem stack
  // includes a BreakerFileSystem, point this at its breaker and the run
  // report's v6 breaker block carries the counter deltas of this run.
  const storage::CircuitBreaker* breaker = nullptr;
  StageFault stage_fault;
  // Fallback band corners / FIR length / gain of the V2 correction chain.
  CorrectionConfig correction;
  // FAS, corner-search and response-grid parameters of the spectral
  // stages (corners, fourier, response).
  SpectrumConfig spectrum;
  // Station pre-scan floor: a record whose header announces less than
  // this many seconds of signal (npts * dt) is quarantined as
  // station.short_duration before any stage runs — too short for any
  // spectral product to mean anything.
  double min_station_duration_s = 0.1;
  // keep_going=true is the production mode: quarantine poisoned records
  // and continue the event run with the survivors. false stops at the
  // first quarantined record (still writing the report) — sequential
  // drivers only; the parallel drivers always keep going.
  bool keep_going = true;
};

// One storage touch `fn` (returning Result<T, IoError>) under the
// runner's transient-retry policy and backoff sleep.
template <class T, class Fn>
Result<T, IoError> retry_io(const RunnerConfig& cfg, Fn fn) {
  return run_with_retry<T, IoError>(
      cfg.retry, cfg.sleep, [](const IoError& e) { return e.klass; }, fn);
}

// Creates each directory, retried under the runner's policy.
inline Result<Unit, IoError> create_dirs(
    FileSystem& fs, const RunnerConfig& cfg,
    std::initializer_list<std::filesystem::path> dirs) {
  for (const std::filesystem::path& dir : dirs) {
    auto made = retry_io<Unit>(cfg, [&] { return fs.create_directories(dir); });
    if (!made.ok()) return made;
  }
  return Unit{};
}

}  // namespace acx::pipeline
