#include "pipeline/scheduler.hpp"

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/work_pool.hpp"

namespace acx::pipeline {

namespace stdfs = std::filesystem;

namespace {

// Longest-first issue order (input size descending, record id ascending
// as the deterministic tie-break): both record-level fan-outs use it so
// a long record dealt last cannot serialize the tail of the run.
std::vector<std::size_t> longest_first_order(
    const std::vector<RecordSlot>& slots) {
  std::vector<std::size_t> order(slots.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (slots[a].input_bytes != slots[b].input_bytes) {
      return slots[a].input_bytes > slots[b].input_bytes;
    }
    return slots[a].outcome.record < slots[b].outcome.record;
  });
  return order;
}

// §III / §IV of the paper: one record after another, every planned
// stage in order. Sequential Original and Sequential Optimized are the
// same scheduler — the difference is the plan (pruned or not), decided
// when the executor instantiates the graph. Honors keep_going=false by
// stopping at the first quarantined record, leaving the rest of the
// slots unprocessed.
class SequentialScheduler final : public Scheduler {
 public:
  explicit SequentialScheduler(bool keep_going) : keep_going_(keep_going) {}

  void run(RecordExecutor& exec, std::vector<RecordSlot>& slots,
           const stdfs::path& work_dir) override {
    for (RecordSlot& slot : slots) {
      exec.run_record(slot, work_dir);
      if (!keep_going_ &&
          slot.outcome.status == RecordOutcome::Status::kQuarantined) {
        break;
      }
    }
  }

 private:
  bool keep_going_;
};

// The two OpenMP drivers share their station phase: one
// schedule(dynamic, 1) loop over the eligible stations, whole stations
// across the team. Under the full driver the rotd kernel's cell-block
// loop is the nested level, like the response stage's period loop.
class OmpScheduler : public Scheduler {
 public:
  explicit OmpScheduler(int threads) : threads_(threads) {}

  void run_stations(RecordExecutor& exec,
                    std::vector<StationSlot*>& slots) override {
    const long long n = static_cast<long long>(slots.size());
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads_)
    for (long long i = 0; i < n; ++i) {
      exec.run_station(*slots[static_cast<std::size_t>(i)]);
    }
  }

 protected:
  int threads_;
};

// §V of the paper: stage-by-stage over the pruned plan, each
// parallel-safe stage fanned across records with an OpenMP loop and an
// implicit barrier before the next stage; stages not marked
// parallel-safe (none in the current chain, but the graph allows them)
// run serially. Scratch setup and finalization stay serial — they are
// cheap, and serial finalization keeps quarantine writes ordered.
class PartialParallelScheduler final : public OmpScheduler {
 public:
  using OmpScheduler::OmpScheduler;

  void run(RecordExecutor& exec, std::vector<RecordSlot>& slots,
           const stdfs::path& work_dir) override {
    const long long n = static_cast<long long>(slots.size());
    for (RecordSlot& slot : slots) exec.setup_scratch(slot);
    for (const PlannedStage& ps : exec.plan()) {
      if (ps.node->parallel_safe) {
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads_)
        for (long long i = 0; i < n; ++i) {
          exec.run_stage(slots[static_cast<std::size_t>(i)], ps);
        }
      } else {
        for (RecordSlot& slot : slots) exec.run_stage(slot, ps);
      }
    }
    for (RecordSlot& slot : slots) exec.finalize(slot, work_dir);
  }
};

// §VI of the paper: record-level fan-out — each thread takes whole
// records through the entire plan, scratch setup to finalization. The
// response stage's period loop is the nested `omp for` (the runner
// sets SpectrumConfig::response_threads for this driver), so
// max_active_levels must admit two levels.
//
// Records differ in length by up to ~7x within one event (5-19 files,
// 56K-384K points), so the fan-out combines schedule(dynamic, 1) with
// longest-first issue order: sort an index permutation by input size
// descending (record id ascending as the tie-break, so the order is
// deterministic) and let the dynamic schedule keep every thread fed.
// Without the ordering a long record dealt last serializes the tail of
// the run; bench_pipeline's full-driver bench measures the effect (see
// docs/PERF.md). Only the issue order changes — outcomes land in their
// original slots and the report is sorted by id regardless.
class FullParallelScheduler final : public OmpScheduler {
 public:
  using OmpScheduler::OmpScheduler;

  void run(RecordExecutor& exec, std::vector<RecordSlot>& slots,
           const stdfs::path& work_dir) override {
    omp_set_max_active_levels(2);
    const long long n = static_cast<long long>(slots.size());
    const std::vector<std::size_t> order = longest_first_order(slots);
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads_)
    for (long long i = 0; i < n; ++i) {
      exec.run_record(slots[order[static_cast<std::size_t>(i)]], work_dir);
    }
  }
};

// The resident-service driver (docs/SERVE.md): record-level fan-out
// onto the persistent work-stealing WorkPool instead of an OpenMP team.
// Records go out longest-first like the full driver; each record is one
// pool task running the whole per-record chain, and the TaskGroup latch
// waits only for this event's records — several events may batch onto
// the same pool concurrently from different event workers. The nested
// response-period loop stays serial (response_threads=1): under a
// shared pool, intra-record nesting would just fight the record-level
// tasks for the same workers. Outcomes land in their original slots, so
// the canonical report is byte-identical to the sequential drivers'.
class PoolScheduler final : public Scheduler {
 public:
  // One-shot mode (acx_process --driver pool, no shared pool): a
  // transient pool for this run's record and station phases — the
  // resident service wires a process-lifetime pool in instead.
  PoolScheduler(WorkPool* shared, int threads)
      : owned_(shared ? nullptr : std::make_unique<WorkPool>(threads)),
        pool_(shared ? *shared : *owned_) {}

  void run(RecordExecutor& exec, std::vector<RecordSlot>& slots,
           const stdfs::path& work_dir) override {
    WorkPool::TaskGroup group(pool_);
    for (std::size_t idx : longest_first_order(slots)) {
      RecordSlot& slot = slots[idx];
      group.run([&exec, &slot, &work_dir] { exec.run_record(slot, work_dir); });
    }
    group.wait();
  }

  // Station fan-out onto the same pool: one task per eligible station.
  void run_stations(RecordExecutor& exec,
                    std::vector<StationSlot*>& slots) override {
    WorkPool::TaskGroup group(pool_);
    for (StationSlot* slot : slots) {
      group.run([&exec, slot] { exec.run_station(*slot); });
    }
    group.wait();
  }

 private:
  std::unique_ptr<WorkPool> owned_;
  WorkPool& pool_;
};

}  // namespace

int resolve_threads(int requested) {
  return requested > 0 ? requested : omp_get_max_threads();
}

std::unique_ptr<Scheduler> make_scheduler(Driver driver, int threads,
                                          bool keep_going, WorkPool* pool) {
  switch (driver) {
    case Driver::kSequential:
    case Driver::kSequentialOptimized:
      return std::make_unique<SequentialScheduler>(keep_going);
    case Driver::kPartialParallel:
      return std::make_unique<PartialParallelScheduler>(
          resolve_threads(threads));
    case Driver::kFullParallel:
      return std::make_unique<FullParallelScheduler>(resolve_threads(threads));
    case Driver::kPool:
      return std::make_unique<PoolScheduler>(pool, resolve_threads(threads));
  }
  return std::make_unique<SequentialScheduler>(keep_going);
}

}  // namespace acx::pipeline
