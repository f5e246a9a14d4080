#pragma once

#include <filesystem>
#include <memory>
#include <vector>

#include "pipeline/config.hpp"
#include "pipeline/executor.hpp"

namespace acx::pipeline {

// A scheduling policy over the shared execution machinery: every
// driver runs the same plan objects through the same RecordExecutor;
// they differ only in which loop fans out and where the barriers sit.
// run() must leave every processed slot finalized (outcome complete);
// slots left unprocessed (fail-fast stop) are excluded from the report.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual void run(RecordExecutor& exec, std::vector<RecordSlot>& slots,
                   const std::filesystem::path& work_dir) = 0;

  // The station phase: runs after every record slot has finalized, over
  // the slots the runner deemed eligible. The default is serial (the
  // sequential drivers); the parallel drivers fan stations out the way
  // they fan records. Outputs are bit-identical either way — the rotd
  // kernel's cell blocks are static-scheduled and write disjoint cells.
  virtual void run_stations(RecordExecutor& exec,
                            std::vector<StationSlot*>& slots) {
    for (StationSlot* slot : slots) exec.run_station(*slot);
  }
};

// The team size a parallel driver will actually use: `requested` when
// positive, the OpenMP default (all hardware threads) when 0.
int resolve_threads(int requested);

// The driver's scheduler. `threads` only matters for the parallel
// drivers; `keep_going=false` only matters for the sequential ones
// (the parallel drivers have no serial notion of "first failure" and
// always keep going). `pool` is the resident WorkPool the kPool driver
// dispatches onto — null makes PoolScheduler own a transient pool of
// `threads` workers for the duration of the run.
std::unique_ptr<Scheduler> make_scheduler(Driver driver, int threads,
                                          bool keep_going,
                                          WorkPool* pool = nullptr);

}  // namespace acx::pipeline
