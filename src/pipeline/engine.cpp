#include "pipeline/engine.hpp"

#include <algorithm>

#include "pipeline/runner.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace acx::pipeline {

namespace stdfs = std::filesystem;

EventOutcome run_event_job(FileSystem& fs, const RunnerConfig& runner,
                           const EventJob& job) {
  EventOutcome out;
  out.event = job.event;
  out.work_dir = job.work_dir.string();
  (void)fs.remove_all(job.work_dir);

  RunnerConfig cfg = runner;
  if (job.deadline_soft_s >= 0) cfg.deadline.soft_seconds = job.deadline_soft_s;
  if (job.deadline_hard_s >= 0) cfg.deadline.hard_seconds = job.deadline_hard_s;
  const double started = steady_now_seconds();
  auto report = StageRunner(fs, cfg).run_event(job.input_dir, job.work_dir);
  out.seconds = steady_now_seconds() - started;
  if (!report.ok()) {
    // Run-level failure (input dir unusable, report unwritable): the
    // event is reported quarantined as a whole — counted, never lost.
    out.status = "quarantined";
    out.error = reason_slug(report.error());
    return out;
  }
  const RunReport& r = report.value();
  out.status = r.status();
  out.records_ok = r.count_ok();
  out.records_degraded = r.count_degraded();
  out.records_quarantined = r.count_quarantined();
  out.points = r.total_points();
  for (const auto& [stage, profile] : r.stage_profile()) {
    out.cache_hits += profile.cache_hits;
    out.cache_misses += profile.cache_misses;
  }
  return out;
}

EventEngine::EventEngine(const EngineConfig& cfg, stdfs::path work_root,
                         int workers, Handler handle)
    : work_root_(std::move(work_root)),
      shards_(std::max(cfg.shards, 1)),
      handle_(std::move(handle)),
      queue_(cfg.queue_capacity, Less{cfg.priority}) {
  workers = std::max(workers, 1);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this] {
      while (auto job = queue_.pop()) {
        in_flight_.fetch_add(1);
        handle_(*job);
        in_flight_.fetch_sub(1);
      }
    });
  }
}

bool EventEngine::admit(EventJob job) {
  std::string shard = "s";
  shard += std::to_string(fnv1a64(job.event) %
                          static_cast<std::uint64_t>(shards_));
  job.work_dir = work_root_ / "events" / shard / job.event;
  return queue_.push(std::move(job)) == QueuePushResult::kAccepted;
}

void EventEngine::drain() {
  queue_.close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace acx::pipeline
