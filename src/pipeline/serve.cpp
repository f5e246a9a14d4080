#include "pipeline/serve.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "pipeline/scheduler.hpp"
#include "util/clock.hpp"

namespace acx::pipeline {

namespace stdfs = std::filesystem;

namespace {

constexpr std::size_t kTrajectoryCap = 256;
constexpr const char* kManifestExtension = ".json";

bool valid_event_id(const std::string& id) {
  if (id.empty() || id.size() > 128 || id.front() == '.') return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Json sample_to_json(const ServeEventSample& s) {
  Json j = Json::object();
  j.set("index", static_cast<double>(s.index));
  j.set("event", s.event);
  j.set("status", s.status);
  j.set("hits", static_cast<double>(s.hits));
  j.set("misses", static_cast<double>(s.misses));
  j.set("hit_rate", s.hit_rate);
  j.set("seconds", s.seconds);
  return j;
}

// A non-blocking flock(2) on a claim dir's owner.lock. The owner holds
// it for its whole lifetime and the kernel drops it when the process
// dies, so whoever can take it knows the owner is dead — whatever pid
// it had. Liveness needs a kernel-held lock, so this is the one spool
// touch that bypasses FileSystem.
class OwnerLock {
 public:
  OwnerLock(const stdfs::path& path, bool create)
      : fd_(::open(path.c_str(), O_RDWR | O_CLOEXEC | (create ? O_CREAT : 0),
                   0644)) {
    if (fd_ >= 0 && ::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
      ::close(std::exchange(fd_, -1));
    }
  }
  ~OwnerLock() {
    if (fd_ >= 0) ::close(fd_);
  }
  OwnerLock(const OwnerLock&) = delete;
  OwnerLock& operator=(const OwnerLock&) = delete;
  bool held() const { return fd_ >= 0; }

 private:
  int fd_;
};

// Unique per service instance: the pid alone could name a dead
// instance's claim dir after pid reuse.
std::string owner_id() {
  return std::to_string(::getpid()) + "-" +
         std::to_string(
             std::chrono::system_clock::now().time_since_epoch().count());
}

}  // namespace

Json ServeStats::to_json() const {
  Json root = Json::object();
  root.set("version", kVersion);
  root.set("uptime_seconds", uptime_seconds);
  root.set("driver", driver);
  root.set("threads", threads);
  root.set("event_workers", event_workers);

  Json queue = Json::object();
  queue.set("capacity", static_cast<double>(queue_capacity));
  queue.set("depth", static_cast<double>(queue_depth));
  root.set("queue", std::move(queue));

  Json events = Json::object();
  events.set("admitted", static_cast<double>(admitted));
  events.set("served", static_cast<double>(served));
  events.set("ok", static_cast<double>(ok));
  events.set("degraded", static_cast<double>(degraded));
  events.set("quarantined", static_cast<double>(quarantined));
  events.set("malformed", static_cast<double>(malformed));
  events.set("duplicates", static_cast<double>(duplicates));
  events.set("in_flight", static_cast<double>(in_flight));
  root.set("events", std::move(events));

  Json records = Json::object();
  records.set("ok", static_cast<double>(records_ok));
  records.set("degraded", static_cast<double>(records_degraded));
  records.set("quarantined", static_cast<double>(records_quarantined));
  root.set("records", std::move(records));
  root.set("points", static_cast<double>(points));

  Json sustained = Json::object();
  const double up = uptime_seconds > 0 ? uptime_seconds : 0;
  sustained.set("events_per_second", up > 0 ? served / up : 0.0);
  sustained.set("records_per_second", up > 0 ? records_ok / up : 0.0);
  sustained.set("points_per_second", up > 0 ? points / up : 0.0);
  root.set("sustained", std::move(sustained));

  Json plan = Json::object();
  plan.set("cumulative_hits", static_cast<double>(cache_hits));
  plan.set("cumulative_misses", static_cast<double>(cache_misses));
  plan.set("first_event", sample_to_json(first_event));
  plan.set("last_event", sample_to_json(last_event));
  Json traj = Json::array();
  for (const ServeEventSample& s : trajectory) traj.push(sample_to_json(s));
  plan.set("trajectory", std::move(traj));
  root.set("plan_cache", std::move(plan));

  Json jp = Json::object();
  jp.set("threads", pool_threads);
  jp.set("executed", static_cast<double>(pool.executed));
  jp.set("steals", static_cast<double>(pool.steals));
  jp.set("stolen_tasks", static_cast<double>(pool.stolen_tasks));
  jp.set("injector_takes", static_cast<double>(pool.injector_takes));
  jp.set("overflow", static_cast<double>(pool.overflow));
  jp.set("parks", static_cast<double>(pool.parks));
  jp.set("wakes", static_cast<double>(pool.wakes));
  jp.set("inline_runs", static_cast<double>(pool.inline_runs));
  root.set("pool", std::move(jp));

  root.set("breaker", breaker_to_json(breaker));

  Json health = Json::object();
  health.set("scan_errors", static_cast<double>(scan_errors));
  health.set("stats_write_failures", static_cast<double>(stats_write_failures));
  root.set("health", std::move(health));
  return root;
}

SpoolServer::SpoolServer(FileSystem& fs, ServeConfig config)
    : fs_(fs), cfg_(std::move(config)) {
  if (cfg_.stats_every < 1) cfg_.stats_every = 1;
  if (cfg_.poll_ms < 1) cfg_.poll_ms = 1;
  // The record fan-out of every event lands on the shared pool.
  cfg_.runner.pool = cfg_.pool;
}

EventJob SpoolServer::parse_manifest(const std::string& name,
                                     const std::string& text,
                                     std::string& error) const {
  EventJob job;
  job.manifest = name;
  auto parsed = Json::parse(text);
  if (!parsed.ok()) {
    error = "not valid JSON at byte " + std::to_string(parsed.error().offset);
    return job;
  }
  const Json doc = std::move(parsed).take();
  if (!doc.is_object()) {
    error = "manifest root is not an object";
    return job;
  }
  const std::string event = doc.get_string("event");
  if (!valid_event_id(event)) {
    error = "missing or invalid event id";
    return job;
  }
  const std::string input = doc.get_string("input");
  if (input.empty()) {
    error = "missing input directory";
    return job;
  }
  job.priority_bytes =
      static_cast<std::uintmax_t>(std::max(0.0, doc.get_number("priority_bytes", 0)));
  job.deadline_soft_s = doc.get_number("deadline_soft_s", -1);
  job.deadline_hard_s = doc.get_number("deadline_hard_s", -1);
  job.input_dir = input;
  job.event = event;  // set last: non-empty event == parsed successfully
  return job;
}

bool SpoolServer::claim(EventEngine& engine, const stdfs::path& manifest) {
  const std::string name = manifest.filename().string();
  // Claiming is the atomic handoff: whoever renames the manifest out of
  // the spool root owns it. A failed rename (producer still writing via
  // tmp/, or a racing claimer) is retried on the next scan.
  if (!fs_.rename(manifest, mine_ / name).ok()) return false;
  auto text = retry_io<std::string>(
      cfg_.runner, [&] { return fs_.read_file(mine_ / name); });
  std::string error = "unreadable manifest";
  EventJob job =
      text.ok() ? parse_manifest(name, text.value(), error) : EventJob{};
  bool duplicate = false;
  if (!job.event.empty()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    duplicate = !seen_events_.insert(job.event).second;
  }
  if (job.event.empty() || duplicate) {
    reject(name, duplicate ? "duplicate event id: " + job.event : error,
           duplicate);
    return false;
  }
  // Backpressure: blocks while queue_capacity events are pending.
  if (!engine.admit(std::move(job))) return false;
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.admitted;
  return true;
}

void SpoolServer::reject(const std::string& name, const std::string& why,
                         bool duplicate) {
  // Retried, and the note written atomically, like every other storage
  // touch: a transient fault must neither strand the manifest in
  // claimed/ nor tear its note.
  (void)retry_io<Unit>(cfg_.runner, [&] {
    return fs_.rename(mine_ / name, rejected_ / name);
  });
  (void)retry_io<Unit>(cfg_.runner, [&] {
    return atomic_write_file(fs_, rejected_ / (name + ".reason"), why + "\n");
  });
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++(duplicate ? stats_.duplicates : stats_.malformed);
}

void SpoolServer::serve_one(const EventJob& job) {
  record_completion(run_event_job(fs_, cfg_.runner, job));
  // Manifest audit trail: claimed -> done once the event is reported.
  (void)retry_io<Unit>(cfg_.runner, [&] {
    return fs_.rename(mine_ / job.manifest, done_ / job.manifest);
  });
}

void SpoolServer::hand_back(const stdfs::path& owner_dir) {
  auto listed = retry_io<std::vector<stdfs::path>>(
      cfg_.runner, [&] { return fs_.list_dir(owner_dir); });
  bool emptied = listed.ok();
  for (const stdfs::path& p : listed.value_or({})) {
    if (p.extension() != kManifestExtension) continue;
    emptied &= retry_io<Unit>(cfg_.runner, [&] {
                 return fs_.rename(p, spool_ / p.filename());
               }).ok();
  }
  if (emptied) {
    (void)retry_io<Unit>(cfg_.runner,
                         [&] { return fs_.remove_all(owner_dir); });
  }
}

void SpoolServer::record_completion(const EventOutcome& out) {
  bool write = false;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.served;
    if (out.status == "ok") ++stats_.ok;
    else if (out.status == "degraded") ++stats_.degraded;
    else ++stats_.quarantined;
    stats_.records_ok += out.records_ok;
    stats_.records_degraded += out.records_degraded;
    stats_.records_quarantined += out.records_quarantined;
    stats_.points += out.points;
    stats_.cache_hits += out.cache_hits;
    stats_.cache_misses += out.cache_misses;

    const long long touched = out.cache_hits + out.cache_misses;
    const ServeEventSample sample{
        stats_.served, out.event, out.status, out.cache_hits, out.cache_misses,
        touched > 0 ? static_cast<double>(out.cache_hits) / touched : 0,
        out.seconds};
    if (stats_.served == 1) stats_.first_event = sample;
    stats_.last_event = sample;
    // Downsampled trajectory: keep every stride-th completion; once the
    // cap is hit, halve the resolution (drop every other kept row and
    // double the stride), so a million-event service still carries a
    // bounded, evenly spaced amortization curve.
    if ((sample.index - 1) % trajectory_stride_ == 0) {
      if (stats_.trajectory.size() >= kTrajectoryCap) {
        std::vector<ServeEventSample> thinned;
        thinned.reserve(kTrajectoryCap / 2 + 1);
        for (std::size_t i = 0; i < stats_.trajectory.size(); i += 2) {
          thinned.push_back(stats_.trajectory[i]);
        }
        stats_.trajectory = std::move(thinned);
        trajectory_stride_ *= 2;
        if ((sample.index - 1) % trajectory_stride_ == 0) {
          stats_.trajectory.push_back(sample);
        }
      } else {
        stats_.trajectory.push_back(sample);
      }
    }
    write = stats_.served % cfg_.stats_every == 0;
  }
  if (write) (void)write_stats(snapshot());
}

ServeStats SpoolServer::snapshot() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ServeStats snap = stats_;
  snap.uptime_seconds = steady_now_seconds() - started_at_;
  snap.driver = to_string(cfg_.runner.driver);
  snap.threads = cfg_.pool ? cfg_.pool->thread_count()
                           : resolve_threads(cfg_.runner.threads);
  snap.event_workers = engine_->workers();
  snap.queue_capacity = cfg_.queue_capacity;
  snap.queue_depth = engine_->queue_depth();
  snap.in_flight = engine_->in_flight();
  if (cfg_.pool) {
    snap.pool_threads = cfg_.pool->thread_count();
    snap.pool = cfg_.pool->stats();
  }
  snap.breaker = breaker_.delta();
  return snap;
}

Result<Unit, IoError> SpoolServer::write_stats(const ServeStats& snap) {
  const std::string body = snap.dump();
  auto wrote = retry_io<Unit>(cfg_.runner, [&] {
    return atomic_write_file(fs_, work_root_ / kServeStatsFileName, body);
  });
  if (!wrote.ok()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.stats_write_failures;  // absorbed; the next completion retries
  }
  return wrote;
}

Result<ServeStats, IoError> SpoolServer::run(const stdfs::path& spool,
                                             const stdfs::path& work_root) {
  spool_ = spool;
  claimed_ = spool / "claimed";
  rejected_ = spool / "rejected";
  done_ = spool / "done";
  work_root_ = work_root;
  started_at_ = steady_now_seconds();
  breaker_ = storage::BreakerWindow(cfg_.runner.breaker);
  auto made = create_dirs(fs_, cfg_.runner,
                          {spool_ / "tmp", claimed_, rejected_, done_,
                           work_root_ / "events"});
  if (!made.ok()) return std::move(made).take_error();

  // Crash contract, once at startup: a claim dir whose owner lock can be
  // taken belongs to a dead instance, so its manifests go back to the
  // spool root and are claimed again below. A live peer's lock refuses,
  // and its claims stay untouched.
  auto claims = retry_io<std::vector<stdfs::path>>(
      cfg_.runner, [&] { return fs_.list_tree(claimed_); });
  if (!claims.ok()) return std::move(claims).take_error();
  for (const stdfs::path& p : claims.value()) {
    if (p.filename() != kClaimLockFileName ||
        p.parent_path().parent_path() != claimed_) {
      continue;
    }
    if (OwnerLock dead(p, /*create=*/false); dead.held()) {
      hand_back(p.parent_path());
    }
  }

  // This instance's claim dir is staged in tmp/ with its lock already
  // held, then renamed in: no peer ever sees it unlocked, not even while
  // this instance is starting.
  const std::string owner = owner_id();
  const stdfs::path staging = spool_ / "tmp" / ("." + owner);
  mine_ = claimed_ / owner;
  made = create_dirs(fs_, cfg_.runner, {staging});
  if (!made.ok()) return std::move(made).take_error();
  const OwnerLock alive(staging / kClaimLockFileName, /*create=*/true);
  if (!alive.held()) {
    return IoError{IoError::Code::kOpenFailed, ErrorClass::kPoison,
                   (staging / kClaimLockFileName).string(),
                   "cannot lock the claim dir"};
  }
  made = retry_io<Unit>(cfg_.runner,
                        [&] { return fs_.rename(staging, mine_); });
  if (!made.ok()) return std::move(made).take_error();

  EventEngine engine(cfg_, work_root_, cfg_.event_workers,
                     [this](const EventJob& job) { serve_one(job); });
  engine_ = &engine;

  // The request stream: scan, claim by atomic rename, parse, admit.
  double idle_since = steady_now_seconds();
  bool admitting = true;
  for (;;) {
    std::vector<stdfs::path> manifests;
    if (admitting) {
      auto listed = fs_.list_dir(spool_);
      if (listed.ok()) {
        for (const stdfs::path& p : listed.value()) {
          if (p.extension() == kManifestExtension) manifests.push_back(p);
        }
      } else {
        // A storage hiccup on the scan path must not kill the service:
        // count it and retry on the next poll.
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.scan_errors;
      }
    }

    for (const stdfs::path& manifest : manifests) {
      // max_events can trip mid-scan; the rest of this scan's manifests
      // stay unclaimed in the spool root for the next service instance.
      if (!admitting) break;
      if (!claim(engine, manifest)) continue;
      idle_since = steady_now_seconds();
      std::lock_guard<std::mutex> lock(stats_mu_);
      admitting = cfg_.max_events <= 0 || stats_.admitted < cfg_.max_events;
    }

    if (!admitting && engine.idle()) {
      break;  // max_events reached and everything drained
    }
    if (manifests.empty()) {
      // The sentinel is only honored once the spool is visibly empty,
      // so "drop N manifests, then the sentinel" admits all N first.
      if (fs_.exists(spool_ / kServeShutdownSentinel)) break;
      if (cfg_.idle_exit_seconds > 0 && engine.idle() &&
          steady_now_seconds() - idle_since >= cfg_.idle_exit_seconds) {
        break;
      }
    } else {
      idle_since = steady_now_seconds();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg_.poll_ms));
  }

  // Drain: stop admission, let the workers finish every queued event.
  engine.drain();

  // Consume the sentinel so the next serve run does not instantly exit.
  if (fs_.exists(spool_ / kServeShutdownSentinel)) {
    (void)fs_.remove_all(spool_ / kServeShutdownSentinel);
  }
  // Every claim has reached done/ or rejected/; anything a failed rename
  // stranded goes back to the spool root for the next instance.
  hand_back(mine_);

  const ServeStats final_stats = snapshot();
  engine_ = nullptr;
  auto wrote = write_stats(final_stats);
  if (!wrote.ok()) return std::move(wrote).take_error();
  return final_stats;
}

}  // namespace acx::pipeline
