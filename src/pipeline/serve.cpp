#include "pipeline/serve.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "formats/v1.hpp"
#include "pipeline/runner.hpp"
#include "pipeline/scheduler.hpp"
#include "pipeline/validate.hpp"
#include "util/bounded_queue.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

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

// Runs one event from a clean slate: its work dir is wiped first (a
// crashed run must not leak partial state into this one), then timed
// through StageRunner::run_event under the job's deadline overrides.
EventOutcome run_event_job(FileSystem& fs, const RunnerConfig& runner,
                           const EventJob& job) {
  EventOutcome out;
  out.event = job.event;
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

}  // namespace

stdfs::path event_work_dir(const stdfs::path& work_root,
                           const std::string& event, int shards) {
  std::string shard = "s";
  shard += std::to_string(fnv1a64(event) %
                          static_cast<std::uint64_t>(std::max(shards, 1)));
  return work_root / "events" / shard / event;
}

// The event engine (docs/SERVE.md, "The event engine"): admit -> bounded
// priority queue -> event workers -> serve_one (a fresh-slate run, its
// outcome and its done/ audit). Its own calls (admit, start, drain)
// come from run()'s thread. The workers start on start(), on an admit()
// that finds the queue full, or on drain(): until then admitted jobs
// only queue, so run() can admit a whole burst before the first job
// runs and priority orders all of it.
class SpoolServer::Engine {
 public:
  explicit Engine(SpoolServer& server)
      : server_(server),
        team_size_(std::max(server.cfg_.event_workers, 1)),
        queue_(server.cfg_.queue_capacity, Less{server.cfg_.priority}) {}
  ~Engine() { drain(); }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Starts the workers; later calls do nothing.
  void start() {
    if (!workers_.empty()) return;
    workers_.reserve(static_cast<std::size_t>(team_size_));
    for (int w = 0; w < team_size_; ++w) {
      workers_.emplace_back([this] {
        while (auto job = queue_.pop()) {
          in_flight_.fetch_add(1);
          server_.serve_one(*job);
          in_flight_.fetch_sub(1);
        }
      });
    }
  }

  // Sets the job's work dir and queues it; blocks while the queue is
  // full. False once the engine is drained (the job is not admitted).
  bool admit(EventJob job) {
    job.work_dir =
        event_work_dir(server_.work_root_, job.event, server_.cfg_.shards);
    // A full queue only drains through the workers.
    if (queue_.size() >= queue_.capacity()) start();
    return queue_.push(std::move(job)) == QueuePushResult::kAccepted;
  }

  // Stops admission, lets the workers finish every queued job, joins.
  void drain() {
    start();  // the queued jobs still run
    queue_.close();
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }
  }

  int workers() const { return team_size_; }
  std::size_t queue_depth() const { return queue_.size(); }
  long long in_flight() const { return in_flight_.load(); }
  bool idle() const { return queue_depth() == 0 && in_flight() == 0; }

 private:
  struct Less {  // "a ranks below b"; ties stay FIFO in the queue
    ServeConfig::Priority priority;
    bool operator()(const EventJob& a, const EventJob& b) const {
      using P = ServeConfig::Priority;
      if (priority == P::kLargest) return a.priority_bytes < b.priority_bytes;
      if (priority == P::kSmallest) return a.priority_bytes > b.priority_bytes;
      return false;  // fifo: equal priority everywhere
    }
  };

  SpoolServer& server_;
  const int team_size_;
  BoundedPriorityQueue<EventJob, Less> queue_;
  std::atomic<long long> in_flight_{0};
  std::vector<std::thread> workers_;
};

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

bool SpoolServer::claim(Engine& engine, const stdfs::path& manifest) {
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
  const EventOutcome out = run_event_job(fs_, cfg_.runner, job);
  record_completion(out);
  // A run that failed as a whole wrote no run report: its note in done/
  // keeps the reason, written like the rejected/ notes. A run that
  // succeeded clears the note an earlier failed run left.
  const stdfs::path note = done_ / (job.manifest + ".reason");
  if (!out.error.empty()) {
    (void)retry_io<Unit>(cfg_.runner, [&] {
      return atomic_write_file(fs_, note, out.error + "\n");
    });
  } else if (fs_.exists(note)) {
    (void)retry_io<Unit>(cfg_.runner, [&] { return fs_.remove_all(note); });
  }
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

  Engine engine(*this);
  engine_ = &engine;

  // The request stream: scan, claim by atomic rename, parse, admit.
  double idle_since = steady_now_seconds();
  bool admitting = true;
  for (;;) {
    std::vector<stdfs::path> manifests;
    bool scanned = false;
    if (admitting) {
      auto listed = retry_io<std::vector<stdfs::path>>(
          cfg_.runner, [&] { return fs_.list_dir(spool_); });
      scanned = listed.ok();
      for (const stdfs::path& p : listed.value_or({})) {
        if (p.extension() == kManifestExtension) manifests.push_back(p);
      }
      if (!scanned) {
        // A storage hiccup on the scan path must not kill the service:
        // count it and scan again on the next poll.
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.scan_errors;
      }
    }

    bool claimed = false;
    for (const stdfs::path& manifest : manifests) {
      // max_events can trip mid-scan; the rest of this scan's manifests
      // stay unclaimed in the spool root for the next service instance.
      if (!admitting) break;
      if (!claim(engine, manifest)) continue;
      claimed = true;
      idle_since = steady_now_seconds();
      std::lock_guard<std::mutex> lock(stats_mu_);
      admitting = cfg_.max_events <= 0 || stats_.admitted < cfg_.max_events;
    }
    // A scan that claimed something is followed by another at once, so a
    // burst that fits the queue is claimed whole before the loop first
    // sleeps and the workers start: they find it all queued, in priority
    // order, and no spool touch of this thread interleaves with it.
    if (claimed && admitting) continue;

    if (!admitting && engine.idle()) {
      break;  // max_events reached and everything drained
    }
    if (scanned && manifests.empty()) {
      // The sentinel is only honored once the spool is visibly empty,
      // so "drop N manifests, then the sentinel" admits all N first.
      if (fs_.exists(spool_ / kServeShutdownSentinel)) break;
      if (cfg_.idle_exit_seconds > 0 && engine.idle() &&
          steady_now_seconds() - idle_since >= cfg_.idle_exit_seconds) {
        break;
      }
    } else if (!manifests.empty()) {
      idle_since = steady_now_seconds();
    }
    engine.start();
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

Result<std::vector<EventJob>, IoError> discover_events(
    FileSystem& fs, const RunnerConfig& runner, const stdfs::path& root) {
  auto tree = retry_io<std::vector<stdfs::path>>(
      runner, [&] { return fs.list_tree(root); });
  if (!tree.ok()) return std::move(tree).take_error();

  std::map<std::string, EventJob> events;
  for (const stdfs::path& p : tree.value()) {
    if (p.extension() != formats::kV1Extension) continue;
    const stdfs::path dir = p.parent_path();
    std::string id = dir.lexically_relative(root).generic_string();
    if (id.empty() || id == ".") id = "root";
    std::replace(id.begin(), id.end(), '/', '_');
    EventJob& job = events[id];
    if (job.event.empty()) {
      job.event = id;
      job.input_dir = dir;
    } else if (job.input_dir != dir) {
      return IoError{IoError::Code::kEventIdCollision, ErrorClass::kPoison,
                     root.string(),
                     "directories '" + job.input_dir.string() + "' and '" +
                         dir.string() + "' both flatten to event id '" + id +
                         "'"};
    }
    job.priority_bytes += fs.file_size(p);
  }

  std::vector<EventJob> out;
  out.reserve(events.size());
  for (auto& [id, job] : events) out.push_back(std::move(job));
  return out;
}

Result<TreeSpool, IoError> spool_tree(FileSystem& fs, const ServeConfig& cfg,
                                      const stdfs::path& root,
                                      const stdfs::path& spool,
                                      const stdfs::path& work_root) {
  auto events = discover_events(fs, cfg.runner, root);
  if (!events.ok()) return std::move(events).take_error();
  const stdfs::path claimed = spool / "claimed";
  auto made = create_dirs(fs, cfg.runner, {claimed});
  if (!made.ok()) return std::move(made).take_error();
  auto claims = retry_io<std::vector<stdfs::path>>(
      cfg.runner, [&] { return fs.list_tree(claimed); });
  if (!claims.ok()) return std::move(claims).take_error();
  std::set<stdfs::path> held;
  for (const stdfs::path& p : claims.value()) held.insert(p.filename());

  TreeSpool out;
  for (const EventJob& job : events.value()) {
    const std::string name = job.event + kManifestExtension;
    if (held.count(name) > 0) continue;
    if (fs.exists(spool / "done" / name)) {
      const ValidationSummary done = validate_workdir(
          fs, event_work_dir(work_root, job.event, cfg.shards));
      if (done.clean()) {
        out.done.emplace_back(job.event, done.status);
        continue;
      }
    }
    Json manifest = Json::object();
    manifest.set("event", job.event);
    // Absolute, so a restart from another directory reads the same input.
    std::error_code ec;
    const stdfs::path input = stdfs::absolute(job.input_dir, ec);
    manifest.set("input", (ec ? job.input_dir : input).string());
    manifest.set("priority_bytes", static_cast<double>(job.priority_bytes));
    // atomic_write_file stages under a name the scan never matches.
    auto wrote = retry_io<Unit>(cfg.runner, [&] {
      return atomic_write_file(fs, spool / name, manifest.dump(2));
    });
    if (!wrote.ok()) return std::move(wrote).take_error();
    out.spooled.push_back(job.event);
  }
  auto sentinel = retry_io<Unit>(cfg.runner, [&] {
    return fs.write_file(spool / kServeShutdownSentinel, "");
  });
  if (!sentinel.ok()) return std::move(sentinel).take_error();
  return out;
}

}  // namespace acx::pipeline
