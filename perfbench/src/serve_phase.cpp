#include "serve_phase.hpp"

#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "pipeline/report.hpp"
#include "pipeline/serve.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/work_pool.hpp"

namespace perfbench {

namespace stdfs = std::filesystem;
namespace pl = acx::pipeline;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_s(double t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(t))));
}

// Watches one directory for files moved or created into it and stamps
// each name with the steady-clock time the watcher woke up for it.
class DoneWatcher {
 public:
  explicit DoneWatcher(const stdfs::path& dir) {
    fd_ = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (fd_ < 0) throw std::runtime_error("inotify_init1 failed");
    if (::inotify_add_watch(fd_, dir.c_str(), IN_MOVED_TO | IN_CREATE) < 0) {
      ::close(fd_);
      throw std::runtime_error("inotify_add_watch failed on " + dir.string());
    }
    thread_ = std::thread([this] { loop(); });
  }
  ~DoneWatcher() {
    stop_.store(true);
    thread_.join();
    ::close(fd_);
  }
  DoneWatcher(const DoneWatcher&) = delete;
  DoneWatcher& operator=(const DoneWatcher&) = delete;

  // True when every name was seen before the timeout.
  bool wait_all(const std::vector<std::string>& names, double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), [&] {
      return std::all_of(names.begin(), names.end(), [&](const std::string& n) {
        return seen_.count(n) > 0;
      });
    });
  }

  double seen_at(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = seen_.find(name);
    return it == seen_.end() ? std::numeric_limits<double>::quiet_NaN()
                             : it->second;
  }

 private:
  void loop() {
    alignas(inotify_event) char buf[16384];
    while (!stop_.load()) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) continue;
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      const double t = now_s();
      if (n <= 0) continue;
      std::lock_guard<std::mutex> lock(mu_);
      for (ssize_t off = 0; off < n;) {
        const auto* ev = reinterpret_cast<const inotify_event*>(buf + off);
        if (ev->len > 0) seen_.emplace(ev->name, t);
        off += static_cast<ssize_t>(sizeof(inotify_event) + ev->len);
      }
      cv_.notify_all();
    }
  }

  int fd_ = -1;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, double> seen_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// One resident service: pool + server + the thread running it. stop()
// raises the shutdown sentinel and joins; the destructor does the same.
class Service {
 public:
  Service(acx::FileSystem& fs, const stdfs::path& spool,
          const stdfs::path& work_root, const pl::RunnerConfig& runner)
      : fs_(fs),
        spool_(spool),
        pool_(kPoolThreads),
        server_(fs, config(runner, &pool_)),
        thread_([this, work_root] {
          auto r = server_.run(spool_, work_root);
          ran_ok_ = r.ok();
        }) {}
  ~Service() { stop(); }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  bool stop() {
    if (thread_.joinable()) {
      (void)fs_.write_file(spool_ / pl::kServeShutdownSentinel, "");
      thread_.join();
    }
    return ran_ok_;
  }

 private:
  static pl::ServeConfig config(const pl::RunnerConfig& runner,
                                acx::WorkPool* pool) {
    pl::ServeConfig cfg;
    cfg.runner = runner;
    cfg.runner.driver = pl::Driver::kPool;
    cfg.event_workers = kEventWorkers;
    cfg.poll_ms = kPollMs;
    cfg.pool = pool;
    return cfg;
  }

  acx::FileSystem& fs_;
  stdfs::path spool_;
  acx::WorkPool pool_;
  pl::SpoolServer server_;
  bool ran_ok_ = false;
  std::thread thread_;
};

void make_spool(acx::FileSystem& fs, const stdfs::path& spool) {
  for (const char* sub : {"tmp", "claimed", "done", "rejected"}) {
    auto made = fs.create_directories(spool / sub);
    if (!made.ok()) throw std::runtime_error(made.error().to_string());
  }
}

std::string manifest_name(const std::string& event) { return event + ".json"; }

// Stages a manifest in <spool>/tmp; publish() renames it into the spool.
void stage_manifest(acx::FileSystem& fs, const stdfs::path& spool,
                    const std::string& event, const stdfs::path& input) {
  acx::Json m = acx::Json::object();
  m.set("event", event);
  m.set("input", stdfs::absolute(input).string());
  auto wrote = fs.write_file(spool / "tmp" / manifest_name(event), m.dump());
  if (!wrote.ok()) throw std::runtime_error(wrote.error().to_string());
}

void publish(acx::FileSystem& fs, const stdfs::path& spool,
             const std::string& event) {
  const std::string name = manifest_name(event);
  auto moved = fs.rename(spool / "tmp" / name, spool / name);
  if (!moved.ok()) throw std::runtime_error(moved.error().to_string());
}

stdfs::path event_work_dir(const stdfs::path& work_root,
                           const std::string& event) {
  const auto shards = static_cast<std::uint64_t>(pl::ServeConfig{}.shards);
  std::string shard = "s";
  shard += std::to_string(acx::fnv1a64(event) % shards);
  return work_root / "events" / shard / event;
}

// Checks one served event; returns its service time (NaN if unusable).
double check_served(acx::FileSystem& fs, const stdfs::path& work_root,
                    const std::string& event, const stdfs::path& input,
                    std::map<std::string, std::string>& canonical,
                    Tally& tally) {
  const stdfs::path dir = event_work_dir(work_root, event);
  auto text = fs.read_file(dir / pl::kRunReportFileName);
  auto report = text.ok() ? pl::RunReport::from_json_text(text.value())
                          : acx::Result<pl::RunReport, std::string>(
                                std::string("missing run report"));
  tally.count(report.ok(), event + ": " +
                               (report.ok() ? std::string() : report.error()));
  if (!report.ok()) return std::numeric_limits<double>::quiet_NaN();
  check_event(fs, dir, report.value(), input.string(), canonical, tally);
  return report.value().total_seconds;
}

}  // namespace

void run_serve(acx::FileSystem& fs, const stdfs::path& root,
               const std::vector<stdfs::path>& inputs,
               const pl::RunnerConfig& runner, const ServeShape& shape,
               std::map<std::string, std::string>& canonical,
               Tally& tally, ServeResult& out) {
  const stdfs::path spool = root / "spool";
  const stdfs::path work_root = root / "work";
  make_spool(fs, spool);
  DoneWatcher done(spool / "done");

  auto input_of = [&](int i) {
    return inputs[static_cast<std::size_t>(i) % inputs.size()];
  };
  char name[32];
  std::vector<std::string> trickle, swarm;
  std::vector<double> due;
  {
    Service service(fs, spool, work_root, runner);

    // Open loop: event i is due at start + i / rate, whether or not the
    // earlier ones finished.
    for (int i = 0; i < shape.trickle_events; ++i) {
      std::snprintf(name, sizeof name, "tr%05d", i);
      trickle.emplace_back(name);
      stage_manifest(fs, spool, trickle.back(), input_of(i));
    }
    const double start = now_s() + 0.05;
    for (int i = 0; i < shape.trickle_events; ++i) {
      due.push_back(start + i / shape.trickle_rate);
      sleep_until_s(due.back());
      publish(fs, spool, trickle[static_cast<std::size_t>(i)]);
      out.gen_lag_max = std::max(out.gen_lag_max, now_s() - due.back());
    }
    std::vector<std::string> names;
    for (const std::string& e : trickle) names.push_back(manifest_name(e));
    tally.count(done.wait_all(names, 60), "serve: trickle did not complete");

    // Swarm: the whole backlog appears at once.
    for (int i = 0; i < shape.swarm_events; ++i) {
      std::snprintf(name, sizeof name, "sw%05d", i);
      swarm.emplace_back(name);
      stage_manifest(fs, spool, swarm.back(), input_of(i));
    }
    const double swarm_start = now_s();
    for (const std::string& e : swarm) publish(fs, spool, e);
    names.clear();
    for (const std::string& e : swarm) names.push_back(manifest_name(e));
    tally.count(done.wait_all(names, 90), "serve: swarm did not complete");
    double last = swarm_start;
    for (const std::string& n : names) last = std::max(last, done.seen_at(n));
    out.swarm_seconds += last - swarm_start;
    out.swarm_events += shape.swarm_events;

    tally.count(service.stop(), "serve: SpoolServer::run failed");
  }

  for (std::size_t i = 0; i < trickle.size(); ++i) {
    const double seen = done.seen_at(manifest_name(trickle[i]));
    const double service_s =
        check_served(fs, work_root, trickle[i], input_of(static_cast<int>(i)),
                     canonical, tally);
    tally.count(!std::isnan(seen), trickle[i] + ": not completed");
    if (std::isnan(seen) || std::isnan(service_s)) continue;
    out.latency.push_back(seen - due[i]);
    out.service.push_back(service_s);
    out.wait.push_back(seen - due[i] - service_s);
  }
  for (std::size_t i = 0; i < swarm.size(); ++i) {
    (void)check_served(fs, work_root, swarm[i], input_of(static_cast<int>(i)),
                       canonical, tally);
    tally.count(!std::isnan(done.seen_at(manifest_name(swarm[i]))),
                swarm[i] + ": not completed");
  }

  auto text = fs.read_file(work_root / pl::kServeStatsFileName);
  auto stats = text.ok() ? acx::Json::parse(text.value())
                         : acx::Result<acx::Json, acx::Json::ParseFail>(
                               acx::Json::ParseFail{});
  tally.count(stats.ok(), "serve: serve_stats.json unreadable");
  if (stats.ok()) {
    const acx::Json& s = stats.value();
    auto block = [&](const char* key) {
      const acx::Json* b = s.find(key);
      return b ? *b : acx::Json::object();
    };
    const double served = block("events").get_number("served");
    const double rejected = block("events").get_number("malformed") +
                            block("events").get_number("duplicates");
    tally.count(rejected == 0, "serve: rejected manifests");
    tally.count(served == shape.trickle_events + shape.swarm_events,
                "serve: served count differs from manifests dropped");
    out.served += served;
    out.pool_steals += block("pool").get_number("steals");
    out.pool_parks += block("pool").get_number("parks");
    out.cache_hits += block("plan_cache").get_number("cumulative_hits");
    out.cache_misses += block("plan_cache").get_number("cumulative_misses");
  }
  (void)fs.remove_all(root);
}

}  // namespace perfbench
