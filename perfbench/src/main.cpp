// acx_perfbench — end-to-end event and service benchmark with a
// per-layer ledger.
//
//   acx_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//   acx_perfbench --list
//
// Generates the workload's V1 inputs from the seed through acx::synth,
// runs them through pipeline::run_pipeline (seq-opt and full/2) and
// pipeline::SpoolServer on a resident WorkPool, checks every output, and
// prints the metrics. --trace 1 adds the traced replay through the
// public layer functions and prints the per-layer ledger instead of the
// end-to-end metrics; the span trace is written to
// DIR/trace-<workload>-seed<N>.json. The last stdout line is the result
// object {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "formats/component_set.hpp"
#include "formats/v1.hpp"
#include "pipeline/runner.hpp"
#include "replay.hpp"
#include "serve_phase.hpp"
#include "signal/fft_plan.hpp"
#include "spectrum/corners.hpp"
#include "spectrum/response_plan.hpp"
#include "synth/synth.hpp"
#include "trace.hpp"
#include "util/json.hpp"

namespace {

namespace stdfs = std::filesystem;
namespace pl = acx::pipeline;
using perfbench::Tally;

// full/2 nests the response stage's `omp for` inside the record fan-out:
// up to 2 x 2 threads, which is what the idle-core ledger charges.
constexpr int kParThreads = 2;
constexpr int kParCores = kParThreads * kParThreads;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  stdfs::path out = ".";
};

// One workload: how a run's --seconds are shared between its phases
// (relative weights; a traced run adds the replay's).
struct Workload {
  const char* name;
  double setup_share;   // cold full/2 set-up events
  double seq_share;     // warm seq-opt events
  double par_share;     // warm full/2 events
  double serve_share;   // service bursts
  double replay_share;  // traced runs only: replays with spans off and on
  double trickle_rate;  // service events per second, open loop
  int swarm_passes;     // times each station is in one burst's swarm
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"paper-event", 0.1, 0.3, 0.15, 0.45, 0.25, 5.0, 2},
      {"station-rotd", 0.07, 0.46, 0.16, 0.4, 0.6, 1.0, 1},
  };
  return w;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"event_s", "s"},
    {"event_par_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"serve_p50_s", "s"},
    {"serve_p95_s", "s"},
    {"serve_swarm_events_per_s", "events/s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"spectrum.rotd.s", "s"},
    {"spectrum.rotd.calls", "count"},
    {"spectrum.response.s", "s"},
    {"spectrum.response.cell_steps_per_s", "cell-steps/s"},
    {"formats.write.s", "s"},
    {"formats.write.mb_per_s", "MB/s"},
    {"util.fs.atomic_write.s", "s"},
    {"util.fs.ops", "count"},
    {"util.fs.bytes_written", "bytes"},
    {"formats.read_v1.s", "s"},
    {"formats.read_v1.mb_per_s", "MB/s"},
    {"util.fs.read.s", "s"},
    {"util.fs.dir.s", "s"},
    {"signal.correction.s", "s"},
    {"spectrum.fas.s", "s"},
    {"pipeline.unattributed.s", "s"},
    {"pipeline.idle_core_s", "s"},
    {"pipeline.par_efficiency", "ratio"},
    {"serve.service_s.p50", "s"},
    {"serve.wait_s.p50", "s"},
    {"serve.wait_s.p95", "s"},
    {"serve.gen_lag_s", "s"},
    {"pool.steals_per_event", "count"},
    {"pool.parks_per_event", "count"},
    {"cache.hit_rate", "ratio"},
    {"trace.overhead_s", "s"},
};

// The ledger rows: every leaf layer of the replay, in print order.
const std::vector<std::string> kLedgerLayers = {
    "util.fs.read",        "formats.read_v1",   "signal.correction",
    "spectrum.fas",        "spectrum.response", "spectrum.rotd",
    "formats.write",       "util.fs.atomic_write", "util.fs.dir",
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile (q in [0, 1]); NaN when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// A phase of the run: one call of `run` takes one sample (or burst).
struct Phase {
  const char* name;
  double share;
  std::function<void()> run;
  int runs = 0;
  double spent = 0;  // seconds, over all runs
  double last = 0;   // seconds, the latest run
};

// Runs every phase once, then keeps running the phase furthest behind
// its share of the time, as long as its latest duration still fits
// before `deadline`. Every phase is so sampled across the whole run, and
// the run ends within the deadline rather than past it.
void run_phases(std::vector<Phase>& phases, double deadline) {
  for (Phase* next = nullptr;; next = nullptr) {
    for (Phase& p : phases) {
      if (p.runs == 0) {
        next = &p;
        break;
      }
      if (now_s() + p.last > deadline) continue;
      if (!next || p.spent / p.share < next->spent / next->share) next = &p;
    }
    if (!next) return;
    const double t0 = now_s();
    next->run();
    next->last = now_s() - t0;
    next->spent += next->last;
    ++next->runs;
  }
}

// ---- Inputs -------------------------------------------------------------

// Record lengths follow the event's layout as acx_synth draws it with its
// default seed, so every --seed runs the same amount of work and only the
// waveforms change with it. Each record is acx::synth::make_record's
// one-record event of that length, with the record's own seed.
constexpr std::uint64_t kLayoutSeed = 42;

// With `own_stations`, every record is its own station ("P01l", "P02t",
// ...): one component per station, so the station phase skips RotD with
// the typed station.missing_component reason and only the paper's
// per-record chain runs. (The V1 header requires an l/t/v component and
// validate_workdir requires file id == header id, so the ids keep their
// component letter.) Otherwise records group into triaxial stations
// "SS01l", "SS01t", "SS01v", ... as acx_synth writes them.
void write_event(acx::FileSystem& fs, const stdfs::path& dir,
                 const acx::synth::EventSpec& spec, double scale,
                 std::uint64_t seed, bool own_stations) {
  auto made = fs.create_directories(dir);
  if (!made.ok()) throw std::runtime_error(made.error().to_string());
  const std::vector<long> pts =
      acx::synth::points_per_file(spec, {kLayoutSeed, scale});
  for (int i = 0; i < spec.n_files; ++i) {
    acx::synth::EventSpec one = spec;
    one.n_files = 1;
    one.total_points = one.min_pts = one.max_pts =
        pts[static_cast<std::size_t>(i)];
    const std::uint64_t record_seed =
        seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i);
    acx::formats::Record rec =
        acx::synth::make_record(one, {record_seed, 1.0}, 0);
    char station[16];
    std::snprintf(station, sizeof station, own_stations ? "P%02d" : "SS%02d",
                  own_stations ? i + 1 : i / 3 + 1);
    rec.header.station = station;
    rec.header.component = std::string(1, "ltv"[i % 3]);
    auto wrote = acx::atomic_write_file(
        fs, dir / (rec.header.id() + std::string(acx::formats::kV1Extension)),
        acx::formats::write_v1(rec));
    if (!wrote.ok()) throw std::runtime_error(wrote.error().to_string());
  }
}

struct Inputs {
  stdfs::path event;                  // the whole event, for direct runs
  std::vector<stdfs::path> stations;  // one dir per station, for the service
};

// One input dir per station of the event, holding that station's files:
// the service receives the event the way a station network delivers it,
// one station at a time.
std::vector<stdfs::path> split_by_station(acx::FileSystem& fs,
                                          const stdfs::path& event,
                                          const stdfs::path& root) {
  auto listed = fs.list_dir(event);
  if (!listed.ok()) throw std::runtime_error(listed.error().to_string());
  std::vector<stdfs::path> dirs;
  for (const stdfs::path& file : listed.value()) {
    const stdfs::path dir =
        root / acx::formats::split_record_id(file.stem().string()).first;
    if (dirs.empty() || dirs.back() != dir) dirs.push_back(dir);
    auto content = fs.read_file(file);
    if (!content.ok() || !fs.create_directories(dir).ok() ||
        !acx::atomic_write_file(fs, dir / file.filename(), content.value())
             .ok()) {
      throw std::runtime_error("cannot split " + file.string());
    }
  }
  return dirs;
}

Inputs make_inputs(acx::FileSystem& fs, const std::string& workload,
                   std::uint64_t seed, const stdfs::path& root) {
  const acx::synth::EventSpec ev06 = acx::synth::paper_events()[5];
  const stdfs::path event = root / "EV06";
  if (workload == "paper-event") {
    // The paper's event 6 at paper size: 19 records, 384K points.
    write_event(fs, event, ev06, 1.0, seed, true);
  } else {
    // The layout of acx_synth --paper-event 6 --scale 0.05: six
    // triaxial stations plus one lone component.
    write_event(fs, event, ev06, 0.05, seed, false);
  }
  return {event, split_by_station(fs, event, root / "stations")};
}

// Drops every plan cache through its public clear() hook.
void clear_plan_caches() {
  acx::spectrum::ResponsePlanCache::instance().clear();
  acx::signal::FftPlanCache::instance().clear();
  acx::spectrum::smoothing_plan_cache_clear();
}

// ---- Direct event runs --------------------------------------------------

struct EventPhase {
  std::vector<double> seq, par, setup;
  std::vector<std::map<std::string, double>> seq_stage_totals;
  double cache_hits = 0;
  double cache_misses = 0;
};

// Runs one event and checks its outputs; returns its wall clock (NaN when
// the run itself failed). The work dir is removed unless `keep_work`.
double run_event(acx::FileSystem& fs, const stdfs::path& input,
                 const stdfs::path& work, pl::Driver driver, int threads,
                 EventPhase& phase,
                 std::map<std::string, std::string>& canonical, Tally& tally,
                 bool keep_work = false) {
  pl::RunnerConfig cfg;
  cfg.driver = driver;
  cfg.threads = threads;
  (void)fs.remove_all(work);
  const double t0 = now_s();
  auto run = pl::run_pipeline(fs, input, work, cfg);
  const double seconds = now_s() - t0;
  tally.count(run.ok(), work.filename().string() + ": run_pipeline failed" +
                            (run.ok() ? std::string()
                                      : ": " + run.error().to_string()));
  if (!run.ok()) return std::nan("");
  perfbench::check_event(fs, work, run.value(), input.string(), canonical,
                         tally);
  for (const auto& [stage, p] : run.value().stage_profile()) {
    phase.cache_hits += static_cast<double>(p.cache_hits);
    phase.cache_misses += static_cast<double>(p.cache_misses);
  }
  if (driver == pl::Driver::kSequentialOptimized) {
    phase.seq_stage_totals.push_back(run.value().stage_totals());
  }
  if (!keep_work) (void)fs.remove_all(work);
  return seconds;
}

// ---- Output -------------------------------------------------------------

class Metrics {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  double get(const std::string& name) const { return values_.at(name); }

  // Every name of `defs` must have been set to a finite value.
  acx::Json to_json(const std::vector<MetricDef>& defs) const {
    acx::Json m = acx::Json::object();
    for (const MetricDef& d : defs) {
      auto it = values_.find(d.name);
      if (it == values_.end() || !std::isfinite(it->second)) {
        throw std::runtime_error(std::string("metric ") + d.name +
                                 " was not measured");
      }
      acx::Json v = acx::Json::object();
      v.set("value", it->second);
      v.set("unit", d.unit);
      m.set(d.name, std::move(v));
    }
    return m;
  }

 private:
  std::map<std::string, double> values_;
};

// %.17g keeps every digit, so runs compare on the full value.
std::string full_precision(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int list_catalog() {
  std::printf("workloads");
  for (const Workload& w : workloads()) std::printf(" %s", w.name);
  std::printf("\nend_to_end");
  for (const MetricDef& d : kEndToEnd) std::printf(" %s:%s", d.name, d.unit);
  std::printf("\nper_layer");
  for (const MetricDef& d : kPerLayer) std::printf(" %s:%s", d.name, d.unit);
  std::printf("\n");
  return 0;
}

int run(const Options& opt) {
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (opt.workload == w.name) wl = &w;
  }
  if (!wl) {
    std::fprintf(stderr, "acx_perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }

  acx::RealFileSystem fs;
  const stdfs::path root =
      opt.out / (opt.workload + "-" + std::to_string(::getpid()));
  (void)fs.remove_all(root);
  const Inputs in = make_inputs(fs, opt.workload, opt.seed, root / "input");
  std::printf("workload %s seed %llu seconds %g trace %d: one event, %zu "
              "stations\n",
              wl->name, static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, in.stations.size());

  Tally tally;
  std::map<std::string, std::string> canonical;
  EventPhase ev;
  perfbench::ServeResult sv;
  const pl::RunnerConfig base;

  // Every service burst serves each station once in the trickle and
  // swarm_passes times in the swarm, so every burst does the same work.
  // (Paper-event's 19 stations drain in about a second; two passes make
  // each swarm long enough to time.)
  perfbench::ServeShape shape;
  shape.trickle_rate = wl->trickle_rate;
  shape.trickle_events = static_cast<int>(in.stations.size());
  shape.swarm_events =
      wl->swarm_passes * static_cast<int>(in.stations.size());

  perfbench::Tracer tracer(opt.workload);
  int events = 0;  // replayed events
  double replay_off_s = 0;
  double replay_on_s = 0;
  auto replay = [&](perfbench::Tracer* t) {
    perfbench::ReplayOptions ro;
    ro.tracer = t;
    const double t0 = now_s();
    perfbench::replay_event(fs, in.event, root / "replay", base, ro);
    (void)fs.remove_all(root / "replay");
    return now_s() - t0;
  };

  std::string oracles;
  std::vector<Phase> phases;
  // A cold full/2 event, plan caches cleared.
  phases.push_back({"set-up", wl->setup_share, [&] {
                      clear_plan_caches();
                      ev.setup.push_back(run_event(
                          fs, in.event, root / "setup",
                          pl::Driver::kFullParallel, kParThreads, ev,
                          canonical, tally));
                    }});
  // A warm seq-opt event; the first one's outputs also go through the
  // oracle checks.
  phases.push_back({"seq-opt", wl->seq_share, [&] {
                      const bool first = oracles.empty();
                      ev.seq.push_back(run_event(
                          fs, in.event, root / "seq",
                          pl::Driver::kSequentialOptimized, 1, ev, canonical,
                          tally, first));
                      if (first) {
                        oracles = perfbench::check_oracles(
                            fs, in.event, root / "seq", root / "oracle", base,
                            tally);
                        (void)fs.remove_all(root / "seq");
                      }
                    }});
  // A warm full/2 event.
  phases.push_back({"full/2", wl->par_share, [&] {
                      ev.par.push_back(run_event(
                          fs, in.event, root / "par",
                          pl::Driver::kFullParallel, kParThreads, ev,
                          canonical, tally));
                    }});
  // Traced runs only: the event replayed once with spans off and once on,
  // alternating which goes first, next to the direct events whose time
  // the ledger splits.
  if (opt.trace) {
    phases.push_back({"replay", wl->replay_share, [&] {
                        const bool on_first = events % 2 == 1;
                        if (on_first) replay_on_s += replay(&tracer);
                        replay_off_s += replay(nullptr);
                        if (!on_first) replay_on_s += replay(&tracer);
                        ++events;
                      }});
  }
  // The service, one station per event: an open-loop trickle, then a
  // swarm backlog, through a fresh service instance.
  int bursts = 0;
  phases.push_back({"serve", wl->serve_share, [&] {
                      perfbench::run_serve(
                          fs, root / ("serve-" + std::to_string(bursts)),
                          in.stations, base, shape, canonical, tally, sv);
                      ++bursts;
                    }});
  run_phases(phases, now_s() + opt.seconds);

  Metrics m;
  m.set("event_s", median(ev.seq));
  m.set("event_par_s", median(ev.par));
  m.set("setup_s", median(ev.setup));
  m.set("serve_p50_s", median(sv.latency));
  m.set("serve_p95_s", quantile(sv.latency, 0.95));
  m.set("serve_swarm_events_per_s", sv.swarm_seconds > 0
                                        ? sv.swarm_events / sv.swarm_seconds
                                        : std::nan(""));

  std::printf("%zu seq-opt events, %zu full/%d events, %zu set-up samples "
              "(cold full/2 event, caches cleared), %d service bursts\n",
              ev.seq.size(), ev.par.size(), kParThreads, ev.setup.size(),
              bursts);
  std::printf("phase seconds:");
  for (const Phase& p : phases) {
    std::printf(" %s %.1f (%d runs, share %.2f)", p.name, p.spent, p.runs,
                p.share);
  }
  std::printf("\n");
  std::printf("serve: %zu trickle events at %g/s (open loop), %d swarm events, "
              "one station per event; completion observed by inotify on "
              "spool/done, resolution %g s\n",
              sv.latency.size(), shape.trickle_rate, sv.swarm_events,
              perfbench::kObserveResolutionS);
  auto print_samples = [](const char* name, const std::vector<double>& v) {
    std::printf("samples %s:", name);
    for (double x : v) std::printf(" %.4f", x);
    std::printf("\n");
  };
  std::printf("oracles: %s\n", oracles.c_str());
  print_samples("event_s", ev.seq);
  print_samples("event_par_s", ev.par);
  print_samples("setup_s", ev.setup);
  std::printf("speedup event_s / event_par_s = %.3f (printed, not gated)\n",
              m.get("event_s") / m.get("event_par_s"));

  if (opt.trace) {
    m.set("trace.overhead_s", (replay_on_s - replay_off_s) / events);

    const auto layers = tracer.layer_totals();
    auto layer = [&](const std::string& name) {
      auto it = layers.find(name);
      return it == layers.end() ? perfbench::LayerTotals{} : it->second;
    };
    auto per_event = [&](const std::string& name) {
      return layer(name).seconds / events;
    };
    // Work per busy second inside the layer: bytes or cell-steps.
    auto rate = [&](const std::string& name, double unit) {
      const perfbench::LayerTotals t = layer(name);
      return t.seconds > 0 ? t.work / unit / t.seconds : 0.0;
    };
    double busy = 0;
    for (const std::string& l : kLedgerLayers) busy += per_event(l);
    const double event_s = m.get("event_s");
    const double unattributed = event_s - busy;

    m.set("spectrum.rotd.s", per_event("spectrum.rotd"));
    m.set("spectrum.rotd.calls",
          static_cast<double>(layer("spectrum.rotd").calls) / events);
    m.set("spectrum.response.s", per_event("spectrum.response"));
    m.set("spectrum.response.cell_steps_per_s", rate("spectrum.response", 1));
    m.set("formats.write.s", per_event("formats.write"));
    m.set("formats.write.mb_per_s", rate("formats.write", 1e6));
    m.set("util.fs.atomic_write.s", per_event("util.fs.atomic_write"));
    const long long fs_ops = layer("util.fs.read").calls +
                             layer("util.fs.atomic_write").calls +
                             layer("util.fs.dir").calls;
    m.set("util.fs.ops", static_cast<double>(fs_ops) / events);
    m.set("util.fs.bytes_written", layer("util.fs.atomic_write").work / events);
    m.set("formats.read_v1.s", per_event("formats.read_v1"));
    m.set("formats.read_v1.mb_per_s", rate("formats.read_v1", 1e6));
    m.set("util.fs.read.s", per_event("util.fs.read"));
    m.set("util.fs.dir.s", per_event("util.fs.dir"));
    m.set("signal.correction.s", per_event("signal.correction"));
    m.set("spectrum.fas.s", per_event("spectrum.fas"));
    m.set("pipeline.unattributed.s", unattributed);
    const double par_capacity = kParCores * m.get("event_par_s");
    m.set("pipeline.idle_core_s", par_capacity - busy);
    m.set("pipeline.par_efficiency", busy / par_capacity);
    m.set("serve.service_s.p50", median(sv.service));
    m.set("serve.wait_s.p50", median(sv.wait));
    m.set("serve.wait_s.p95", quantile(sv.wait, 0.95));
    m.set("serve.gen_lag_s", sv.gen_lag_max);
    m.set("pool.steals_per_event",
          sv.served > 0 ? sv.pool_steals / sv.served : 0);
    m.set("pool.parks_per_event",
          sv.served > 0 ? sv.pool_parks / sv.served : 0);
    const double hits = ev.cache_hits + sv.cache_hits;
    const double lookups = hits + ev.cache_misses + sv.cache_misses;
    m.set("cache.hit_rate", lookups > 0 ? hits / lookups : 0);

    // The ledger: layer rows plus the unattributed row sum to event_s.
    std::vector<std::pair<double, std::string>> ranked;
    std::printf("ledger (seconds per event; rows sum to event_s = %.6f)\n",
                event_s);
    for (const std::string& l : kLedgerLayers) {
      std::printf("  %-24s %12.6f  %6.2f%%\n", l.c_str(), per_event(l),
                  100 * per_event(l) / event_s);
      ranked.emplace_back(per_event(l), l);
    }
    std::printf("  %-24s %12.6f  %6.2f%%\n", "pipeline.unattributed",
                unattributed, 100 * unattributed / event_s);
    std::sort(ranked.rbegin(), ranked.rend());
    std::printf("ranking");
    for (const auto& [s, l] : ranked) {
      if (s >= 0.05 * event_s) std::printf(" %s", l.c_str());
    }
    std::printf("\n");
    std::printf("spectrum.response cell-steps are computed as periods x "
                "dampings x npts per call\n");

    // Replay fidelity: per stage, the replay's span sum per event vs the
    // pipeline's own run_report stage_totals (mean over the seq-opt runs).
    std::map<std::string, double> pipeline_stage;
    for (const auto& totals : ev.seq_stage_totals) {
      for (const auto& [stage, s] : totals) {
        pipeline_stage[stage] +=
            s / static_cast<double>(ev.seq_stage_totals.size());
      }
    }
    const auto replay_stage = tracer.stage_totals();
    std::printf("fidelity (per event: replay vs run_report stage_totals; bound "
                "|diff| <= 50%% + 5 ms)\n");
    for (const auto& [stage, p] : pipeline_stage) {
      auto it = replay_stage.find(stage);
      const double r = it == replay_stage.end() ? 0 : it->second / events;
      const bool ok = std::fabs(r - p) <= 0.5 * p + 0.005;
      std::printf("  %-14s pipeline %10.6f  replay %10.6f  %s\n", stage.c_str(),
                  p, r, ok ? "ok" : "OUT OF BOUND");
      tally.count(ok, "fidelity: stage " + stage + " replay disagrees");
    }

    const stdfs::path trace_path =
        opt.out / ("trace-" + opt.workload + "-seed" +
                   std::to_string(opt.seed) + ".json");
    auto wrote =
        acx::atomic_write_file(fs, trace_path, tracer.to_chrome().dump());
    tally.count(wrote.ok(), "trace: could not write " + trace_path.string());
    std::printf("trace: %zu spans -> %s (%d replayed events, each with spans "
                "on and off)\n",
                tracer.spans().size(), trace_path.string().c_str(), events);
  }
  m.set("peak_rss_mb", peak_rss_mb());
  (void)fs.remove_all(root);

  const std::vector<MetricDef>& defs = opt.trace ? kPerLayer : kEndToEnd;
  for (const MetricDef& d : defs) {
    std::printf("metric %-36s %s %s\n", d.name,
                full_precision(m.get(d.name)).c_str(), d.unit);
  }
  std::printf("fail_frac %s ratio (%lld failed of %lld attempted)\n",
              full_precision(static_cast<double>(tally.failed) /
                             static_cast<double>(tally.attempted))
                  .c_str(),
              tally.failed, tally.attempted);
  for (const std::string& f : tally.failures) {
    std::printf("FAILED %s\n", f.c_str());
  }

  acx::Json result = acx::Json::object();
  result.set("correct", tally.failed == 0);
  result.set("attempted", static_cast<double>(tally.attempted));
  result.set("failed", static_cast<double>(tally.failed));
  result.set("metrics", m.to_json(defs));
  std::printf("%s\n", result.dump().c_str());
  return tally.failed == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: acx_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR\n"
               "       acx_perfbench --list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") return list_catalog();
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (arg == "--trace") {
      opt.trace = std::string(v) == "1";
    } else if (arg == "--out") {
      opt.out = v;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.seconds <= 0) return usage();
  // One malloc arena: with per-thread arenas the peak RSS depends on
  // which threads happened to allocate, not on live data (paper-event
  // runs spread 27-34 MB with arenas, 23-24 MB without).
  ::mallopt(M_ARENA_MAX, 1);
  // A fixed mmap threshold at glibc's dynamic ceiling (32 MiB on 64-bit):
  // the dynamic one rises only when an mmapped block is freed, so the peak
  // RSS depended on allocation order (station-rotd runs read 15.1 or
  // 19.3 MB; with the fixed threshold 18.9-19.3 MB, the warmed-up level).
  ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acx_perfbench: %s\n", e.what());
    return 1;
  }
}
