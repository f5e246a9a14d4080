#include "cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

namespace acx::cli {

bool parse_flags(int argc, char** argv, const std::vector<Flag>& flags) {
  const auto usage = [&] {
    std::string line = std::string("usage: ") + argv[0];
    for (const Flag& f : flags) {
      const std::string item =
          std::string(f.name) + (f.value ? std::string(" ") + f.value : "");
      line += f.required ? " " + item : " [" + item + "]";
    }
    std::fprintf(stderr, "%s\n", line.c_str());
    return false;
  };
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    auto f = std::find_if(flags.begin(), flags.end(), [&](const Flag& c) {
      return std::strcmp(c.name, argv[i]) == 0;
    });
    const bool optional = f != flags.end() && f->value && f->value[0] == '[';
    const bool has_next = i + 1 < argc && std::strncmp(argv[i + 1], "--", 2);
    if (f == flags.end() || (f->value && !optional && i + 1 >= argc)) {
      return usage();
    }
    const char* value =
        f->value && (!optional || has_next) ? argv[++i] : nullptr;
    if (!f->apply(value)) {
      std::fprintf(stderr, "%s: bad value '%s' for %s\n", argv[0],
                   value ? value : "", f->name);
      return usage();
    }
    seen.insert(f->name);
  }
  for (const Flag& f : flags) {
    if (f.required && !seen.count(f.name)) return usage();
  }
  return true;
}

bool parse_runner_flags(int argc, char** argv, std::vector<Flag> own,
                        pipeline::EngineConfig& cfg, std::string& work,
                        StorageModel& model) {
  pipeline::RunnerConfig& r = cfg.runner;
  int retries = r.retry.max_attempts - 1;
  const std::vector<Flag> shared = {
      {"--work", "DIR", text(work), true},
      {"--driver", "seq|seq-opt|partial|full|pool",
       parsed(r.driver, pipeline::parse_driver)},
      {"--threads", "N", integer(r.threads, 0)},
      {"--event-workers", "N", integer(cfg.event_workers, 1)},
      {"--queue-capacity", "N", integer(cfg.queue_capacity, 1)},
      {"--shards", "N", integer(cfg.shards, 1)},
      {"--priority", "fifo|largest|smallest",
       parsed(cfg.priority, pipeline::parse_priority)},
      {"--soft-deadline-s", "S", number(r.deadline.soft_seconds)},
      {"--hard-deadline-s", "S", number(r.deadline.hard_seconds)},
      {"--max-retries", "N", integer(retries)},
      {"--jitter-seed", "N", integer(r.retry.jitter_seed)},
      {"--storage-latency-ms", "MS", number(model.slow.base_ms)},
      {"--storage-jitter-ms", "MS", number(model.slow.jitter_ms)},
      {"--storage-fail-p", "P", number(model.fail_p, 0, 1)},
      {"--storage-seed", "N", integer(model.seed)},
      {"--breaker-threshold", "N", integer(model.breaker.failure_threshold, 1)},
      {"--breaker-open-s", "S", number(model.breaker.open_seconds)},
      {"--breaker-probes", "N", integer(model.breaker.half_open_probes, 1)},
      // The crash hook: the process dies with exit 137 on the K-th
      // invocation of stage NAME (the kill-and-restart tests).
      {"--kill-stage", "NAME", text(r.stage_fault.stage)},
      {"--kill-on", "K", integer(r.stage_fault.kill_on_invocation)},
  };
  own.insert(own.end(), shared.begin(), shared.end());
  if (!parse_flags(argc, argv, own)) return false;
  r.retry.max_attempts = std::max(1, retries + 1);
  r.stage_fault.kill_process = !r.stage_fault.stage.empty();
  return true;
}

StorageStack::StorageStack(const StorageModel& model,
                           pipeline::EngineConfig& cfg)
    : breaker_(model.breaker) {
  FileSystem* backend = &real_;
  if (model.fail_p > 0) {
    faultfs::FaultConfig faults;
    faults.seed = model.seed;
    faults.read_fail_p = faults.write_fail_p = faults.rename_fail_p =
        model.fail_p;
    faulty_ = std::make_unique<faultfs::FaultyFileSystem>(*backend, faults);
    backend = faulty_.get();
  }
  storage::SlowConfig slow = model.slow;
  slow.seed = model.seed;
  if (slow.base_ms > 0 || slow.jitter_ms > 0 || slow.per_kib_ms > 0) {
    slow_ = std::make_unique<storage::SlowFileSystem>(*backend, slow);
    backend = slow_.get();
  }
  top_ = std::make_unique<storage::BreakerFileSystem>(*backend, breaker_);
  cfg.runner.breaker = &breaker_;
}

void print_breaker(const storage::BreakerCounters& c) {
  if (c.rejected_ops > 0 || c.opens > 0) {
    std::printf(
        "  breaker: %lld ops rejected, %d opens, %d half-open recoveries\n",
        c.rejected_ops, c.opens, c.half_open_recoveries);
  }
}

}  // namespace acx::cli
