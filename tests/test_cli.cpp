// The flag-table parser every acx_* tool shares (tools/cli.hpp): values,
// switches, optional values, required flags, typed rejects, and the
// runner table acx_serve parses.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli.hpp"

namespace acx::cli {
namespace {

// Parses `args` as a tool's command line (argv[0] is the tool name).
bool parse(std::vector<const char*> args, const std::vector<Flag>& flags) {
  args.insert(args.begin(), "tool");
  return parse_flags(static_cast<int>(args.size()),
                     const_cast<char**>(args.data()), flags);
}

TEST(Cli, ParsesValuesSwitchesAndOptionalValues) {
  std::string out;
  std::string gantt = "unset";
  int n = 0;
  bool list = false;
  const std::vector<Flag> flags = {
      {"--out", "DIR", text(out), true},
      {"--n", "N", integer(n, 1)},
      {"--list", nullptr, set(list, true)},
      {"--gantt", "[DRIVER]",
       [&](const char* v) {
         gantt = v ? v : "";
         return true;
       }},
  };
  EXPECT_TRUE(parse({"--out", "d", "--n", "3", "--list", "--gantt"}, flags));
  EXPECT_EQ(out, "d");
  EXPECT_EQ(n, 3);
  EXPECT_TRUE(list);
  EXPECT_EQ(gantt, "");
  // An optional value is taken only when the next argument is no flag.
  EXPECT_TRUE(parse({"--gantt", "full", "--out", "d"}, flags));
  EXPECT_EQ(gantt, "full");
  EXPECT_TRUE(parse({"--gantt", "--out", "d"}, flags));
  EXPECT_EQ(gantt, "");
}

TEST(Cli, RejectsUnknownFlagsBadValuesAndMissingRequiredFlags) {
  std::string out;
  int n = 0;
  double p = 0;
  const std::vector<Flag> flags = {{"--out", "DIR", text(out), true},
                                   {"--n", "N", integer(n, 1)},
                                   {"--p", "P", number(p, 0, 1)}};
  EXPECT_FALSE(parse({"--n", "2"}, flags)) << "required --out missing";
  EXPECT_FALSE(parse({"--out", "d", "--bogus"}, flags));
  EXPECT_FALSE(parse({"--out", "d", "--n", "0"}, flags)) << "below the floor";
  EXPECT_FALSE(parse({"--out", "d", "--p", "1"}, flags)) << "outside [0, 1)";
  EXPECT_FALSE(parse({"--out"}, flags)) << "value missing";
  EXPECT_FALSE(parse({"--out", ""}, flags)) << "empty text";
  EXPECT_TRUE(parse({"--out", "d", "--p", "0.5"}, flags));
}

TEST(Cli, RunnerTableConfiguresTheEngineStorageModelAndCrashHook) {
  pipeline::ServeConfig cfg;
  std::string work;
  StorageModel model;
  std::vector<const char*> args = {"tool",
                                   "--work", "w",
                                   "--driver", "full",
                                   "--threads", "2",
                                   "--event-workers", "3",
                                   "--queue-capacity", "5",
                                   "--shards", "7",
                                   "--priority", "largest",
                                   "--max-retries", "6",
                                   "--storage-fail-p", "0.05",
                                   "--storage-seed", "42",
                                   "--kill-stage", "write_v2",
                                   "--kill-on", "3"};
  ASSERT_TRUE(parse_runner_flags(static_cast<int>(args.size()),
                                 const_cast<char**>(args.data()), {}, cfg,
                                 work, model));
  EXPECT_EQ(work, "w");
  EXPECT_EQ(cfg.runner.driver, pipeline::Driver::kFullParallel);
  EXPECT_EQ(cfg.runner.threads, 2);
  EXPECT_EQ(cfg.event_workers, 3);
  EXPECT_EQ(cfg.queue_capacity, 5u);
  EXPECT_EQ(cfg.shards, 7);
  EXPECT_EQ(cfg.priority, pipeline::ServeConfig::Priority::kLargest);
  EXPECT_EQ(cfg.runner.retry.max_attempts, 7);
  EXPECT_DOUBLE_EQ(model.fail_p, 0.05);
  EXPECT_EQ(model.seed, 42u);
  EXPECT_EQ(cfg.runner.stage_fault.stage, "write_v2");
  EXPECT_EQ(cfg.runner.stage_fault.kill_on_invocation, 3);
  EXPECT_TRUE(cfg.runner.stage_fault.kill_process);

  // --work is required, and a driver must be one of the five.
  std::vector<const char*> no_work = {"tool", "--driver", "seq"};
  EXPECT_FALSE(parse_runner_flags(static_cast<int>(no_work.size()),
                                  const_cast<char**>(no_work.data()), {}, cfg,
                                  work, model));
  std::vector<const char*> bad = {"tool", "--work", "w", "--driver", "x"};
  EXPECT_FALSE(parse_runner_flags(static_cast<int>(bad.size()),
                                  const_cast<char**>(bad.data()), {}, cfg,
                                  work, model));
}

}  // namespace
}  // namespace acx::cli
