// The crash sim's instant-restart mode (recover WHILE
// loading): after each crash the engine reopens with RecoverInstant()
// and a full worker round runs against it while redo is still draining
// — then WaitUntilRecovered() quiesces the drain and the standard
// oracles check the combined state. Serving traffic must not change
// what recovery produces: no acked commit (pre-crash or mid-drain) may
// be lost, and the recovered state must equal the LSN-ordered model
// replay of the surviving journal. A double-crash injector strikes a
// second time during serving — half the strikes before any traffic,
// half mid-drain with sessions in flight.

#include "checker/crash_sim.h"

#include <gtest/gtest.h>

#include "methods/method.h"

namespace redo::checker {
namespace {

using methods::MethodKind;

SimOptions InstantRun() {
  SimOptions options;
  options.sessions = 3;
  options.ops_per_session = 24;
  options.workload.num_pages = 12;
  options.commit_every = 4;
  options.checkpoints_per_cycle = 2;
  options.instant_restart = true;
  return options;
}

class InstantSimMethodTest : public ::testing::TestWithParam<MethodKind> {};

// The acceptance bar for the instant-restart tentpole: >= 200
// recover-while-loading cycles across the six methods (34 each), with
// the tail torn at every crash and a 30% double-crash rate during
// serving. Every cycle runs both oracles.
TEST_P(InstantSimMethodTest, RecoverWhileLoadingVerifies) {
  SimOptions options = InstantRun();
  options.cycles = 34;
  options.tear_log_tail = true;
  options.double_crash_percent = 30;
  const SimResult result =
      RunSim(GetParam(), options, /*seed=*/4242);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.lost_acked_commits, 0u);
  EXPECT_EQ(result.cycles, 34u);
  // Every cycle reopened instantly at least once; double crashes add
  // further restarts on top.
  EXPECT_GE(result.instant_restarts, 34u);
  EXPECT_GT(result.pages_verified, 0u);
}

// Both fault injectors compose with serving-while-redoing and fuzzy
// checkpoints in the pre-crash rounds.
TEST(InstantSimTest, InjectorsComposeWithInstantRestart) {
  SimOptions options = InstantRun();
  options.cycles = 3;
  options.tear_log_tail = true;
  options.disk_faults = true;
  options.double_crash_percent = 50;
  const SimResult result = RunSim(
      MethodKind::kPhysiologicalAnalysis, options, /*seed=*/90210);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.lost_acked_commits, 0u);
  EXPECT_GE(result.instant_restarts, 3u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, InstantSimMethodTest,
    ::testing::ValuesIn(methods::kMethodKinds),
    [](const ::testing::TestParamInfo<MethodKind>& info) {
      std::string name = methods::MethodKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace redo::checker
