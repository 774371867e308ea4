// The crash sim's concurrent-engine oracles, exercised across every
// recovery method: group-commit durability (no acked commit lost at any
// freeze point, even with the in-flight force torn) and the recovery
// criterion under concurrency (recovered state equals an LSN-ordered
// model replay of the surviving journal).

#include "checker/crash_sim.h"

#include <gtest/gtest.h>

#include "methods/method.h"

namespace redo::checker {
namespace {

using methods::MethodKind;

constexpr MethodKind kAllKinds[] = {
    MethodKind::kLogical,        MethodKind::kPhysical,
    MethodKind::kPhysiological,  MethodKind::kGeneralized,
    MethodKind::kPhysiologicalAnalysis, MethodKind::kPhysicalPartial,
};

SimOptions SmallRun() {
  SimOptions options;
  options.sessions = 3;
  options.ops_per_session = 40;
  options.workload.num_pages = 12;
  options.cycles = 2;
  options.commit_every = 4;
  options.checkpoints_per_cycle = 2;
  return options;
}

class ConcurrentSimMethodTest : public ::testing::TestWithParam<MethodKind> {};

TEST_P(ConcurrentSimMethodTest, FreezeCrashRecoverVerifies) {
  const SimResult result =
      RunSim(GetParam(), SmallRun(), /*seed=*/1234);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.lost_acked_commits, 0u);
  EXPECT_EQ(result.cycles, 2u);
  EXPECT_GT(result.ops, 0u);
  EXPECT_GT(result.pages_verified, 0u);
}

// The group-commit durability boundary (the tentpole's core promise):
// the crash tears the in-flight force at a random byte, salvage
// truncates the unacknowledged tail — and still every acknowledged
// commit must survive, for every method.
TEST_P(ConcurrentSimMethodTest, TornForceNeverLosesAckedCommits) {
  SimOptions options = SmallRun();
  options.tear_log_tail = true;
  options.cycles = 3;
  for (uint64_t seed : {7u, 99u}) {
    const SimResult result =
        RunSim(GetParam(), options, seed);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.ToString();
    EXPECT_EQ(result.lost_acked_commits, 0u) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ConcurrentSimMethodTest, ::testing::ValuesIn(kAllKinds),
    [](const ::testing::TestParamInfo<MethodKind>& info) {
      std::string name = methods::MethodKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Regression: logical's checkpoint copies staged pages onto the main
// disk itself (not through the buffer pool). Write-error bursts used to
// abort that copy halfway — some pages post-checkpoint, no checkpoint
// record — and redo-all replay of a split then read future src content.
// The swing now commits via the forced record first and recovery heals
// uncopied pages from the staging area, so faulted runs must verify.
TEST(ConcurrentSimTest, LogicalCheckpointSwingSurvivesWriteBursts) {
  SimOptions options = SmallRun();
  options.sessions = 4;
  options.ops_per_session = 30;
  options.cycles = 4;
  options.disk_faults = true;
  for (uint64_t seed : {76u, 273u, 555u}) {
    const SimResult result =
        RunSim(MethodKind::kLogical, options, seed);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.ToString();
    EXPECT_EQ(result.lost_acked_commits, 0u) << "seed " << seed;
  }
}

TEST(ConcurrentSimTest, TransientDiskWriteBurstsAreAbsorbed) {
  // Checkpoints flush pages under write-error bursts shorter than the
  // pool's retry budget: the run must verify exactly like a clean one.
  SimOptions options = SmallRun();
  options.disk_faults = true;
  options.checkpoints_per_cycle = 4;
  const SimResult result =
      RunSim(MethodKind::kPhysical, options, /*seed=*/555);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.lost_acked_commits, 0u);
}

TEST(ConcurrentSimTest, BothInjectorsComposeWithFuzzyCheckpoints) {
  SimOptions options = SmallRun();
  options.tear_log_tail = true;
  options.disk_faults = true;
  options.cycles = 3;
  const SimResult result = RunSim(
      MethodKind::kPhysiologicalAnalysis, options, /*seed=*/31337);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.lost_acked_commits, 0u);
}

// The async I/O backend under the full concurrent oracle: batched
// checkpoint writeback and drain workers' overlapped redo reads must
// not change what recovery produces — no acked commit lost, every page
// verifies, with both injectors active.
TEST(ConcurrentSimTest, AsyncIoBackendPreservesEveryOracle) {
  SimOptions options = SmallRun();
  options.async_io_workers = 4;
  options.parallel_redo_workers = 4;
  options.tear_log_tail = true;
  options.disk_faults = true;
  options.cycles = 3;
  for (uint64_t seed : {11u, 4242u}) {
    const SimResult result =
        RunSim(MethodKind::kPhysiological, options, seed);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.ToString();
    EXPECT_EQ(result.lost_acked_commits, 0u) << "seed " << seed;
  }
}

TEST(ConcurrentSimTest, MoreSessionsStillVerify) {
  SimOptions options = SmallRun();
  options.sessions = 8;
  options.ops_per_session = 24;
  const SimResult result =
      RunSim(MethodKind::kGeneralized, options, /*seed=*/42);
  EXPECT_TRUE(result.ok) << result.ToString();
}

}  // namespace
}  // namespace redo::checker

namespace redo::checker {
namespace {

// RunSim refuses options no run can honor with a diagnosis — never a
// crash (commit_every = 0 once divided by zero over TCP) and never a
// vacuous OK (zero sessions once "passed" cycles that checked nothing).
TEST(ConcurrentSimTest, RefusesDegenerateOptions) {
  struct Case {
    const char* name;
    void (*edit)(SimOptions&);
  };
  const Case cases[] = {
      {"zero sessions", [](SimOptions& o) { o.sessions = 0; }},
      {"zero cycles", [](SimOptions& o) { o.cycles = 0; }},
      {"zero commit_every over TCP",
       [](SimOptions& o) {
         o.transport = Transport::kTcp;
         o.commit_every = 0;
       }},
      {"fewer pages than TCP clients",
       [](SimOptions& o) {
         o.transport = Transport::kTcp;
         o.workload.num_pages = 2;
       }},
      {"fewer pages than transaction partitions",
       [](SimOptions& o) {
         o.txn_mode = true;
         o.sessions = 16;
         o.workload.num_pages = 8;
       }},
      {"instant restart on the serial engine",
       [](SimOptions& o) {
         o.sessions = 1;
         o.instant_restart = true;
       }},
      {"equivalence oracle on the concurrent engine",
       [](SimOptions& o) { o.equivalence_workers = {2}; }},
      {"log-media faults on the concurrent engine",
       [](SimOptions& o) { o.log_segment_bytes = 448; }},
      {"double crashes without instant restart",
       [](SimOptions& o) { o.double_crash_percent = 10; }},
      {"parallel redo under instant restart",
       [](SimOptions& o) {
         o.instant_restart = true;
         o.parallel_redo_workers = 4;
       }},
      {"undo re-crashes without transactions",
       [](SimOptions& o) { o.undo_crash_after_clrs = 2; }},
  };
  for (const Case& c : cases) {
    SimOptions options = SmallRun();
    c.edit(options);
    const SimResult result = RunSim(MethodKind::kPhysical, options, 1);
    EXPECT_FALSE(result.ok) << c.name;
    EXPECT_NE(result.failure.find("sim options"), std::string::npos)
        << c.name << ": " << result.failure;
    EXPECT_EQ(result.cycles, 0u) << c.name;
  }
}

}  // namespace
}  // namespace redo::checker
