// The crash sim in txn mode: workers wrap batches in
// Begin/Commit, abort a slice at runtime, and the freeze lands crashes
// mid-transaction and mid-abort. The oracle is the atomicity criterion
// — recovered state equals an LSN-ordered replay of WINNING
// transactions only, and every acknowledged commit is a winner — held
// across torn log tails, fuzzy checkpoints, injected re-crashes during
// the undo pass, parallel redo, and instant restart.

#include "checker/crash_sim.h"

#include <gtest/gtest.h>

#include "methods/method.h"

namespace redo::checker {
namespace {

using methods::MethodKind;

SimOptions TxnRun() {
  SimOptions options;
  options.sessions = 3;
  options.ops_per_session = 36;
  options.workload.num_pages = 12;  // 4-page partitions per session
  options.cycles = 2;
  options.commit_every = 4;
  options.checkpoints_per_cycle = 2;
  options.txn_mode = true;
  options.abort_percent = 30;
  return options;
}

class TxnSimMethodTest : public ::testing::TestWithParam<MethodKind> {};

TEST_P(TxnSimMethodTest, AtomicityHoldsAcrossCrashes) {
  const SimResult result =
      RunSim(GetParam(), TxnRun(), /*seed=*/4242);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.atomicity_violations, 0u);
  EXPECT_EQ(result.lost_acked_commits, 0u);
  EXPECT_GT(result.txns_committed, 0u);
}

TEST_P(TxnSimMethodTest, TornTailAndRecrashDuringUndoConverge) {
  SimOptions options = TxnRun();
  options.tear_log_tail = true;
  options.undo_crash_after_clrs = 2;
  options.cycles = 3;
  const SimResult result =
      RunSim(GetParam(), options, /*seed=*/90210);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.atomicity_violations, 0u);
  EXPECT_EQ(result.lost_acked_commits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, TxnSimMethodTest,
    ::testing::ValuesIn(methods::kMethodKinds),
    [](const ::testing::TestParamInfo<MethodKind>& info) {
      std::string name = methods::MethodKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(TxnSimTest, ParallelRedoPreservesAtomicity) {
  SimOptions options = TxnRun();
  options.parallel_redo_workers = 4;
  options.tear_log_tail = true;
  const SimResult result =
      RunSim(MethodKind::kPhysiological, options, /*seed=*/777);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.atomicity_violations, 0u);
}

TEST(TxnSimTest, InstantRestartPreservesAtomicity) {
  // Losers are undone before serving opens; traffic admitted while redo
  // drains must never observe (or build on) a loser's write.
  SimOptions options = TxnRun();
  options.instant_restart = true;
  options.double_crash_percent = 25;
  options.undo_crash_after_clrs = 2;
  const SimResult result =
      RunSim(MethodKind::kGeneralized, options, /*seed=*/1337);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.atomicity_violations, 0u);
  EXPECT_EQ(result.lost_acked_commits, 0u);
}

// Transactions need one disjoint partition per worker; more workers than
// pages is refused with the reason named, not run with shared pages.
TEST(TxnSimTest, RefusesMorePartitionsThanPages) {
  SimOptions options = TxnRun();
  options.sessions = 16;
  options.workload.num_pages = 8;
  const SimResult result =
      RunSim(MethodKind::kPhysiological, options, /*seed=*/1);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("fewer pages than workers' partitions"),
            std::string::npos)
      << result.failure;
  EXPECT_EQ(result.cycles, 0u);
  EXPECT_EQ(result.txns_committed, 0u);
}

}  // namespace
}  // namespace redo::checker
