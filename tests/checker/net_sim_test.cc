// The crash sim over TCP: real clients on loopback, the engine crashing
// and instant-restarting underneath them. Every run must ack-preserve
// commits, match the model replay with each client's in-doubt requests
// resolved to a prefix, read back over the wire, and get every client
// reconnected within the deadline.

#include <gtest/gtest.h>

#include "checker/crash_sim.h"

namespace redo::checker {
namespace {

using methods::MethodKind;

SimOptions QuickOptions() {
  SimOptions options;
  options.transport = Transport::kTcp;
  options.sessions = 3;
  options.workload.num_pages = 12;
  options.cycles = 3;
  options.tear_log_tail = true;
  options.instant_restart = true;
  return options;
}

void ExpectClean(const SimResult& result) {
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.lost_acked_commits, 0u) << result.ToString();
  EXPECT_GT(result.ops, 0u);
  EXPECT_GT(result.commits_acked, 0u);
  EXPECT_GT(result.slots_verified, 0u);
  // Every crash drops every client: reconnects must have happened.
  EXPECT_GT(result.reconnects, 0u);
}

TEST(NetSimTest, PhysiologicalSurvivesCrashCyclesWithLiveClients) {
  const SimResult result =
      RunSim(MethodKind::kPhysiological, QuickOptions(), /*seed=*/1);
  ExpectClean(result);
  EXPECT_EQ(result.cycles, 3u);
  EXPECT_EQ(result.instant_restarts, 3u);
}

TEST(NetSimTest, PhysiologicalAnalysisSurvivesCrashCyclesWithLiveClients) {
  ExpectClean(
      RunSim(MethodKind::kPhysiologicalAnalysis, QuickOptions(), /*seed=*/2));
}

TEST(NetSimTest, TornLogTailIsSalvagedNotFatal) {
  SimOptions options = QuickOptions();
  options.cycles = 4;
  // Torn tails are opportunistic (a force must be in flight at the
  // crash), so don't demand one — when they happen the run must still
  // be clean.
  ExpectClean(RunSim(MethodKind::kPhysiological, options, /*seed=*/3));
}

TEST(NetSimTest, QuiescingRecoveryVariantAlsoHolds) {
  SimOptions options = QuickOptions();
  options.instant_restart = false;
  options.cycles = 2;
  const SimResult result =
      RunSim(MethodKind::kPhysiological, options, /*seed=*/4);
  ExpectClean(result);
  EXPECT_EQ(result.instant_restarts, 0u);
}

TEST(NetSimTest, SeedsVaryTheInterleavingNotTheVerdict) {
  for (uint64_t seed = 10; seed < 13; ++seed) {
    SimOptions options = QuickOptions();
    options.cycles = 2;
    ExpectClean(RunSim(MethodKind::kPhysiological, options, seed));
  }
}

// TCP clients issue the same operation mix as in-process sessions:
// splits and slot transfers within their partition, not just writes.
TEST(NetSimTest, ClientsIssueSplitsAndTransfers) {
  const SimResult result =
      RunSim(MethodKind::kGeneralized, QuickOptions(), /*seed=*/5);
  ExpectClean(result);
  EXPECT_GT(result.splits, 0u) << result.ToString();
}

// Transactions over the wire: the atomicity oracle holds for clients
// whose connections die mid-transaction and mid-commit.
TEST(NetSimTest, TransactionsStayAtomicOverTheWire) {
  SimOptions options = QuickOptions();
  options.txn_mode = true;
  options.abort_percent = 30;
  options.undo_crash_after_clrs = 2;
  const SimResult result =
      RunSim(MethodKind::kPhysiological, options, /*seed=*/6);
  ExpectClean(result);
  EXPECT_EQ(result.atomicity_violations, 0u);
  EXPECT_GT(result.txns_committed, 0u);
}

// Every recovery takes a second crash; half of them strike mid-drain
// with clients in flight, so a partition can carry in-doubt requests
// from two crashes at once.
TEST(NetSimTest, DoubleCrashesWhileServingStillVerify) {
  SimOptions options = QuickOptions();
  options.double_crash_percent = 100;
  const SimResult result =
      RunSim(MethodKind::kPhysiological, options, /*seed=*/7);
  ExpectClean(result);
  EXPECT_EQ(result.double_crashes, 3u);
}

// Each TCP client owns a disjoint page partition; fewer pages than
// clients is refused before any server starts, with the reason named.
TEST(NetSimTest, RefusesMisconfiguredPartition) {
  SimOptions options = QuickOptions();
  options.workload.num_pages = 2;
  const SimResult result =
      RunSim(MethodKind::kPhysiological, options, /*seed=*/8);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("fewer pages than workers' partitions"),
            std::string::npos)
      << result.failure;
  EXPECT_EQ(result.cycles, 0u);
  EXPECT_EQ(result.reconnects, 0u);
}

}  // namespace
}  // namespace redo::checker
