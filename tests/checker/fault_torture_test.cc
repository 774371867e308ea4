// The fault-model torture tests: every recovery method must come back
// from a damaged stable log (torn tail truncated, salvaged prefix
// replayed) and must survive randomized disk-fault schedules — torn page
// writes, write-error bursts, sticky reads, torn log forces — with the
// invariant-holds-or-detected guarantee: faults may cost performance and
// require healing, but recovery still matches the byte-level oracle and
// nothing is ever silently wrong.

#include <gtest/gtest.h>

#include <algorithm>

#include "checker/crash_sim.h"
#include "engine/minidb.h"
#include "method_param_name.h"

namespace redo::checker {
namespace {

using methods::MethodKind;

const MethodKind kAllMethods[] = {
    MethodKind::kLogical,       MethodKind::kPhysical,
    MethodKind::kPhysiological, MethodKind::kGeneralized,
    MethodKind::kPhysiologicalAnalysis, MethodKind::kPhysicalPartial,
};

TEST(CorruptTailRecoveryTest, EveryMethodRecoversFromTruncatedTail) {
  for (const MethodKind kind : kAllMethods) {
    SCOPED_TRACE(methods::MethodKindName(kind));
    engine::MiniDbOptions db_options;
    db_options.num_pages = 8;
    db_options.cache_capacity = 0;
    engine::MiniDb db(db_options, methods::MakeMethod(kind, {8}));

    ASSERT_TRUE(db.NewSession().WriteSlot(1, 0, 100).ok());
    ASSERT_TRUE(db.NewSession().WriteSlot(2, 0, 200).ok());
    ASSERT_TRUE(db.log().ForceAll().ok());
    ASSERT_TRUE(db.NewSession().WriteSlot(3, 0, 300).ok());
    ASSERT_TRUE(db.log().ForceAll().ok());

    db.Crash();
    // The tail of the stable log is damaged: the final record (LSN 3)
    // loses its last bytes. Before torn-tail tolerance this was a fatal
    // recovery error; now salvage truncates to the valid prefix.
    db.log().CorruptStableTail(3);
    ASSERT_TRUE(db.Recover().ok());
    EXPECT_EQ(db.log().stable_lsn(), 2u);

    EXPECT_EQ(db.NewSession().ReadSlot(1, 0).value(), 100);
    EXPECT_EQ(db.NewSession().ReadSlot(2, 0).value(), 200);
    EXPECT_EQ(db.NewSession().ReadSlot(3, 0).value(), 0)
        << "the truncated operation must NOT be replayed";

    // The salvaged log keeps working: new operations, new crashes.
    ASSERT_TRUE(db.NewSession().WriteSlot(3, 0, 301).ok());
    ASSERT_TRUE(db.log().ForceAll().ok());
    db.Crash();
    ASSERT_TRUE(db.Recover().ok());
    EXPECT_EQ(db.NewSession().ReadSlot(3, 0).value(), 301);
  }
}

TEST(CorruptTailRecoveryTest, SalvageRaisesStableLsnOverCompleteTornRecords) {
  engine::MiniDbOptions db_options;
  db_options.num_pages = 4;
  db_options.cache_capacity = 0;
  engine::MiniDb db(db_options,
                    methods::MakeMethod(MethodKind::kPhysical, {4}));
  ASSERT_TRUE(db.NewSession().WriteSlot(1, 0, 10).ok());
  ASSERT_TRUE(db.log().ForceAll().ok());
  ASSERT_TRUE(db.NewSession().WriteSlot(2, 0, 20).ok());
  // The crash interrupts the in-flight force AFTER the record's bytes
  // are down but BEFORE the ack: the record is whole and salvageable.
  const size_t pending = db.log().PendingForceBytes();
  ASSERT_EQ(db.log().TearInFlightForce(pending), pending);
  db.Crash();
  ASSERT_EQ(db.log().stable_lsn(), 1u);
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_EQ(db.log().stable_lsn(), 2u) << "complete unacked record salvaged";
  EXPECT_EQ(db.NewSession().ReadSlot(2, 0).value(), 20) << "and replayed";
}

struct FaultMatrixParam {
  MethodKind method;
  uint64_t seed;
};

class FaultMatrixTest : public ::testing::TestWithParam<FaultMatrixParam> {};

std::vector<FaultMatrixParam> FaultMatrixParams() {
  std::vector<FaultMatrixParam> params;
  for (const MethodKind kind : kAllMethods) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      params.push_back(FaultMatrixParam{kind, seed});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Methods, FaultMatrixTest, ::testing::ValuesIn(FaultMatrixParams()),
    [](const ::testing::TestParamInfo<FaultMatrixParam>& info) {
      return MethodParamName(info.param.method) + "Seed" +
             std::to_string(info.param.seed);
    });

TEST_P(FaultMatrixTest, NoSilentCorruptionUnderFaultSchedule) {
  SimOptions options;
  options.workload.num_pages = 12;
  options.cache_capacity = 6;
  options.ops_per_session = 120;
  options.cycles = 3;
  options.recovery_crashes = 1;
  options.disk_faults = true;
  options.tear_log_tail = true;
  const SimResult result =
      RunSim(GetParam().method, options, GetParam().seed);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.silent_corruptions, 0u);
  EXPECT_GT(result.faults_injected, 0u) << "the schedule actually fired";
  EXPECT_EQ(result.cycles, 3u);
  EXPECT_GT(result.pages_verified, 0u);
}

// ---- Log-media faults: the stable log BODY is damaged too ----
// With log_segment_bytes > 0 the database runs a segmented, mirrored,
// archived log and every crash also rolls bit rot / lost copies / torn
// seals over the sealed segments. The contract tightens: every damaged
// cycle must resolve at an explicit degradation-ladder rung, and
// recovery must still match the byte-level oracle exactly.

class LogMediaMatrixTest : public ::testing::TestWithParam<FaultMatrixParam> {};

INSTANTIATE_TEST_SUITE_P(
    Methods, LogMediaMatrixTest,
    ::testing::ValuesIn(FaultMatrixParams()),
    [](const ::testing::TestParamInfo<FaultMatrixParam>& info) {
      return MethodParamName(info.param.method) + "Seed" +
             std::to_string(info.param.seed);
    });

SimOptions LogMediaOptions() {
  SimOptions options;
  options.workload.num_pages = 12;
  options.cache_capacity = 6;
  options.ops_per_session = 120;
  options.cycles = 3;
  options.disk_faults = true;
  options.tear_log_tail = true;
  // Small segments so every cycle seals (and damages) several; a fresh
  // backup every cycle so rung 2 always has a current anchor; truncation
  // so the archive-only prefix is exercised.
  options.log_segment_bytes = 448;
  options.backup_interval = 1;
  options.truncate_at_backup = true;
  return options;
}

TEST_P(LogMediaMatrixTest, EveryDamagedCycleResolvesAtAnExplicitRung) {
  const SimResult result = RunSim(
      GetParam().method, LogMediaOptions(), GetParam().seed);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.silent_corruptions, 0u);
  EXPECT_GT(result.segments_sealed, 0u) << "the segmented log actually ran";
  EXPECT_GT(result.backups_taken, 0u);
  // Accounting sanity: ladder cycles only happen when faults landed.
  if (result.ladder_mirror_cycles + result.ladder_media_cycles +
          result.ladder_refusals >
      0) {
    EXPECT_GT(result.log_faults_injected, 0u);
  }
}

TEST(LogMediaMatrixTest, ScheduleInjectsAndExercisesTheLadderAcrossSeeds) {
  // One seed may dodge a rung; across methods x seeds the schedule must
  // inject log faults and resolve damage through the ladder.
  size_t injected = 0, ladder_cycles = 0, repairs = 0;
  for (const MethodKind kind : {MethodKind::kLogical, MethodKind::kGeneralized}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const SimResult result =
          RunSim(kind, LogMediaOptions(), seed);
      ASSERT_TRUE(result.ok) << result.ToString();
      injected += result.log_faults_injected;
      repairs += result.log_scrub_repairs;
      ladder_cycles += result.ladder_mirror_cycles +
                       result.ladder_media_cycles + result.ladder_refusals;
    }
  }
  EXPECT_GT(injected, 0u);
  EXPECT_GT(repairs, 0u) << "scrub must repair from mirrors/archive";
  EXPECT_GT(ladder_cycles, 0u) << "some cycle must degrade explicitly";
}

TEST(LogMediaMatrixTest, LogMediaRunsAreDeterministicInSeed) {
  const SimResult first =
      RunSim(MethodKind::kPhysiological, LogMediaOptions(), 7);
  const SimResult second =
      RunSim(MethodKind::kPhysiological, LogMediaOptions(), 7);
  EXPECT_TRUE(first.ok) << first.ToString();
  EXPECT_EQ(first.ToString(), second.ToString());
}

TEST(LogMediaMatrixTest, FlatLogConfigInjectsNoLogFaults) {
  SimOptions options = LogMediaOptions();
  options.log_segment_bytes = 0;  // flat PR-1 log
  const SimResult result =
      RunSim(MethodKind::kGeneralized, options, 11);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.log_faults_injected, 0u);
  EXPECT_EQ(result.segments_sealed, 0u);
  EXPECT_EQ(result.ladder_media_cycles + result.ladder_refusals, 0u);
}

TEST(FaultMatrixTest, DisabledFaultsInjectNothingAndStayDeterministic) {
  // With the fault plumbing compiled in but disabled, the simulator must
  // behave like the plain crash sim: no fault counters fire, and the run
  // is a pure function of the seed.
  SimOptions options;
  options.workload.num_pages = 12;
  options.ops_per_session = 100;
  options.cycles = 2;
  options.disk_faults = false;
  const SimResult first =
      RunSim(MethodKind::kPhysical, options, /*seed=*/42);
  const SimResult second =
      RunSim(MethodKind::kPhysical, options, /*seed=*/42);
  EXPECT_TRUE(first.ok) << first.ToString();
  EXPECT_TRUE(second.ok) << second.ToString();
  EXPECT_EQ(first.ops, second.ops);
  EXPECT_EQ(first.stable_ops_at_crashes, second.stable_ops_at_crashes);
  EXPECT_EQ(first.faults_injected, 0u);
  EXPECT_EQ(first.faults_detected, 0u);
  EXPECT_EQ(first.torn_tails, 0u);
  EXPECT_EQ(first.pages_healed, 0u);
}

}  // namespace
}  // namespace redo::checker
