// Golden-file test of the recovery timeline: each method runs a fixed
// crash/recover scenario twice; both runs must export byte-identical,
// timing-free timelines, and the bytes must match the checked-in golden
// under tests/obs/golden/. A diff here means the redo-test verdict
// stream (or the event format) changed — either fix the regression or,
// if the change is intended, regenerate with:
//
//   REDO_REGEN_GOLDENS=1 ./build/tests/obs_test --gtest_filter='TimelineGolden.*'

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "engine/minidb.h"
#include "obs/recovery_trace.h"

namespace redo {
namespace {

/// The recovery_timeline example's scenario, verbatim: writes across
/// five pages, a mid-stream checkpoint, more writes, two explicit page
/// flushes (giving LSN-test methods installed records to skip), full
/// force, crash, recover.
std::string RunScenarioTimeline(methods::MethodKind kind) {
  engine::MiniDbOptions options;
  options.num_pages = 8;
  options.cache_capacity = kind == methods::MethodKind::kLogical ? 0 : 4;
  engine::MiniDb db(options, methods::MakeMethod(kind, {options.num_pages}));
  obs::RecoveryTracer tracer(&db.metrics());
  db.Attach(engine::Instrumentation{nullptr, &tracer});

  EXPECT_TRUE(db.NewSession().WriteSlot(1, 0, 100).ok());
  EXPECT_TRUE(db.NewSession().WriteSlot(2, 0, 200).ok());
  EXPECT_TRUE(db.NewSession().WriteSlot(3, 0, 300).ok());
  EXPECT_TRUE(db.Checkpoint().ok());
  EXPECT_TRUE(db.NewSession().WriteSlot(1, 1, 101).ok());
  EXPECT_TRUE(db.NewSession().WriteSlot(2, 1, 201).ok());
  EXPECT_TRUE(db.NewSession().WriteSlot(4, 0, 400).ok());
  EXPECT_TRUE(db.NewSession().WriteSlot(5, 0, 500).ok());
  EXPECT_TRUE(db.NewSession().WriteSlot(4, 1, 401).ok());
  EXPECT_TRUE(db.MaybeFlushPage(1).ok());
  EXPECT_TRUE(db.MaybeFlushPage(2).ok());
  EXPECT_TRUE(db.log().ForceAll().ok());

  db.Crash();
  EXPECT_TRUE(db.Recover().ok());
  return tracer.ToText(/*include_timing=*/false);
}

std::string GoldenPath(methods::MethodKind kind) {
  return std::string(REDO_TEST_SRCDIR) + "/obs/golden/timeline_" +
         methods::MethodKindName(kind) + ".txt";
}

void CheckMethod(methods::MethodKind kind) {
  const std::string first = RunScenarioTimeline(kind);
  const std::string second = RunScenarioTimeline(kind);
  // Byte-identical across two independent engine instances.
  ASSERT_EQ(first, second) << "timeline is nondeterministic for "
                           << methods::MethodKindName(kind);

  const std::string path = GoldenPath(kind);
  if (std::getenv("REDO_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << first;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with REDO_REGEN_GOLDENS=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(first, golden.str())
      << "timeline for " << methods::MethodKindName(kind)
      << " diverged from its golden; regenerate with REDO_REGEN_GOLDENS=1 "
         "if the change is intended";
}

TEST(TimelineGolden, Logical) { CheckMethod(methods::MethodKind::kLogical); }
TEST(TimelineGolden, Physical) { CheckMethod(methods::MethodKind::kPhysical); }
TEST(TimelineGolden, Physiological) {
  CheckMethod(methods::MethodKind::kPhysiological);
}
TEST(TimelineGolden, GeneralizedLsn) {
  CheckMethod(methods::MethodKind::kGeneralized);
}
TEST(TimelineGolden, PhysioAries) {
  CheckMethod(methods::MethodKind::kPhysiologicalAnalysis);
}
TEST(TimelineGolden, PhysicalPartial) {
  CheckMethod(methods::MethodKind::kPhysicalPartial);
}

}  // namespace
}  // namespace redo
