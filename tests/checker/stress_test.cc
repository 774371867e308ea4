// Heavier randomized stress: longer workloads, more seeds, adversarial
// knob settings, and B-tree crash-recovery with the formal checker in
// the loop. Kept within a few seconds total; the crash simulator's two
// oracles (formal invariant + byte-level prefix replay) do the judging.

#include <gtest/gtest.h>

#include <map>

#include "btree/btree.h"
#include "btree/node_format.h"
#include "checker/crash_sim.h"
#include "checker/recovery_checker.h"

namespace redo::checker {
namespace {

using methods::MethodKind;

const MethodKind kAllMethods[] = {
    MethodKind::kLogical,       MethodKind::kPhysical,
    MethodKind::kPhysiological, MethodKind::kGeneralized,
    MethodKind::kPhysiologicalAnalysis, MethodKind::kPhysicalPartial,
};

TEST(StressTest, LongRunsAllMethods) {
  for (const MethodKind kind : kAllMethods) {
    SimOptions options;
    options.workload.num_pages = 24;
    options.cache_capacity = 5;
    options.ops_per_session = 600;
    options.cycles = 3;
    options.recovery_crashes = 1;
    const SimResult result = RunSim(kind, options, 0xbeef);
    EXPECT_TRUE(result.ok)
        << methods::MethodKindName(kind) << ": " << result.ToString();
  }
}

TEST(StressTest, AdversarialKnobSweep) {
  // Corners of the workload space: split-heavy, flush-heavy, no forces,
  // checkpoint storms — each for every method, short segments.
  struct Knobs {
    double split, flush, checkpoint, force;
  };
  const Knobs corners[] = {
      {0.30, 0.05, 0.00, 0.00},  // split-heavy, nothing ever stabilized
      {0.05, 0.45, 0.01, 0.05},  // flush-heavy
      {0.10, 0.10, 0.25, 0.00},  // checkpoint storm
      {0.00, 0.00, 0.00, 0.30},  // forces only, no flushes
  };
  for (const MethodKind kind : kAllMethods) {
    for (size_t c = 0; c < std::size(corners); ++c) {
      SimOptions options;
      options.workload.num_pages = 10;
      options.workload.split_probability = corners[c].split;
      options.workload.flush_probability = corners[c].flush;
      options.workload.checkpoint_probability = corners[c].checkpoint;
      options.workload.force_log_probability = corners[c].force;
      options.cache_capacity = 4;
      options.ops_per_session = 150;
      options.cycles = 2;
      const SimResult result = RunSim(kind, options, 100 + c);
      EXPECT_TRUE(result.ok) << methods::MethodKindName(kind) << " corner " << c
                             << ": " << result.ToString();
    }
  }
}

TEST(StressTest, HighSkewHotPage) {
  // Zipf 1.5: nearly all traffic on one page — maximal version churn on
  // a single variable.
  for (const MethodKind kind : kAllMethods) {
    SimOptions options;
    options.workload.num_pages = 8;
    options.workload.zipf_skew = 1.5;
    options.cache_capacity = 2;
    options.ops_per_session = 300;
    options.cycles = 2;
    const SimResult result = RunSim(kind, options, 0x507);
    EXPECT_TRUE(result.ok)
        << methods::MethodKindName(kind) << ": " << result.ToString();
  }
}

TEST(StressTest, BtreeCrashLoopWithChecker) {
  // Interleave B-tree batches with crashes; the checker validates the
  // invariant at every crash and the tree revalidates after recovery.
  for (const MethodKind kind :
       {MethodKind::kPhysiological, MethodKind::kGeneralized,
        MethodKind::kPhysicalPartial}) {
    engine::MiniDbOptions options;
    options.num_pages = 128;
    options.cache_capacity = 8;
    engine::MiniDb db(options, methods::MakeMethod(kind, {options.num_pages}));
    engine::TraceRecorder trace(db.disk());
    db.Attach(engine::Instrumentation{&trace, nullptr});
    btree::Btree tree = btree::Btree::Create(&db).value();
    Rng rng(0xb7 + static_cast<uint64_t>(kind));
    std::map<int64_t, int64_t> reference;
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 400; ++i) {
        const int64_t key = rng.Range(0, 4000);
        if (rng.Chance(0.25)) {
          ASSERT_TRUE(tree.Remove(key).ok());
          reference.erase(key);
        } else {
          ASSERT_TRUE(tree.Insert(key, key + round).ok());
          reference[key] = key + round;
        }
        if (rng.Chance(0.05)) {
          ASSERT_TRUE(db.MaybeFlushPage(static_cast<storage::PageId>(
                            rng.Below(options.num_pages)))
                          .ok());
        }
      }
      ASSERT_TRUE(db.log().ForceAll().ok());
      db.Crash();
      const CheckResult check = CheckCrashState(db, trace);
      ASSERT_TRUE(check.ok)
          << methods::MethodKindName(kind) << ": " << check.ToString();
      ASSERT_TRUE(db.Recover().ok());
      ASSERT_TRUE(db.FlushEverything().ok());
      ASSERT_TRUE(db.Checkpoint().ok());
      trace.BeginEpoch(db.disk(), db.log().last_lsn() + 1);

      tree = btree::Btree::Open(&db).value();
      ASSERT_TRUE(tree.ValidateStructure().ok());
      ASSERT_EQ(tree.Size().value(), reference.size());
    }
    for (const auto& [k, v] : reference) {
      ASSERT_EQ(tree.Lookup(k).value().value(), v) << "key " << k;
    }
  }
}

}  // namespace
}  // namespace redo::checker
