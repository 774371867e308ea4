// The serial-vs-parallel redo equivalence oracle inside the crash
// simulator: at every crash point, recovery with 2/4/8 workers must
// produce byte-identical effective pages, page LSNs, and redo-verdict
// multisets to the serial run — under fault injection too.

#include <gtest/gtest.h>

#include <utility>

#include "checker/crash_sim.h"

namespace redo::checker {
namespace {

using methods::MethodKind;

constexpr MethodKind kMatrixMethods[] = {
    MethodKind::kLogical, MethodKind::kPhysical, MethodKind::kGeneralized,
    MethodKind::kPhysiologicalAnalysis};

SimOptions EquivalenceOptions() {
  SimOptions options;
  options.workload.num_pages = 12;
  options.workload.split_probability = 0.10;
  options.workload.transfer_probability = 0.08;
  options.ops_per_session = 120;
  options.cycles = 3;
  options.equivalence_workers = {2, 4, 8};
  return options;
}

TEST(ParallelEquivalenceTest, FaultFreeCyclesNeverDiverge) {
  for (const MethodKind kind : kMatrixMethods) {
    const SimResult result = RunSim(kind, EquivalenceOptions(), 31);
    EXPECT_TRUE(result.ok)
        << methods::MethodKindName(kind) << ": " << result.ToString();
    // 3 crash points x 3 worker counts, all compared, none diverging.
    EXPECT_EQ(result.equivalence_checks, 9u) << methods::MethodKindName(kind);
    EXPECT_EQ(result.equivalence_divergences, 0u)
        << methods::MethodKindName(kind);
  }
}

TEST(ParallelEquivalenceTest, DiskFaultCyclesNeverDiverge) {
  SimOptions options = EquivalenceOptions();
  options.disk_faults = true;
  options.tear_log_tail = true;
  for (const MethodKind kind : kMatrixMethods) {
    const SimResult result = RunSim(kind, options, 47);
    EXPECT_TRUE(result.ok)
        << methods::MethodKindName(kind) << ": " << result.ToString();
    EXPECT_EQ(result.equivalence_checks, 9u) << methods::MethodKindName(kind);
    EXPECT_EQ(result.equivalence_divergences, 0u)
        << methods::MethodKindName(kind);
  }
}

TEST(ParallelEquivalenceTest, LogMediaFaultCyclesCompareNonDegradedCycles) {
  SimOptions options = EquivalenceOptions();
  options.disk_faults = true;
  options.tear_log_tail = true;
  // A physical record is a 4 KB image: a segment must hold several, or
  // every cycle degrades and the oracle never runs.
  for (const auto& [kind, segment_bytes] :
       {std::pair{MethodKind::kPhysical, size_t{64} << 10},
        std::pair{MethodKind::kGeneralized, size_t{4096}}}) {
    options.log_segment_bytes = segment_bytes;
    const SimResult result = RunSim(kind, options, 53);
    EXPECT_TRUE(result.ok)
        << methods::MethodKindName(kind) << ": " << result.ToString();
    // Degraded cycles (ladder rung 2/3) skip the oracle; the rest are
    // compared, and must agree with serial.
    EXPECT_GT(result.equivalence_checks, 0u) << methods::MethodKindName(kind);
    EXPECT_EQ(result.equivalence_divergences, 0u)
        << methods::MethodKindName(kind);
  }
}

TEST(ParallelEquivalenceTest, BoundedCacheCyclesNeverDiverge) {
  SimOptions options = EquivalenceOptions();
  options.cache_capacity = 3;  // recovery evicts and flushes mid-redo
  for (const MethodKind kind :
       {MethodKind::kPhysical, MethodKind::kGeneralized,
        MethodKind::kPhysiologicalAnalysis}) {
    const SimResult result = RunSim(kind, options, 61);
    EXPECT_TRUE(result.ok)
        << methods::MethodKindName(kind) << ": " << result.ToString();
    EXPECT_EQ(result.equivalence_checks, 9u) << methods::MethodKindName(kind);
    EXPECT_EQ(result.equivalence_divergences, 0u)
        << methods::MethodKindName(kind);
  }
}

TEST(ParallelEquivalenceTest, OracleIsDeterministicInSeed) {
  const SimResult a =
      RunSim(MethodKind::kGeneralized, EquivalenceOptions(), 9);
  const SimResult b =
      RunSim(MethodKind::kGeneralized, EquivalenceOptions(), 9);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.equivalence_checks, 9u);
}

}  // namespace
}  // namespace redo::checker
