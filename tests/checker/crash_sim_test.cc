// The crash-recover-verify loop across all methods and many seeds: the
// §6 claim that every method maintains the recovery invariant, validated
// by both the formal checker and the byte-level oracle.

#include "checker/crash_sim.h"

#include <gtest/gtest.h>

namespace redo::checker {
namespace {

using methods::MethodKind;

struct MatrixParam {
  MethodKind method;
  uint64_t seed;
};

class CrashSimMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

std::vector<MatrixParam> MatrixParams() {
  std::vector<MatrixParam> params;
  for (const MethodKind kind : methods::kMethodKinds) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      params.push_back(MatrixParam{kind, seed});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Methods, CrashSimMatrixTest, ::testing::ValuesIn(MatrixParams()),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      std::string name = methods::MethodKindName(info.param.method);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + "Seed" + std::to_string(info.param.seed);
    });

TEST_P(CrashSimMatrixTest, InvariantHoldsAndRecoveryIsExact) {
  SimOptions options;
  options.workload.num_pages = 12;
  options.ops_per_session = 120;
  options.cycles = 3;
  const SimResult result =
      RunSim(GetParam().method, options, GetParam().seed);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.cycles, 3u);
  EXPECT_EQ(result.checker_runs, 3u);
  EXPECT_GT(result.pages_verified, 0u);
}

TEST(CrashSimTest, TinyCacheStressesEvictionPaths) {
  SimOptions options;
  options.workload.num_pages = 10;
  options.cache_capacity = 2;  // constant eviction traffic
  options.ops_per_session = 150;
  options.cycles = 2;
  for (const MethodKind kind : {MethodKind::kPhysical, MethodKind::kPhysiological,
                                MethodKind::kGeneralized, MethodKind::kPhysiologicalAnalysis,
        MethodKind::kPhysicalPartial}) {
    const SimResult result = RunSim(kind, options, 77);
    EXPECT_TRUE(result.ok)
        << methods::MethodKindName(kind) << ": " << result.ToString();
  }
}

TEST(CrashSimTest, HeavySplitsExerciseWriteOrdering) {
  SimOptions options;
  options.workload.num_pages = 8;
  options.workload.split_probability = 0.25;
  options.workload.flush_probability = 0.25;
  options.ops_per_session = 120;
  options.cycles = 3;
  const SimResult result =
      RunSim(MethodKind::kGeneralized, options, 1234);
  EXPECT_TRUE(result.ok) << result.ToString();
}

TEST(CrashSimTest, NoCheckpointsEver) {
  SimOptions options;
  options.workload.num_pages = 8;
  options.workload.checkpoint_probability = 0.0;
  options.ops_per_session = 100;
  options.cycles = 2;
  for (const MethodKind kind : methods::kMethodKinds) {
    const SimResult result = RunSim(kind, options, 5);
    EXPECT_TRUE(result.ok)
        << methods::MethodKindName(kind) << ": " << result.ToString();
  }
}

TEST(CrashSimTest, FrequentCheckpointsKeepRedoShort) {
  SimOptions options;
  options.workload.num_pages = 8;
  options.workload.checkpoint_probability = 0.2;
  options.ops_per_session = 100;
  options.cycles = 2;
  const SimResult result =
      RunSim(MethodKind::kPhysiological, options, 6);
  EXPECT_TRUE(result.ok) << result.ToString();
}

TEST(CrashSimTest, CrashesDuringRecoveryAreSurvivable) {
  SimOptions options;
  options.workload.num_pages = 10;
  options.cache_capacity = 3;  // recovery itself evicts and flushes
  options.ops_per_session = 120;
  options.cycles = 2;
  options.recovery_crashes = 3;
  for (const MethodKind kind : methods::kMethodKinds) {
    const SimResult result = RunSim(kind, options, 21);
    EXPECT_TRUE(result.ok)
        << methods::MethodKindName(kind) << ": " << result.ToString();
    EXPECT_EQ(result.checker_runs, 2u * (1 + 3))
        << "checker must run after every re-crash too";
  }
}

TEST(CrashSimTest, DeterministicInSeed) {
  SimOptions options;
  options.workload.num_pages = 8;
  options.ops_per_session = 60;
  options.cycles = 2;
  const SimResult a = RunSim(MethodKind::kGeneralized, options, 9);
  const SimResult b = RunSim(MethodKind::kGeneralized, options, 9);
  EXPECT_EQ(a.ToString(), b.ToString());
}

}  // namespace
}  // namespace redo::checker
