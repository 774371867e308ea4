#include "obs/recovery_trace.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.h"

namespace redo::obs {
namespace {

TEST(RecoveryTracer, RecordsARunWithVerdictTotals) {
  RecoveryTracer tracer;
  tracer.BeginRun("physiological");
  tracer.BeginPhase("redo-scan");
  tracer.CheckpointChosen(4, 2);
  tracer.Verdict(5, 1, RedoVerdict::kApplied, "page-lsn-older");
  tracer.Verdict(6, 2, RedoVerdict::kSkippedInstalled, "page-lsn-current");
  tracer.Verdict(7, 3, RedoVerdict::kNotExposed, "analysis-dpt");
  tracer.EndPhase();
  tracer.EndRun(true, "ok");

  EXPECT_FALSE(tracer.in_run());
  EXPECT_EQ(tracer.run_verdicts().applied, 1u);
  EXPECT_EQ(tracer.run_verdicts().skipped_installed, 1u);
  EXPECT_EQ(tracer.run_verdicts().not_exposed, 1u);
  EXPECT_EQ(tracer.run_verdicts().total(), 3u);

  ASSERT_EQ(tracer.events().size(), 8u);
  EXPECT_EQ(tracer.events().front().event, "run-begin");
  EXPECT_EQ(tracer.events().back().event, "run-end");
}

TEST(RecoveryTracer, NestedRunsJoinTheOuterTimeline) {
  RecoveryTracer tracer;
  tracer.BeginRun("ladder");
  tracer.Rung("mirror-repair", 0, "scrub repaired 1 damaged segment copies");
  tracer.BeginRun("physiological");  // db.Recover() inside the ladder
  tracer.Verdict(9, 1, RedoVerdict::kApplied, "page-lsn-older");
  tracer.EndRun(true, "ok");         // inner end: no run-end event yet
  EXPECT_TRUE(tracer.in_run());
  tracer.EndRun(true, "ok");
  EXPECT_FALSE(tracer.in_run());

  size_t begins = 0, ends = 0;
  for (const TraceEvent& event : tracer.events()) {
    begins += event.event == "run-begin";
    ends += event.event == "run-end";
  }
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(ends, 1u);
  EXPECT_EQ(tracer.run_verdicts().applied, 1u);
}

TEST(RecoveryTracer, ClearDropsEventsButKeepsCumulativeTotals) {
  RecoveryTracer tracer;
  tracer.BeginRun("m");
  tracer.Verdict(1, 0, RedoVerdict::kApplied, "redo-all");
  tracer.EndRun(true, "ok");
  tracer.Clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.total_verdicts().applied, 1u);

  tracer.BeginRun("m");
  tracer.Verdict(2, 0, RedoVerdict::kApplied, "redo-all");
  tracer.EndRun(true, "ok");
  EXPECT_EQ(tracer.total_verdicts().applied, 2u);
  EXPECT_EQ(tracer.run_verdicts().applied, 1u);
}

TEST(RecoveryTracer, ExportsAreDeterministicWithoutTiming) {
  RecoveryTracer tracer;
  tracer.BeginRun("physical");
  tracer.BeginPhase("redo-scan");
  tracer.Verdict(3, 7, RedoVerdict::kApplied, "redo-all");
  tracer.Note("a \"quoted\" note");
  tracer.EndPhase();
  tracer.EndRun(false, "Corruption: hole at LSN 12");

  const std::string text = tracer.ToText(/*include_timing=*/false);
  const std::string jsonl = tracer.ToJsonl(/*include_timing=*/false);
  EXPECT_EQ(tracer.ToText(false), text);
  EXPECT_EQ(tracer.ToJsonl(false), jsonl);
  // Timing-free output carries no wall-clock field at all.
  EXPECT_EQ(text.find("wall_us"), std::string::npos);
  EXPECT_EQ(jsonl.find("wall_us"), std::string::npos);
  // Every JSONL line is one JSON object.
  size_t pos = 0;
  while (pos < jsonl.size()) {
    size_t end = jsonl.find('\n', pos);
    ASSERT_NE(end, std::string::npos);
    EXPECT_EQ(jsonl[pos], '{');
    EXPECT_EQ(jsonl[end - 1], '}');
    pos = end + 1;
  }
  // The failure status and verdicts are in the exports.
  EXPECT_NE(text.find("Corruption: hole at LSN 12"), std::string::npos);
  EXPECT_NE(jsonl.find("\"verdict\":\"applied\""), std::string::npos);
}

TEST(RecoveryTracer, RegistersCumulativeMetrics) {
  MetricsRegistry registry;
  RecoveryTracer tracer(&registry);
  tracer.BeginRun("m");
  tracer.BeginPhase("redo-scan");
  tracer.Verdict(1, 0, RedoVerdict::kApplied, "redo-all");
  tracer.Verdict(2, 0, RedoVerdict::kSkippedInstalled, "page-lsn-current");
  tracer.EndPhase();
  tracer.EndRun(true, "ok");

  const Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.Value("recovery.runs"), 1);
  EXPECT_EQ(snap.Value("recovery.phases"), 1);
  EXPECT_EQ(snap.Value("recovery.verdict_applied"), 1);
  EXPECT_EQ(snap.Value("recovery.verdict_skipped_installed"), 1);
  EXPECT_EQ(snap.Value("recovery.verdict_not_exposed"), 0);
  const SnapshotEntry* phase_us = snap.Find("recovery.phase_us");
  ASSERT_NE(phase_us, nullptr);
  EXPECT_EQ(phase_us->count, 1u);
}

TEST(RedoVerdictName, CoversEveryVerdict) {
  EXPECT_STREQ(RedoVerdictName(RedoVerdict::kApplied), "applied");
  EXPECT_STREQ(RedoVerdictName(RedoVerdict::kSkippedInstalled),
               "skipped-installed");
  EXPECT_STREQ(RedoVerdictName(RedoVerdict::kNotExposed), "not-exposed");
}

// The DESIGN.md §8 reason codes both redo executors emit.
TEST(RedoVerdictReason, CoversEveryVerdictUnderBothTests) {
  for (const bool redo_all : {false, true}) {
    EXPECT_STREQ(RedoVerdictReason(RedoVerdict::kSkippedInstalled, redo_all),
                 "page-lsn-current");
    EXPECT_STREQ(RedoVerdictReason(RedoVerdict::kNotExposed, redo_all),
                 "analysis-dpt");
  }
  EXPECT_STREQ(RedoVerdictReason(RedoVerdict::kApplied, /*redo_all=*/true),
               "redo-all");
  EXPECT_STREQ(RedoVerdictReason(RedoVerdict::kApplied, /*redo_all=*/false),
               "page-lsn-older");
}

}  // namespace
}  // namespace redo::obs
