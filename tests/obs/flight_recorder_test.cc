#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/minidb.h"

namespace redo::obs {
namespace {

/// Every test steers the process-global recorder; restore its resting
/// state (enabled, real ticks, no watchdog) on the way out.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder& recorder = FlightRecorder::Global();
    recorder.set_enabled(true);
    recorder.Reset();
  }
  void TearDown() override {
    FlightRecorder& recorder = FlightRecorder::Global();
    recorder.UseVirtualTicks(false);
    recorder.set_slow_op_threshold_us(0);
    recorder.set_enabled(true);
    recorder.Reset();
  }
};

TEST_F(FlightRecorderTest, RecordsSpansAndInstants) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.UseVirtualTicks(true);
  const uint64_t begin = recorder.NowTick();
  recorder.EndSpan(FlightEventType::kGcForce, begin, /*a0=*/42, /*a1=*/7);
  recorder.Instant(FlightEventType::kTxnBegin, /*a0=*/3);

  const std::vector<FlightEvent> events = recorder.Drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, FlightEventType::kGcForce);
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].tick, begin);
  EXPECT_GE(events[0].dur, 1u);  // EndSpan's own NowTick advanced the clock
  EXPECT_EQ(events[0].a0, 42u);
  EXPECT_EQ(events[0].a1, 7u);
  EXPECT_EQ(events[1].type, FlightEventType::kTxnBegin);
  EXPECT_EQ(events[1].phase, 'i');
  EXPECT_EQ(events[1].dur, 0u);
  EXPECT_EQ(events[1].a0, 3u);
  // Drain moved the events out: a second drain is empty.
  EXPECT_TRUE(recorder.Drain().empty());
}

TEST_F(FlightRecorderTest, DisabledRecorderRecordsNothing) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.set_enabled(false);
  recorder.Instant(FlightEventType::kTxnBegin, 1);
  {
    FlightScope scope(FlightEventType::kSessionOp, 2);
  }
  recorder.set_enabled(true);
  EXPECT_TRUE(recorder.Drain().empty());
  EXPECT_EQ(recorder.events_recorded(), 0u);
}

TEST_F(FlightRecorderTest, RingOverwritesOldestAndCountsDrops) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.UseVirtualTicks(true);
  const size_t kOverflow = 10;
  for (size_t i = 0; i < FlightRecorder::kRingCapacity + kOverflow; ++i) {
    recorder.Instant(FlightEventType::kRedoHandoff, /*a0=*/i);
  }
  EXPECT_EQ(recorder.events_recorded(),
            FlightRecorder::kRingCapacity + kOverflow);
  EXPECT_EQ(recorder.events_dropped(), kOverflow);

  const std::vector<FlightEvent> events = recorder.Drain();
  ASSERT_EQ(events.size(), FlightRecorder::kRingCapacity);
  // The oldest kOverflow events were overwritten; the survivors start
  // there and remain in push order.
  EXPECT_EQ(events.front().a0, kOverflow);
  EXPECT_EQ(events.back().a0, FlightRecorder::kRingCapacity + kOverflow - 1);
}

TEST_F(FlightRecorderTest, DrainMergesThreadsSortedByTick) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.UseVirtualTicks(true);
  recorder.Instant(FlightEventType::kTxnBegin, 1);  // main: tid 1, tick 1
  std::thread other([&recorder] {
    recorder.Instant(FlightEventType::kTxnBegin, 2);  // tid 2, tick 2
  });
  other.join();
  recorder.Instant(FlightEventType::kTxnBegin, 3);  // tid 1, tick 3

  const std::vector<FlightEvent> events = recorder.Drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].a0, 1u);
  EXPECT_EQ(events[1].a0, 2u);
  EXPECT_EQ(events[2].a0, 3u);
  EXPECT_EQ(events[0].tid, 1u);
  EXPECT_EQ(events[1].tid, 2u);
  EXPECT_EQ(events[2].tid, 1u);
}

TEST_F(FlightRecorderTest, ResetRestartsTicksAndThreadIds) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.UseVirtualTicks(true);
  recorder.Instant(FlightEventType::kTxnBegin, 1);
  std::thread other(
      [&recorder] { recorder.Instant(FlightEventType::kTxnBegin, 2); });
  other.join();

  recorder.Reset();
  EXPECT_EQ(recorder.events_recorded(), 0u);
  // After Reset the virtual clock restarts and this thread re-claims
  // tid 1 — a fresh deterministic scenario always sees the same ids.
  recorder.Instant(FlightEventType::kTxnBegin, 9);
  const std::vector<FlightEvent> events = recorder.Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tid, 1u);
  EXPECT_EQ(events[0].tick, 1u);
}

TEST_F(FlightRecorderTest, WatchdogPromotesSlowSpans) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.UseVirtualTicks(true);
  recorder.set_slow_op_threshold_us(5);

  // A fast span: begin and end one tick apart.
  const uint64_t fast = recorder.NowTick();
  recorder.EndSpan(FlightEventType::kGcForce, fast);
  EXPECT_EQ(recorder.slow_ops(), 0u);

  // A slow span: let the virtual clock advance past the threshold.
  const uint64_t slow = recorder.NowTick();
  for (int i = 0; i < 10; ++i) recorder.NowTick();
  recorder.EndSpan(FlightEventType::kCkptBarrier, slow, /*a0=*/1);
  EXPECT_EQ(recorder.slow_ops(), 1u);

  const std::vector<FlightEvent> details = recorder.SlowOpDetails();
  ASSERT_EQ(details.size(), 1u);
  EXPECT_EQ(details[0].type, FlightEventType::kCkptBarrier);
  EXPECT_GE(details[0].dur, 5u);

  // The promotion also leaves a watchdog.slow_op marker in the stream.
  bool saw_marker = false;
  for (const FlightEvent& event : recorder.Drain()) {
    if (event.type == FlightEventType::kSlowOp) {
      saw_marker = true;
      EXPECT_EQ(event.a0,
                static_cast<uint64_t>(FlightEventType::kCkptBarrier));
    }
  }
  EXPECT_TRUE(saw_marker);
}

// The watchdog's threshold is the process-global recorder's own: an
// engine constructed after it was armed leaves it armed.
TEST_F(FlightRecorderTest, WatchdogStaysArmedAcrossEngineConstruction) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.UseVirtualTicks(true);
  recorder.set_slow_op_threshold_us(5);
  engine::MiniDbOptions options;
  options.num_pages = 4;
  engine::MiniDb db(options,
                    methods::MakeMethod(methods::MethodKind::kPhysiological,
                                        {options.num_pages}));
  const uint64_t slow = recorder.NowTick();
  for (int i = 0; i < 10; ++i) recorder.NowTick();
  recorder.EndSpan(FlightEventType::kSessionOp, slow, /*a0=*/1);
  EXPECT_EQ(recorder.slow_ops(), 1u);
}

TEST_F(FlightRecorderTest, ChromeTraceJsonShape) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.UseVirtualTicks(true);
  const uint64_t begin = recorder.NowTick();
  recorder.EndSpan(FlightEventType::kGcAckWait, begin, /*a0=*/12);
  recorder.Instant(FlightEventType::kRedoHandoff, 1, 2, 3);

  const std::vector<FlightEvent> events = recorder.Drain();
  const std::string json = ToChromeTraceJson(events);
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gc.ack_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"wal\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);  // instant scope
  // Deterministic: same events, same bytes.
  EXPECT_EQ(ToChromeTraceJson(events), json);
}

TEST_F(FlightRecorderTest, MetricsSourceReportsAndResets) {
  FlightRecorder& recorder = FlightRecorder::Global();
  MetricsRegistry registry;
  recorder.RegisterMetrics(registry, "flight");
  recorder.Instant(FlightEventType::kTxnBegin, 1);
  EXPECT_EQ(registry.TakeSnapshot().Value("flight.events"), 1);
  registry.ResetAll();
  EXPECT_EQ(recorder.events_recorded(), 0u);
  EXPECT_EQ(registry.TakeSnapshot().Value("flight.events"), 0);
  (void)recorder.Drain();
}

// ---- The engine coverage test: a recover-then-serve run must trace
// ---- spans from the session, WAL, and redo subsystems.

TEST_F(FlightRecorderTest, RecoverThenServeTracesAllSubsystems) {
  FlightRecorder& recorder = FlightRecorder::Global();

  engine::MiniDbOptions options;
  options.num_pages = 8;
  options.cache_capacity = 0;  // concurrent mode requires unbounded
  options.engine.group_commit_window_us = 100;
  options.engine.instant_restart = true;
  options.engine.instant_drain_workers = 1;
  engine::MiniDb db(options,
                    methods::MakeMethod(methods::MethodKind::kPhysiological,
                                        {options.num_pages}));
  auto run_round = [&db] {
    engine::MiniDb::Session session = db.NewSession();
    for (uint32_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(session.Begin().ok());
      ASSERT_TRUE(
          session.WriteSlot(i % 8, i % storage::Page::NumSlots(), i).ok());
      ASSERT_TRUE(session.Commit().ok());
    }
  };
  ASSERT_TRUE(db.BeginConcurrent().ok());
  run_round();
  db.Crash();
  ASSERT_TRUE(db.RecoverInstant().ok());
  run_round();
  ASSERT_TRUE(db.WaitUntilRecovered().ok());
  ASSERT_TRUE(db.EndConcurrent().ok());

  std::set<std::string> names;
  std::set<std::string> categories;
  for (const FlightEvent& event : recorder.Drain()) {
    names.insert(FlightEventName(event.type));
    categories.insert(FlightEventCategory(event.type));
  }
  // Session ops, transactions, and the group-commit pipeline...
  EXPECT_TRUE(names.count("session.op")) << "missing session spans";
  EXPECT_TRUE(names.count("txn.commit")) << "missing txn spans";
  EXPECT_TRUE(names.count("gc.ack_wait")) << "missing group-commit spans";
  EXPECT_TRUE(names.count("gc.force")) << "missing force spans";
  // ...plus the redo side of instant restart.
  EXPECT_TRUE(names.count("instant.drain")) << "missing redo drain spans";
  EXPECT_TRUE(names.count("gate.wait")) << "missing op-gate wait spans";
  EXPECT_GE(categories.size(), 3u) << "fewer than three subsystems traced";
}

// Every op-gate acquisition is a gate.wait span (a0 = page, a1 = 1 if
// exclusive). A plan without multi-page records holds only single-page
// chains, and those drain under the SHARED gate: each instant.drain
// span follows a shared gate.wait on its own page and thread, and
// nothing in the run takes the gate exclusive.
TEST_F(FlightRecorderTest, SinglePageChainDrainsWaitOnTheSharedGate) {
  FlightRecorder& recorder = FlightRecorder::Global();

  engine::MiniDbOptions options;
  options.num_pages = 8;
  options.cache_capacity = 0;
  options.engine.group_commit_window_us = 100;
  options.engine.instant_restart = true;
  options.engine.instant_drain_workers = 2;
  engine::MiniDb db(options,
                    methods::MakeMethod(methods::MethodKind::kPhysiological,
                                        {options.num_pages}));
  auto run_round = [&db] {
    engine::MiniDb::Session session = db.NewSession();
    for (uint32_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(session.Begin().ok());
      ASSERT_TRUE(session.WriteSlot(i % 8, i, i).ok());
      ASSERT_TRUE(session.Commit().ok());
    }
  };
  ASSERT_TRUE(db.BeginConcurrent().ok());
  run_round();
  db.Crash();
  ASSERT_TRUE(db.RecoverInstant().ok());
  run_round();
  ASSERT_TRUE(db.WaitUntilRecovered().ok());
  ASSERT_TRUE(db.EndConcurrent().ok());

  std::vector<FlightEvent> gate_waits;
  std::vector<FlightEvent> drains;
  for (const FlightEvent& event : recorder.Drain()) {
    if (event.type == FlightEventType::kGateWait) gate_waits.push_back(event);
    if (event.type == FlightEventType::kInstantDrain) drains.push_back(event);
  }
  ASSERT_FALSE(gate_waits.empty());
  ASSERT_FALSE(drains.empty());
  for (const FlightEvent& wait : gate_waits) {
    EXPECT_EQ(wait.a1, 0u) << "exclusive gate wait on page " << wait.a0;
  }
  for (const FlightEvent& drain : drains) {
    const bool shared_gate_first = std::any_of(
        gate_waits.begin(), gate_waits.end(), [&drain](const FlightEvent& w) {
          return w.tid == drain.tid && w.a0 == drain.a0 && w.a1 == 0 &&
                 w.tick + w.dur <= drain.tick;
        });
    EXPECT_TRUE(shared_gate_first)
        << "drain of page " << drain.a0 << " took no shared gate first";
  }
}

// ---- The golden trace: a fixed single-threaded event sequence under
// ---- virtual ticks must export byte-identical text across runs and
// ---- match the checked-in golden. Regenerate with (one command line):
// ----   REDO_REGEN_GOLDENS=1 ./build/tests/obs_test
// ----       --gtest_filter='FlightRecorderTest.GoldenTrace'

std::string RunGoldenScenario() {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Reset();
  recorder.UseVirtualTicks(true);
  recorder.set_slow_op_threshold_us(20);

  // One synthetic commit: op + latch under a transaction, the pipeline
  // decomposition, a checkpoint barrier, and a redo task with a
  // hand-off — every span type the instrumentation emits, in a fixed
  // single-threaded order.
  recorder.Instant(FlightEventType::kTxnBegin, /*txn=*/7);
  {
    FlightScope op(FlightEventType::kSessionOp, /*page=*/3, /*op=*/1);
    const uint64_t latch = recorder.NowTick();
    recorder.EndSpan(FlightEventType::kLatchWait, latch, /*page=*/3);
  }
  {
    FlightScope commit(FlightEventType::kTxnCommit, /*txn=*/7, /*lsn=*/41);
    const uint64_t stage = recorder.NowTick();
    recorder.EndSpan(FlightEventType::kGcStageWait, stage, /*depth=*/5);
    const uint64_t window = recorder.NowTick();
    recorder.EndSpan(FlightEventType::kGcWindow, window, /*batch=*/3);
    const uint64_t force = recorder.NowTick();
    recorder.EndSpan(FlightEventType::kGcForce, force, /*lsn=*/41,
                     /*records=*/3);
    const uint64_t ack = recorder.NowTick();
    recorder.EndSpan(FlightEventType::kGcAckWait, ack, /*lsn=*/41);
  }
  const uint64_t barrier = recorder.NowTick();
  recorder.EndSpan(FlightEventType::kCkptBarrier, barrier, /*fuzzy=*/1);
  const uint64_t task = recorder.NowTick();
  recorder.Instant(FlightEventType::kRedoHandoff, /*from=*/0, /*to=*/1,
                   /*lsn=*/29);
  recorder.EndSpan(FlightEventType::kRedoTask, task, /*worker=*/0, /*lsn=*/29);
  const uint64_t drain = recorder.NowTick();
  recorder.EndSpan(FlightEventType::kInstantDrain, drain, /*page=*/3,
                   /*on_demand=*/1, /*applied=*/2);
  // A deliberately slow span so the golden pins the watchdog marker.
  const uint64_t slow = recorder.NowTick();
  for (int i = 0; i < 25; ++i) recorder.NowTick();
  recorder.EndSpan(FlightEventType::kSessionOp, slow, /*page=*/5, /*op=*/2);

  const std::string text = ToText(recorder.Drain());
  recorder.set_slow_op_threshold_us(0);
  recorder.UseVirtualTicks(false);
  return text;
}

TEST_F(FlightRecorderTest, GoldenTrace) {
  const std::string first = RunGoldenScenario();
  const std::string second = RunGoldenScenario();
  ASSERT_EQ(first, second) << "virtual-tick trace is nondeterministic";

  const std::string path =
      std::string(REDO_TEST_SRCDIR) + "/obs/golden/flight_trace.txt";
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
      << "flight trace diverged from its golden; regenerate with "
         "REDO_REGEN_GOLDENS=1 if the change is intended";
}

}  // namespace
}  // namespace redo::obs
