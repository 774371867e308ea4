// Quickstart: the two faces of the library in ~100 lines.
//
//  1. The formal model (redo::core): build a history, derive its
//     conflict / installation / state graphs, ask which crash states are
//     recoverable and why.
//  2. The simulated engine (redo::engine): a page-based database with a
//     write-ahead log and a pluggable recovery method; write, crash,
//     recover, and let the checker validate the recovery invariant.

#include <cstdio>

#include "checker/recovery_checker.h"
#include "core/exposed.h"
#include "core/replay.h"
#include "core/scenarios.h"
#include "engine/minidb.h"

namespace {

void FormalModelTour() {
  using namespace redo::core;
  using redo::Bitset;
  std::printf("=== 1. The formal model ===\n");

  // The paper's Figure 4 history: O (r/w x), P (r x, w y), Q (r/w x).
  const Scenario fig4 = MakeFigure4();
  std::printf("history:\n%s", fig4.history.DebugString().c_str());
  std::printf("conflict graph:\n%s", fig4.conflict.DebugString().c_str());
  std::printf("installation graph (solely-WR edges removed):\n%s",
              fig4.installation.DebugString().c_str());

  // The installation graph admits the prefix {P}, which the conflict
  // graph forbids — the extra flexibility of Figure 5.
  const Bitset only_p = Bitset::FromVector(3, {1});
  std::printf("{P} prefix of conflict graph?      %s\n",
              fig4.conflict.dag().IsPrefix(only_p) ? "yes" : "no");
  std::printf("{P} prefix of installation graph?  %s\n",
              fig4.installation.IsPrefix(only_p) ? "yes" : "no");

  // The state determined by installing only P, and its recovery.
  State crash = fig4.state_graph.DeterminedState(only_p);
  std::printf("state with only P installed: %s\n", crash.ToString().c_str());
  const ExplainResult explain = PrefixExplains(
      fig4.history, fig4.conflict, fig4.installation, fig4.state_graph, only_p,
      crash);
  std::printf("explained by prefix {P}?  %s\n",
              explain.explains ? "yes" : explain.ToString().c_str());
  State recovered = crash;
  const redo::Status replay = ReplayUninstalled(
      fig4.history, fig4.conflict, fig4.state_graph, only_p, &recovered);
  std::printf("replaying O, Q:  %s -> %s (final state %s)\n\n",
              replay.ok() ? "ok" : replay.ToString().c_str(),
              recovered.ToString().c_str(),
              fig4.state_graph.FinalState().ToString().c_str());
}

void EngineTour() {
  using namespace redo;
  std::printf("=== 2. The simulated engine ===\n");

  engine::MiniDbOptions options;
  options.num_pages = 8;
  engine::MiniDb db(options,
                    methods::MakeMethod(methods::MethodKind::kPhysiological,
                                        {options.num_pages}));
  engine::TraceRecorder trace(db.disk());
  db.Attach(redo::engine::Instrumentation{&trace, nullptr});

  // A few updates through one session: each is logged, applied in
  // cache, and tagged with its record's LSN. The session must be gone
  // before recovery runs.
  {
    engine::MiniDb::Session session = db.NewSession();
    (void)session.WriteSlot(/*page=*/1, /*slot=*/0, /*value=*/42).value();
    (void)session.WriteSlot(1, 1, 43).value();
    (void)session.WriteSlot(2, 0, 44).value();
  }
  std::printf("wrote 3 slots; log tail at lsn %llu, stable at %llu\n",
              (unsigned long long)db.log().last_lsn(),
              (unsigned long long)db.log().stable_lsn());

  // Force the first two records only, then crash: the third is lost.
  (void)db.log().Force(2);
  db.Crash();

  // The checker validates the §4.5 recovery invariant at this exact
  // crash point, against the formal model.
  const checker::CheckResult check = checker::CheckCrashState(db, trace);
  std::printf("recovery invariant at crash: %s\n", check.ToString().c_str());

  (void)db.Recover();
  engine::MiniDb::Session reader = db.NewSession();
  std::printf("after recovery: p1[0]=%lld p1[1]=%lld p2[0]=%lld "
              "(the unforced write is gone)\n",
              (long long)reader.ReadSlot(1, 0).value(),
              (long long)reader.ReadSlot(1, 1).value(),
              (long long)reader.ReadSlot(2, 0).value());
}

}  // namespace

int main() {
  FormalModelTour();
  EngineTour();
  return 0;
}
