// The recovery tracer: a structured, per-phase event timeline for every
// recovery run.
//
// The paper's central claim is that recovery is an *explainable* walk
// over an installation graph; this tracer makes each walk literally
// explainable. A run is a sequence of events:
//
//   run-begin          method name
//   phase-begin/end    named phase (salvage, scrub, analysis, redo-scan,
//                      undo, media-recovery) with wall-clock and
//                      the I/O cost the phase incurred (disk reads and
//                      writes, pool fetches, log segment decodes —
//                      deltas of the metrics registry across the phase)
//   salvage            what SalvageTornTail found at the log tail
//   scrub              the pre-recovery scrub's verdict summary, plus a
//                      segment-verdict event per damaged segment
//   rung               a degradation-ladder transition, with evidence
//                      (rung name, first unreadable LSN, diagnosis)
//   checkpoint-chosen  the checkpoint record recovery anchored on and
//                      the redo-scan start LSN it decoded
//   redo-verdict       one event per scanned record: applied /
//                      skipped-installed / not-exposed, with a
//                      per-method reason code (see DESIGN.md §8)
//   note               free-form milestones (refusals, instant restart)
//   run-end            ok/error plus the run's verdict totals
//
// Exports: ToText() (one "event key=value..." line per event) and
// ToJsonl() (one JSON object per line). Both take `include_timing`;
// with it false the output of a deterministic run is byte-identical
// across invocations — the golden tests and CI depend on that.
//
// The tracer is also a metrics source: when constructed over a
// MetricsRegistry it registers cumulative "recovery.*" counters (runs,
// verdict totals, phase count) and observes per-phase wall time into the
// "recovery.phase_us" histogram.

#ifndef REDO_OBS_RECOVERY_TRACE_H_
#define REDO_OBS_RECOVERY_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace redo::obs {

/// The redo test's answer for one scanned record, in the paper's
/// exposed/installed vocabulary (DESIGN.md §8 maps each reason code).
enum class RedoVerdict {
  kApplied,           ///< redone: the operation was not installed
  kSkippedInstalled,  ///< page LSN proves the operation is installed
  kNotExposed,        ///< analysis proved it installed without page I/O
};

const char* RedoVerdictName(RedoVerdict verdict);

/// The DESIGN.md §8 reason code of `verdict` under the method's redo
/// test: an applied record says whether redo-all or an older page LSN
/// replayed it.
const char* RedoVerdictReason(RedoVerdict verdict, bool redo_all);

/// One timeline event: a kind plus ordered string/number attributes
/// (insertion order is serialization order, keeping output
/// deterministic).
struct TraceEvent {
  std::string event;
  std::vector<std::pair<std::string, std::string>> strings;
  std::vector<std::pair<std::string, int64_t>> numbers;
  uint64_t wall_us = 0;  ///< phase-end only
  bool timed = false;    ///< true when wall_us is meaningful

  std::string ToText(bool include_timing) const;
  std::string ToJson(bool include_timing) const;
};

/// Totals of the redo verdicts in one run.
struct VerdictCounts {
  uint64_t applied = 0;
  uint64_t skipped_installed = 0;
  uint64_t not_exposed = 0;
  uint64_t total() const { return applied + skipped_installed + not_exposed; }
};

class RecoveryTracer {
 public:
  /// `registry` may be null: the tracer then records the timeline but no
  /// metrics (and phase I/O costs are omitted). With a registry, the
  /// tracer registers itself as the "recovery" source and snapshots the
  /// registry around each phase for I/O deltas.
  explicit RecoveryTracer(MetricsRegistry* registry = nullptr);
  ~RecoveryTracer();

  RecoveryTracer(const RecoveryTracer&) = delete;
  RecoveryTracer& operator=(const RecoveryTracer&) = delete;

  // ---- Run lifecycle ----

  /// Begins a run. Nested calls (the degradation ladder wrapping the
  /// method's ordinary recovery) join the enclosing run instead of
  /// starting a new timeline.
  void BeginRun(const std::string& method_name);

  /// Ends the innermost BeginRun; the outermost emits run-end with the
  /// run's verdict totals and `ok`/`status`.
  void EndRun(bool ok, const std::string& status_message);

  /// Discards the recorded timeline (run/phase nesting must be closed).
  void Clear();

  // ---- Phases ----

  void BeginPhase(const std::string& phase);
  void EndPhase();

  // ---- Events ----

  void CheckpointChosen(uint64_t checkpoint_lsn, uint64_t scan_start);
  void Verdict(uint64_t lsn, uint32_t page, RedoVerdict verdict,
               const std::string& reason);
  void Salvage(bool torn, uint64_t dropped_bytes, uint64_t salvaged_records,
               uint64_t stable_lsn);
  void ScrubSummary(uint64_t segments, uint64_t repairs, uint64_t holes,
                    uint64_t archive_repairs, uint64_t archive_holes,
                    uint64_t first_unreadable_lsn);
  /// One damaged (or repaired) segment's scrub verdict.
  void SegmentVerdict(uint64_t segment_id, uint64_t first_lsn,
                      uint64_t last_lsn, const std::string& state);
  /// A degradation-ladder transition with its evidence.
  void Rung(const std::string& rung, uint64_t first_unreadable_lsn,
            const std::string& evidence);
  void Note(const std::string& message);

  /// One undo-pass step: `action` is "clr" (a compensation record was
  /// emitted for the kTxnUpdate at `lsn`), "clr-skip" (an existing CLR
  /// was hopped via its back-chain), or "end" (the loser's rollback
  /// completed; `lsn` is the kTxnEnd record). Kept distinct from the
  /// redo verdicts so loser-free timelines stay byte-identical and the
  /// redo-verdict totals keep their meaning.
  void UndoVerdict(uint64_t lsn, uint64_t txn_id, const std::string& action,
                   uint64_t undo_next);

  // ---- Introspection / export ----

  bool in_run() const { return run_depth_ > 0; }
  const std::vector<TraceEvent>& events() const { return events_; }
  /// Verdict totals of the current (or last completed) run.
  const VerdictCounts& run_verdicts() const { return run_verdicts_; }
  /// Cumulative verdict totals across every run since construction.
  const VerdictCounts& total_verdicts() const { return total_verdicts_; }

  std::string ToText(bool include_timing = true) const;
  std::string ToJsonl(bool include_timing = true) const;

 private:
  TraceEvent& Add(const std::string& event);

  MetricsRegistry* registry_;
  Histogram* phase_us_ = nullptr;  // registry-owned
  std::vector<TraceEvent> events_;
  int run_depth_ = 0;
  VerdictCounts run_verdicts_;
  VerdictCounts total_verdicts_;
  uint64_t runs_ = 0;
  uint64_t phases_ = 0;

  struct OpenPhase {
    size_t begin_index;     // index of the phase-begin event
    std::string name;
    uint64_t start_us;
    Snapshot start_metrics;
  };
  std::vector<OpenPhase> open_phases_;
};

/// RAII phase guard: begins `phase` when `tracer` is non-null, ends it
/// on scope exit. Lets instrumented code stay early-return friendly.
class PhaseScope {
 public:
  PhaseScope(RecoveryTracer* tracer, const std::string& phase)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->BeginPhase(phase);
  }
  ~PhaseScope() {
    if (tracer_ != nullptr) tracer_->EndPhase();
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  RecoveryTracer* tracer_;
};

}  // namespace redo::obs

#endif  // REDO_OBS_RECOVERY_TRACE_H_
