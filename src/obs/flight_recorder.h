// The flight recorder: always-on, low-overhead event tracing.
//
// Aggregate counters (metrics.h) say *how much*; recovery timelines
// (recovery_trace.h) say *what happened during recovery*. Neither can
// answer "why did THIS commit take 4ms?" — that needs per-operation
// attribution on the hot paths, cheap enough to leave on in production.
//
// Design:
//   - Each thread writes fixed-size binary events into its own
//     fixed-capacity ring buffer (overwrite-oldest, with a dropped
//     counter), so the hot path is a push under an uncontended per-ring
//     mutex — no global lock, no allocation, TSan-clean.
//   - Spans are recorded as one *complete* event at scope end (begin
//     tick + duration), so a wrapped ring never strands an unmatched
//     begin. `FlightScope` is the RAII helper; explicit
//     `NowTick()`/`EndSpan()` serve call sites that cannot scope.
//   - `Drain()` merges every ring into one list, sorted by
//     (begin tick, thread, sequence) — deterministic for a
//     deterministic schedule — and clears the rings. Exporters:
//     Chrome `trace_event` JSON (chrome://tracing / Perfetto) and a
//     plain text form used by the byte-identical golden test.
//   - The tick source is virtualizable: real ticks are steady-clock
//     microseconds; virtual ticks are a process-global counter that
//     advances once per NowTick(), making single-threaded traces
//     byte-identical across runs (the golden test's mode).
//   - A slow-op watchdog promotes any span at or over the threshold
//     to a counter plus a retained detail record (bounded; oldest
//     evicted), so "something stalled" survives even after the ring
//     has wrapped past the event. The threshold belongs to the recorder
//     (`set_slow_op_threshold_us`; 0, the default, disables it): it is
//     process-global like the recorder, and no engine resets it.
//
// The recorder is process-global (`FlightRecorder::Global()`): the
// engine, the WAL, and the redo workers all trace into one place, and
// the crash simulators can dump a failing cycle's trace without
// threading a pointer through every layer.

#ifndef REDO_OBS_FLIGHT_RECORDER_H_
#define REDO_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace redo::obs {

/// Every traced hot path. Keep in sync with FlightEventName /
/// FlightEventCategory in flight_recorder.cc.
enum class FlightEventType : uint16_t {
  kSessionOp = 1,      ///< span: one session op (a0=page, a1=op code)
  kLatchWait = 2,      ///< span: page latch acquire+wait (a0=page)
  kTxnBegin = 3,       ///< instant: transaction started (a0=txn)
  kTxnCommit = 4,      ///< span: Commit() incl. CommitWait (a0=txn, a1=lsn)
  kTxnAbort = 5,       ///< span: runtime rollback (a0=txn)
  kGcStageWait = 6,    ///< span: append blocked on a full pending queue
  kGcWindow = 7,       ///< span: committer window wait (a0=batch size,
                       ///< a1=1 if every live session had joined)
  kGcForce = 8,        ///< span: one force (a0=target lsn, a1=records)
  kGcAckWait = 9,      ///< span: CommitWait durability wait (a0=lsn)
  kCkptBarrier = 10,   ///< span: checkpoint barrier (a0=1 if fuzzy)
  kRedoTask = 11,      ///< span: one redo task (a0=worker, a1=lsn, a2=page)
  kRedoHandoff = 12,   ///< instant: split snapshot hand-off
                       ///< (a0=from worker, a1=to worker, a2=lsn)
                       ///< (no engine path emits 11 or 12; the ids stay
                       ///< reserved so recorded traces keep their meaning)
  kInstantDrain = 13,  ///< span: chain drain, instant or quiescing
                       ///< (a0=page, a1=1 if on-demand, a2=tasks)
  kSlowOp = 14,        ///< instant: watchdog promotion (a0=type, a1=dur)
  kIoBatch = 15,       ///< span: async I/O batch submit→complete
                       ///< (a0=ops, a1=reads, a2=writes)
  kGateWait = 16,      ///< span: op-gate acquire+wait (a0=page, 0 if
                       ///< page-less; a1=1 if exclusive)
};

/// Human-readable event name ("gc.force") and Chrome-trace category
/// ("wal"). Stable: the golden trace test pins them.
const char* FlightEventName(FlightEventType type);
const char* FlightEventCategory(FlightEventType type);

/// One compact binary event. `phase` follows the Chrome trace_event
/// vocabulary: 'X' = complete span (tick = begin, dur set), 'i' =
/// instant (dur = 0).
struct FlightEvent {
  FlightEventType type = FlightEventType::kSessionOp;
  char phase = 'X';
  uint32_t tid = 0;   ///< recorder-assigned thread id (1-based)
  uint64_t seq = 0;   ///< per-ring push sequence (merge tie-breaker)
  uint64_t tick = 0;  ///< begin tick (µs real, or virtual counts)
  uint64_t dur = 0;   ///< span duration in ticks; 0 for instants
  uint64_t a0 = 0, a1 = 0, a2 = 0;  ///< payload words (see the enum)
};

class FlightRecorder {
 public:
  /// The process-wide recorder every subsystem traces into.
  static FlightRecorder& Global();

  FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Recording on/off (default on — "always-on" means the *default*;
  /// the overhead experiment S11 measures against this switch). Hot
  /// paths check this before taking any tick.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Virtual ticks: NowTick() returns an atomic counter instead of the
  /// steady clock, so a deterministic single-threaded schedule produces
  /// a byte-identical trace (the golden test's mode).
  void UseVirtualTicks(bool virtual_ticks);

  /// Watchdog threshold in ticks (µs under real ticks); 0 disables.
  void set_slow_op_threshold_us(uint64_t threshold) {
    slow_op_threshold_.store(threshold, std::memory_order_relaxed);
  }

  /// Current tick: steady-clock µs, or the virtual counter (which
  /// advances on every call).
  uint64_t NowTick();

  /// Records a complete span that began at `begin_tick` (from a prior
  /// NowTick()) and ends now. Feeds the watchdog.
  void EndSpan(FlightEventType type, uint64_t begin_tick, uint64_t a0 = 0,
               uint64_t a1 = 0, uint64_t a2 = 0);

  /// Records an instant event at the current tick.
  void Instant(FlightEventType type, uint64_t a0 = 0, uint64_t a1 = 0,
               uint64_t a2 = 0);

  /// Moves every ring's events into one list sorted by
  /// (tick, tid, seq) and clears the rings.
  std::vector<FlightEvent> Drain();

  /// Clears all rings, counters, retained slow-op details, and the
  /// virtual tick; restarts thread-id assignment at 1 (threads pick up
  /// fresh ids on their next event). Call at a scenario boundary —
  /// e.g. the top of each torture cycle.
  void Reset();

  uint64_t events_recorded() const {
    return events_recorded_.load(std::memory_order_relaxed);
  }
  /// Events overwritten before any drain saw them.
  uint64_t events_dropped() const {
    return events_dropped_.load(std::memory_order_relaxed);
  }
  /// Spans the watchdog promoted (duration >= threshold).
  uint64_t slow_ops() const {
    return slow_ops_.load(std::memory_order_relaxed);
  }
  /// The retained slow-op detail records, oldest first (bounded at
  /// kSlowOpDetailCapacity; oldest evicted).
  std::vector<FlightEvent> SlowOpDetails() const;

  /// Registers a `<prefix>.{events,dropped,slow_ops}` source.
  void RegisterMetrics(MetricsRegistry& registry, const std::string& prefix);

  static constexpr size_t kRingCapacity = 8192;       ///< events per thread
  static constexpr size_t kSlowOpDetailCapacity = 32; ///< retained details

 private:
  struct ThreadRing {
    std::mutex mu;
    std::vector<FlightEvent> events;  ///< ring storage, size kRingCapacity
    size_t size = 0;                  ///< live events (<= capacity)
    size_t head = 0;                  ///< index of the oldest live event
    uint64_t seq = 0;                 ///< next push sequence
    uint64_t generation = 0;          ///< tid is stale if != recorder's
    uint32_t tid = 0;
  };

  /// This thread's ring, creating or re-using (free-listed) one.
  ThreadRing* Ring();
  void Push(FlightEventType type, char phase, uint64_t tick, uint64_t dur,
            uint64_t a0, uint64_t a1, uint64_t a2);

  std::atomic<bool> enabled_{true};
  std::atomic<bool> virtual_ticks_{false};
  std::atomic<uint64_t> virtual_tick_{0};
  std::atomic<uint64_t> slow_op_threshold_{0};
  std::atomic<uint64_t> events_recorded_{0};
  std::atomic<uint64_t> events_dropped_{0};
  std::atomic<uint64_t> slow_ops_{0};
  std::atomic<uint64_t> generation_{1};
  std::atomic<uint32_t> next_tid_{1};

  mutable std::mutex registry_mu_;  ///< guards rings_/free_rings_/slow_ops
  std::vector<std::unique_ptr<ThreadRing>> rings_;
  std::vector<ThreadRing*> free_rings_;  ///< returned by exited threads
  std::deque<FlightEvent> slow_op_details_;

  friend struct ThreadRingHandle;
};

/// RAII span: takes the begin tick at construction, records one
/// complete event at destruction. `set_args` lets the scope body fill
/// payload words discovered mid-span (e.g. the assigned LSN).
class FlightScope {
 public:
  explicit FlightScope(FlightEventType type, uint64_t a0 = 0, uint64_t a1 = 0,
                       uint64_t a2 = 0)
      : type_(type), a0_(a0), a1_(a1), a2_(a2) {
    FlightRecorder& recorder = FlightRecorder::Global();
    if (recorder.enabled()) {
      recorder_ = &recorder;
      begin_ = recorder.NowTick();
    }
  }
  FlightScope(const FlightScope&) = delete;
  FlightScope& operator=(const FlightScope&) = delete;
  ~FlightScope() {
    if (recorder_ != nullptr) {
      recorder_->EndSpan(type_, begin_, a0_, a1_, a2_);
    }
  }

  void set_args(uint64_t a0, uint64_t a1 = 0, uint64_t a2 = 0) {
    a0_ = a0;
    a1_ = a1;
    a2_ = a2;
  }

 private:
  FlightRecorder* recorder_ = nullptr;
  FlightEventType type_;
  uint64_t begin_ = 0;
  uint64_t a0_, a1_, a2_;
};

/// Chrome trace_event JSON: {"traceEvents":[...]}, loadable by
/// chrome://tracing and Perfetto. Spans are "ph":"X" complete events
/// with "ts"/"dur" in microseconds; instants are "ph":"i" with
/// thread scope. Deterministic for a deterministic event list.
std::string ToChromeTraceJson(const std::vector<FlightEvent>& events);

/// One line per event: "tick +dur tid name a0 a1 a2". The golden
/// trace test pins these bytes.
std::string ToText(const std::vector<FlightEvent>& events);

}  // namespace redo::obs

#endif  // REDO_OBS_FLIGHT_RECORDER_H_
