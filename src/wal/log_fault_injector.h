// Log-media fault injection.
//
// PR 1's storage::FaultInjector torments the page disk; this sibling
// torments the *stable log* — the one structure PR 1 still assumed
// incorruptible below its tail. At each crash point it rolls,
// deterministically from a seed, over every sealed live segment (and the
// archive) and injects the log-media fault classes the LogManager's
// segment format makes evident:
//
//  - bit rot: one byte of one copy is XOR-flipped mid-stream; its
//    frame's CRC32C refuses the copy on the next decode.
//  - lost segment: a whole copy becomes unreadable (lost file, dead
//    device).
//  - double fault: the same segment's OTHER copy is damaged too, so the
//    mirror cannot repair it — forcing the degradation ladder.
//  - archive rot: an archived copy decays, so a later media recovery
//    must survive (or diagnose) an imperfect archive.
//
// Like the disk injector, it remembers the intact content of everything
// it damages (PeekSegmentCopy before the first hit), so a checker can
// *heal* — the offsite-restore model — and verify recovery proceeds as
// if the media had been perfect.

#ifndef REDO_WAL_LOG_FAULT_INJECTOR_H_
#define REDO_WAL_LOG_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/rng.h"
#include "wal/log_manager.h"

namespace redo::wal {

/// Fault probabilities, rolled per sealed segment per crash point. All
/// default to 0 (an attached but all-zero injector is a no-op).
struct LogFaultOptions {
  double bit_rot_probability = 0.0;       ///< flip one byte of one copy
  double lost_segment_probability = 0.0;  ///< lose one whole copy
  /// Given a damaged copy, also damage the segment's other copy — the
  /// mirror cannot help, so recovery must degrade to the ladder.
  double double_fault_probability = 0.0;
  double archive_rot_probability = 0.0;   ///< per archived segment
};

/// Injection counters.
struct LogFaultStats {
  uint64_t bit_rots = 0;
  uint64_t lost_copies = 0;
  uint64_t double_faults = 0;  ///< segments with both copies damaged
  uint64_t archive_rots = 0;
  uint64_t injections = 0;     ///< total successful fault injections
  uint64_t heals = 0;          ///< copies restored by HealAll

  /// Emits every counter (metrics-registry source enumeration).
  void EmitMetrics(obs::MetricEmitter& emit) const;
};

class LogFaultInjector {
 public:
  LogFaultInjector(const LogFaultOptions& options, uint64_t seed)
      : options_(options), rng_(seed) {}

  /// Rolls the fault schedule against `log` (call at a crash point,
  /// after Crash(): the model is damage discovered on restart). Every
  /// copy is snapshotted before its first damage so HealAll can undo.
  /// Returns the number of faults injected.
  size_t InjectAtCrash(LogManager& log);

  /// While paused, InjectAtCrash injects nothing.
  void set_paused(bool paused) { paused_ = paused; }

  /// Restores every damaged copy from its pre-damage snapshot (the
  /// offsite-restore model). Returns the number of copies restored.
  /// Snapshots of segments that no longer exist (truncated/amputated)
  /// are dropped silently.
  size_t HealAll(LogManager& log);

  const LogFaultStats& stats() const { return stats_; }
  void ResetStats() { stats_ = LogFaultStats{}; }

  /// Registers the injector's counters as a source named `prefix`.
  void RegisterMetrics(obs::MetricsRegistry& registry,
                       const std::string& prefix = "wal_faults");

 private:
  /// The damage kinds a single roll can pick.
  enum class Damage { kNone, kBitRot, kLoseCopy };

  Damage Roll();
  /// Applies `damage` to one copy, snapshotting it first. Returns true
  /// if the fault landed.
  bool Apply(LogManager& log, uint64_t segment_id, LogCopy copy,
             Damage damage);
  void SnapshotOnce(const LogManager& log, uint64_t segment_id, LogCopy copy);

  LogFaultOptions options_;
  Rng rng_;
  bool paused_ = false;
  /// Pre-damage images, keyed by (segment id, copy).
  std::map<std::pair<uint64_t, LogCopy>, SegmentCopy> snapshots_;
  LogFaultStats stats_;
};

}  // namespace redo::wal

#endif  // REDO_WAL_LOG_FAULT_INJECTOR_H_
