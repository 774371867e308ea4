// Counters for the two kinds of drain over the redo plan, exported
// through the metrics registry as the "redo.parallel" source (quiescing
// restarts with parallel_workers > 1) and the "redo.instant" source
// (instant restarts); see src/obs. The engine owns one of each.

#ifndef REDO_REDO_METRICS_H_
#define REDO_REDO_METRICS_H_

#include <atomic>
#include <cstdint>

#include "obs/metrics.h"

namespace redo::par {

/// Cumulative counters across every quiescing multi-worker drain.
struct ParallelRedoMetrics {
  uint64_t runs = 0;             ///< quiescing multi-worker drains
  uint64_t workers_spawned = 0;  ///< drain worker threads launched (sum)
  uint64_t tasks = 0;            ///< planned redo tasks
  uint64_t images_superseded = 0;  ///< superseded images installed as nothing

  /// Thread-CPU time spent in the drain workers (sum across workers),
  /// and the per-run critical path (the slowest worker's CPU time,
  /// summed across runs). busy/critical ≈ the speedup the write graph
  /// permits, independent of how many cores the host has.
  uint64_t apply_busy_us = 0;
  uint64_t apply_critical_path_us = 0;

  /// Emits every counter (metrics-registry source enumeration).
  void EmitMetrics(obs::MetricEmitter& emit) const;
};

/// Counters for instant restart (the "redo.instant" source). Atomic,
/// unlike ParallelRedoMetrics: drains and the registry's emission run
/// while sessions are live, with no quiescent point to snapshot at.
struct InstantRedoMetrics {
  std::atomic<uint64_t> restarts{0};          ///< instant restarts begun
  std::atomic<uint64_t> pages_on_demand{0};   ///< chains drained by a session fetch
  std::atomic<uint64_t> pages_background{0};  ///< chains drained by a worker
  std::atomic<uint64_t> tasks_applied{0};     ///< planned tasks replayed
  std::atomic<uint64_t> tasks_skipped{0};     ///< redo test said installed
  /// Applied tasks that were superseded images: counted in
  /// tasks_applied, but nothing was copied or installed for them.
  std::atomic<uint64_t> images_superseded{0};
  /// Wall time from RecoverInstant's return to the first Session commit
  /// acked while still serving-while-redoing (last restart; 0 if none).
  std::atomic<uint64_t> time_to_first_commit_us{0};

  /// Emits every counter (metrics-registry source enumeration).
  void EmitMetrics(obs::MetricEmitter& emit) const;

  /// Zeroes every counter (atomics are not copy-assignable).
  void Reset();
};

}  // namespace redo::par

#endif  // REDO_REDO_METRICS_H_
