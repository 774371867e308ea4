// The crash simulator: run a workload, crash at arbitrary points, check
// the recovery invariant with the formal model, recover, and verify the
// recovered state byte-for-byte against an independent oracle.
//
// The oracle is the redo-recovery correctness criterion itself: after
// recovery, the database state must equal the state produced by applying
// exactly the operations whose log records survived the crash, in log
// order, to the initial state. The checker validates the *theory-level*
// invariant at the same crash points, so a bug caught by one but not the
// other localizes the failure (engine vs. model). Updates run through
// one serial Session and Dispatch, the path every client takes, so the
// histories the checker verifies are the ones clients produce.

#ifndef REDO_CHECKER_CRASH_SIM_H_
#define REDO_CHECKER_CRASH_SIM_H_

#include <string>
#include <vector>

#include "checker/recovery_checker.h"
#include "engine/workload.h"
#include "methods/method.h"

namespace redo::checker {

/// Disk/log fault schedule for the simulator. The safety contract under
/// faults is *invariant-holds-or-detected*: every injected fault must be
/// caught by a checksum/error path and healed (the mirror-repair model),
/// and after healing the run must verify exactly like a fault-free one.
/// A page that differs from the oracle while carrying a VALID checksum
/// is silent corruption — the one outcome the suite exists to rule out.
struct CrashFaultOptions {
  bool enabled = false;
  /// P(crash tears the in-flight log force): a random prefix of the
  /// unacknowledged volatile records lands on stable storage, possibly
  /// mid-record. SalvageTornTail must truncate (or salvage) it.
  double torn_tail_probability = 0.6;
  double torn_write_probability = 0.03;   ///< per page write
  double write_error_probability = 0.05;  ///< per page write (burst start)
  int max_write_error_burst = 2;  ///< < BufferPool::kMaxFlushAttempts
  double read_error_probability = 0.003;  ///< per page read (sticky)

  // ---- Log-media faults (the stable log *body*, not just its tail) ----
  // Active when `enabled` and log_segment_bytes > 0: the database runs a
  // segmented, mirrored, archived log, and a LogFaultInjector rolls the
  // probabilities below per sealed segment at every crash point. A
  // damaged cycle must resolve at an explicit degradation-ladder rung:
  // scrub repair (mirror/reseal), media recovery from the last backup +
  // the archive, or a diagnosed refusal naming the first unreadable LSN.
  size_t log_segment_bytes = 0;              ///< 0 = flat log, no log faults
  double log_bit_rot_probability = 0.10;     ///< per sealed segment per crash
  double log_lost_segment_probability = 0.04;
  double log_torn_seal_probability = 0.05;
  /// Given a damaged copy, P(the segment's other copy is damaged too) —
  /// the mirror cannot repair, forcing rung 2 or 3.
  double log_double_fault_probability = 0.35;
  double log_archive_rot_probability = 0.05; ///< per archived segment per crash
  /// Take a fresh backup every N crash cycles (0 = never). Backups are
  /// what rung 2 degrades to when the mirror cannot repair a hole.
  size_t backup_interval = 1;
  /// Checkpoint-truncate the live log at each backup point (the archive
  /// retains the sealed segments).
  bool truncate_at_backup = true;
  /// Normally a rung-3 refusal is resolved by modeling an offsite
  /// restore (the injector heals its own damage) and the cycle
  /// continues. With this knob the restore is unavailable: the refusal
  /// becomes a terminal sim failure whose failing-cycle timeline names
  /// the recovery phase, method, rung, and first unreadable LSN —
  /// the forced-unrecoverable path crash_torture exposes.
  bool no_offsite_restore = false;
};

struct CrashSimOptions {
  engine::WorkloadOptions workload;
  size_t cache_capacity = 8;    ///< forced to 0 for the logical method
  size_t ops_per_segment = 150; ///< actions between crashes
  size_t crashes = 4;
  bool run_checker = true;      ///< validate the invariant at each crash
  /// Crashes *during/after recovery*: each crash point additionally runs
  /// `recovery_crashes` rounds of {recover, flush a random subset of
  /// pages, crash again}, checking the invariant after every re-crash —
  /// recovery must be idempotent and partially-installed recoveries must
  /// remain recoverable.
  size_t recovery_crashes = 0;
  /// Serial-vs-parallel redo equivalence oracle: on every non-degraded
  /// cycle, recover the crash state once serially and once per listed
  /// worker count (restoring the crash state between runs, injection
  /// paused), and require byte-identical effective pages, page LSNs,
  /// and redo-verdict multisets. Empty = off.
  std::vector<size_t> equivalence_workers;
  /// The device's queue depth (EngineOptions::async_io_workers); 0
  /// keeps one I/O in flight (the REDO_ASYNC_IO environment variable
  /// overrides a zero). Recovered state is identical either way — only
  /// the I/O schedule changes — so every oracle runs unmodified.
  size_t async_io_workers = 0;
  CrashFaultOptions faults;
};

struct CrashSimResult {
  bool ok = false;
  std::string failure;           ///< first failure description, if any
  size_t actions_executed = 0;
  size_t crashes = 0;
  size_t checker_runs = 0;
  size_t stable_ops_at_crashes = 0;  ///< total ops recovery had to consider
  size_t recovered_pages_verified = 0;
  // Fault accounting (all zero when faults are disabled).
  size_t faults_injected = 0;    ///< torn writes + error bursts + sticky reads
  size_t faults_detected = 0;    ///< surfaced via checksum/error + healed
  size_t torn_tails = 0;         ///< crashes that tore the in-flight force
  size_t torn_tail_bytes_dropped = 0;
  size_t salvaged_records = 0;   ///< unacked records recovered whole
  size_t pages_healed = 0;
  size_t recovery_retries = 0;   ///< recover attempts repeated after faults
  size_t silent_corruptions = 0; ///< oracle mismatch with a valid checksum
  // Log-media fault accounting (all zero when log faults are disabled).
  size_t log_faults_injected = 0;   ///< bit rots + lost copies + torn seals
  size_t log_scrub_repairs = 0;     ///< mirror repairs + reseals + archive fixes
  size_t ladder_mirror_cycles = 0;  ///< damaged cycles resolved by scrub (rung 1)
  size_t ladder_media_cycles = 0;   ///< cycles degraded to media recovery (rung 2)
  size_t ladder_refusals = 0;       ///< diagnosed refusals (rung 3, then restored)
  size_t backups_taken = 0;
  size_t segments_sealed = 0;       ///< log segments sealed over the run
  size_t segments_truncated = 0;    ///< live segments retired to the archive
  // Serial/parallel equivalence-oracle accounting (zero when off).
  size_t equivalence_checks = 0;       ///< parallel recoveries compared
  size_t equivalence_divergences = 0;  ///< mismatches vs the serial run
  // Recovery-timeline accounting (from the attached RecoveryTracer).
  size_t redo_applied = 0;            ///< records redone across all recoveries
  size_t redo_skipped_installed = 0;  ///< skipped: page LSN proved installed
  size_t redo_not_exposed = 0;        ///< skipped by analysis without page I/O
  /// JSONL timeline of the cycle that failed (empty when ok): the
  /// last-failing-cycle artifact crash_torture writes to disk.
  std::string failing_timeline_jsonl;
  /// Chrome-trace JSON of the failing cycle's flight-recorder events
  /// (empty when ok) — dumped next to the timeline artifact.
  std::string failing_flight_trace_json;
  /// Metrics-registry delta over the last completed (or failing) crash
  /// cycle, in the text exporter's format — the per-cycle view torture
  /// reporting uses.
  std::string last_cycle_metrics_text;

  std::string ToString() const;
};

/// Runs the crash-recover-verify loop for one method. Deterministic in
/// `seed`.
CrashSimResult RunCrashSim(methods::MethodKind method,
                           const CrashSimOptions& options, uint64_t seed);

}  // namespace redo::checker

#endif  // REDO_CHECKER_CRASH_SIM_H_
