// The crash simulator: one crash-recover-verify loop for every way the
// engine is driven. A run has two axes: the transport — each worker is
// a closed-loop client (closed_loop.h) that drives a Session through
// engine::Dispatch in process, or a real TCP peer of an in-process
// NetServer whose connection drops mid-pipeline at every crash — and
// the concurrency level, the number of workers (`sessions`).
//
// In process with one session the sim runs the serial engine (no
// BeginConcurrent) — derived, not a knob. Only that configuration
// carries the engine::Workload op stream, a bounded cache, the formal
// checker at every crash point (the theory-level invariant: a bug caught
// by it but not by the replay oracle localizes the failure to engine
// vs. model), disk and log-media faults with the degradation ladder,
// crashes during recovery, and the serial-vs-parallel redo equivalence
// oracle. Every other configuration runs the concurrent engine: the
// workers' clients commit through the group-commit pipeline while a
// checkpointer runs beside them.
//
// Every configuration runs the same cycle: load; the crash boundary
// (FreezeCommits, plus DisableCommands and DisconnectAll over TCP); an
// optional torn force; Crash(); the serial-only pre-recovery checks;
// recovery (quiescing Recover, or RecoverInstant with optional double
// crashes and a recover-while-loading round); then one oracle set:
//
//  1. No lost acked commit: every acknowledged commit is stable after
//     the crash's salvage.
//  2. Atomicity (txn mode): every acknowledged transaction is a winner
//     (its commit record is stable), and only winners' writes count.
//  3. Model replay: the recovered state equals the LSN-ordered replay
//     of exactly the journaled operations whose records survived; TCP
//     requests whose replies were lost are judged in doubt, per client
//     partition (model_replay.h). Over TCP the final state is also read
//     back over the wire.
//
// A failure hands back the failing cycle's recovery timeline and
// flight-recorder Chrome trace. Serial runs are deterministic in the
// seed; concurrent runs vary in interleaving and crash point, and the
// oracles must hold under every one.

#ifndef REDO_CHECKER_CRASH_SIM_H_
#define REDO_CHECKER_CRASH_SIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "checker/closed_loop.h"
#include "engine/workload.h"
#include "methods/method.h"
#include "util/status.h"

namespace redo::checker {

enum class Transport : uint8_t {
  kInProcess,  ///< workers drive Sessions through engine::Dispatch
  kTcp,        ///< workers are NetClients of an in-process NetServer
};

struct SimOptions {
  // ---- The two axes ----
  Transport transport = Transport::kInProcess;
  /// Workers: Sessions in process, clients over TCP. In process, one
  /// session runs the serial engine.
  size_t sessions = 1;

  // ---- Every configuration ----
  /// The serial op stream's mix; its num_pages sizes the database in
  /// every configuration.
  engine::WorkloadOptions workload;
  /// Serial: workload actions between crashes. Concurrent: operations
  /// per worker per round.
  size_t ops_per_session = 150;
  size_t cycles = 4;  ///< crash/recover/verify cycles
  /// Concurrent: commit after every N operations; in txn mode each
  /// batch of N is one transaction. A worker's last batch may be short.
  size_t commit_every = 4;
  /// The crash may tear the in-flight log force: a random byte-granular
  /// prefix of the unacknowledged records lands on stable storage, and
  /// salvage must never lose an acked commit.
  bool tear_log_tail = false;
  /// Disk faults. Serial: torn page writes, write-error bursts and
  /// sticky reads, every one detected and healed (the mirror-repair
  /// model), plus log-media faults when log_segment_bytes > 0.
  /// Concurrent: transient write-error bursts shorter than the buffer
  /// pool's retry budget, which must be absorbed.
  bool disk_faults = false;
  /// The device's queue depth (EngineOptions::async_io_workers); 0
  /// keeps one I/O in flight (the REDO_ASYNC_IO environment variable
  /// overrides a zero). Recovered state is identical either way — only
  /// the I/O schedule changes — so every oracle runs unmodified.
  size_t async_io_workers = 0;

  // ---- Concurrent engine only ----
  /// Checkpoints per cycle from a checkpointer thread beside the workers.
  size_t checkpoints_per_cycle = 2;
  /// Recover with RecoverInstant() and run a full worker round WHILE
  /// redo drains (recover-while-loading), then WaitUntilRecovered().
  /// Serving traffic must not alter what recovery produces.
  bool instant_restart = false;
  /// Instant restart: per-recovery probability (percent) of a second
  /// crash while serving — half strike before any traffic touches a
  /// page, half mid-drain with workers in flight.
  size_t double_crash_percent = 0;
  /// Workers wrap each batch in Begin/Commit and roll abort_percent of
  /// them back, on disjoint page partitions (slot-level undo without
  /// locking demands it). The freeze lands crashes mid-transaction and
  /// mid-abort.
  bool txn_mode = false;
  size_t abort_percent = 20;
  /// Txn mode: every recovery's undo pass crashes after this many CLRs
  /// (EngineOptions hook), and recovery reruns until the CLRs'
  /// undo_next chains converge. 0 = never.
  size_t undo_crash_after_clrs = 0;
  /// Redo workers for quiescing recovery; > 1 drains the analysis plan
  /// with that many workers (InstantRedoDriver, doors closed).
  size_t parallel_redo_workers = 1;

  // ---- Serial engine only ----
  size_t cache_capacity = 8;  ///< forced to 0 for the logical method
  /// Crashes during/after recovery: each cycle additionally runs this
  /// many rounds of {recover, flush a random subset of pages, crash
  /// again}, checking the invariant after every re-crash — recovery
  /// must be idempotent and partial recoveries recoverable.
  size_t recovery_crashes = 0;
  /// Serial-vs-parallel redo equivalence: on every non-degraded cycle,
  /// recover the crash state once serially and once per listed worker
  /// count (restoring the crash state between runs, injection paused),
  /// and require byte-identical effective pages, page LSNs, and
  /// redo-verdict multisets. Empty = off.
  std::vector<size_t> equivalence_workers;
  /// With disk_faults: run a segmented, mirrored, archived log of this
  /// segment size whose sealed body takes log-media damage at every
  /// crash (0 = flat log, no log faults). A damaged cycle must resolve
  /// at an explicit degradation-ladder rung.
  size_t log_segment_bytes = 0;
  /// With disk_faults: take a backup — what rung 2 degrades to — every
  /// N cycles (0 = never), and checkpoint-truncate the live log there
  /// (the archive retains the sealed segments).
  size_t backup_interval = 1;
  bool truncate_at_backup = true;
  /// Withhold the offsite restore that normally resolves a rung-3
  /// refusal: the refusal becomes a terminal failure whose timeline
  /// names the recovery phase, method, rung, and first unreadable LSN.
  bool no_offsite_restore = false;
};

/// The ClientStats part sums the workers' clients; `ops` also counts the
/// serial engine's actions.
struct SimResult : ClientStats {
  bool ok = false;
  std::string failure;  ///< first failure description, if any

  // ---- Every configuration ----
  size_t cycles = 0;          ///< completed crash/recover/verify cycles
  size_t pages_verified = 0;  ///< pages matched against the model replay
  size_t torn_tails = 0;      ///< crashes whose salvage found a torn tail
  size_t torn_tail_bytes_dropped = 0;
  size_t salvaged_records = 0;  ///< unacked records recovered whole
  size_t faults_injected = 0;   ///< torn writes + write bursts + sticky reads
  size_t redo_applied = 0;      ///< records redone by quiescing recoveries
  size_t redo_skipped_installed = 0;  ///< skipped: page LSN proved installed
  size_t redo_not_exposed = 0;        ///< skipped by analysis without page I/O

  // ---- Serial engine ----
  size_t checker_runs = 0;
  size_t stable_ops_at_crashes = 0;  ///< total ops recovery had to consider
  size_t faults_detected = 0;        ///< surfaced via checksum/error + healed
  size_t pages_healed = 0;
  size_t recovery_retries = 0;     ///< recover attempts repeated after faults
  size_t silent_corruptions = 0;   ///< model mismatch with a valid checksum
  size_t log_faults_injected = 0;  ///< copies rotted or lost, archive included
  size_t log_scrub_repairs = 0;    ///< live and archive copies rebuilt by scrub
  size_t ladder_mirror_cycles = 0;  ///< damaged cycles resolved by scrub (rung 1)
  size_t ladder_media_cycles = 0;   ///< cycles degraded to media recovery (rung 2)
  size_t ladder_refusals = 0;       ///< diagnosed refusals (rung 3, then restored)
  size_t backups_taken = 0;
  size_t segments_sealed = 0;
  size_t segments_truncated = 0;       ///< live segments retired to the archive
  size_t equivalence_checks = 0;       ///< parallel recoveries compared
  size_t equivalence_divergences = 0;  ///< mismatches vs the serial run

  // ---- Concurrent engine ----
  size_t lost_acked_commits = 0;  ///< THE violation: acked but not stable
  size_t checkpoints_taken = 0;
  size_t group_commits = 0;       ///< pipeline acks (LogStats)
  size_t group_batches = 0;       ///< pipeline forces (LogStats)
  size_t instant_restarts = 0;    ///< RecoverInstant() calls that served
  size_t double_crashes = 0;      ///< crashes during serving-while-redoing
  size_t losers_undone = 0;       ///< recovery-undo rollbacks
  size_t undo_recrashes = 0;      ///< injected crashes mid-undo
  /// Txn mode, THE violation: an acknowledged commit whose transaction
  /// is not a winner on the stable log (atomicity/durability breach).
  size_t atomicity_violations = 0;

  /// JSONL recovery timeline and Chrome-trace JSON of the failing
  /// cycle's flight-recorder events (empty when ok): the post-mortem
  /// artifacts crash_torture writes to disk.
  std::string failing_timeline_jsonl;
  std::string failing_flight_trace_json;
  /// Metrics-registry delta over the last completed (or failing) cycle,
  /// in the text exporter's format.
  std::string last_cycle_metrics_text;

  /// "OK" or "FAILED: why", then every non-zero counter.
  std::string ToString() const;
  /// Sums the counters: `ok` ands, the first failure stays, the latest
  /// failing artifacts win — the aggregate crash_torture reports.
  SimResult& operator+=(const SimResult& other);
};

/// Refuses options no run can honor: zero sessions, cycles or
/// commit_every, fewer pages than worker partitions, and knobs the
/// derived engine would silently ignore (concurrent-engine knobs on
/// the serial engine and vice versa).
Status ValidateSimOptions(const SimOptions& options);

/// Runs the crash-recover-verify loop for one method. Options
/// ValidateSimOptions refuses come back as a failed result naming why.
SimResult RunSim(methods::MethodKind method, const SimOptions& options,
                 uint64_t seed);

}  // namespace redo::checker

#endif  // REDO_CHECKER_CRASH_SIM_H_
