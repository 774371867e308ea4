// The cycle runner: drives a workload through fresh engines over
// loopback TCP (the measured arm) or straight into engine::Dispatch
// (the in-process arm of a traced run).
//
// Every cycle of every workload has the same shape:
//   1. set up: construct the engine, start a NetServer, connect the
//      clients and read every page once to warm the pool (setup_s);
//   2. `units_before` units per client, Checkpoint(), `units_after`
//      more;
//   3. `restarts_per_cycle` rounds of:
//      a. strand a loser (Begin + 6 writes) and make it stable with
//         another client's commit;
//      b. crash: FreezeCommits, DisableCommands, DisconnectAll, Crash;
//      c. even rounds RecoverInstant() and a fresh probe client runs
//         AwaitServing, one write and its Commit; the first commit any
//         client gets acked gives ttfc_ms, WaitUntilRecovered() gives
//         recovered_ms. Odd rounds Recover() + BeginConcurrent()
//         (recover_ms). With units_after_crash > 0 the clients
//         reconnect and resume traffic meanwhile;
//      d. the oracle: every client reads back all of its slots and
//         checks the last committed values (the loser's writes rolled
//         back), and every probe commit reads back.
// The log a restart replays therefore has a fixed size, set by the
// workload, whatever the throughput: nothing truncates the log, so
// reusing one engine across cycles would make restart time grow with
// run length.

#ifndef REDO_BENCH_E2E_HARNESS_H_
#define REDO_BENCH_E2E_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"
#include "workloads.h"

namespace redo::e2e {

/// Raw client-side samples, in microseconds.
struct Samples {
  std::vector<double> begin_us, write_us, read_us, commit_us;
  /// One per pipelined batch: TCP, first send -> last reply; in-process,
  /// the sum of the batch's Dispatch calls.
  std::vector<double> batch_us;
  uint64_t acked = 0;  ///< commands answered ok (Commits included)

  void Append(const Samples& other);
};

/// What one arm measured, end to end.
struct Measurements {
  /// Per cycle: the workload's measured window and its wall time.
  std::vector<Samples> serving;
  std::vector<double> window_s;
  Samples history;        ///< units before the crash, all cycles
  double history_s = 0;   ///< wall time of those units
  uint64_t history_writes = 0;      ///< writes acked before the crash
  uint64_t history_log_bytes = 0;   ///< wal.stable_bytes gained meanwhile
  std::vector<double> setup_s, ttfc_ms, recovered_ms, recover_ms;
  uint64_t cycles = 0;
  uint64_t attempted = 0;  ///< commands sent
  uint64_t failed = 0;     ///< non-ok replies + transport errors
  std::vector<std::string> violations;  ///< oracle failures
};

/// Per-layer tallies of a traced TCP arm (deltas of the engine's
/// metrics registry, RecoveryTracer events and flight-recorder spans).
struct LayerTally {
  // wal and pool over the units before the crash.
  uint64_t group_commits = 0, group_batches = 0, appends = 0;
  uint64_t ring_stalls = 0;
  uint64_t force_sum = 0, force_count = 0;
  uint64_t ack_wait_sum = 0, ack_wait_count = 0;
  uint64_t append_bytes_sum = 0, append_bytes_count = 0;
  uint64_t pool_hits = 0, pool_fetches = 0;
  uint64_t net_bytes = 0, net_commands = 0;
  // Restarts.
  uint64_t instant_restarts = 0, quiescing_restarts = 0;
  uint64_t restart_pool_misses = 0, restart_disk_reads = 0;
  uint64_t instant_on_demand = 0, instant_background = 0;
  uint64_t instant_applied = 0, instant_skipped = 0;
  uint64_t parallel_tasks = 0, parallel_handoffs = 0;
  uint64_t parallel_critical_us = 0, parallel_busy_us = 0;
  uint64_t verdicts = 0, verdicts_applied = 0;
  std::map<std::string, std::vector<double>> phase_ms;  ///< phase-end events
  std::vector<double> await_serving_ms, first_write_ms;
  // Flight-recorder spans, drained every 50 ms.
  uint64_t session_ops = 0, latch_waits = 0;
  uint64_t latch_wait_us = 0;
  uint64_t flight_dropped = 0;
};

/// Runs whole cycles over TCP until `seconds` have elapsed (at least
/// one). With `layers` non-null the run is traced and per-layer tallies
/// are collected. A non-ok Status is a harness failure (the engine
/// refused a call); oracle failures land in `m->violations`.
Status RunTcpArm(const Workload& workload, uint64_t seed, double seconds,
                 Measurements* m, LayerTally* layers);

/// The in-process arm: the same seeded commands as the TCP arm's
/// cycles, sent from kClients threads straight into engine::Dispatch,
/// one call timed at a time. No crash. Runs whole cycles until
/// `seconds` have elapsed (at least one).
Status RunDispatchArm(const Workload& workload, uint64_t seed, double seconds,
                      Samples* dispatch, Measurements* m);

}  // namespace redo::e2e

#endif  // REDO_BENCH_E2E_HARNESS_H_
