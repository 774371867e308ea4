// The networked crash simulator: real TCP clients against a NetServer
// while the engine crashes and instant-restarts underneath them.
//
// Stable storage in this engine is simulated in process memory, so the
// crash is the engine's crash boundary (FreezeCommits -> Crash ->
// RecoverInstant) inside the server process — but the clients are real
// network peers: their connections drop mid-pipeline, their in-flight
// requests vanish unacknowledged, and they reconnect through the
// still-open listener while recovery runs, observing the engine move
// kAnalyzing -> kServing over STATUS.
//
// Oracles, extended across the wire:
//  1. No lost acked commit: a commit reply is a durability promise;
//     after every recovery the stable LSN must cover every commit any
//     client was acked (checked engine-side after each crash AND
//     client-side from the stable LSN piggybacked on replies).
//  2. Rejected-or-replayable: every page slot is owned by exactly one
//     client, which gives it strictly increasing values. Per slot, the
//     stable log keeps a prefix of the owner's writes, so the recovered
//     value must be (a) one the owner actually sent — never invented —
//     and (b) at least the last value whose commit was acked. In-flight
//     writes at the crash either survive (replayable: the record
//     reached stable storage) or are cleanly gone; either way the
//     recovered value is one of the sent values at-or-after the last
//     committed one. Verified by reading every written slot back over
//     the wire after the final recovery.
//  3. Availability: clients must reconnect and resume within the
//     deadline every cycle; reconnections that land while the engine is
//     still draining (phase kServing) are counted so callers can assert
//     traffic really resumed before full recovery.

#ifndef REDO_CHECKER_NET_SIM_H_
#define REDO_CHECKER_NET_SIM_H_

#include <cstdint>
#include <string>

#include "methods/method.h"

namespace redo::checker {

struct NetSimOptions {
  size_t clients = 3;          ///< client threads (real TCP connections)
  size_t pipeline = 4;         ///< outstanding writes per client
  size_t num_pages = 12;       ///< partitioned evenly across clients
  size_t cycles = 3;           ///< crash/recover rounds under load
  size_t commit_every = 3;     ///< commit after this many write batches
  /// Load time between the cycle start and the crash, randomized up to
  /// this many microseconds on top of a small floor.
  uint64_t crash_delay_hi_us = 4000;
  /// Tear the in-flight force at the crash (torn-tail salvage).
  bool tear_log_tail = true;
  /// Recover with RecoverInstant() and let clients reconnect during the
  /// kServing drain; false = quiescing Recover() before re-enabling.
  bool instant_restart = true;
  size_t instant_drain_workers = 2;
  uint64_t group_commit_window_us = 100;
  size_t worker_threads = 2;       ///< server worker pool
  int reconnect_deadline_ms = 10000;
};

struct NetSimResult {
  bool ok = false;
  std::string failure;
  size_t cycles = 0;
  size_t writes_acked = 0;
  size_t commits_acked = 0;
  size_t rejected = 0;             ///< kUnavailable replies (recovery gate)
  size_t reconnects = 0;           ///< connection drops recovered from
  size_t reconnects_during_serving = 0;  ///< resumed at phase kServing
  size_t in_flight_abandoned = 0;  ///< requests unacked at a disconnect
  size_t lost_acked_commits = 0;   ///< THE violation (oracle 1)
  size_t slots_verified = 0;       ///< slots read back post-recovery
  size_t slot_violations = 0;      ///< THE violation (oracle 2)
  size_t torn_tails = 0;
  size_t instant_restarts = 0;

  std::string ToString() const;
};

/// Runs the crash-with-connected-clients loop for one method over
/// loopback TCP. Workload content is deterministic in `seed`; timing,
/// interleaving, and the crash point are not.
NetSimResult RunNetCrashSim(methods::MethodKind method,
                            const NetSimOptions& options, uint64_t seed);

}  // namespace redo::checker

#endif  // REDO_CHECKER_NET_SIM_H_
