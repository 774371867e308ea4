// The benchmark's fixed configuration, its four workloads, and the
// seeded load generator that turns a workload into commands.
//
// The server only ever sees engine::Commands; every random choice is
// made here, from the run's --seed, so one seed gives one set of inputs.

#ifndef REDO_BENCH_E2E_WORKLOADS_H_
#define REDO_BENCH_E2E_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/command.h"
#include "engine/minidb.h"
#include "methods/method.h"
#include "util/rng.h"

namespace redo::e2e {

// ---- Fixed configuration (echoed in every output record) ----

/// Client connections, one thread each. Fixed, never read from the
/// host: a number must not depend on the machine it was taken on.
inline constexpr size_t kClients = 4;
/// Server worker threads: one strand per connection. With 2 workers
/// and 4 connections both strands park in CommitWait (see README).
inline constexpr size_t kServerWorkers = 4;
inline constexpr size_t kPages = 256;
/// Slots used per page (of storage::Page::NumSlots()). Client c owns
/// slots [c * kSlotsPerClient, (c + 1) * kSlotsPerClient) of every
/// page, so reads meet other clients' writes on the same page latch.
inline constexpr uint32_t kSlotsPerPage = 32;
inline constexpr uint32_t kSlotsPerClient = kSlotsPerPage / kClients;
/// Slots one client owns across the database.
inline constexpr size_t kOwnedSlots = kPages * kSlotsPerClient;
/// The restart probe writes this slot, outside every client's range.
inline constexpr uint32_t kProbeSlot = kSlotsPerPage;
inline constexpr uint64_t kForceLatencyUs = 300;
inline constexpr uint64_t kReadLatencyUs = 200;
inline constexpr uint64_t kGroupCommitWindowUs = 100;
inline constexpr size_t kRedoWorkers = 4;
inline constexpr size_t kDrainWorkers = 2;
/// Commands a hot_reads client keeps in one pipelined batch.
inline constexpr size_t kHotBatch = 8;
/// Writes in a txn_commit transaction (after its Begin).
inline constexpr size_t kTxnWrites = 4;
/// Writes the stranded loser transaction makes before the crash.
inline constexpr size_t kLoserWrites = 6;
inline constexpr size_t kHotPages = 8;

/// The engine configuration every cycle of every workload runs on.
engine::MiniDbOptions EngineConfig();

// ---- Workloads ----

enum class Mix {
  kTxn,       ///< [Begin, 4 x WriteSlot] pipelined, then Commit
  kHotReads,  ///< 8 pipelined: 90% ReadSlot / 10% WriteSlot, 80% on 8 pages
};

/// One workload. Every cycle builds a fresh engine, runs `units_before`
/// units per client, checkpoints, runs `units_after` more, strands a
/// loser, crashes and restarts. A unit is one transaction (kTxn) or one
/// batch (kHotReads).
struct Workload {
  std::string name;
  std::string why;
  methods::MethodKind method;
  Mix mix;
  size_t units_before;
  size_t units_after;
  /// Units each client runs after each crash, reconnecting while the
  /// engine recovers; when non-zero they, not the units before the
  /// crash, are the measured window. 0: only the probe touches the
  /// restarted engine.
  size_t units_after_crash;
  /// Crash/restart rounds per cycle, alternating instant and quiescing.
  /// Restarts are cheap next to the units that build the log they
  /// replay, so a cycle restarts several times — but only twice when
  /// units run after each crash, since those units lengthen the log the
  /// next round replays and every round of one kind must replay the same.
  size_t restarts_per_cycle;
};

const std::vector<Workload>& Workloads();
/// The workload named `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// A copy of `workload` with every unit count divided by `divisor`
/// (at least 1 where it was non-zero) — the --smoke size.
Workload Scaled(const Workload& workload, size_t divisor);

// ---- Load generation ----

/// Slot `index` (0 .. kOwnedSlots-1) of client `client`, as page/slot.
struct SlotRef {
  storage::PageId page;
  uint32_t slot;
};
SlotRef OwnedSlot(size_t client, size_t index);

/// One command plus what the oracle needs to check its reply.
struct Step {
  engine::Command command;
  /// The owned slot (OwnedSlot index) this command writes or reads; -1
  /// for a read of another client's slot or a Begin.
  int owned = -1;
  int64_t value = 0;  ///< the value written (writes only)
};

/// One closed-loop step: commands sent back to back, then (optionally)
/// a Commit sent once every reply is in.
struct Unit {
  std::vector<Step> batch;
  bool commit = false;
};

/// A client's command stream for one cycle. The stream depends only on
/// (workload mix, seed, cycle, client), so the in-process arm replays
/// exactly what the TCP arm sent.
class Traffic {
 public:
  Traffic(Mix mix, uint64_t seed, uint64_t cycle, size_t client);

  /// The next unit of the mix.
  Unit Next();
  /// A Commit that closes the stream's uncommitted writes, or an empty
  /// unit when there are none (hot_reads commits every 4th writing
  /// batch, so a phase can end on uncommitted writes).
  Unit Flush();
  /// The loser: Begin plus kLoserWrites writes on distinct owned slots.
  Unit Loser();
  /// One write (no transaction) — the commit that makes the loser
  /// stable is sent behind it.
  Unit WriteThenCommit();

 private:
  Step Write(size_t index);
  storage::PageId HotOrColdPage();
  int64_t NextValue();

  Mix mix_;
  size_t client_;
  Rng rng_;
  std::vector<storage::PageId> hot_pages_;
  uint64_t value_seq_ = 0;
  size_t writing_batches_ = 0;
  bool uncommitted_ = false;
};

/// The page whose kProbeSlot the probe writes after restart number
/// `restart` of the run.
storage::PageId ProbePage(uint64_t seed, uint64_t restart);

}  // namespace redo::e2e

#endif  // REDO_BENCH_E2E_WORKLOADS_H_
