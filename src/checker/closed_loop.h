// The closed-loop client, which the crash sim's workers, net_load and
// bench_net all run. It owns a page partition and loops: a batch of
// commit_every random operations (5% splits and slot transfers, 3% blind
// formats, the rest slot writes), pipelined over TCP, then a commit — in
// transaction mode wrapped in Begin/Commit, abort_percent of them rolled
// back. Each successful reply's updates enter the journal with the LSNs
// it carries; an acked commit's reply must carry a stable LSN covering
// it. It runs until its op budget or a deadline, or until a crash cuts
// it off (a refused request or a dropped connection) with the unanswered
// requests in doubt. Request and commit latencies land in histograms.
//
// The crash sim judges each cut-off itself, from the engine's stable
// LSN (RunBatches, TakeLedger). A stand-alone client (Run) cannot see
// the engine: after a cut-off it reads its pages back before it writes
// again, and once more at the end; with requests in doubt, only once
// the engine's instant-restart count passed the one it saw at its last
// connect, since the crash that decides them may not have struck yet.
// A crash keeps an LSN prefix of the log and one connection's requests
// execute in order, so the values must equal the replay of its journal
// through its last acked commit, extended by some prefix of the requests
// after it.

#ifndef REDO_CHECKER_CLOSED_LOOP_H_
#define REDO_CHECKER_CLOSED_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "checker/model_replay.h"
#include "engine/command.h"
#include "engine/minidb.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace redo::checker {

using Clock = std::chrono::steady_clock;

/// The pages a client owns: [first, first + count).
struct PageRange {
  storage::PageId first = 0;
  size_t count = 0;

  storage::PageId end() const {
    return first + static_cast<storage::PageId>(count);
  }
  /// Part `i` of `n` equal, disjoint parts; the remainder stays unowned.
  PageRange Part(size_t i, size_t n) const {
    return {first + static_cast<storage::PageId>(i * (count / n)), count / n};
  }
};

struct ClientSpec {
  engine::MiniDb* db = nullptr;  ///< in process; else a server:
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  PageRange pages;
  size_t commit_every = 4;   ///< operations per batch; a commit ends each
  bool txn = false;          ///< wrap each batch in Begin/Commit
  size_t abort_percent = 0;  ///< txn: batches rolled back instead
  uint64_t seed = 1;
};

struct ClientStats {
  size_t ops = 0;             ///< acked operations
  size_t splits = 0;          ///< acked splits and slot transfers
  size_t commits_acked = 0;
  size_t refused = 0;         ///< kUnavailable replies at a crash boundary
  size_t in_doubt = 0;        ///< requests whose replies never arrived
  size_t txns_committed = 0;
  size_t txns_aborted = 0;    ///< rolled back by the client
  size_t reconnects = 0;      ///< TCP connects after a client's first
  size_t reconnects_during_serving = 0;  ///< of those, at phase kServing
  size_t slots_verified = 0;  ///< slots read back and matched
  obs::Histogram request_us{obs::LatencyBucketsUs()};
  obs::Histogram commit_us{obs::LatencyBucketsUs()};

  ClientStats& operator+=(const ClientStats& other);
};

/// What a client learned, for a caller that judges crashes itself.
struct Ledger {
  std::vector<JournalEntry> journal;  ///< replied updates, with their LSNs
  std::vector<core::Lsn> acked;       ///< each acked commit's LSN
  std::vector<uint64_t> acked_txns;   ///< acknowledged transactions
  /// Unanswered requests at a cut-off; the caller sets the boundary.
  std::optional<InDoubt> cut_off;
  std::string failure;  ///< the first broken promise
};

class ClosedLoopClient {
 public:
  explicit ClosedLoopClient(ClientSpec spec)
      : spec_(std::move(spec)), rng_(spec_.seed * 0x9e3779b9ULL + 17) {}
  ClosedLoopClient(const ClosedLoopClient&) = delete;
  ClosedLoopClient& operator=(const ClosedLoopClient&) = delete;

  /// Runs batches until `op_budget` operations were issued or `deadline`
  /// passed; true when a crash cut the client off (the link is closed).
  bool RunBatches(size_t op_budget, Clock::time_point deadline);

  /// The stand-alone loop (no transactions): RunBatches until
  /// `deadline`, Verify after every cut-off and at the end.
  Status Run(Clock::time_point deadline);

  /// Reads the client's pages back (once the engine restarted, when
  /// requests are in doubt) and keeps the prefix they show as durable.
  Status Verify();

  /// Reads back the read-back slots of `pages` and matches them to
  /// `journal` extended by a prefix of each `in_doubt` group; returns
  /// the prefix lengths (MatchRecovered). Unavailable when a crash cut
  /// it off.
  Result<std::vector<size_t>> ReadBack(PageRange pages,
                                       const std::vector<JournalEntry>& journal,
                                       const std::vector<InDoubt>& in_doubt);

  /// Drops the link: a Session must be gone before the engine recovers.
  void Close() {
    session_.reset();
    net_.reset();
  }
  Ledger TakeLedger();  ///< hands the ledger over and starts a new one
  const Ledger& ledger() const { return ledger_; }
  const ClientStats& stats() const { return stats_; }
  /// Acked commits so far; safe to read while the client runs.
  size_t commits() {
    return std::atomic_ref<size_t>(stats_.commits_acked).load();
  }

 private:
  bool connected() const { return session_.has_value() || net_.has_value(); }
  Status Connect(uint64_t min_restarts);
  std::vector<engine::Reply> Send(const std::vector<engine::Command>& batch,
                                  obs::Histogram* latency_us);

  const ClientSpec spec_;
  Rng rng_;
  std::optional<engine::MiniDb::Session> session_;  ///< the link in process
  std::optional<net::NetClient> net_;               ///< the link over TCP
  Ledger ledger_;
  ClientStats stats_;
  bool connected_before_ = false;
  uint64_t restarts_seen_ = 0;  ///< the restart count at the last connect
  size_t durable_ = 0;          ///< journal prefix an acked commit covers
  core::Lsn last_commit_lsn_ = 0;
};

/// Runs one stand-alone client per spec side by side until `deadline`
/// and sums their stats into `*total`. Overlapping partitions are
/// refused (InvalidArgument) before any client connects. Returns the
/// first failure.
Status RunClients(const std::vector<ClientSpec>& specs,
                  Clock::time_point deadline, ClientStats* total);

}  // namespace redo::checker

#endif  // REDO_CHECKER_CLOSED_LOOP_H_
