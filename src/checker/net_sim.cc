#include "checker/net_sim.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/command.h"
#include "engine/minidb.h"
#include "net/client.h"
#include "net/server.h"
#include "util/rng.h"

namespace redo::checker {
namespace {

using engine::MiniDb;
using storage::PageId;

constexpr uint32_t kSlotsUsed = 8;  ///< low slots written per page

/// Simulated page-read latency of the sim's engine. It stretches the
/// kServing drain from microseconds to milliseconds, so reconnecting
/// clients observably land *during* recovery (reconnects_during_serving)
/// — the point of instant restart. Each page pays it once per first
/// touch.
constexpr uint64_t kDrainReadLatencyUs = 150;

/// Per-slot ownership record (one writer per slot — the partition
/// invariant). Values are strictly increasing, so the slot's legal
/// post-recovery values form the contiguous range
/// [last committed, last sent] (plus 0 when nothing ever committed).
struct SlotTrack {
  int64_t last_sent = 0;    ///< highest value ever sent
  int64_t last_acked = 0;   ///< highest value acked THIS connection
  int64_t committed = 0;    ///< highest value covered by an acked commit
};

struct ClientTrack {
  std::unordered_map<uint64_t, SlotTrack> slots;  ///< key = page*1024 + slot
};

struct Shared {
  std::atomic<bool> stop{false};
  std::atomic<size_t> writes_acked{0};
  std::atomic<size_t> commits_acked{0};
  std::atomic<size_t> rejected{0};
  std::atomic<size_t> reconnects{0};
  std::atomic<size_t> reconnects_during_serving{0};
  std::atomic<size_t> in_flight_abandoned{0};
  std::atomic<core::Lsn> max_acked_commit_lsn{0};
  std::mutex mu;
  std::string first_failure;

  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (first_failure.empty()) first_failure = what;
  }
};

struct PendingWrite {
  uint64_t request_id = 0;
  uint64_t slot_key = 0;
};

void ClientLoop(const NetSimOptions& options, uint16_t port, uint64_t seed,
                size_t index, Shared& shared, ClientTrack& track) {
  Rng rng(seed * 0x9e3779b9ULL + index * 131 + 7);
  const size_t per = options.num_pages / options.clients;
  const PageId base = static_cast<PageId>(index * per);

  redo::net::NetClient client;
  auto serving = client.AwaitServing("127.0.0.1", port,
                                     options.reconnect_deadline_ms);
  if (!serving.ok()) {
    shared.Fail("initial connect: " + serving.status().ToString());
    return;
  }

  // A dropped connection means the engine crashed: every acked-but-
  // uncommitted write lost its (nonexistent) promise, and the next
  // commit — on a NEW session — covers only the new session's writes.
  const auto reconnect = [&]() -> bool {
    shared.reconnects.fetch_add(1);
    for (auto& [key, slot] : track.slots) slot.last_acked = slot.committed;
    auto reply = client.AwaitServing("127.0.0.1", port,
                                     options.reconnect_deadline_ms);
    if (!reply.ok()) {
      shared.Fail("reconnect: " + reply.status().ToString());
      return false;
    }
    if (reply.value().status.phase ==
        static_cast<uint8_t>(MiniDb::RecoveryPhase::kServing)) {
      shared.reconnects_during_serving.fetch_add(1);
    }
    return true;
  };

  size_t batches = 0;
  while (!shared.stop.load()) {
    std::vector<PendingWrite> pending;
    pending.reserve(options.pipeline);
    bool transport_down = false;
    for (size_t i = 0; i < options.pipeline; ++i) {
      const PageId page = base + static_cast<PageId>(rng.Below(per));
      const uint32_t slot = static_cast<uint32_t>(rng.Below(kSlotsUsed));
      const uint64_t key = static_cast<uint64_t>(page) * 1024 + slot;
      SlotTrack& st = track.slots[key];
      const int64_t value = ++st.last_sent;
      auto sent = client.SendCommand(
          engine::MakeWriteSlotCommand(page, slot, value));
      if (!sent.ok()) {
        transport_down = true;
        break;
      }
      pending.push_back({sent.value(), key});
    }
    size_t received = 0;
    for (; received < pending.size() && !transport_down; ++received) {
      uint64_t id = 0;
      auto reply = client.ReceiveReply(&id);
      if (!reply.ok()) {
        transport_down = true;
        break;
      }
      if (id != pending[received].request_id) {
        shared.Fail("reply out of order: got id " + std::to_string(id));
        return;
      }
      SlotTrack& st = track.slots[pending[received].slot_key];
      if (reply.value().ok()) {
        shared.writes_acked.fetch_add(1);
        // Per-slot sends are ordered, replies in order: the acked value
        // is the highest sent at the time of that send.
        if (st.last_acked < st.last_sent) st.last_acked = st.last_sent;
      } else if (reply.value().code == StatusCode::kUnavailable) {
        shared.rejected.fetch_add(1);
      } else {
        shared.Fail("write failed: " +
                    engine::ReplyStatus(reply.value()).ToString());
        return;
      }
    }
    if (transport_down) {
      shared.in_flight_abandoned.fetch_add(pending.size() - received);
      if (!reconnect()) return;
      continue;
    }

    if (++batches % options.commit_every != 0) continue;

    auto reply = client.Call(engine::MakeCommitCommand());
    if (!reply.ok()) {
      shared.in_flight_abandoned.fetch_add(1);
      if (!reconnect()) return;
      continue;
    }
    const engine::Reply& r = reply.value();
    if (r.ok()) {
      shared.commits_acked.fetch_add(1);
      core::Lsn seen = shared.max_acked_commit_lsn.load();
      while (seen < r.lsn &&
             !shared.max_acked_commit_lsn.compare_exchange_weak(seen, r.lsn)) {
      }
      if (r.stable_lsn < r.lsn) {
        shared.Fail("commit acked at LSN " + std::to_string(r.lsn) +
                    " but reply carries stable LSN " +
                    std::to_string(r.stable_lsn));
        return;
      }
      // Everything acked on this connection is now durably promised.
      for (auto& [key, slot] : track.slots) {
        if (slot.committed < slot.last_acked) slot.committed = slot.last_acked;
      }
    } else if (r.code == StatusCode::kUnavailable) {
      shared.rejected.fetch_add(1);  // the crash boundary: no promise made
    } else {
      shared.Fail("commit failed: " + engine::ReplyStatus(r).ToString());
      return;
    }
  }
  client.Close();
}

}  // namespace

std::string NetSimResult::ToString() const {
  std::ostringstream out;
  out << (ok ? "OK" : "FAIL") << " cycles=" << cycles
      << " writes=" << writes_acked << " commits=" << commits_acked
      << " rejected=" << rejected << " reconnects=" << reconnects
      << " during_serving=" << reconnects_during_serving
      << " abandoned=" << in_flight_abandoned
      << " lost_acked=" << lost_acked_commits
      << " slots_verified=" << slots_verified
      << " slot_violations=" << slot_violations
      << " torn_tails=" << torn_tails
      << " instant_restarts=" << instant_restarts;
  if (!ok) out << " failure=\"" << failure << "\"";
  return out.str();
}

NetSimResult RunNetCrashSim(methods::MethodKind method,
                            const NetSimOptions& options, uint64_t seed) {
  NetSimResult result;
  if (options.clients == 0 || options.num_pages < options.clients) {
    result.failure = "need num_pages >= clients (disjoint partitions)";
    return result;
  }

  engine::MiniDbOptions db_options;
  db_options.num_pages = options.num_pages;
  db_options.cache_capacity = 0;  // concurrent mode requires unbounded
  db_options.engine.group_commit_window_us = options.group_commit_window_us;
  db_options.engine.instant_restart = options.instant_restart;
  db_options.engine.instant_drain_workers =
      options.instant_drain_workers == 0 ? 1 : options.instant_drain_workers;
  db_options.engine.simulated_read_latency_us = kDrainReadLatencyUs;
  db_options.net.port = 0;  // ephemeral
  db_options.net.worker_threads = options.worker_threads;
  db_options.net.pipeline_depth = options.pipeline + 2;
  MiniDb db(db_options, methods::MakeMethod(method, {options.num_pages}));

  Status begun = db.BeginConcurrent();
  if (!begun.ok()) {
    result.failure = "BeginConcurrent: " + begun.ToString();
    return result;
  }

  redo::net::NetServer server(&db, db_options.net);
  Status started = server.Start();
  if (!started.ok()) {
    result.failure = "server start: " + started.ToString();
    return result;
  }

  Shared shared;
  std::vector<ClientTrack> tracks(options.clients);
  std::vector<std::thread> clients;
  clients.reserve(options.clients);
  for (size_t c = 0; c < options.clients; ++c) {
    clients.emplace_back([&, c] {
      ClientLoop(options, server.port(), seed, c, shared, tracks[c]);
    });
  }

  Rng sim_rng(seed);
  for (size_t cycle = 0; cycle < options.cycles; ++cycle) {
    // Randomize the crash point, but never crash a cycle that saw no
    // acked commit: under sanitizer slowdown a fixed microsecond window
    // can elapse before any client completes a round trip, and a run
    // with commits_acked == 0 proves nothing. Bounded so a wedged
    // server still fails the run instead of hanging the sim.
    const size_t commits_at_cycle_start = shared.commits_acked.load();
    std::this_thread::sleep_for(std::chrono::microseconds(
        300 + sim_rng.Below(options.crash_delay_hi_us)));
    const auto progress_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (shared.commits_acked.load() == commits_at_cycle_start &&
           std::chrono::steady_clock::now() < progress_deadline) {
      {
        std::lock_guard<std::mutex> lock(shared.mu);
        if (!shared.first_failure.empty()) break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    {
      std::lock_guard<std::mutex> lock(shared.mu);
      if (!shared.first_failure.empty()) break;
    }

    // The crash boundary with connected clients (DESIGN.md §15).
    db.FreezeCommits();
    server.DisableCommands();
    Status disconnected = server.DisconnectAll();
    if (!disconnected.ok()) {
      result.failure = "DisconnectAll: " + disconnected.ToString();
      break;
    }
    if (options.tear_log_tail) {
      const size_t pending_bytes = db.log().PendingForceBytes();
      if (pending_bytes > 0) {
        db.log().TearInFlightForce(sim_rng.Below(pending_bytes + 1));
        ++result.torn_tails;
      }
    }
    db.Crash();
    Status recovered =
        options.instant_restart ? db.RecoverInstant() : db.Recover();
    if (!recovered.ok()) {
      result.failure = "recover: " + recovered.ToString();
      break;
    }
    if (options.instant_restart) {
      ++result.instant_restarts;
    } else {
      // RecoverInstant() enters concurrent mode itself; the quiescing
      // Recover() does not — re-open the doors before EnableCommands,
      // or every reconnecting client polls STATUS until its deadline.
      Status reopened = db.BeginConcurrent();
      if (!reopened.ok()) {
        result.failure = "BeginConcurrent after Recover: " +
                         reopened.ToString();
        break;
      }
    }

    // Oracle 1, engine side: the salvaged log must cover every commit
    // any client has been acked so far.
    const core::Lsn stable = db.log().stable_lsn();
    const core::Lsn acked = shared.max_acked_commit_lsn.load();
    if (stable < acked) {
      ++result.lost_acked_commits;
      result.failure = "lost acked commits: stable LSN " +
                       std::to_string(stable) + " < acked commit LSN " +
                       std::to_string(acked);
      break;
    }
    server.EnableCommands();
    ++result.cycles;
  }

  // Let clients resume against the final recovery, then stop them.
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  shared.stop.store(true);
  server.EnableCommands();  // in case the loop broke while disabled
  for (std::thread& t : clients) t.join();

  result.writes_acked = shared.writes_acked.load();
  result.commits_acked = shared.commits_acked.load();
  result.rejected = shared.rejected.load();
  result.reconnects = shared.reconnects.load();
  result.reconnects_during_serving = shared.reconnects_during_serving.load();
  result.in_flight_abandoned = shared.in_flight_abandoned.load();

  if (result.failure.empty() && shared.first_failure.empty()) {
    if (options.instant_restart) {
      Status waited = db.WaitUntilRecovered();
      if (!waited.ok()) result.failure = "WaitUntilRecovered: " + waited.ToString();
    }
  }

  // Oracle 2: read every written slot back over the wire and check the
  // recovered value is one the owner sent, at or after its last
  // committed value.
  if (result.failure.empty() && shared.first_failure.empty()) {
    redo::net::NetClient verifier;
    auto serving = verifier.AwaitServing("127.0.0.1", server.port(),
                                         options.reconnect_deadline_ms);
    if (!serving.ok()) {
      result.failure = "verifier connect: " + serving.status().ToString();
    } else {
      for (size_t c = 0; c < options.clients && result.failure.empty(); ++c) {
        for (const auto& [key, slot] : tracks[c].slots) {
          const PageId page = static_cast<PageId>(key / 1024);
          const uint32_t slot_index = static_cast<uint32_t>(key % 1024);
          auto reply =
              verifier.Call(engine::MakeReadSlotCommand(page, slot_index));
          if (!reply.ok() || !reply.value().ok()) {
            result.failure = "verifier read failed: " +
                             (reply.ok()
                                  ? engine::ReplyStatus(reply.value()).ToString()
                                  : reply.status().ToString());
            break;
          }
          const int64_t got = reply.value().value;
          const bool legal =
              (got == 0 && slot.committed == 0) ||
              (got >= slot.committed && got <= slot.last_sent && got > 0);
          if (!legal) {
            ++result.slot_violations;
            result.failure =
                "slot oracle: page " + std::to_string(page) + " slot " +
                std::to_string(slot_index) + " recovered to " +
                std::to_string(got) + " but owner committed up to " +
                std::to_string(slot.committed) + " and sent up to " +
                std::to_string(slot.last_sent);
            break;
          }
          ++result.slots_verified;
        }
      }
    }
  }

  server.Stop();
  if (db.concurrent()) (void)db.EndConcurrent();

  if (result.failure.empty() && !shared.first_failure.empty()) {
    result.failure = shared.first_failure;
  }
  result.ok = result.failure.empty();
  return result;
}

}  // namespace redo::checker
