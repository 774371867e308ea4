// The closed-loop client as a stand-alone value oracle: clients of an
// in-process NetServer that crashes under them must reconnect, resolve
// what was in doubt to a prefix, and read back exactly what their
// journals explain — and a server that changes one acked value must
// fail that read-back, naming the page and slot.

#include "checker/closed_loop.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "net/client.h"
#include "net/server.h"

namespace redo::checker {
namespace {

using namespace std::chrono_literals;

constexpr size_t kPages = 8;

class ClosedLoopNetTest : public ::testing::Test {
 protected:
  /// `window_us` is the group-commit window; with an idle session held
  /// open, every commit lingers that long before its force.
  void Start(uint64_t window_us = 100) {
    engine::MiniDbOptions options;
    options.num_pages = kPages;
    options.cache_capacity = 0;
    options.engine.instant_restart = true;
    options.engine.instant_drain_workers = 2;
    options.engine.group_commit_window_us = window_us;
    db_ = std::make_unique<engine::MiniDb>(
        options, methods::MakeMethod(methods::MethodKind::kPhysiological,
                                     {kPages}));
    ASSERT_TRUE(db_->BeginConcurrent().ok());
    server_ = std::make_unique<net::NetServer>(db_.get(), options.net);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (db_ != nullptr) db_->Crash();
  }

  ClientSpec Spec(PageRange pages) const {
    ClientSpec spec;
    spec.port = server_->port();
    spec.pages = pages;
    spec.commit_every = 4;
    return spec;
  }

  /// net_server's crash choreography from the command gate on: drop
  /// every connection, freeze commits (a caller may have frozen them
  /// first), crash, restart instantly, serve again.
  void CrashAndRestart() {
    server_->DisableCommands();
    ASSERT_TRUE(server_->DisconnectAll().ok());
    idle_.reset();  // no Session may outlive the crash
    db_->FreezeCommits();
    db_->Crash();
    ASSERT_TRUE(db_->RecoverInstant().ok());
    server_->EnableCommands();
  }

  static void AwaitCommits(ClosedLoopClient& client, size_t n) {
    const auto deadline = Clock::now() + 10s;
    while (client.commits() < n && Clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_GE(client.commits(), n);
  }

  std::unique_ptr<engine::MiniDb> db_;
  std::unique_ptr<net::NetServer> server_;
  /// A live session that never commits keeps every commit's window
  /// open for its full length.
  std::optional<engine::MiniDb::Session> idle_;
};

// A client rides a crash cycle and reads back clean. Then one slot it
// had acked is committed anew with another value, as a server that
// lost that write would show it: the next read-back fails and names
// the page and slot.
TEST_F(ClosedLoopNetTest, ReadBackCatchesAChangedAckedSlot) {
  Start();
  ClosedLoopClient client(Spec({0, 4}));
  std::thread crasher([&] {
    AwaitCommits(client, 5);
    db_->FreezeCommits();
    CrashAndRestart();
  });
  const Status run = client.Run(Clock::now() + 300ms);
  crasher.join();
  ASSERT_TRUE(run.ok()) << run.ToString();
  EXPECT_GE(client.stats().reconnects, 1u);
  ASSERT_TRUE(client.Verify().ok()) << "the same run without the write";

  // The first read-back slot the client's journal holds a value for.
  const std::vector<storage::Page> model =
      ReplayJournal(client.ledger().journal, kPages).value();
  std::optional<std::pair<storage::PageId, uint32_t>> acked;
  for (storage::PageId p = 0; p < 4 && !acked; ++p) {
    for (size_t slot = 0; slot < kReadBackRun && !acked; ++slot) {
      if (model[p].ReadSlot(slot) != 0) {
        acked = {p, static_cast<uint32_t>(slot)};
      }
    }
  }
  ASSERT_TRUE(acked.has_value());
  const auto [page, slot] = *acked;
  net::NetClient other;
  ASSERT_TRUE(other.AwaitServing("127.0.0.1", server_->port(), 10000).ok());
  ASSERT_TRUE(other
                  .Call(engine::MakeWriteSlotCommand(
                      page, slot, model[page].ReadSlot(slot) + 1))
                  .value()
                  .ok());
  ASSERT_TRUE(other.Call(engine::MakeCommitCommand()).value().ok());

  const Status verified = client.Verify();
  EXPECT_EQ(verified.code(), StatusCode::kCorruption) << verified.ToString();
  const std::string page_and_slot =
      "page " + std::to_string(page) + " (first diff slot " +
      std::to_string(slot) + ":";
  EXPECT_NE(verified.message().find(page_and_slot), std::string::npos)
      << verified.ToString();
}

// Two crashes cut one client off mid-batch. The first freezes its
// commit: the batch's writes had replies, the commit is refused, and
// none of them was forced. The second drops the connection while the
// commit lingers in its window: the commit forces the writes, but its
// reply never arrives. Each reconnect must find a prefix of the
// requests after the last acked commit in the values it reads back,
// and the reads at the end must agree with the prefixes it kept.
TEST_F(ClosedLoopNetTest, ReconnectsResolveInDoubtRequestsToAPrefix) {
  Start(/*window_us=*/300000);
  idle_.emplace(db_->NewSession());
  ClosedLoopClient client(Spec({0, 4}));
  Status run = Status::Ok();
  std::thread loop([&] { run = client.Run(Clock::now() + 3s); });

  // With replies: the writes answered, the lingering commit refused.
  AwaitCommits(client, 1);
  std::this_thread::sleep_for(50ms);
  db_->FreezeCommits();
  const auto closed = [&] {
    return server_->stats().connections_closed.load();
  };
  const auto deadline = Clock::now() + 10s;
  while (closed() == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(closed(), 1u) << "the refused client closes its connection";
  CrashAndRestart();
  idle_.emplace(db_->NewSession());

  // Without a reply: the connection drops under the lingering commit.
  AwaitCommits(client, client.commits() + 1);
  std::this_thread::sleep_for(50ms);
  CrashAndRestart();

  loop.join();
  ASSERT_TRUE(run.ok()) << run.ToString();
  const ClientStats& stats = client.stats();
  EXPECT_EQ(stats.refused, 1u);
  EXPECT_EQ(stats.in_doubt, 1u);
  EXPECT_EQ(stats.reconnects, 2u);
  // Read back after each crash and once at the end.
  EXPECT_EQ(stats.slots_verified, 3 * 4 * 2 * kReadBackRun);
}

// A read-back judges a partition no other client writes: overlapping
// partitions are refused before any client connects.
TEST_F(ClosedLoopNetTest, RefusesOverlappingPartitionsBeforeAnyTraffic) {
  Start();
  ClientStats stats;
  const Status refused =
      RunClients({Spec({0, 4}), Spec({2, 4})}, Clock::now() + 1s, &stats);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("at pages 0 and 2 overlap"),
            std::string::npos)
      << refused.ToString();
  EXPECT_EQ(server_->stats().connections_accepted.load(), 0u);
  EXPECT_EQ(stats.ops, 0u);
}

}  // namespace
}  // namespace redo::checker
