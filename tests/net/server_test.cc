// The TCP server over the unified command layer: wire commands execute
// against the engine through engine::Dispatch, pipelined replies keep
// request order, STATUS answers without a session (including while
// recovery runs), corrupt frames close the connection, and
// DisconnectAll tears sessions down synchronously so the engine's
// recovery guards pass — the crash-with-connected-clients choreography.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/command.h"
#include "engine/minidb.h"
#include "engine/ops.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace redo::net {
namespace {

using engine::Command;
using engine::CommandType;
using engine::MiniDb;
using engine::MiniDbOptions;
using engine::Reply;
using methods::MethodKind;
using storage::PageId;

constexpr size_t kPages = 16;
constexpr const char* kHost = "127.0.0.1";

MiniDbOptions BaseOptions() {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = 0;
  options.engine.group_commit_window_us = 50;
  options.net.port = 0;  // ephemeral
  options.net.worker_threads = 2;
  return options;
}

std::unique_ptr<MiniDb> MakeDb(const MiniDbOptions& options,
                               MethodKind kind = MethodKind::kPhysiological) {
  return std::make_unique<MiniDb>(options,
                                  methods::MakeMethod(kind, {kPages}));
}

TEST(NetServerTest, StartBindsEphemeralPortAndStopIsClean) {
  MiniDbOptions options = BaseOptions();
  auto db = MakeDb(options);
  NetServer server(db.get(), options.net);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);
  server.Stop();
  EXPECT_FALSE(server.running());
  // Stop twice is safe; so is restart.
  server.Stop();
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
}

TEST(NetServerTest, StartRefusesOptionsValidateRejects) {
  MiniDbOptions options = BaseOptions();
  auto db = MakeDb(options);
  engine::NetOptions bad = options.net;
  bad.worker_threads = 0;
  NetServer server(db.get(), bad);
  const Status refused = server.Start();
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(server.running());
}

TEST(NetServerTest, StatusAnswersWithoutConcurrentModeDataCommandsRefused) {
  MiniDbOptions options = BaseOptions();
  auto db = MakeDb(options);
  NetServer server(db.get(), options.net);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, server.port()).ok());
  auto status = client.Call(engine::MakeStatusCommand());
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  ASSERT_TRUE(status.value().ok());
  EXPECT_FALSE(status.value().status.concurrent);

  // The engine is not serving sessions: data commands get a clean
  // kUnavailable, not a hang or a crash.
  auto write = client.Call(engine::MakeWriteSlotCommand(1, 0, 5));
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(write.value().code, StatusCode::kUnavailable);
  server.Stop();
}

TEST(NetServerTest, WireCommandsExecuteAgainstTheEngine) {
  MiniDbOptions options = BaseOptions();
  auto db = MakeDb(options);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  NetServer server(db.get(), options.net);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, server.port()).ok());

  auto wrote = client.Call(engine::MakeWriteSlotCommand(2, 3, 4242));
  ASSERT_TRUE(wrote.ok());
  ASSERT_TRUE(wrote.value().ok()) << wrote.value().message;
  EXPECT_GT(wrote.value().lsn, 0u);

  auto read = client.Call(engine::MakeReadSlotCommand(2, 3));
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(read.value().ok());
  EXPECT_EQ(read.value().value, 4242);

  auto split =
      client.Call(engine::MakeSplitCommand(engine::MakeSlotTransfer(2, 3, 4, 1)));
  ASSERT_TRUE(split.ok());
  ASSERT_TRUE(split.value().ok()) << split.value().message;
  EXPECT_GT(split.value().lsn2, split.value().lsn);

  auto committed = client.Call(engine::MakeCommitCommand());
  ASSERT_TRUE(committed.ok());
  ASSERT_TRUE(committed.value().ok()) << committed.value().message;
  // The reply's piggybacked stable LSN covers the acked commit.
  EXPECT_GE(committed.value().stable_lsn, committed.value().lsn);

  // Transactions over the wire: write, abort, value reverts.
  auto begun = client.Call(engine::MakeBeginCommand());
  ASSERT_TRUE(begun.ok());
  ASSERT_TRUE(begun.value().ok());
  EXPECT_GT(begun.value().txn_id, 0u);
  ASSERT_TRUE(client.Call(engine::MakeWriteSlotCommand(4, 1, -1)).ok());
  auto aborted = client.Call(engine::MakeAbortCommand());
  ASSERT_TRUE(aborted.ok());
  ASSERT_TRUE(aborted.value().ok()) << aborted.value().message;
  auto reverted = client.Call(engine::MakeReadSlotCommand(4, 1));
  ASSERT_TRUE(reverted.ok());
  EXPECT_EQ(reverted.value().value, 4242);  // the transferred value

  client.Close();
  server.Stop();
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(NetServerTest, PipelinedRepliesKeepRequestOrder) {
  MiniDbOptions options = BaseOptions();
  options.net.pipeline_depth = 8;
  auto db = MakeDb(options);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  NetServer server(db.get(), options.net);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, server.port()).ok());

  // Far more requests than the pipeline depth: backpressure pauses the
  // socket but every request still executes, in order.
  constexpr size_t kRequests = 50;
  std::vector<uint64_t> sent_ids;
  for (size_t i = 0; i < kRequests; ++i) {
    auto sent = client.SendCommand(engine::MakeWriteSlotCommand(
        static_cast<PageId>(i % kPages), 0, static_cast<int64_t>(i + 1)));
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
    sent_ids.push_back(sent.value());
  }
  core::Lsn last_lsn = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    uint64_t id = 0;
    auto reply = client.ReceiveReply(&id);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(id, sent_ids[i]) << "reply " << i << " out of order";
    ASSERT_TRUE(reply.value().ok());
    // Same connection = same session = one strand: LSNs ascend.
    EXPECT_GT(reply.value().lsn, last_lsn);
    last_lsn = reply.value().lsn;
  }

  client.Close();
  server.Stop();
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(NetServerTest, CorruptFrameClosesConnectionCleanly) {
  MiniDbOptions options = BaseOptions();
  auto db = MakeDb(options);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  NetServer server(db.get(), options.net);
  ASSERT_TRUE(server.Start().ok());

  // A valid frame with one payload byte flipped: CRC mismatch. The
  // NetClient only produces valid frames, so use a raw socket.
  Frame frame;
  frame.request_id = 1;
  frame.payload = engine::EncodeCommand(engine::MakeStatusCommand());
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  bytes[bytes.size() - 6] ^= 0x01;

  int fd = -1;
  {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::inet_pton(AF_INET, kHost, &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    // The server must close the connection: recv sees EOF.
    uint8_t buf[64];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    EXPECT_LE(n, 0);
    ::close(fd);
  }
  EXPECT_GE(server.stats().frames_corrupt.load(), 1u);

  // The server survives: a fresh, well-behaved client still works.
  NetClient after;
  ASSERT_TRUE(after.Connect(kHost, server.port()).ok());
  auto status = after.Call(engine::MakeStatusCommand());
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status.value().ok());

  server.Stop();
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(NetServerTest, MalformedCommandInValidFrameGetsErrorReplyStreamSurvives) {
  MiniDbOptions options = BaseOptions();
  auto db = MakeDb(options);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  NetServer server(db.get(), options.net);
  ASSERT_TRUE(server.Start().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, kHost, &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // A perfectly framed payload that is NOT a valid command encoding.
  Frame frame;
  frame.request_id = 77;
  frame.payload = {0xFF, 0xEE, 0xDD};
  const std::vector<uint8_t> bytes = EncodeFrame(frame);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  // The reply is an error frame echoing the id — the stream stays up.
  std::vector<uint8_t> in;
  Frame out;
  size_t offset = 0;
  while (true) {
    uint8_t buf[1024];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    in.insert(in.end(), buf, buf + n);
    const FrameStatus st =
        DecodeFrame(in.data(), in.size(), &offset, &out, 1 << 20);
    if (st == FrameStatus::kOk) break;
    ASSERT_EQ(st, FrameStatus::kNeedMore);
  }
  EXPECT_EQ(out.request_id, 77u);
  auto reply = engine::DecodeReply(out.payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply.value().ok());
  ::close(fd);

  server.Stop();
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(NetServerTest, DisabledCommandsRejectedStatusStillAnswered) {
  MiniDbOptions options = BaseOptions();
  auto db = MakeDb(options);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  NetServer server(db.get(), options.net);
  ASSERT_TRUE(server.Start().ok());
  server.DisableCommands();

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, server.port()).ok());
  auto write = client.Call(engine::MakeWriteSlotCommand(0, 0, 1));
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(write.value().code, StatusCode::kUnavailable);
  EXPECT_NE(write.value().message.find("recovering"), std::string::npos);

  auto status = client.Call(engine::MakeStatusCommand());
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status.value().ok());

  server.EnableCommands();
  auto after = client.Call(engine::MakeWriteSlotCommand(0, 0, 1));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().ok());

  client.Close();
  server.Stop();
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(NetServerTest, MaxConnectionsRejectsTheExtraPeer) {
  MiniDbOptions options = BaseOptions();
  options.net.max_connections = 1;
  auto db = MakeDb(options);
  NetServer server(db.get(), options.net);
  ASSERT_TRUE(server.Start().ok());

  NetClient first;
  ASSERT_TRUE(first.Connect(kHost, server.port()).ok());
  ASSERT_TRUE(first.Call(engine::MakeStatusCommand()).ok());

  NetClient second;
  ASSERT_TRUE(second.Connect(kHost, server.port()).ok());  // TCP accepts...
  auto refused = second.Call(engine::MakeStatusCommand());
  EXPECT_FALSE(refused.ok());  // ...but the server closes it immediately.
  EXPECT_GE(server.stats().connections_rejected.load(), 1u);

  server.Stop();
}

TEST(NetServerTest, MetricsRegisterAndCount) {
  MiniDbOptions options = BaseOptions();
  auto db = MakeDb(options);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  NetServer server(db.get(), options.net);
  ASSERT_TRUE(server.Start().ok());
  obs::MetricsRegistry registry;
  server.RegisterMetrics(registry, "net");

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, server.port()).ok());
  ASSERT_TRUE(client.Call(engine::MakeWriteSlotCommand(1, 1, 9)).ok());
  ASSERT_TRUE(client.Call(engine::MakeCommitCommand()).ok());
  client.Close();

  const obs::Snapshot snapshot = registry.TakeSnapshot();
  EXPECT_GE(snapshot.Value("net.commands_executed"), 2);
  EXPECT_GE(snapshot.Value("net.frames_received"), 2);
  EXPECT_GE(snapshot.Value("net.connections_accepted"), 1);
  EXPECT_GT(snapshot.Value("net.bytes_in"), 0);
  EXPECT_GT(snapshot.Value("net.bytes_out"), 0);

  server.Stop();
  ASSERT_TRUE(db->EndConcurrent().ok());
}

// The crash choreography: freeze -> disconnect (sessions destroyed
// synchronously) -> crash -> instant recovery, with the listener up the
// whole time so the client reconnects and resumes during kServing.
TEST(NetServerCrashTest, DisconnectAllLetsInstantRecoveryRunThenClientsResume) {
  MiniDbOptions options = BaseOptions();
  options.engine.instant_restart = true;
  options.engine.instant_drain_workers = 1;
  auto db = MakeDb(options);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  NetServer server(db.get(), options.net);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect(kHost, server.port()).ok());
  auto wrote = client.Call(engine::MakeWriteSlotCommand(3, 2, 777));
  ASSERT_TRUE(wrote.ok());
  ASSERT_TRUE(wrote.value().ok());
  auto committed = client.Call(engine::MakeCommitCommand());
  ASSERT_TRUE(committed.ok());
  ASSERT_TRUE(committed.value().ok());
  const core::Lsn acked = committed.value().lsn;

  // The crash boundary with the client still connected.
  db->FreezeCommits();
  server.DisableCommands();
  ASSERT_TRUE(server.DisconnectAll().ok());
  db->Crash();
  ASSERT_TRUE(db->RecoverInstant().ok());
  server.EnableCommands();

  // The old connection is dead...
  auto dead = client.Call(engine::MakeStatusCommand());
  EXPECT_FALSE(dead.ok());

  // ...and a reconnect succeeds, with the acked commit surviving.
  auto serving = client.AwaitServing(kHost, server.port(), 5000);
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  EXPECT_GE(serving.value().status.stable_lsn, acked);
  auto read = client.Call(engine::MakeReadSlotCommand(3, 2));
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(read.value().ok());
  EXPECT_EQ(read.value().value, 777);

  client.Close();
  server.Stop();
  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  ASSERT_TRUE(db->EndConcurrent().ok());
}

// One round of the on-demand read check: build recoverable state, crash,
// serve while redoing, and read over the wire from the page the
// background drain reaches last. The value must always be the recovered
// one; `drained_on_demand` reports whether the read beat the drain to
// the page (the drain may win the race on a loaded machine).
void ReadDuringServingRound(const MiniDbOptions& options,
                            bool* drained_on_demand) {
  auto db = MakeDb(options);
  {
    MiniDb::Session session = db->NewSession();
    for (PageId p = 0; p < kPages; ++p) {
      for (uint32_t s = 0; s < 4; ++s) {
        ASSERT_TRUE(
            session.WriteSlot(p, s, static_cast<int64_t>(p * 100 + s + 1)).ok());
      }
    }
  }
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();

  NetServer server(db.get(), options.net);
  ASSERT_TRUE(server.Start().ok());
  server.DisableCommands();
  ASSERT_TRUE(db->RecoverInstant().ok());
  server.EnableCommands();

  NetClient client;
  auto serving = client.AwaitServing(kHost, server.port(), 5000);
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();

  const uint64_t on_demand_before =
      db->instant_redo_metrics().pages_on_demand.load();
  auto read = client.Call(engine::MakeReadSlotCommand(kPages - 1, 3));
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(read.value().ok()) << read.value().message;
  EXPECT_EQ(read.value().value,
            static_cast<int64_t>((kPages - 1) * 100 + 3 + 1));
  *drained_on_demand =
      db->instant_redo_metrics().pages_on_demand.load() > on_demand_before;

  client.Close();
  server.Stop();
  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  ASSERT_TRUE(db->EndConcurrent().ok());
}

// A client connected during the kServing phase sees its first read
// drain the touched page on demand (DESIGN.md §11 over the wire). Every
// pool miss is slowed so the background drain loses the race to the
// wire read. A round the drain wins proves nothing, so the round reruns
// with the miss latency doubled (bounded) until one read lands on a
// still-pending page; a loaded machine only costs extra rounds.
TEST(NetServerCrashTest, ReadDuringServingDrainsTouchedPageOnDemand) {
  MiniDbOptions options = BaseOptions();
  options.engine.instant_restart = true;
  options.engine.instant_drain_workers = 1;

  constexpr int kMaxRounds = 6;  // miss latency 2 ms .. 64 ms
  bool drained_on_demand = false;
  for (int round = 0; round < kMaxRounds && !drained_on_demand; ++round) {
    options.engine.simulated_read_latency_us = uint64_t{2000} << round;
    ASSERT_NO_FATAL_FAILURE(ReadDuringServingRound(options, &drained_on_demand));
  }
  EXPECT_TRUE(drained_on_demand)
      << "in " << kMaxRounds
      << " rounds the background drain always reached the page first";
}

}  // namespace
}  // namespace redo::net
