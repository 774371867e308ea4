// The unified command layer (DESIGN.md §15): every Command and Reply
// variant must round-trip through its wire encoding byte-identically,
// Dispatch must behave exactly like the Session entry points it
// subsumes, and malformed bytes must decode to errors, never crashes —
// a network peer controls them.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/command.h"
#include "engine/minidb.h"
#include "engine/ops.h"
#include "util/rng.h"

namespace redo::engine {
namespace {

using methods::MethodKind;
using storage::PageId;

constexpr size_t kPages = 8;

std::unique_ptr<MiniDb> MakeDb() {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = 0;
  return std::make_unique<MiniDb>(
      options, methods::MakeMethod(MethodKind::kPhysiological, {kPages}));
}

std::vector<Command> AllCommandVariants() {
  SinglePageOp blind = MakeBlindFormat(3, 77);
  return {
      MakeWriteSlotCommand(2, 5, 12345),
      MakeApplyCommand(blind),
      MakeApplyCommand(MakeBtreeInsert(1, 42, 99)),
      MakeSplitCommand(engine::MakeSlotTransfer(1, 3, 2, 4)),
      MakeReadSlotCommand(6, 7),
      MakeBeginCommand(),
      MakeCommitCommand(),
      MakeCommitCommand(991),
      MakeAbortCommand(),
      MakeStatusCommand(),
  };
}

TEST(NetCommandCodecTest, EveryCommandVariantRoundTripsByteIdentically)
{
  for (const Command& command : AllCommandVariants()) {
    const std::vector<uint8_t> bytes = EncodeCommand(command);
    Result<Command> decoded = DecodeCommand(bytes);
    ASSERT_TRUE(decoded.ok())
        << CommandTypeName(command.type) << ": "
        << decoded.status().ToString();
    EXPECT_TRUE(decoded.value() == command) << CommandTypeName(command.type);
    // Byte-identical: re-encoding the decoded command gives the same
    // bytes (the encoding is canonical, no incidental variation).
    EXPECT_EQ(EncodeCommand(decoded.value()), bytes)
        << CommandTypeName(command.type);
  }
}

std::vector<Reply> AllReplyVariants() {
  std::vector<Reply> replies;
  {
    Reply r;  // kApply success
    r.type = CommandType::kApply;
    r.stable_lsn = 17;
    r.lsn = 21;
    replies.push_back(r);
  }
  {
    Reply r;  // kSplit success: two LSNs
    r.type = CommandType::kSplit;
    r.stable_lsn = 40;
    r.lsn = 41;
    r.lsn2 = 42;
    replies.push_back(r);
  }
  {
    Reply r;  // kReadSlot success
    r.type = CommandType::kReadSlot;
    r.stable_lsn = 9;
    r.value = -123456789;
    replies.push_back(r);
  }
  {
    Reply r;  // kBegin success
    r.type = CommandType::kBegin;
    r.txn_id = 7;
    replies.push_back(r);
  }
  {
    Reply r;  // kCommit success
    r.type = CommandType::kCommit;
    r.stable_lsn = 101;
    r.lsn = 100;
    replies.push_back(r);
  }
  {
    Reply r;  // kAbort success
    r.type = CommandType::kAbort;
    r.stable_lsn = 5;
    replies.push_back(r);
  }
  {
    Reply r;  // kStatus with a populated EngineStatus payload
    r.type = CommandType::kStatus;
    r.stable_lsn = 55;
    r.status.phase = 2;
    r.status.stable_lsn = 55;
    r.status.live_sessions = 3;
    r.status.num_pages = kPages;
    r.status.restarts = 4;
    r.status.concurrent = true;
    replies.push_back(r);
  }
  {
    Reply r;  // error reply: code + message survive the wire
    r.type = CommandType::kCommit;
    r.code = StatusCode::kUnavailable;
    r.message = "engine recovering; command rejected";
    r.stable_lsn = 12;
    replies.push_back(r);
  }
  {
    Reply r;  // error reply with another code
    r.type = CommandType::kApply;
    r.code = StatusCode::kInvalidArgument;
    r.message = "no such page";
    replies.push_back(r);
  }
  return replies;
}

TEST(NetCommandCodecTest, EveryReplyVariantRoundTripsByteIdentically) {
  for (const Reply& reply : AllReplyVariants()) {
    const std::vector<uint8_t> bytes = EncodeReply(reply);
    Result<Reply> decoded = DecodeReply(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(decoded.value() == reply);
    EXPECT_EQ(EncodeReply(decoded.value()), bytes);
  }
}

// Flips every byte of `bytes` with the page-image sweep's masks (all
// bits, then one random nonzero mask): each mutant decodes, or is
// refused as Corruption with a message.
template <typename Decode>
void ExpectEveryFlipDecodesOrIsCorruption(const std::vector<uint8_t>& bytes,
                                          const Decode& decode, Rng& rng) {
  std::vector<uint8_t> mutant = bytes;
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (const uint8_t mask :
         {uint8_t{0xff}, static_cast<uint8_t>(1 + rng.Below(255))}) {
      mutant[i] ^= mask;
      const Status status = decode(mutant).status();
      if (!status.ok()) {
        EXPECT_EQ(status.code(), StatusCode::kCorruption)
            << "flip at " << i << ": " << status.ToString();
        EXPECT_FALSE(status.message().empty()) << "flip at " << i;
      }
      mutant[i] = bytes[i];
    }
  }
}

TEST(NetCommandCodecTest, MalformedBytesDecodeToErrorsNotCrashes) {
  // Empty input.
  EXPECT_FALSE(DecodeCommand({}).ok());
  EXPECT_FALSE(DecodeReply({}).ok());

  // Unknown type tags.
  EXPECT_FALSE(DecodeCommand({0}).ok());
  EXPECT_FALSE(DecodeCommand({99}).ok());
  EXPECT_FALSE(DecodeReply({99, 0}).ok());

  // Truncations of every valid encoding must fail cleanly, and every
  // single-byte flip must decode or be refused as Corruption.
  Rng rng(148);
  for (const Command& command : AllCommandVariants()) {
    const std::vector<uint8_t> bytes = EncodeCommand(command);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
      EXPECT_FALSE(DecodeCommand(prefix).ok())
          << CommandTypeName(command.type) << " cut at " << cut;
    }
    // Trailing garbage is corruption, not silently ignored.
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0xAB);
    EXPECT_FALSE(DecodeCommand(padded).ok());
    SCOPED_TRACE(CommandTypeName(command.type));
    ExpectEveryFlipDecodesOrIsCorruption(bytes, DecodeCommand, rng);
  }
  for (const Reply& reply : AllReplyVariants()) {
    const std::vector<uint8_t> bytes = EncodeReply(reply);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
      EXPECT_FALSE(DecodeReply(prefix).ok());
    }
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0xCD);
    EXPECT_FALSE(DecodeReply(padded).ok());
    ExpectEveryFlipDecodesOrIsCorruption(bytes, DecodeReply, rng);
  }
}

// An apply's flags byte on the wire is its op's blind flag, 0 or 1. The
// engine decides `born` where it logs the op, so a client's 0x02 (the
// record format's born bit) is refused like any other value, and an
// in-process caller's `born` is never encoded.
TEST(NetCommandCodecTest, ApplyFlagsOtherThanBlindAreRefused) {
  const std::vector<uint8_t> bytes =
      EncodeCommand(MakeApplyCommand(MakeBlindFormat(3, 77)));
  // type tag (u8), op type (u16), page (u32), then the flags byte.
  constexpr size_t kFlags = 1 + 2 + 4;
  ASSERT_EQ(bytes[kFlags], 1);
  for (const uint8_t flags : {uint8_t{0x02}, uint8_t{0x03}, uint8_t{0xff}}) {
    std::vector<uint8_t> mutant = bytes;
    mutant[kFlags] = flags;
    const Status status = DecodeCommand(mutant).status();
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << int{flags};
    EXPECT_NE(status.message().find(std::to_string(flags)), std::string::npos)
        << status.ToString();
  }
  SinglePageOp claimed = MakeSlotWrite(2, 5, 12345);
  claimed.born = true;
  Result<Command> decoded =
      DecodeCommand(EncodeCommand(MakeApplyCommand(claimed)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded.value().op.born);
}

TEST(NetDispatchTest, DispatchMatchesSessionSemantics) {
  auto db = MakeDb();
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session session = db->NewSession();

    // Apply assigns an LSN and the slot reads back.
    Reply wrote = Dispatch(session, MakeWriteSlotCommand(2, 1, 555));
    ASSERT_TRUE(wrote.ok()) << wrote.message;
    EXPECT_GT(wrote.lsn, 0u);

    Reply read = Dispatch(session, MakeReadSlotCommand(2, 1));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value, 555);

    // Split returns both LSNs, rewrite after destination.
    Reply split =
        Dispatch(session, MakeSplitCommand(engine::MakeSlotTransfer(2, 1, 3, 0)));
    ASSERT_TRUE(split.ok()) << split.message;
    EXPECT_GT(split.lsn, wrote.lsn);
    EXPECT_GT(split.lsn2, split.lsn);

    // Commit acks the session's last LSN and the piggybacked stable
    // LSN covers it — the wire durability oracle.
    Reply committed = Dispatch(session, MakeCommitCommand());
    ASSERT_TRUE(committed.ok()) << committed.message;
    EXPECT_EQ(committed.lsn, split.lsn2);
    EXPECT_GE(committed.stable_lsn, committed.lsn);

    // Status works on a live session and reports concurrency.
    Reply status = Dispatch(session, MakeStatusCommand());
    ASSERT_TRUE(status.ok());
    EXPECT_TRUE(status.status.concurrent);
    EXPECT_EQ(status.status.num_pages, kPages);
    EXPECT_GE(status.status.live_sessions, 1u);

    // Bad page: the error carries the old entry point's code.
    Reply bad = Dispatch(session, MakeWriteSlotCommand(kPages + 10, 0, 1));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(ReplyStatus(bad).code(), bad.code);
  }
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(NetDispatchTest, TxnBeginCommitAbortThroughDispatch) {
  auto db = MakeDb();
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session session = db->NewSession();

    Reply begun = Dispatch(session, MakeBeginCommand());
    ASSERT_TRUE(begun.ok()) << begun.message;
    EXPECT_GT(begun.txn_id, 0u);

    ASSERT_TRUE(Dispatch(session, MakeWriteSlotCommand(1, 0, 11)).ok());
    Reply committed = Dispatch(session, MakeCommitCommand());
    ASSERT_TRUE(committed.ok()) << committed.message;

    // Abort path: write then roll back; the slot reverts.
    ASSERT_TRUE(Dispatch(session, MakeBeginCommand()).ok());
    ASSERT_TRUE(Dispatch(session, MakeWriteSlotCommand(1, 0, 22)).ok());
    Reply aborted = Dispatch(session, MakeAbortCommand());
    ASSERT_TRUE(aborted.ok()) << aborted.message;
    Reply read = Dispatch(session, MakeReadSlotCommand(1, 0));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value, 11);
  }
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(NetDispatchTest, DispatchStatusNeedsNoSession) {
  auto db = MakeDb();
  // Before any concurrency: status still answers.
  Reply idle = DispatchStatus(*db);
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(idle.status.concurrent);
  EXPECT_EQ(idle.status.live_sessions, 0u);
  EXPECT_EQ(idle.status.phase,
            static_cast<uint8_t>(MiniDb::RecoveryPhase::kIdle));

  ASSERT_TRUE(db->BeginConcurrent().ok());
  Reply serving = DispatchStatus(*db);
  EXPECT_TRUE(serving.status.concurrent);
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(NetDispatchTest, SessionWrappersAndDispatchProduceIdenticalEffects) {
  // The old Session surface is now thin wrappers over Dispatch; drive
  // one db through wrappers and another through raw Dispatch and the
  // states must match exactly.
  auto via_wrappers = MakeDb();
  auto via_dispatch = MakeDb();
  ASSERT_TRUE(via_wrappers->BeginConcurrent().ok());
  ASSERT_TRUE(via_dispatch->BeginConcurrent().ok());
  {
    MiniDb::Session a = via_wrappers->NewSession();
    MiniDb::Session b = via_dispatch->NewSession();
    for (int i = 0; i < 20; ++i) {
      const PageId page = static_cast<PageId>(i % kPages);
      const uint32_t slot = static_cast<uint32_t>(i % 4);
      const int64_t value = 1000 + i;
      Result<core::Lsn> wa = a.WriteSlot(page, slot, value);
      Reply wb = Dispatch(b, MakeWriteSlotCommand(page, slot, value));
      ASSERT_TRUE(wa.ok());
      ASSERT_TRUE(wb.ok());
      EXPECT_EQ(wa.value(), wb.lsn);
    }
    Result<core::Lsn> ca = a.Commit();
    Reply cb = Dispatch(b, MakeCommitCommand());
    ASSERT_TRUE(ca.ok());
    ASSERT_TRUE(cb.ok());
    EXPECT_EQ(ca.value(), cb.lsn);
    for (int i = 0; i < 20; ++i) {
      const PageId page = static_cast<PageId>(i % kPages);
      const uint32_t slot = static_cast<uint32_t>(i % 4);
      Result<int64_t> ra = a.ReadSlot(page, slot);
      Reply rb = Dispatch(b, MakeReadSlotCommand(page, slot));
      ASSERT_TRUE(ra.ok());
      ASSERT_TRUE(rb.ok());
      EXPECT_EQ(ra.value(), rb.value);
    }
  }
  ASSERT_TRUE(via_wrappers->EndConcurrent().ok());
  ASSERT_TRUE(via_dispatch->EndConcurrent().ok());
}

}  // namespace
}  // namespace redo::engine
