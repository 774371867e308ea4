// The in-doubt-prefix oracle as a pure function: a journal, the
// requests a client had in flight when a crash cut its connection, and
// the recovered pages in; a verdict out.

#include "checker/model_replay.h"

#include <gtest/gtest.h>

namespace redo::checker {
namespace {

using storage::Page;
using storage::PageId;

JournalEntry Write(PageId page, uint32_t slot, int64_t value,
                   core::Lsn lsn) {
  engine::Reply reply;
  reply.lsn = lsn;
  std::vector<JournalEntry> entries;
  JournalReply(engine::MakeWriteSlotCommand(page, slot, value), reply,
               /*txn_id=*/0, &entries);
  return entries.front();
}

/// Client 0 owns pages [0, 2), client 1 owns [2, 4). The journal holds
/// both clients' acknowledged writes; client 0 had three writes in
/// flight when the crash (stable LSN 2) cut its connection.
const std::vector<JournalEntry> kJournal = {Write(0, 0, 10, 1),
                                            Write(2, 0, 20, 2)};
const InDoubt kDoubt{0, 2, 2,
                     {Write(0, 1, 11, 0), Write(1, 0, 12, 0),
                      Write(0, 1, 13, 0)}};

/// What recovery yields when the given in-doubt requests survived.
std::vector<Page> Recovered(std::vector<JournalEntry> journal,
                            const std::vector<size_t>& survivors) {
  for (size_t i : survivors) {
    journal.push_back(kDoubt.entries[i]);
    journal.back().lsn = kDoubt.boundary + 1 + i;
  }
  return ReplayJournal(journal, 4).value();
}

TEST(InDoubtOracleTest, AcceptsTheEmptyPrefixAndEveryLongerOne) {
  const std::vector<std::vector<size_t>> prefixes = {
      {}, {0}, {0, 1}, {0, 1, 2}};
  for (const std::vector<size_t>& survivors : prefixes) {
    Result<std::vector<size_t>> verdict = MatchRecovered(
        kJournal, {kDoubt}, Recovered(kJournal, survivors), PageCompare::kPayload);
    ASSERT_TRUE(verdict.ok()) << survivors.size() << " survivors: "
                              << verdict.status().ToString();
    EXPECT_EQ(verdict.value(), std::vector<size_t>{survivors.size()});
  }
}

TEST(InDoubtOracleTest, RejectsASurvivorThatFollowsALostRequest) {
  Result<std::vector<size_t>> verdict =
      MatchRecovered(kJournal, {kDoubt}, Recovered(kJournal, {1}), PageCompare::kPayload);
  EXPECT_EQ(verdict.status().code(), StatusCode::kCorruption);
}

TEST(InDoubtOracleTest, RejectsASlotValueNoClientSent) {
  std::vector<Page> recovered = Recovered(kJournal, {0});
  recovered[1].WriteSlot(3, 99);
  Result<std::vector<size_t>> verdict =
      MatchRecovered(kJournal, {kDoubt}, recovered, PageCompare::kPayload);
  EXPECT_EQ(verdict.status().code(), StatusCode::kCorruption);
}

TEST(InDoubtOracleTest, RejectsAMissingAckedCommittedWrite) {
  // Client 0's committed write to page 0 vanished: no prefix of its
  // in-doubt requests brings it back.
  const std::vector<JournalEntry> without_ack = {kJournal[1]};
  Result<std::vector<size_t>> verdict = MatchRecovered(
      kJournal, {kDoubt}, Recovered(without_ack, {0, 1}), PageCompare::kPayload);
  EXPECT_EQ(verdict.status().code(), StatusCode::kCorruption);
  // Client 1 has nothing in doubt: its page must equal the replay.
  const std::vector<JournalEntry> without_page2 = {kJournal[0]};
  verdict = MatchRecovered(kJournal, {kDoubt},
                           Recovered(without_page2, {}), PageCompare::kPayload);
  EXPECT_EQ(verdict.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace redo::checker
