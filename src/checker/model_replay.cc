#include "checker/model_replay.h"

#include <algorithm>

namespace redo::checker {

engine::Reply DispatchJournaled(engine::MiniDb::Session& session,
                                const engine::Command& command,
                                uint64_t txn_id,
                                std::vector<JournalEntry>* journal) {
  engine::Reply reply = engine::Dispatch(session, command);
  if (!reply.ok()) return reply;
  if (command.type == engine::CommandType::kApply) {
    JournalEntry entry;
    entry.lsn = reply.lsn;
    entry.op = command.op;
    entry.txn_id = txn_id;
    journal->push_back(std::move(entry));
  } else if (command.type == engine::CommandType::kSplit) {
    JournalEntry dst;
    dst.lsn = reply.lsn;
    dst.is_split_dst = true;
    dst.split = command.split;
    dst.txn_id = txn_id;
    JournalEntry rewrite;
    rewrite.lsn = reply.lsn2;
    rewrite.op = engine::MakeRewriteForSplit(command.split);
    rewrite.txn_id = txn_id;
    journal->push_back(std::move(dst));
    journal->push_back(std::move(rewrite));
  }
  return reply;
}

void DropUnstable(std::vector<JournalEntry>* journal, core::Lsn stable_lsn) {
  journal->erase(std::remove_if(journal->begin(), journal->end(),
                                [stable_lsn](const JournalEntry& e) {
                                  return e.lsn > stable_lsn;
                                }),
                 journal->end());
}

Result<std::vector<storage::Page>> ReplayJournal(
    std::vector<JournalEntry> journal, size_t num_pages) {
  std::stable_sort(journal.begin(), journal.end(),
                   [](const JournalEntry& a, const JournalEntry& b) {
                     return a.lsn < b.lsn;
                   });
  std::vector<storage::Page> pages(num_pages);
  for (const JournalEntry& entry : journal) {
    if (entry.is_split_dst) {
      // Start from dst's prior contents: slot transfers modify one slot
      // in place (split transforms overwrite dst anyway).
      const storage::Page src = pages[entry.split.src];
      storage::Page& dst = pages[entry.split.dst];
      engine::ApplySplitToDst(entry.split, src, &dst);
      dst.set_lsn(entry.lsn);
    } else {
      storage::Page& page = pages[entry.op.page];
      REDO_RETURN_IF_ERROR(engine::ApplySinglePageOp(entry.op, &page));
      page.set_lsn(entry.lsn);
    }
  }
  return pages;
}

}  // namespace redo::checker
