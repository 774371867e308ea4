#include "checker/model_replay.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

namespace redo::checker {
namespace {

using storage::Page;
using storage::PageId;

/// The first slot `compare` looks at where the two pages differ.
std::optional<size_t> FirstDiff(const Page& got, const Page& want,
                                PageCompare compare) {
  for (size_t slot = 0; slot < Page::NumSlots(); ++slot) {
    const size_t upper = kReadBackBases[1];
    const bool read_back = slot < kReadBackRun ||
                           (slot >= upper && slot < upper + kReadBackRun);
    if ((read_back || compare != PageCompare::kReadBackSlots) &&
        got.ReadSlot(slot) != want.ReadSlot(slot)) {
      return slot;
    }
  }
  return std::nullopt;
}

bool SamePage(const Page& got, const Page& want, PageCompare compare) {
  return compare == PageCompare::kPayloadAndLsn
             ? got == want
             : !FirstDiff(got, want, compare).has_value();
}

/// "page P (first diff slot S: got X want Y)" for a page that differs.
std::string Mismatch(PageId page, const Page& got, const Page& want,
                     PageCompare compare) {
  std::string what = "page " + std::to_string(page);
  if (const std::optional<size_t> slot = FirstDiff(got, want, compare)) {
    return what + " (first diff slot " + std::to_string(*slot) + ": got " +
           std::to_string(got.ReadSlot(*slot)) + " want " +
           std::to_string(want.ReadSlot(*slot)) + ")";
  }
  return what + " (page LSN " + std::to_string(got.lsn()) + " want " +
         std::to_string(want.lsn()) + ")";
}

}  // namespace

void JournalReply(const engine::Command& command, const engine::Reply& reply,
                  uint64_t txn_id, std::vector<JournalEntry>* journal) {
  if (!reply.ok()) return;
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
}

void DropUnstable(std::vector<JournalEntry>* journal, core::Lsn stable_lsn) {
  journal->erase(std::remove_if(journal->begin(), journal->end(),
                                [stable_lsn](const JournalEntry& e) {
                                  return e.lsn > stable_lsn;
                                }),
                 journal->end());
}

Result<std::vector<Page>> ReplayJournal(std::vector<JournalEntry> journal,
                                        size_t num_pages) {
  std::stable_sort(journal.begin(), journal.end(),
                   [](const JournalEntry& a, const JournalEntry& b) {
                     return a.lsn < b.lsn;
                   });
  std::vector<Page> pages(num_pages);
  for (const JournalEntry& entry : journal) {
    if (entry.is_split_dst) {
      // Start from dst's prior contents: slot transfers modify one slot
      // in place (split transforms overwrite dst anyway).
      const Page src = pages[entry.split.src];
      Page& dst = pages[entry.split.dst];
      engine::ApplySplitToDst(entry.split, src, &dst);
      dst.set_lsn(entry.lsn);
    } else {
      Page& page = pages[entry.op.page];
      REDO_RETURN_IF_ERROR(engine::ApplySinglePageOp(entry.op, &page));
      page.set_lsn(entry.lsn);
    }
  }
  return pages;
}

Result<std::vector<size_t>> MatchRecovered(
    const std::vector<JournalEntry>& journal,
    const std::vector<InDoubt>& in_doubt, const std::vector<Page>& recovered,
    PageCompare compare) {
  const size_t num_pages = recovered.size();
  Result<std::vector<Page>> replayed = ReplayJournal(journal, num_pages);
  if (!replayed.ok()) return replayed.status();
  const std::vector<Page>& model = replayed.value();
  auto owned = [&in_doubt](PageId page) {
    return std::any_of(in_doubt.begin(), in_doubt.end(),
                       [page](const InDoubt& d) {
                         return page >= d.first_page &&
                                page < d.first_page + d.num_pages;
                       });
  };
  for (PageId p = 0; p < num_pages; ++p) {
    if (!owned(p) && !SamePage(recovered[p], model[p], compare)) {
      return Status::Corruption(
          Mismatch(p, recovered[p], model[p], compare) +
          " diverges from the LSN-ordered replay of " +
          std::to_string(journal.size()) + " surviving journal entries");
    }
  }

  std::vector<size_t> chosen(in_doubt.size(), 0);
  std::vector<bool> judged(in_doubt.size(), false);
  for (size_t g = 0; g < in_doubt.size(); ++g) {
    if (judged[g]) continue;
    const InDoubt& owner = in_doubt[g];
    // Every group of this partition is judged together: count through
    // each combination of prefix lengths, odometer-style.
    std::vector<size_t> groups;
    for (size_t h = g; h < in_doubt.size(); ++h) {
      if (in_doubt[h].first_page != owner.first_page) continue;
      groups.push_back(h);
      judged[h] = true;
    }
    std::vector<size_t> prefix(groups.size(), 0);
    for (;;) {
      // A surviving prefix replays at its crash's boundary LSN; the
      // stable sort keeps it after the journal's own entries there.
      std::vector<JournalEntry> extended = journal;
      for (size_t i = 0; i < groups.size(); ++i) {
        const InDoubt& d = in_doubt[groups[i]];
        for (size_t e = 0; e < prefix[i]; ++e) {
          extended.push_back(d.entries[e]);
          extended.back().lsn = d.boundary;
        }
      }
      Result<std::vector<Page>> pages =
          ReplayJournal(std::move(extended), num_pages);
      if (!pages.ok()) return pages.status();
      bool match = true;
      for (PageId p = owner.first_page;
           match && p < owner.first_page + owner.num_pages; ++p) {
        match = SamePage(recovered[p], pages.value()[p], compare);
      }
      if (match) break;
      size_t i = 0;
      while (i < groups.size() &&
             ++prefix[i] > in_doubt[groups[i]].entries.size()) {
        prefix[i++] = 0;
      }
      if (i == groups.size()) {
        // Some page differs even from the replay without them: name it.
        PageId p = owner.first_page;
        while (p + 1 < owner.first_page + owner.num_pages &&
               SamePage(recovered[p], model[p], compare)) {
          ++p;
        }
        return Status::Corruption(
            "pages [" + std::to_string(owner.first_page) + ", " +
            std::to_string(owner.first_page + owner.num_pages) +
            ") match no prefix of their owner's in-doubt requests; without "
            "them, " + Mismatch(p, recovered[p], model[p], compare));
      }
    }
    for (size_t i = 0; i < groups.size(); ++i) chosen[groups[i]] = prefix[i];
  }
  return chosen;
}

void KeepSurvivors(const std::vector<size_t>& prefix,
                   std::vector<InDoubt>* in_doubt,
                   std::vector<JournalEntry>* journal) {
  for (size_t g = 0; g < in_doubt->size(); ++g) {
    for (size_t e = 0; e < prefix[g]; ++e) {
      journal->push_back(std::move((*in_doubt)[g].entries[e]));
      journal->back().lsn = (*in_doubt)[g].boundary;
    }
  }
  in_doubt->clear();
}

}  // namespace redo::checker
