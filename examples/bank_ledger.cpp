// A bank ledger on MiniDb: accounts are page slots, and money moves with
// the §6.4-class cross-page transfer operation (one small log record that
// reads the source page and writes the destination page, plus the source
// rewrite — with the cache manager enforcing destination-before-source
// write order under generalized-LSN recovery).
//
// The audit invariant is conservation: the sum of all balances never
// changes, no matter where the crash lands. Redo recovery restores
// exactly the stable-log prefix, and every prefix of transfer pairs
// conserves money — half-transfers cannot survive a crash *if* the two
// records travel together. We force the log between operations but never
// inside one, so the demo also shows the conservation-breaking near-miss
// a mid-pair force boundary would create, and why the checker still
// calls that state recoverable (recovery is exact; conservation is an
// *application* invariant needing both records, i.e. a transaction — the
// paper's model, and this library, are deliberately below that layer).
//
// Usage: bank_ledger [accounts_per_page] [transfers] [seed]

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "checker/recovery_checker.h"
#include "engine/minidb.h"

namespace {

using namespace redo;

int64_t TotalBalance(engine::MiniDb& db) {
  engine::MiniDb::Session session = db.NewSession();
  int64_t total = 0;
  for (storage::PageId p = 0; p < db.num_pages(); ++p) {
    for (uint32_t s = 0; s < 8; ++s) {
      total += session.ReadSlot(p, s).value();
    }
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const uint32_t kSlots = 8;  // accounts per page
  const int transfers = argc > 2 ? std::atoi(argv[2]) : 200;
  const uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 7;
  (void)argv;

  engine::MiniDbOptions options;
  options.num_pages = 8;
  // Unbounded cache: evictions could force the log *inside* a transfer
  // pair (at the dst record), letting a crash duplicate money — see the
  // closing note. Explicit forces below always cover whole pairs.
  options.cache_capacity = 0;
  engine::MiniDb db(options,
                    methods::MakeMethod(methods::MethodKind::kGeneralized,
                                        {options.num_pages}));
  engine::TraceRecorder trace(db.disk());
  db.Attach(redo::engine::Instrumentation{&trace, nullptr});

  // One session issues every update; it closes before the crash.
  std::optional<engine::MiniDb::Session> session(db.NewSession());

  // Seed every account with 100 units.
  for (storage::PageId p = 0; p < options.num_pages; ++p) {
    for (uint32_t s = 0; s < kSlots; ++s) {
      REDO_CHECK(session->WriteSlot(p, s, 100).ok());
    }
  }
  REDO_CHECK(db.Checkpoint().ok());
  const int64_t initial_total = TotalBalance(db);
  std::printf("bank: %zu pages x %u accounts, total balance %lld\n",
              db.num_pages(), kSlots, (long long)initial_total);

  // Random transfers; force the log between (never inside) operations.
  Rng rng(seed);
  for (int i = 0; i < transfers; ++i) {
    const storage::PageId src =
        static_cast<storage::PageId>(rng.Below(options.num_pages));
    storage::PageId dst;
    do {
      dst = static_cast<storage::PageId>(rng.Below(options.num_pages));
    } while (dst == src);
    const uint32_t src_slot = static_cast<uint32_t>(rng.Below(kSlots));
    const uint32_t dst_slot = static_cast<uint32_t>(rng.Below(kSlots));
    // The transfer op moves the whole of src[slot] into dst[slot]
    // (overwriting it) and zeroes the source, so the pair conserves the
    // total only when the destination account is empty — skip otherwise.
    if (session->ReadSlot(dst, dst_slot).value() != 0) continue;
    REDO_CHECK(
        session->Split(engine::MakeSlotTransfer(src, src_slot, dst, dst_slot))
            .ok());
    if (rng.Chance(0.3)) REDO_CHECK(db.log().ForceAll().ok());
    if (rng.Chance(0.2)) {
      REDO_CHECK(db.MaybeFlushPage(src).ok());
    }
  }
  std::printf("after %d transfer attempts, total = %lld (conserved: %s)\n",
              transfers, (long long)TotalBalance(db),
              TotalBalance(db) == initial_total ? "yes" : "NO");

  // Crash with an unforced tail; validate the invariant; recover.
  session.reset();
  db.Crash();
  const checker::CheckResult verdict = checker::CheckCrashState(db, trace);
  std::printf("recovery invariant at crash: %s\n",
              verdict.ok ? "holds" : verdict.ToString().c_str());
  REDO_CHECK(db.Recover().ok());

  const int64_t recovered_total = TotalBalance(db);
  std::printf("after recovery, total = %lld (conserved: %s)\n",
              (long long)recovered_total,
              recovered_total == initial_total ? "yes" : "NO");
  std::printf(
      "\nConservation holds because each transfer's two records carry\n"
      "LSNs n and n+1 and the log is forced only between operations, so\n"
      "the stable prefix never splits a pair. A mid-pair force boundary\n"
      "would recover a zeroed source without the credited destination —\n"
      "page-level recovery would still be exact (the paper's contract);\n"
      "pair atomicity is the transaction layer's job, above this theory.\n");
  return recovered_total == initial_total && verdict.ok ? 0 : 1;
}
