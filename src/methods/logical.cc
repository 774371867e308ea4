// Logical recovery (§6.1), System R style.
//
// The stable database is unchanged between checkpoints: the cache (and a
// staging area) absorb all updates. A checkpoint quiesces, writes the
// dirty cached pages to the staging area, and then "swings a pointer" —
// one atomic action that makes the staged pages part of the stable
// database and appends the checkpoint record, installing every operation
// logged so far. Recovery starts from the checkpointed state and replays
// every later logical record.
//
// In write-graph terms (§6.1): the stable state is one node; the staging
// area + cache form a second node holding everything since the last
// checkpoint; the pointer swing collapses the two nodes.

#include "methods/common.h"
#include "methods/method.h"

namespace redo::methods {
namespace {

using engine::SinglePageOp;
using engine::SplitOp;
using storage::Page;
using storage::PageId;

class LogicalMethod : public RecoveryMethod {
 public:
  explicit LogicalMethod(size_t num_pages) : staging_(num_pages) {}

  const char* name() const override {
    return MethodKindName(MethodKind::kLogical);
  }

  /// The stable database must not change between checkpoints.
  bool allows_background_flush() const override { return false; }

  RedoTestKind redo_test_kind() const override {
    return RedoTestKind::kRedoAllSinceCheckpoint;
  }

  Result<core::Lsn> LogAndApply(EngineContext& ctx,
                                const SinglePageOp& op) override {
    wal::PayloadWriter w;
    w.U16(static_cast<uint16_t>(op.type));
    const std::vector<uint8_t> inner = engine::EncodeSinglePageOp(op);
    w.Bytes(inner.data(), inner.size());
    return internal_methods::LogAndRedoOp(ctx, wal::RecordType::kLogicalOp,
                                          w.Take(), op, "logical-op@");
  }

  Result<SplitLsns> LogAndApplySplit(EngineContext& ctx,
                                     const SplitOp& op) override {
    // A logical operation may read and write many pages: the whole split
    // (new page AND source rewrite) is ONE record, replayed functionally.
    const core::Lsn lsn =
        ctx.log->Append(wal::RecordType::kPageSplit, engine::EncodeSplitOp(op));
    REDO_RETURN_IF_ERROR(internal_methods::ApplyWholeSplit(ctx, op, lsn));
    std::vector<PageId> split_reads = {op.src};
    if (engine::SplitReadsDst(op.transform)) split_reads.push_back(op.dst);
    REDO_RETURN_IF_ERROR(internal_methods::TraceLoggedOp(
        ctx, lsn,
        "logical-split@" + std::to_string(op.src) + "->" +
            std::to_string(op.dst),
        std::move(split_reads), {op.src, op.dst}));
    return SplitLsns{lsn, lsn};
  }

  Status Checkpoint(EngineContext& ctx) override {
    // Quiesce (trivial in the single-threaded simulation), then force the
    // log: every operation the checkpoint installs must be stable first.
    REDO_RETURN_IF_ERROR(ctx.log->ForceAll());

    // Write dirty cached pages into the staging area (real I/O, but the
    // staging area is duplexed stable storage: its writes do not fail).
    const std::vector<storage::DirtyPageEntry> dirty = ctx.pool->DirtyPages();
    std::vector<PageId> staged;
    for (const storage::DirtyPageEntry& entry : dirty) {
      Result<Page*> page = ctx.pool->Fetch(entry.page);
      if (!page.ok()) return page.status();
      REDO_RETURN_IF_ERROR(staging_.WritePage(entry.page, *page.value()));
      staged.push_back(entry.page);
    }

    // The pointer swing: forcing the checkpoint record — which names the
    // staged pages — is the one atomic action that makes them part of
    // the stable database and installs everything logged so far. (In
    // System R this is a page-table pointer update; a record on the
    // forced log is the same single atomic switch.)
    Result<core::Lsn> swung = internal_methods::WriteCheckpoint(
        ctx, {.redo_start = ctx.log->last_lsn() + 1,
              .body = engine::CheckpointBody::kStagedPages,
              .staged_pages = std::move(staged)});
    if (!swung.ok()) return swung.status();
    staged_at_lsn_ = swung.value();

    // Materialize the swing: copy the staged pages onto the main disk.
    // This is *after* the commit point, so it can no longer undo it: a
    // copy that exhausts its retries (like an ordinary buffer-pool
    // flush) leaves the page cached and dirty, with the truth in the
    // staging area — a crash now recovers by healing the page from
    // staging. The error still propagates, because Checkpoint returning
    // Ok is the contract that the *disk alone* holds the stable state
    // (backups copy only the disk): the caller's retry performs a fresh
    // swing over the still-dirty pages until every copy lands.
    std::vector<storage::AsyncIoOp> copies;
    for (const storage::DirtyPageEntry& entry : dirty) {
      copies.push_back(
          storage::AsyncIoOp::Write(entry.page, staging_.PeekPage(entry.page)));
    }
    // A copied page's cached version now matches the stable database.
    return ctx.pool->WriteThrough(std::move(copies), [&ctx](PageId page) {
      ctx.pool->DropPage(page);
    });
  }

  RedoPlanning redo_planning() const override {
    // A kPageSplit record replays both halves (dst and the src rewrite)
    // as one atomic task, exactly as LogAndApplySplit applies it.
    RedoPlanning planning;
    planning.whole_splits = true;
    return planning;
  }

  Status ClassifyRecord(wal::RecordType type) const override {
    if (type == wal::RecordType::kCheckpoint ||
        type == wal::RecordType::kLogicalOp ||
        type == wal::RecordType::kPageSplit || type == wal::RecordType::kClr ||
        wal::IsTxnMetaRecord(type)) {
      return Status::Ok();
    }
    return Status::Corruption("unexpected record type in logical log");
  }

  /// Completes the pointer swing the checkpoint committed: finishes the
  /// interrupted copy of any staged page that never reached the main
  /// disk, straight to the disk (not through the cache — the disk must
  /// BE the stable state before redo starts, or a backup taken after
  /// recovery would miss content the checkpoint record promises). A
  /// copy the device still refuses fails the recovery, which the
  /// caller retries. The heal is analysis work: it repairs the *stable*
  /// state, touching no cached page, so it runs before the engine opens
  /// for traffic. It only applies when the staging area belongs to the
  /// chosen checkpoint: when media recovery anchors the restart at a
  /// backup's OLDER checkpoint, the staging area holds content from a
  /// later epoch and must be ignored (the restore already rebuilt the
  /// disk).
  Status PrepareStableState(EngineContext& ctx,
                            const StableCheckpoint& checkpoint) override {
    if (checkpoint.lsn == 0 || checkpoint.lsn != staged_at_lsn_) {
      return Status::Ok();
    }
    std::vector<storage::AsyncIoOp> heals;
    for (PageId page : checkpoint.payload.staged_pages) {
      const Page& stage = staging_.PeekPage(page);
      if (stage.ContentHash() == ctx.disk->PeekPage(page).ContentHash()) {
        continue;  // the swing's copy reached the disk
      }
      heals.push_back(storage::AsyncIoOp::Write(page, stage));
    }
    return ctx.pool->WriteThrough(std::move(heals));
  }

 private:
  storage::Disk staging_;  ///< survives crashes (it is stable storage)
  /// LSN of the checkpoint record the staging area was written for —
  /// the swing's identity. Recovery heals from the staging area only
  /// when the chosen checkpoint IS this record.
  core::Lsn staged_at_lsn_ = 0;
};

}  // namespace

std::unique_ptr<RecoveryMethod> internal_methods::MakeLogical(
    size_t num_pages) {
  return std::make_unique<LogicalMethod>(num_pages);
}

}  // namespace redo::methods
