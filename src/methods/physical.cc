// Physical recovery (§6.2): log the exact bytes each operation leaves
// behind (whole-page after-images). Physical operations only write —
// they never read — so the conflict graph has only write-write edges,
// every uninstalled variable is unexposed, and recovery simply replays
// every record since the last checkpoint.
//
// Checkpointing flushes the cache (making the replayed records' effects
// present in the stable state) and then writes the checkpoint record,
// atomically installing the operations by removing them from redo_set.

#include "methods/common.h"
#include "methods/method.h"

namespace redo::methods {
namespace {

using engine::SinglePageOp;
using engine::SplitOp;
using storage::Page;
using storage::PageId;

class PhysicalMethod : public RecoveryMethod {
 public:
  const char* name() const override { return "physical"; }

  RedoTestKind redo_test_kind() const override {
    return RedoTestKind::kRedoAllSinceCheckpoint;
  }

  Result<core::Lsn> LogAndApply(EngineContext& ctx,
                                const SinglePageOp& op) override {
    // Apply in cache first, then log the resulting bytes.
    Result<Page*> page = ctx.pool->Fetch(op.page);
    if (!page.ok()) return page.status();
    REDO_RETURN_IF_ERROR(engine::ApplySinglePageOp(op, page.value()));
    return LogImage(ctx, op.page, "physical-image@");
  }

  Result<SplitLsns> LogAndApplySplit(EngineContext& ctx,
                                     const SplitOp& op) override {
    Result<Page*> src = ctx.pool->Fetch(op.src);
    if (!src.ok()) return src.status();
    const Page src_copy = *src.value();
    Result<Page*> dst = ctx.pool->Fetch(op.dst);
    if (!dst.ok()) return dst.status();
    engine::ApplySplitToDst(op, src_copy, dst.value());
    Result<core::Lsn> split_lsn = LogImage(ctx, op.dst, "physical-image@");
    if (!split_lsn.ok()) return split_lsn.status();

    const SinglePageOp rewrite = engine::MakeRewriteForSplit(op);
    src = ctx.pool->Fetch(op.src);
    if (!src.ok()) return src.status();
    REDO_RETURN_IF_ERROR(engine::ApplySinglePageOp(rewrite, src.value()));
    Result<core::Lsn> rewrite_lsn = LogImage(ctx, op.src, "physical-image@");
    if (!rewrite_lsn.ok()) return rewrite_lsn.status();
    return SplitLsns{split_lsn.value(), rewrite_lsn.value()};
  }

  Status Checkpoint(EngineContext& ctx) override {
    // §6.2: make the cached values stable, then atomically shift every
    // logged operation out of redo_set with the checkpoint record.
    REDO_RETURN_IF_ERROR(ctx.log->ForceAll());
    REDO_RETURN_IF_ERROR(ctx.pool->FlushAll());
    return internal_methods::WriteCheckpoint(
               ctx, {.redo_start = ctx.log->last_lsn() + 1})
        .status();
  }

  /// A physical log holds page images, CLRs and metadata, nothing else.
  Status ClassifyRecord(wal::RecordType type) const override {
    if (type == wal::RecordType::kCheckpoint ||
        type == wal::RecordType::kPageImage ||
        type == wal::RecordType::kClr || wal::IsTxnMetaRecord(type)) {
      return Status::Ok();
    }
    return Status::Corruption("physical log contains a non-image record");
  }

 private:
  /// Tags the cached page with the upcoming LSN, logs its full image,
  /// marks it dirty, and traces a blind write.
  Result<core::Lsn> LogImage(EngineContext& ctx, PageId page_id,
                             const char* prefix) {
    Result<Page*> page = ctx.pool->Fetch(page_id);
    if (!page.ok()) return page.status();
    // The page must carry the image record's LSN *inside* the logged
    // bytes, so tag-and-encode runs atomically with LSN assignment
    // (concurrent sessions appending would otherwise race the tag).
    const core::Lsn lsn = ctx.log->AppendWithLsn(
        wal::RecordType::kPageImage, [&](core::Lsn assigned) {
          page.value()->set_lsn(assigned);
          return engine::EncodePageImage(page_id, *page.value());
        });
    REDO_RETURN_IF_ERROR(ctx.pool->MarkDirty(page_id, lsn));
    REDO_RETURN_IF_ERROR(internal_methods::TraceLoggedOp(
        ctx, lsn, prefix + std::to_string(page_id), /*reads=*/{}, {page_id}));
    return lsn;
  }
};

}  // namespace

std::unique_ptr<RecoveryMethod> internal_methods::MakePhysical() {
  return std::make_unique<PhysicalMethod>();
}

}  // namespace redo::methods
