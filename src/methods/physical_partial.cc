// Partial-page physical recovery (§6.2's second flavor).
//
// Whole-page physical logging pays a full after-image per update;
// partial physical logging records only the bytes that changed — here, a
// blind slot poke (page, slot, value) with the read set erased. The redo
// test is unchanged: replay *everything* since the last checkpoint, in
// log order. Redo-all over partial records is correct because every
// record type it logs is idempotent and replayed in log order (slot
// pokes are last-writer-wins per slot; B-tree inserts/removes are
// idempotent set operations), so replaying onto a page that already
// reflects some of the records converges to the same final bytes.
// Whole-page changes (splits, formats) fall back to images, exactly as
// real partial-logging systems degrade to full images for large
// updates.

#include "methods/common.h"
#include "methods/method.h"

namespace redo::methods {
namespace {

using engine::SinglePageOp;
using engine::SplitOp;
using storage::Page;
using storage::PageId;

class PartialPhysicalMethod : public RecoveryMethod {
 public:
  const char* name() const override { return "physical-partial"; }

  RedoTestKind redo_test_kind() const override {
    return RedoTestKind::kRedoAllSinceCheckpoint;
  }

  Result<core::Lsn> LogAndApply(EngineContext& ctx,
                                const SinglePageOp& op) override {
    // Erase the read set: the logged operation is the byte write itself.
    SinglePageOp blind = op;
    blind.blind = true;
    const core::Lsn lsn =
        ctx.log->Append(blind.type, engine::EncodeSinglePageOp(blind));
    REDO_RETURN_IF_ERROR(internal_methods::RedoSinglePageOp(ctx, blind, lsn));
    REDO_RETURN_IF_ERROR(internal_methods::TraceLoggedOp(
        ctx, lsn, "partial-bytes@" + std::to_string(op.page), /*reads=*/{},
        {op.page}));
    return lsn;
  }

  Result<SplitLsns> LogAndApplySplit(EngineContext& ctx,
                                     const SplitOp& op) override {
    // Whole-page changes fall back to full images.
    Result<Page*> src = ctx.pool->Fetch(op.src);
    if (!src.ok()) return src.status();
    const Page src_copy = *src.value();
    Result<Page*> dst = ctx.pool->Fetch(op.dst);
    if (!dst.ok()) return dst.status();
    engine::ApplySplitToDst(op, src_copy, dst.value());
    Result<core::Lsn> split_lsn = LogImage(ctx, op.dst);
    if (!split_lsn.ok()) return split_lsn.status();

    const SinglePageOp rewrite = engine::MakeRewriteForSplit(op);
    src = ctx.pool->Fetch(op.src);
    if (!src.ok()) return src.status();
    REDO_RETURN_IF_ERROR(engine::ApplySinglePageOp(rewrite, src.value()));
    Result<core::Lsn> rewrite_lsn = LogImage(ctx, op.src);
    if (!rewrite_lsn.ok()) return rewrite_lsn.status();
    return SplitLsns{split_lsn.value(), rewrite_lsn.value()};
  }

  Status Checkpoint(EngineContext& ctx) override {
    REDO_RETURN_IF_ERROR(ctx.log->ForceAll());
    REDO_RETURN_IF_ERROR(ctx.pool->FlushAll());
    return internal_methods::WriteCheckpoint(
               ctx, {.redo_start = ctx.log->last_lsn() + 1})
        .status();
  }

 private:
  Result<core::Lsn> LogImage(EngineContext& ctx, PageId page_id) {
    Result<Page*> page = ctx.pool->Fetch(page_id);
    if (!page.ok()) return page.status();
    // Tag-and-encode under the log mutex: the image embeds its own LSN.
    const core::Lsn lsn = ctx.log->AppendWithLsn(
        wal::RecordType::kPageImage, [&](core::Lsn assigned) {
          page.value()->set_lsn(assigned);
          return engine::EncodePageImage(page_id, *page.value());
        });
    REDO_RETURN_IF_ERROR(ctx.pool->MarkDirty(page_id, lsn));
    REDO_RETURN_IF_ERROR(internal_methods::TraceLoggedOp(
        ctx, lsn, "partial-image@" + std::to_string(page_id), /*reads=*/{},
        {page_id}));
    return lsn;
  }
};

}  // namespace

std::unique_ptr<RecoveryMethod> internal_methods::MakePhysicalPartial() {
  return std::make_unique<PartialPhysicalMethod>();
}

}  // namespace redo::methods
