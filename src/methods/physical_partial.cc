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
    return internal_methods::WriteCheckpointRecord(ctx,
                                                   ctx.log->last_lsn() + 1);
  }

  Status Recover(EngineContext& ctx) override {
    obs::PhaseScope phase(ctx.tracer, "redo-scan");
    Result<core::Lsn> redo_start = internal_methods::ReadRedoScanStart(ctx);
    if (!redo_start.ok()) return redo_start.status();
    REDO_RETURN_IF_ERROR(
        internal_methods::TraceCheckpointChosen(ctx, redo_start.value()));
    Result<std::vector<wal::LogRecord>> records =
        ctx.log->StableRecords(redo_start.value());
    if (!records.ok()) return records.status();
    // Counters accumulate across Recover() calls (see last_scan_stats):
    // ladder reruns add to, never clobber, earlier rungs' work.
    for (const wal::LogRecord& record : records.value()) {
      if (record.type == wal::RecordType::kCheckpoint ||
          wal::IsTxnMetaRecord(record.type)) {
        continue;
      }
      ++last_stats_.scanned;
      if (record.type == wal::RecordType::kClr) {
        Result<engine::Clr> clr = engine::DecodeClr(record.payload);
        if (!clr.ok()) return clr.status();
        REDO_RETURN_IF_ERROR(engine::ApplyUndoActions(
            ctx.pool, clr.value().actions, record.lsn));
        ++last_stats_.replayed;
        if (ctx.tracer != nullptr) {
          for (const engine::UndoAction& action : clr.value().actions) {
            ctx.tracer->Verdict(record.lsn, action.page,
                                obs::RedoVerdict::kApplied, "redo-all");
          }
        }
        continue;
      }
      PageId target = 0;
      if (record.type == wal::RecordType::kPageImage) {
        Result<std::pair<PageId, Page>> decoded =
            engine::DecodePageImage(record.payload);
        if (!decoded.ok()) return decoded.status();
        REDO_RETURN_IF_ERROR(internal_methods::RedoPageImage(
            ctx, decoded.value().first, decoded.value().second, record.lsn));
        target = decoded.value().first;
      } else {
        Result<SinglePageOp> op =
            engine::DecodeSinglePageOp(record.type, record.payload);
        if (!op.ok()) return op.status();
        REDO_RETURN_IF_ERROR(
            internal_methods::RedoSinglePageOp(ctx, op.value(), record.lsn));
        target = op.value().page;
      }
      ++last_stats_.replayed;
      if (ctx.tracer != nullptr) {
        ctx.tracer->Verdict(record.lsn, target, obs::RedoVerdict::kApplied,
                            "redo-all");
      }
    }
    return Status::Ok();
  }

  RedoScanStats last_scan_stats() const override { return last_stats_; }

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

  RedoScanStats last_stats_;
};

}  // namespace

std::unique_ptr<RecoveryMethod> internal_methods::MakePhysicalPartial() {
  return std::make_unique<PartialPhysicalMethod>();
}

}  // namespace redo::methods
