// Physiological recovery (§6.3): each logged operation reads and writes
// exactly one page ("physical" page id, "logical" intra-page action).
// Pages carry the LSN of their last updater; the redo test compares the
// page LSN against the record LSN; writing a page to disk atomically
// installs its operations and removes them from redo_set.
//
// A split cannot be logged as one multi-page operation here, so the new
// page's contents are logged *physically* (a full page image) — exactly
// the cost §6.4's generalized operations eliminate.

#include "methods/common.h"
#include "methods/method.h"

namespace redo::methods {
namespace {

using engine::SinglePageOp;
using engine::SplitOp;
using storage::Page;
using storage::PageId;

class PhysiologicalMethod : public RecoveryMethod {
 public:
  explicit PhysiologicalMethod(bool aries_analysis)
      : aries_analysis_(aries_analysis) {}

  const char* name() const override {
    return aries_analysis_ ? "physio-aries" : "physiological";
  }

  RedoTestKind redo_test_kind() const override { return RedoTestKind::kLsnTag; }

  Result<core::Lsn> LogAndApply(EngineContext& ctx,
                                const SinglePageOp& op) override {
    const core::Lsn lsn = ctx.log->Append(
        op.type, engine::EncodeSinglePageOp(op));
    REDO_RETURN_IF_ERROR(internal_methods::RedoSinglePageOp(ctx, op, lsn));
    std::vector<PageId> reads;
    if (!op.blind) reads.push_back(op.page);
    REDO_RETURN_IF_ERROR(internal_methods::TraceLoggedOp(
        ctx, lsn, "physio-op@" + std::to_string(op.page), std::move(reads),
        {op.page}));
    return lsn;
  }

  Result<SplitLsns> LogAndApplySplit(EngineContext& ctx,
                                     const SplitOp& op) override {
    // Compute the new page's contents from the source, then log it as a
    // full page image (a blind single-page write).
    Result<Page*> src = ctx.pool->Fetch(op.src);
    if (!src.ok()) return src.status();
    const Page src_copy = *src.value();
    Result<Page*> dst = ctx.pool->Fetch(op.dst);
    if (!dst.ok()) return dst.status();
    engine::ApplySplitToDst(op, src_copy, dst.value());

    const core::Lsn split_lsn = ctx.log->AppendWithLsn(
        wal::RecordType::kPageImage, [&](core::Lsn assigned) {
          dst.value()->set_lsn(assigned);
          return engine::EncodePageImage(op.dst, *dst.value());
        });
    REDO_RETURN_IF_ERROR(ctx.pool->MarkDirty(op.dst, split_lsn));
    REDO_RETURN_IF_ERROR(internal_methods::TraceLoggedOp(
        ctx, split_lsn, "physio-newpage@" + std::to_string(op.dst), {},
        {op.dst}));

    // The source rewrite is an ordinary physiological operation.
    const SinglePageOp rewrite = engine::MakeRewriteForSplit(op);
    const core::Lsn rewrite_lsn =
        ctx.log->Append(rewrite.type, engine::EncodeSinglePageOp(rewrite));
    REDO_RETURN_IF_ERROR(
        internal_methods::RedoSinglePageOp(ctx, rewrite, rewrite_lsn));
    REDO_RETURN_IF_ERROR(internal_methods::TraceLoggedOp(
        ctx, rewrite_lsn, "physio-rewrite@" + std::to_string(op.src), {op.src},
        {op.src}));
    return SplitLsns{split_lsn, rewrite_lsn};
  }

  Status Checkpoint(EngineContext& ctx) override {
    // Fuzzy checkpoint: no page flushing; record where redo must start.
    return internal_methods::WriteCheckpoint(ctx, Snapshot(ctx)).status();
  }

  bool supports_fuzzy_checkpoint() const override { return true; }

  Result<core::Lsn> FuzzyCheckpoint(EngineContext& ctx) override {
    // Append-only Checkpoint: the LSN-tag redo test makes a scan start
    // at min(rec_lsn) safe regardless of what writers do after the
    // snapshot, so the force can happen later, off the writers' path.
    return internal_methods::AppendCheckpoint(ctx, Snapshot(ctx));
  }

  RedoPlanning redo_planning() const override {
    RedoPlanning planning;
    planning.analysis_dpt = aries_analysis_;
    return planning;
  }

 private:
  // The redo point and, for the analysis variant, the dirty page table
  // recovery rebuilds from (the ARIES begin-checkpoint payload). The
  // caller's barrier keeps the two consistent.
  engine::CheckpointPayload Snapshot(const EngineContext& ctx) const {
    engine::CheckpointPayload checkpoint{
        .redo_start = internal_methods::FuzzyRedoPoint(ctx)};
    if (aries_analysis_) {
      checkpoint.body = engine::CheckpointBody::kDirtyPages;
      for (const storage::DirtyPageEntry& entry : ctx.pool->DirtyPages()) {
        checkpoint.dpt.emplace(entry.page, entry.rec_lsn);
      }
    }
    return checkpoint;
  }

  const bool aries_analysis_;
};

}  // namespace

std::unique_ptr<RecoveryMethod> internal_methods::MakePhysiological(
    bool aries_analysis) {
  return std::make_unique<PhysiologicalMethod>(aries_analysis);
}

}  // namespace redo::methods
