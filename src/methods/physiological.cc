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

class PhysiologicalMethod : public RecoveryMethod {
 public:
  explicit PhysiologicalMethod(bool aries_analysis)
      : aries_analysis_(aries_analysis) {}

  const char* name() const override {
    return MethodKindName(aries_analysis_ ? MethodKind::kPhysiologicalAnalysis
                                          : MethodKind::kPhysiological);
  }

  RedoTestKind redo_test_kind() const override { return RedoTestKind::kLsnTag; }

  Result<core::Lsn> LogAndApply(EngineContext& ctx,
                                const engine::SinglePageOp& op) override {
    return internal_methods::LogAndRedoOp(
        ctx, op.type, engine::EncodeSinglePageOp, op, "physio-op@",
        /*mark_birth=*/true);
  }

  Result<SplitLsns> LogAndApplySplit(EngineContext& ctx,
                                     const engine::SplitOp& op) override {
    // Compute the new page's contents from the source, then log it as a
    // full page image (a blind single-page write).
    REDO_RETURN_IF_ERROR(internal_methods::ApplySplitInCache(ctx, op));
    Result<core::Lsn> split_lsn =
        internal_methods::LogPageImage(ctx, op.dst, "physio-newpage@");
    if (!split_lsn.ok()) return split_lsn.status();
    // The source rewrite is an ordinary physiological operation.
    const engine::SinglePageOp rewrite = engine::MakeRewriteForSplit(op);
    Result<core::Lsn> rewrite_lsn = internal_methods::LogAndRedoOp(
        ctx, rewrite.type, engine::EncodeSinglePageOp, rewrite,
        "physio-rewrite@", /*mark_birth=*/true);
    if (!rewrite_lsn.ok()) return rewrite_lsn.status();
    return SplitLsns{split_lsn.value(), rewrite_lsn.value()};
  }

  Status Checkpoint(EngineContext& ctx) override {
    // Fuzzy checkpoint: no page flushing; record where redo must start.
    return internal_methods::WriteCheckpoint(
               ctx, internal_methods::FuzzyCheckpointPayload(
                        ctx, redo_planning().analysis_dpt))
        .status();
  }

  RedoPlanning redo_planning() const override {
    RedoPlanning planning;
    planning.analysis_dpt = aries_analysis_;
    return planning;
  }

 private:
  const bool aries_analysis_;
};

}  // namespace

std::unique_ptr<RecoveryMethod> internal_methods::MakePhysiological(
    bool aries_analysis) {
  return std::make_unique<PhysiologicalMethod>(aries_analysis);
}

}  // namespace redo::methods
