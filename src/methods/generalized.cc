// Generalized LSN-based recovery (§6.4): physiological recovery extended
// with log operations that read one page and write a *different* page.
//
// The split is logged as one small record ("dst := upper half of src")
// instead of a full physical image of the new page — the log-volume win
// the paper motivates. The price is a write-order constraint: the cache
// manager must write the new page to disk before the source page is
// overwritten by the rewrite, enforcing the installation-graph edge
// P -> {O,Q} of Figure 8. The constraint is registered with the buffer
// pool, whose flush logic honors it.

#include "methods/common.h"
#include "methods/method.h"

namespace redo::methods {
namespace {

using engine::SinglePageOp;
using engine::SplitOp;
using storage::Page;
using storage::PageId;

class GeneralizedLsnMethod : public RecoveryMethod {
 public:
  const char* name() const override { return "generalized-lsn"; }

  RedoTestKind redo_test_kind() const override { return RedoTestKind::kLsnTag; }

  Result<core::Lsn> LogAndApply(EngineContext& ctx,
                                const SinglePageOp& op) override {
    const core::Lsn lsn =
        ctx.log->Append(op.type, engine::EncodeSinglePageOp(op));
    REDO_RETURN_IF_ERROR(internal_methods::RedoSinglePageOp(ctx, op, lsn));
    std::vector<PageId> reads;
    if (!op.blind) reads.push_back(op.page);
    REDO_RETURN_IF_ERROR(internal_methods::TraceLoggedOp(
        ctx, lsn, "gen-op@" + std::to_string(op.page), std::move(reads),
        {op.page}));
    return lsn;
  }

  Result<SplitLsns> LogAndApplySplit(EngineContext& ctx,
                                     const SplitOp& op) override {
    // P: one small record reading src and writing dst.
    const core::Lsn split_lsn =
        ctx.log->Append(wal::RecordType::kPageSplit, engine::EncodeSplitOp(op));
    Result<Page*> src = ctx.pool->Fetch(op.src);
    if (!src.ok()) return src.status();
    const Page src_copy = *src.value();
    Result<Page*> dst = ctx.pool->Fetch(op.dst);
    if (!dst.ok()) return dst.status();
    engine::ApplySplitToDst(op, src_copy, dst.value());
    REDO_RETURN_IF_ERROR(ctx.pool->MarkDirty(op.dst, split_lsn));
    std::vector<PageId> split_reads = {op.src};
    if (engine::SplitReadsDst(op.transform)) split_reads.push_back(op.dst);
    REDO_RETURN_IF_ERROR(internal_methods::TraceLoggedOp(
        ctx, split_lsn,
        "gen-split@" + std::to_string(op.src) + "->" + std::to_string(op.dst),
        std::move(split_reads), {op.dst}));

    // Q: rewrite src to drop the moved half. The new page must reach
    // disk before this rewrite does — the §6.4 careful write order.
    // The write graph's Add-an-edge operation requires acyclicity
    // (§5.1): if pending constraints already order src before dst
    // (an earlier split in the opposite direction), flush dst now —
    // cascading through the pending chain — so the edge is satisfied
    // instead of cyclic.
    if (ctx.pool->HasPendingOrderPath(op.src, op.dst)) {
      REDO_RETURN_IF_ERROR(ctx.pool->FlushPageCascading(op.dst));
    } else {
      ctx.pool->AddWriteOrderConstraint(op.dst, split_lsn, op.src);
    }
    const SinglePageOp rewrite = engine::MakeRewriteForSplit(op);
    const core::Lsn rewrite_lsn =
        ctx.log->Append(rewrite.type, engine::EncodeSinglePageOp(rewrite));
    REDO_RETURN_IF_ERROR(
        internal_methods::RedoSinglePageOp(ctx, rewrite, rewrite_lsn));
    REDO_RETURN_IF_ERROR(internal_methods::TraceLoggedOp(
        ctx, rewrite_lsn, "gen-rewrite@" + std::to_string(op.src), {op.src},
        {op.src}));
    return SplitLsns{split_lsn, rewrite_lsn};
  }

  Status Checkpoint(EngineContext& ctx) override {
    return internal_methods::WriteCheckpointRecord(
        ctx, internal_methods::FuzzyRedoPoint(ctx));
  }

  bool supports_fuzzy_checkpoint() const override { return true; }

  Result<core::Lsn> FuzzyCheckpoint(EngineContext& ctx) override {
    // Append-only Checkpoint; the caller forces later (group commit).
    // The redo point honors write-order constraints implicitly: a page
    // held back by a constraint is still dirty, so its rec_lsn keeps
    // the scan start below every record the careful write order has
    // not yet installed.
    return internal_methods::AppendCheckpointRecord(
        ctx, internal_methods::FuzzyRedoPoint(ctx));
  }

  RedoPlanning redo_planning() const override {
    // §6.4: replayed splits re-arm the careful write order, so flushes
    // issued while serving (or after the merge) respect it.
    RedoPlanning planning;
    planning.add_split_constraints = true;
    return planning;
  }
};

}  // namespace

std::unique_ptr<RecoveryMethod> internal_methods::MakeGeneralized() {
  return std::make_unique<GeneralizedLsnMethod>();
}

std::unique_ptr<RecoveryMethod> MakeMethod(MethodKind kind,
                                           const MethodOptions& options) {
  switch (kind) {
    case MethodKind::kLogical:
      return internal_methods::MakeLogical(options.num_pages);
    case MethodKind::kPhysical:
      return internal_methods::MakePhysical();
    case MethodKind::kPhysiological:
      return internal_methods::MakePhysiological(/*aries_analysis=*/false);
    case MethodKind::kGeneralized:
      return internal_methods::MakeGeneralized();
    case MethodKind::kPhysiologicalAnalysis:
      return internal_methods::MakePhysiological(/*aries_analysis=*/true);
    case MethodKind::kPhysicalPartial:
      return internal_methods::MakePhysicalPartial();
  }
  REDO_CHECK(false) << "unknown method kind";
  return nullptr;
}

const char* MethodKindName(MethodKind kind) {
  switch (kind) {
    case MethodKind::kLogical:
      return "logical";
    case MethodKind::kPhysical:
      return "physical";
    case MethodKind::kPhysiological:
      return "physiological";
    case MethodKind::kGeneralized:
      return "generalized-lsn";
    case MethodKind::kPhysiologicalAnalysis:
      return "physio-aries";
    case MethodKind::kPhysicalPartial:
      return "physical-partial";
  }
  return "unknown";
}

}  // namespace redo::methods
