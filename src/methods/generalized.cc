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

class GeneralizedLsnMethod : public RecoveryMethod {
 public:
  const char* name() const override {
    return MethodKindName(MethodKind::kGeneralized);
  }

  RedoTestKind redo_test_kind() const override { return RedoTestKind::kLsnTag; }

  Result<core::Lsn> LogAndApply(EngineContext& ctx,
                                const engine::SinglePageOp& op) override {
    return internal_methods::LogAndRedoOp(
        ctx, op.type, engine::EncodeSinglePageOp(op), op, "gen-op@");
  }

  Result<SplitLsns> LogAndApplySplit(EngineContext& ctx,
                                     const engine::SplitOp& op) override {
    // P: one small record reading src and writing dst.
    const core::Lsn split_lsn =
        ctx.log->Append(wal::RecordType::kPageSplit, engine::EncodeSplitOp(op));
    REDO_RETURN_IF_ERROR(internal_methods::ApplySplitInCache(ctx, op));
    REDO_RETURN_IF_ERROR(ctx.pool->MarkDirty(op.dst, split_lsn));
    std::vector<storage::PageId> split_reads = {op.src};
    if (engine::SplitReadsDst(op.transform)) split_reads.push_back(op.dst);
    REDO_RETURN_IF_ERROR(internal_methods::TraceLoggedOp(
        ctx, split_lsn,
        "gen-split@" + std::to_string(op.src) + "->" + std::to_string(op.dst),
        std::move(split_reads), {op.dst}));

    // Q: rewrite src to drop the moved half. The new page must reach
    // disk before this rewrite does — the §6.4 careful write order (an
    // earlier split in the opposite direction makes OrderWrites flush
    // dst now instead).
    REDO_RETURN_IF_ERROR(ctx.pool->OrderWrites(op.dst, split_lsn, op.src));
    const engine::SinglePageOp rewrite = engine::MakeRewriteForSplit(op);
    Result<core::Lsn> rewrite_lsn = internal_methods::LogAndRedoOp(
        ctx, rewrite.type, engine::EncodeSinglePageOp(rewrite), rewrite,
        "gen-rewrite@");
    if (!rewrite_lsn.ok()) return rewrite_lsn.status();
    return SplitLsns{split_lsn, rewrite_lsn.value()};
  }

  Status Checkpoint(EngineContext& ctx) override {
    // Fuzzy checkpoint: no page flushing; record where redo must start.
    return internal_methods::WriteCheckpoint(
               ctx, internal_methods::FuzzyCheckpointPayload(
                        ctx, redo_planning().analysis_dpt))
        .status();
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

std::optional<MethodKind> ParseMethodKind(std::string_view name) {
  for (const MethodKind kind : kMethodKinds) {
    if (name == MethodKindName(kind)) return kind;
  }
  return std::nullopt;
}

}  // namespace redo::methods
