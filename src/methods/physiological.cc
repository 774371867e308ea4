// Physiological recovery (§6.3): each logged operation reads and writes
// exactly one page ("physical" page id, "logical" intra-page action).
// Pages carry the LSN of their last updater; the redo test compares the
// page LSN against the record LSN; writing a page to disk atomically
// installs its operations and removes them from redo_set.
//
// A split cannot be logged as one multi-page operation here, so the new
// page's contents are logged *physically* (a full page image) — exactly
// the cost §6.4's generalized operations eliminate.

#include <map>
#include <utility>

#include "methods/common.h"
#include "methods/method.h"
#include "redo/plan.h"

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
    // The analysis variant also records the dirty page table so recovery
    // can rebuild it (the ARIES begin-checkpoint payload).
    if (aries_analysis_) {
      return internal_methods::WriteCheckpointRecordWithDpt(
          ctx, internal_methods::FuzzyRedoPoint(ctx));
    }
    return internal_methods::WriteCheckpointRecord(
        ctx, internal_methods::FuzzyRedoPoint(ctx));
  }

  bool supports_fuzzy_checkpoint() const override { return true; }

  Result<core::Lsn> FuzzyCheckpoint(EngineContext& ctx) override {
    // Append-only Checkpoint: the LSN-tag redo test makes a scan start
    // at min(rec_lsn) safe regardless of what writers do after the
    // snapshot, so the force can happen later, off the writers' path.
    if (aries_analysis_) {
      return internal_methods::AppendCheckpointRecordWithDpt(
          ctx, internal_methods::FuzzyRedoPoint(ctx));
    }
    return internal_methods::AppendCheckpointRecord(
        ctx, internal_methods::FuzzyRedoPoint(ctx));
  }

  Status Recover(EngineContext& ctx) override {
    if (!aries_analysis_) {
      return internal_methods::LsnRedoScan(ctx, /*add_split_constraints=*/false,
                                           nullptr, &last_stats_);
    }
    std::map<storage::PageId, core::Lsn> dpt;
    {
      obs::PhaseScope analysis_phase(ctx.tracer, "analysis");
      Result<std::map<storage::PageId, core::Lsn>> built = BuildAnalysisDpt(ctx);
      if (!built.ok()) return built.status();
      dpt = std::move(built).value();
    }
    return internal_methods::LsnRedoScan(ctx, /*add_split_constraints=*/false,
                                         &dpt, &last_stats_);
  }

  RedoScanStats last_scan_stats() const override { return last_stats_; }

  RedoPlanning redo_planning() const override {
    RedoPlanning planning;
    planning.analysis_dpt = aries_analysis_;
    return planning;
  }

 private:
  /// Analysis pass (§4.3): start from the checkpoint's DPT and extend
  /// it with every page a post-checkpoint record dirties (emplace keeps
  /// the earliest rec_lsn). The redo scan then skips installed records
  /// without page I/O. The caller owns the tracer phase.
  Result<std::map<storage::PageId, core::Lsn>> BuildAnalysisDpt(
      EngineContext& ctx) {
    Result<std::map<storage::PageId, core::Lsn>> checkpoint_dpt =
        internal_methods::ReadCheckpointDpt(ctx);
    if (!checkpoint_dpt.ok()) return checkpoint_dpt.status();
    std::map<storage::PageId, core::Lsn> dpt =
        std::move(checkpoint_dpt).value();
    Result<std::optional<wal::LogRecord>> checkpoint =
        ctx.log->LatestStableCheckpoint();
    if (!checkpoint.ok()) return checkpoint.status();
    const core::Lsn analysis_from =
        checkpoint.value().has_value() ? checkpoint.value()->lsn + 1 : 1;
    // Visit the suffix in place: only each record's written pages matter.
    const Result<wal::ScanExtent> scanned = ctx.log->VisitStable(
        analysis_from, [&dpt](const wal::LogRecord& record) -> Status {
          Result<std::optional<par::RedoTask>> task =
              par::DecodeRedoTask(record, /*whole_splits=*/false);
          if (!task.ok()) return task.status();
          if (!task.value().has_value()) return Status::Ok();  // no page dirtied
          for (storage::PageId page : task.value()->Writes()) {
            dpt.emplace(page, record.lsn);  // keeps the earliest rec_lsn
          }
          return Status::Ok();
        });
    if (!scanned.ok()) return scanned.status();
    return dpt;
  }

  const bool aries_analysis_;
  RedoScanStats last_stats_;
};

}  // namespace

std::unique_ptr<RecoveryMethod> internal_methods::MakePhysiological(
    bool aries_analysis) {
  return std::make_unique<PhysiologicalMethod>(aries_analysis);
}

}  // namespace redo::methods
