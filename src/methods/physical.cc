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

class PhysicalMethod : public RecoveryMethod {
 public:
  const char* name() const override {
    return MethodKindName(MethodKind::kPhysical);
  }

  RedoTestKind redo_test_kind() const override {
    return RedoTestKind::kRedoAllSinceCheckpoint;
  }

  Result<core::Lsn> LogAndApply(EngineContext& ctx,
                                const engine::SinglePageOp& op) override {
    // Apply in cache first, then log the resulting bytes.
    Result<storage::Page*> page = ctx.pool->Fetch(op.page);
    if (!page.ok()) return page.status();
    REDO_RETURN_IF_ERROR(engine::ApplySinglePageOp(op, page.value()));
    return internal_methods::LogPageImage(ctx, op.page, "physical-image@");
  }

  Result<SplitLsns> LogAndApplySplit(EngineContext& ctx,
                                     const engine::SplitOp& op) override {
    return internal_methods::LogSplitAsImages(ctx, op, "physical-image@");
  }

  Status Checkpoint(EngineContext& ctx) override {
    // §6.2: make the cached values stable, then atomically shift every
    // logged operation out of redo_set with the checkpoint record.
    return internal_methods::FlushAndCheckpoint(ctx);
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
};

}  // namespace

std::unique_ptr<RecoveryMethod> internal_methods::MakePhysical() {
  return std::make_unique<PhysicalMethod>();
}

}  // namespace redo::methods
