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

class PartialPhysicalMethod : public RecoveryMethod {
 public:
  const char* name() const override {
    return MethodKindName(MethodKind::kPhysicalPartial);
  }

  RedoTestKind redo_test_kind() const override {
    return RedoTestKind::kRedoAllSinceCheckpoint;
  }

  Result<core::Lsn> LogAndApply(EngineContext& ctx,
                                const engine::SinglePageOp& op) override {
    // Erase the read set: the logged operation is the byte write itself.
    engine::SinglePageOp blind = op;
    blind.blind = true;
    return internal_methods::LogAndRedoOp(
        ctx, blind.type, engine::EncodeSinglePageOp, blind, "partial-bytes@",
        /*mark_birth=*/true);
  }

  Result<SplitLsns> LogAndApplySplit(EngineContext& ctx,
                                     const engine::SplitOp& op) override {
    // Whole-page changes fall back to full images.
    return internal_methods::LogSplitAsImages(ctx, op, "partial-image@");
  }

  Status Checkpoint(EngineContext& ctx) override {
    return internal_methods::FlushAndCheckpoint(ctx);
  }
};

}  // namespace

std::unique_ptr<RecoveryMethod> internal_methods::MakePhysicalPartial() {
  return std::make_unique<PartialPhysicalMethod>();
}

}  // namespace redo::methods
