// Shared helpers for the recovery-method implementations.

#ifndef REDO_METHODS_COMMON_H_
#define REDO_METHODS_COMMON_H_

#include <vector>

#include "methods/method.h"

namespace redo::methods {
namespace internal_methods {

// Per-method constructors, reachable only through MakeMethod (the
// public factory in generalized.cc). `num_pages` sizes the logical
// method's staging area; `aries_analysis` enables the physiological
// method's §4.3 analysis pass.
std::unique_ptr<RecoveryMethod> MakeLogical(size_t num_pages);
std::unique_ptr<RecoveryMethod> MakePhysical();
std::unique_ptr<RecoveryMethod> MakePhysiological(bool aries_analysis);
std::unique_ptr<RecoveryMethod> MakeGeneralized();
std::unique_ptr<RecoveryMethod> MakePhysicalPartial();

/// Appends a checkpoint record carrying `checkpoint` and returns its
/// LSN. Its redo start is capped at one past the record, and when
/// ctx.txns is set the live-transaction table is snapshotted into it,
/// both under the log mutex, so the table matches the log exactly and
/// analysis can re-anchor its winners/losers at any method's
/// checkpoint. The record becomes durable with a later force (fuzzy
/// checkpoints: the group-commit pipeline).
Result<core::Lsn> AppendCheckpoint(EngineContext& ctx,
                                   engine::CheckpointPayload checkpoint);

/// AppendCheckpoint, then forces the whole log.
Result<core::Lsn> WriteCheckpoint(EngineContext& ctx,
                                  engine::CheckpointPayload checkpoint);

/// The physical methods' checkpoint (§6.2): forces the log and flushes
/// the cache, making every logged operation's effect stable, then
/// writes the record that shifts them all out of redo_set at once.
Status FlushAndCheckpoint(EngineContext& ctx);

/// A fuzzy checkpoint's payload (§6.3-style): the redo point is the
/// minimum rec_lsn of any dirty page, or last_lsn+1 when the cache is
/// clean, so every record below it is fully installed. A page a §6.4
/// write-order constraint holds back is still dirty, so its rec_lsn
/// keeps the point below every record the careful write order has not
/// installed yet. With `dpt` it also carries the dirty-page table
/// recovery rebuilds from (the ARIES begin-checkpoint payload). The
/// caller's barrier keeps the two consistent.
engine::CheckpointPayload FuzzyCheckpointPayload(const EngineContext& ctx,
                                                 bool dpt);

/// Logs the cached page's image: fetches the page, tags it with the
/// record's LSN and encodes it under the log mutex (the image embeds
/// its own LSN, which concurrent appenders must not race), marks it
/// dirty, and traces a blind write named `prefix` + page id.
Result<core::Lsn> LogPageImage(EngineContext& ctx, storage::PageId page,
                               const char* prefix);

/// Builds a single-page op's record payload: engine::EncodeSinglePageOp,
/// or the logical method's kLogicalOp frame around it.
using OpPayloadEncoder = std::vector<uint8_t> (*)(const engine::SinglePageOp&);

/// Logs `op` as a `type` record whose payload `encode` builds, applies
/// it to the cached page under the record's LSN, and traces it as
/// `prefix` + page id, reading the page unless the op is blind. The
/// caller holds the page's latch. Whatever `op.born` said, the op is
/// logged born exactly when `mark_birth` is set and the cached page is
/// the zero page (Page::IsZero): redo may then start the page there
/// instead of reading it (par::BlindFirstTouch). A method passes
/// `mark_birth` false when its redo reads one page to write another
/// (the generalized split), which a page rebuilt from zeros would
/// replay from a source already past it. Returns the LSN.
Result<core::Lsn> LogAndRedoOp(EngineContext& ctx, wal::RecordType type,
                               OpPayloadEncoder encode, engine::SinglePageOp op,
                               const char* prefix, bool mark_birth);

/// Applies a split's first half in the cache, dst := P(src), leaving
/// dst for the caller to log or mark dirty.
Status ApplySplitInCache(EngineContext& ctx, const engine::SplitOp& op);

/// Logs a split as two page images (a physical log holds only images):
/// dst after the split, then src after the rewrite, both traced as
/// `prefix` + page id.
Result<RecoveryMethod::SplitLsns> LogSplitAsImages(EngineContext& ctx,
                                                   const engine::SplitOp& op,
                                                   const char* prefix);

/// Applies a decoded single-page op to the cached page and tags it with
/// the record's LSN.
Status RedoSinglePageOp(EngineContext& ctx, const engine::SinglePageOp& op,
                        core::Lsn lsn);

/// Applies both halves of a split as one operation: dst := upper(src),
/// then src := lower(src), both tagged `lsn` (the logical method's
/// split, logged and replayed as one record).
Status ApplyWholeSplit(EngineContext& ctx, const engine::SplitOp& op,
                       core::Lsn lsn);

/// Records a traced op if tracing is active. `reads`/`writes` are page
/// ids; write hashes are taken from the current cached contents.
Status TraceLoggedOp(EngineContext& ctx, core::Lsn lsn, std::string name,
                     std::vector<storage::PageId> reads,
                     const std::vector<storage::PageId>& writes);

}  // namespace internal_methods
}  // namespace redo::methods

#endif  // REDO_METHODS_COMMON_H_
