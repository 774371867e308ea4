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

/// The fuzzy redo point (§6.3-style): the minimum rec_lsn of any dirty
/// page, or last_lsn+1 when the cache is clean. Records below this LSN
/// are fully installed.
core::Lsn FuzzyRedoPoint(const EngineContext& ctx);

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
