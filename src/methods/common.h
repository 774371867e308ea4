// Shared helpers for the recovery-method implementations.

#ifndef REDO_METHODS_COMMON_H_
#define REDO_METHODS_COMMON_H_

#include <map>
#include <vector>

#include "methods/method.h"
#include "wal/log_record.h"

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

/// Appends a checkpoint record carrying the redo-scan start LSN and
/// forces the whole log.
Status WriteCheckpointRecord(EngineContext& ctx, core::Lsn redo_start);

/// The append half of WriteCheckpointRecord, without the force: used by
/// fuzzy checkpoints, whose record becomes durable later through the
/// group-commit pipeline. Returns the record's LSN.
Result<core::Lsn> AppendCheckpointRecord(EngineContext& ctx,
                                         core::Lsn redo_start);

/// Decodes the redo-scan start from the latest stable checkpoint record
/// (1 if there is none).
Result<core::Lsn> ReadRedoScanStart(const EngineContext& ctx);

/// Appends the live-transaction table (engine::AppendTxnTableTail) to a
/// checkpoint payload under construction. No-op when ctx.txns is null,
/// keeping non-transactional payloads byte-identical. Every checkpoint
/// writer calls this last, so analysis can re-anchor its winners/losers
/// table from any method's checkpoint.
void AppendCheckpointTxnTail(EngineContext& ctx, wal::PayloadWriter& w);

/// Emits the checkpoint-chosen timeline event: the LSN of the checkpoint
/// record recovery anchored on (0 when there is none) and the decoded
/// scan start. No-op without a tracer.
Status TraceCheckpointChosen(EngineContext& ctx, core::Lsn scan_start);

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

/// Appends a checkpoint record carrying the redo-scan start AND the
/// current dirty page table (for analysis-based recovery), then forces
/// the log.
Status WriteCheckpointRecordWithDpt(EngineContext& ctx, core::Lsn redo_start);

/// The append half of WriteCheckpointRecordWithDpt, without the force
/// (fuzzy analysis checkpoints). Returns the record's LSN.
Result<core::Lsn> AppendCheckpointRecordWithDpt(EngineContext& ctx,
                                                core::Lsn redo_start);

/// Decodes the DPT stored in the latest stable checkpoint (empty if no
/// checkpoint or a checkpoint without a DPT).
Result<std::map<storage::PageId, core::Lsn>> ReadCheckpointDpt(
    const EngineContext& ctx);

/// Appends a checkpoint record carrying the redo-scan start AND the
/// list of pages the checkpoint staged (System R pointer swing), then
/// forces the log. Forcing this record IS the atomic swing: the staged
/// pages become part of the stable database the instant it commits,
/// and recovery re-materializes them from the staging area even if the
/// copy onto the main disk never finished. Returns the record's LSN —
/// the identity of the swing, which the staging area is tagged with.
Result<core::Lsn> WriteCheckpointRecordWithStagedPages(
    EngineContext& ctx, core::Lsn redo_start,
    const std::vector<storage::PageId>& pages);

/// The staged-page list of the latest stable checkpoint, plus that
/// record's LSN (0 if no checkpoint / no staged list). The LSN lets
/// recovery check the staging area actually belongs to the chosen
/// checkpoint: after media recovery re-anchors to an OLDER checkpoint,
/// the staging area holds newer content and must not be healed from.
struct StagedCheckpoint {
  core::Lsn record_lsn = 0;
  std::vector<storage::PageId> pages;
};
Result<StagedCheckpoint> ReadCheckpointStagedPages(const EngineContext& ctx);

}  // namespace internal_methods
}  // namespace redo::methods

#endif  // REDO_METHODS_COMMON_H_
