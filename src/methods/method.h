// The recovery-method interface.
//
// A recovery method (§6) answers three questions: how an operation is
// logged, how a checkpoint is taken, and how its stable records are
// classified for redo (the redo test, the split shape, §6.4 constraint
// re-arming, the analysis DPT). Recovery itself is shared: every
// restart replays the stable log through methods/analysis.h, shaped
// only by those answers. The six implementations — logical (§6.1),
// physical and partial physical (§6.2), physiological with and without
// the analysis pass (§6.3), and generalized-LSN (§6.4) — are
// interchangeable behind this interface, so the same workloads, crash
// simulator, and checker run against all of them.

#ifndef REDO_METHODS_METHOD_H_
#define REDO_METHODS_METHOD_H_

#include <memory>
#include <optional>
#include <string_view>

#include "engine/engine_options.h"
#include "engine/ops.h"
#include "engine/trace.h"
#include "engine/txn.h"
#include "obs/recovery_trace.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "util/status.h"
#include "wal/log_manager.h"

namespace redo::methods {

/// The engine components a method operates on. Non-owning. Assembled in
/// exactly one place: MiniDb::ctx().
struct EngineContext {
  storage::Disk* disk = nullptr;
  storage::BufferPool* pool = nullptr;
  wal::LogManager* log = nullptr;
  engine::TraceRecorder* trace = nullptr;   ///< optional
  obs::RecoveryTracer* tracer = nullptr;    ///< optional recovery timeline
  engine::EngineOptions options;            ///< execution knobs
  engine::TxnRegistry* txns = nullptr;      ///< optional live-txn table;
                                            ///  when set, checkpoints embed
                                            ///  its snapshot as a tail
  engine::TxnUndoMetrics* undo_metrics = nullptr;  ///< optional sink
};

/// The latest checkpoint on the stable log, read and decoded once per
/// restart and handed to every step that needs it.
struct StableCheckpoint {
  core::Lsn lsn = 0;  ///< the record's LSN; 0 when the log holds none
  engine::CheckpointPayload payload{};  ///< redo start 1 when there is none
};

/// Finds and decodes the latest stable checkpoint record.
Result<StableCheckpoint> ReadStableCheckpoint(const wal::LogManager& log);

class RecoveryMethod {
 public:
  virtual ~RecoveryMethod() = default;

  virtual const char* name() const = 0;

  /// False for methods (System R-style logical recovery) whose stable
  /// state must not change between checkpoints: the cache manager never
  /// spontaneously flushes.
  virtual bool allows_background_flush() const { return true; }

  /// Logs and applies a single-page operation. Returns its LSN.
  virtual Result<core::Lsn> LogAndApply(EngineContext& ctx,
                                        const engine::SinglePageOp& op) = 0;

  /// The LSNs of the two halves of a split (§6.4's P and Q). For the
  /// logical method both are the same record.
  struct SplitLsns {
    core::Lsn split_lsn;
    core::Lsn rewrite_lsn;
  };

  /// Logs and applies a split: dst receives src's moved half, then src
  /// is rewritten to drop it.
  virtual Result<SplitLsns> LogAndApplySplit(EngineContext& ctx,
                                             const engine::SplitOp& op) = 0;

  /// Takes a checkpoint (method-specific mechanics).
  virtual Status Checkpoint(EngineContext& ctx) = 0;

  /// True if the method can take a *fuzzy* checkpoint: one that neither
  /// flushes pages nor quiesces writers (the LSN-tag methods, whose
  /// redo test tolerates a scan start below already-installed work).
  bool supports_fuzzy_checkpoint() const {
    return redo_test_kind() == RedoTestKind::kLsnTag;
  }

  /// Appends — but does NOT force — a checkpoint record capturing the
  /// current redo point (and, when redo_planning().analysis_dpt, the
  /// dirty-page table). The caller must hold whatever barrier makes the
  /// dirty-page snapshot and the append atomic with respect to writers,
  /// and must make the record durable afterwards (the group-commit
  /// pipeline); until then the checkpoint simply does not exist on the
  /// stable log, which is always safe. Returns the record's LSN, or
  /// FailedPrecondition when supports_fuzzy_checkpoint() is false.
  Result<core::Lsn> FuzzyCheckpoint(EngineContext& ctx);

  /// How recovery replays this method's log. The analysis visit, its
  /// plan and the serial log-order replayer (methods/analysis.h) are
  /// the same for every method; each answers only these questions.
  struct RedoPlanning {
    /// One kPageSplit record replays both halves as one atomic task
    /// (the logical method's split shape).
    bool whole_splits = false;
    /// Replayed splits re-arm the §6.4 careful write order.
    bool add_split_constraints = false;
    /// Recovery rebuilds the dirty-page table (§4.3), so redo skips
    /// installed records without page I/O.
    bool analysis_dpt = false;
  };
  virtual RedoPlanning redo_planning() const { return {}; }

  /// Classifies one stable record from the redo start on: Ok if the
  /// method's redo replays or ignores it, Corruption if its log can
  /// never hold it (a physical log holds only images). Default: Ok.
  virtual Status ClassifyRecord(wal::RecordType) const { return Status::Ok(); }

  /// Repairs the stable state before redo reads the log, touching no
  /// cached page (the logical method finishes the staging copy of the
  /// `checkpoint` recovery anchors on). Default: nothing to do.
  virtual Status PrepareStableState(EngineContext&, const StableCheckpoint&) {
    return Status::Ok();
  }

  /// The method's redo test: the rule recovery replays with, and the
  /// formal policy the checker instantiates.
  enum class RedoTestKind {
    kRedoAllSinceCheckpoint,  ///< logical, physical
    kLsnTag,                  ///< physiological, generalized
  };
  virtual RedoTestKind redo_test_kind() const = 0;

  /// The LSN at which this method's recovery scan would start right now
  /// (the latest stable checkpoint's redo start; 1 if none).
  Result<core::Lsn> RedoScanStart(const EngineContext& ctx) const;
};

/// Enumerates the methods for matrix tests/benches.
/// kPhysiologicalAnalysis is kPhysiological plus the §4.3-style ARIES
/// analysis pass: checkpoints carry the dirty page table, and recovery
/// first reconstructs it from the log so the redo scan can skip records
/// without fetching their pages.
/// kPhysicalPartial is §6.2's partial-page-logging variant: it logs
/// only the bytes an update changes (a blind slot poke) instead of the
/// full after-image, falling back to images for whole-page changes
/// (splits, formats). Same redo-all recovery.
enum class MethodKind {
  kLogical,
  kPhysical,
  kPhysiological,
  kGeneralized,
  kPhysiologicalAnalysis,
  kPhysicalPartial,
};
/// Every kind, in declaration order.
inline constexpr MethodKind kMethodKinds[] = {
    MethodKind::kLogical,       MethodKind::kPhysical,
    MethodKind::kPhysiological, MethodKind::kGeneralized,
    MethodKind::kPhysiologicalAnalysis, MethodKind::kPhysicalPartial,
};

/// Per-method construction parameters. Defaults suit every method; a
/// field irrelevant to the chosen kind is ignored.
struct MethodOptions {
  /// Size of the logical method's staging area, in pages. Must cover
  /// the database (kLogical only).
  size_t num_pages = 64;
};

/// The one constructor path for every recovery method.
std::unique_ptr<RecoveryMethod> MakeMethod(MethodKind kind,
                                           const MethodOptions& options = {});
/// The one spelling of each method's name (RecoveryMethod::name()
/// included), and its exact inverse: nullopt for any other name.
const char* MethodKindName(MethodKind kind);
std::optional<MethodKind> ParseMethodKind(std::string_view name);

}  // namespace redo::methods

#endif  // REDO_METHODS_METHOD_H_
