// Parallel-redo planning: decode the stable-log suffix into a task
// list whose dependency structure *is* the paper's write graph (§5).
//
// Two logged operations with no path between them in the write graph
// commute, so recovery may apply them in either order — or concurrently
// (§5, Figures 7–8). For this engine's operations the graph is simple:
// a task conflicts with another iff they touch a common page, so the
// graph decomposes into per-page chains, stitched together by the
// multi-page records (kPageSplit and the generalized B-tree ops) whose
// two pages bridge two chains. BuildTaskDag materializes that graph;
// the scheduler (scheduler.h) executes a linear extension of it.

#ifndef REDO_REDO_PLAN_H_
#define REDO_REDO_PLAN_H_

#include <cstdint>
#include <vector>

#include "core/dag.h"
#include "core/types.h"
#include "engine/ops.h"
#include "engine/txn.h"
#include "storage/page.h"
#include "util/status.h"
#include "wal/log_record.h"

namespace redo::par {

/// How one log record replays.
enum class RedoTaskKind : uint8_t {
  kSinglePage,  ///< one single-page op (incl. unwrapped kLogicalOp)
  kPageImage,   ///< overwrite one page with a logged full image
  kSplitDst,    ///< generalized split (§6.4): read src, write dst
  kWholeSplit,  ///< logical whole split: write dst AND rewrite src
  kClrRestore,  ///< CLR: restore each action's page (absolute, blind)
};

/// One planned unit of redo work, in log order.
struct RedoTask {
  core::Lsn lsn = core::kNullLsn;
  RedoTaskKind kind = RedoTaskKind::kSinglePage;
  engine::SinglePageOp op;          ///< kSinglePage
  engine::SplitOp split;            ///< kSplitDst / kWholeSplit
  storage::PageId image_page = 0;   ///< kPageImage
  /// kPageImage: the record payload (page-id header + raw page bytes),
  /// kept encoded so the 4KB image decode happens on the worker that
  /// installs it — planning stays O(records) in cheap header peeks and
  /// the expensive byte movement parallelizes.
  std::vector<uint8_t> image_payload;
  /// kClrRestore: the compensation record's absolute restores. Each
  /// action touches exactly one page, so workers apply the actions whose
  /// pages they own with no cross-worker hand-off (unlike splits, no
  /// value flows between the pages).
  std::vector<engine::UndoAction> clr_actions;

  /// Pages the task writes (write-graph conflict set).
  std::vector<storage::PageId> Writes() const;
  /// Pages the task reads without writing them.
  std::vector<storage::PageId> Reads() const;
};

struct RedoPlan {
  std::vector<RedoTask> tasks;    ///< ascending LSN
  size_t multi_page_tasks = 0;    ///< tasks touching two pages (splits)
};

/// The first-touch rule, shared by the parallel scheduler and the
/// instant-restart drain (instant.h) so the two cannot drift apart: true
/// when replaying `task` under redo-all overwrites every byte of `page`
/// without reading it — a page image, or the dst of a whole split whose
/// transform does not read dst. The page's stable bytes are then dead
/// (§6.2: a physical write's target is unexposed), so the replay may
/// install a zeroed frame instead of reading the page (FetchBlind). An
/// LSN-tested replay must read the page LSN, so the rule never applies.
bool BlindFirstTouch(const RedoTask& task, storage::PageId page,
                     bool redo_all);

/// Decodes the stable-log suffix into a plan. `whole_splits` selects the
/// logical method's record shape: one kPageSplit record replays both
/// halves (dst := P(src), then the src rewrite Q) as a single atomic
/// task; otherwise the record writes dst only and the rewrite arrives
/// as its own single-page record. kLogicalOp records are unwrapped to
/// their inner single-page op; checkpoints are skipped. Takes the
/// records by value so image payloads move into the plan instead of
/// being copied — planning is a serial section, so it must not pay a
/// per-image memcpy.
Result<RedoPlan> BuildRedoPlan(std::vector<wal::LogRecord> records,
                               bool whole_splits);

/// The plan's write graph over task indices. Edge rule (§5): two tasks
/// conflict iff they touch a common page (read-write or write-write),
/// and conflicting tasks are ordered low LSN -> high LSN, so the graph
/// is acyclic by construction. Only chain edges are added (each page's
/// consecutive touchers); the transitive closure equals the full
/// conflict order. Any linear extension is a correct redo order — the
/// scheduler realizes one by keeping each worker in LSN order and
/// handing split pages across workers.
core::Dag BuildTaskDag(const RedoPlan& plan);

}  // namespace redo::par

#endif  // REDO_REDO_PLAN_H_
