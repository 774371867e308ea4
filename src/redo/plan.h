// Redo planning: the restart analysis visit (methods/analysis.h)
// decodes the stable-log suffix into a task list whose dependency
// structure *is* the paper's write graph (§5).
//
// Two logged operations with no path between them in the write graph
// commute, so recovery may apply them in either order — or concurrently
// (§5, Figures 7–8). For this engine's operations the graph is simple:
// a task conflicts with another iff they touch a common page, so the
// graph decomposes into per-page chains, stitched together by the
// multi-page records (kPageSplit and the generalized B-tree ops) whose
// two pages bridge two chains. InstantRedoDriver (instant.h) keeps those
// chains and executes a linear extension of the graph they form.

#ifndef REDO_REDO_PLAN_H_
#define REDO_REDO_PLAN_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "engine/ops.h"
#include "engine/txn.h"
#include "storage/page.h"
#include "util/status.h"
#include "wal/log_record.h"

namespace redo::wal {
class LogManager;
}  // namespace redo::wal

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
  /// kPageImage: the record payload (engine/ops.h's image format),
  /// copied once by RedoPlanBuilder::Finish (empty when superseded) and
  /// kept encoded: whichever drain replays it installs the page straight
  /// from these bytes.
  std::vector<uint8_t> image_payload;
  /// kClrRestore: the compensation record's absolute restores. Each
  /// action touches exactly one page, and no value flows between the
  /// pages (unlike a split's).
  std::vector<engine::UndoAction> clr_actions;
  /// kPageImage under the redo-all test: a later image of the same page
  /// follows, and no task in between touches the page, so this image is
  /// unexposed (§2.3) — blind-overwritten before any read (§7). The task
  /// keeps its place and its verdict; its payload is never copied, and
  /// the drain installs nothing for it.
  bool superseded = false;

  /// Pages the task writes (write-graph conflict set).
  std::vector<storage::PageId> Writes() const;
  /// Pages the task reads without writing them.
  std::vector<storage::PageId> Reads() const;
};

/// The first-touch rule, under either redo test: true when replaying
/// `task` does not depend on `page`'s prior bytes. That is a page image
/// of `page`, the dst of a whole split whose transform does not read
/// dst, or a born op (engine::SinglePageOp::born: logged onto the zero
/// page). Such a page is fetched with FetchBlind: a hit is the cached
/// frame, LSN-tested as any other, and a miss starts from the zero page
/// without a read. Both replayers ask it after the analysis-DPT skip
/// has run. Starting from zeros is correct because the plan holds every
/// later record on the page: an image or a split's dst overwrites every
/// byte (§6.2), and a born op first read the zero page when it ran, so
/// the stable page is unexposed (§2.3, §3.3).
bool BlindFirstTouch(const RedoTask& task, storage::PageId page);

struct RedoPlan {
  std::vector<RedoTask> tasks;    ///< ascending LSN
  size_t multi_page_tasks = 0;    ///< tasks touching two pages (splits)
  size_t images_superseded = 0;   ///< kPageImage tasks marked superseded
};

/// Decodes one stable record into its redo task, or nullopt for a
/// record that carries no redo work (checkpoints, transaction
/// metadata). `whole_splits` selects the logical method's record shape:
/// one kPageSplit record replays both halves (dst := P(src), then the
/// src rewrite Q) as a single atomic task; otherwise the record writes
/// dst only and the rewrite arrives as its own single-page record.
/// kLogicalOp records are unwrapped to their inner single-page op. A
/// page image's task carries only its page id: the record is visited
/// in place, and RedoPlanBuilder::Finish copies the payloads it keeps.
Result<std::optional<RedoTask>> DecodeRedoTask(const wal::LogRecord& record,
                                               bool whole_splits);

/// Builds a plan from tasks decoded during one in-place visit of the
/// stable log, in LSN order. Under the redo-all test it also applies
/// the supersession rule: an image followed by a later image of the
/// same page, with no task touching that page in between, is marked
/// superseded (§2.3: installing it and then the later one leaves the
/// same page as installing the later one alone). The LSN test never
/// supersedes: a superseded image's verdict is applied, where the test
/// skips an image its cached page already holds.
class RedoPlanBuilder {
 public:
  explicit RedoPlanBuilder(bool supersede_images)
      : supersede_images_(supersede_images) {}

  /// Appends `task`, whose LSN exceeds every task added so far.
  void Add(RedoTask task);

  /// Completes the plan: copies each surviving image's payload out of
  /// `log` once, by LSN (StableRecordAt). Superseded images copy
  /// nothing. Corruption if a planned image cannot be read back.
  Result<RedoPlan> Finish(const wal::LogManager& log) &&;

 private:
  const bool supersede_images_;
  RedoPlan plan_;
  /// Per page: the index of the last task touching it (redo-all only).
  std::unordered_map<storage::PageId, size_t> last_toucher_;
};

}  // namespace redo::par

#endif  // REDO_REDO_PLAN_H_
