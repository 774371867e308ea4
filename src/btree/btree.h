// A B-tree over the MiniDb engine — the application §6.4 motivates.
//
// All structural changes are logged through the engine's recovery
// method, so the same tree works under logical, physical, physiological,
// and generalized-LSN recovery. Every mutating call opens one engine
// Session and issues its records through it, so the tree takes the same
// op gate, page latches and Dispatch path as any other client; no
// session outlives the call (Recover() refuses while handles are
// alive). Node splits are Session splits, which the physiological
// method logs as a full physical image of the new node plus a rewrite,
// and the generalized method logs as one small split record plus a
// rewrite with a cache-manager write-order constraint (new node to disk
// before the old node is overwritten).
//
// Simplifications relative to a production tree (documented in
// DESIGN.md): fixed-size int64 keys/values, no underflow merging on
// delete, and no structure-modification atomicity across records — a
// crash may land between a child split and the parent's separator
// insert, in which case recovery restores exactly the logged prefix (a
// half-finished split). Page-level recovery correctness is the paper's
// subject; SMO atomicity (nested top actions) is orthogonal.

#ifndef REDO_BTREE_BTREE_H_
#define REDO_BTREE_BTREE_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/minidb.h"
#include "obs/metrics.h"

namespace redo::btree {

using storage::PageId;

/// B-tree operation counters. Owned by the caller (Btree handles are
/// copyable values; the stats sink outlives them) and attached with
/// set_op_stats; registerable as a metrics source like every other
/// stats struct.
struct BtreeOpStats {
  uint64_t inserts = 0;
  uint64_t lookups = 0;
  uint64_t removes = 0;
  uint64_t scans = 0;
  uint64_t node_splits = 0;   ///< preemptive splits during descent (incl. root)
  uint64_t leaf_merges = 0;   ///< underflow merges on remove
  uint64_t pages_allocated = 0;
  uint64_t pages_freed = 0;

  /// Emits every counter (metrics-registry source enumeration).
  void EmitMetrics(obs::MetricEmitter& emit) const;

  /// Registers this struct as a source named `prefix`. The struct must
  /// outlive the registry or be unregistered first.
  void RegisterMetrics(obs::MetricsRegistry& registry,
                       const std::string& prefix = "btree");
};

class Btree {
 public:
  /// Page 0 is the meta page (root pointer, page allocator, height).
  static constexpr PageId kMetaPage = 0;

  /// Formats a fresh tree on `db` (meta page + an empty root leaf).
  static Result<Btree> Create(engine::MiniDb* db);

  /// Opens an existing tree (e.g. after recovery).
  static Result<Btree> Open(engine::MiniDb* db);

  /// Inserts or overwrites (key, value). Splits full nodes on the way.
  Status Insert(int64_t key, int64_t value);

  /// Returns the value for key, or nullopt.
  Result<std::optional<int64_t>> Lookup(int64_t key);

  /// Removes key (no-op if absent). Underflowing leaves are merged into
  /// their left-adjacent sibling when the combined entries fit (a
  /// §6.4-class cross-page operation: the merge record reads the right
  /// node and writes the left, and under generalized-LSN recovery the
  /// cache manager must write the left node before the emptied right
  /// one). Freed pages return to a free list on the meta page. Internal
  /// nodes are not rebalanced (they shrink only when the root collapses).
  Status Remove(int64_t key);

  /// All (key, value) pairs with lo <= key <= hi, in key order, via the
  /// leaf sibling chain.
  Result<std::vector<std::pair<int64_t, int64_t>>> Scan(int64_t lo, int64_t hi);

  /// Total number of entries (walks the leaf chain).
  Result<size_t> Size();

  /// Tree height (1 = root is a leaf).
  Result<uint32_t> Height();

  /// Pages allocated so far (including meta).
  Result<uint32_t> AllocatedPages();

  /// Structural invariants: node keys sorted, separators bound subtree
  /// keys, uniform leaf depth, leaf chain sorted left-to-right. Returns
  /// FailedPrecondition with a description on violation.
  Status ValidateStructure();

  /// Occupancy statistics (walks the whole tree).
  struct Stats {
    uint32_t height = 0;
    uint32_t leaf_nodes = 0;
    uint32_t internal_nodes = 0;
    size_t entries = 0;
    double leaf_fill = 0.0;  ///< mean leaf occupancy in [0,1]
  };
  Result<Stats> ComputeStats();

  /// A forward cursor over the leaf chain. Invalidated by any mutation
  /// of the tree.
  class Cursor {
   public:
    bool Valid() const { return page_ != 0; }
    int64_t key() const;
    int64_t value() const;
    /// Advances to the next entry (leaf-chain order). No-op when done.
    Status Next();

   private:
    friend class Btree;
    Cursor(engine::MiniDb* db, PageId page, uint32_t index)
        : db_(db), page_(page), index_(index) {}
    Status SkipExhaustedLeaves();

    engine::MiniDb* db_;
    PageId page_;     ///< 0 = end
    uint32_t index_;
  };

  /// A cursor positioned at the first entry with key >= `lo` (end cursor
  /// if none).
  Result<Cursor> Seek(int64_t lo);

  /// Attaches an operation-counter sink (not owned; nullptr detaches).
  void set_op_stats(BtreeOpStats* stats) { op_stats_ = stats; }

 private:
  explicit Btree(engine::MiniDb* db) : db_(db) {}

  // Meta page slots. Freed pages form a stack at kFreeStackBase.
  static constexpr uint32_t kMagicSlot = 0;
  static constexpr uint32_t kRootSlot = 1;
  static constexpr uint32_t kNextFreeSlot = 2;
  static constexpr uint32_t kHeightSlot = 3;
  static constexpr uint32_t kFreeCountSlot = 4;
  static constexpr uint32_t kFreeStackBase = 8;
  static constexpr int64_t kMagic = 0x42547265'65313131;  // "BTree111"

  /// Reads a meta-page slot through the cache (a read, not an op).
  Result<int64_t> ReadMeta(uint32_t slot);
  Result<PageId> root();
  Result<PageId> AllocatePage(engine::MiniDb::Session& session);
  Status FreePage(engine::MiniDb::Session& session, PageId page);

  /// Merges the underflowing leaf into its left-adjacent sibling (or its
  /// right sibling into it, when the leaf is the leftmost child) if the
  /// combined entries fit; updates the parent and frees the emptied
  /// page; collapses the root when it empties. `path` is the descent
  /// path from the root to the leaf.
  Status MaybeMergeLeaf(engine::MiniDb::Session& session,
                        const std::vector<PageId>& path);

  Status ValidateSubtree(PageId page, uint32_t depth, uint32_t height,
                         std::optional<int64_t> lo, std::optional<int64_t> hi,
                         std::vector<PageId>* leftmost_leaves);

  engine::MiniDb* db_;
  BtreeOpStats* op_stats_ = nullptr;
};

}  // namespace redo::btree

#endif  // REDO_BTREE_BTREE_H_
