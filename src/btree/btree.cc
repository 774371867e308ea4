#include "btree/btree.h"

#include <algorithm>

#include "btree/node_format.h"

namespace redo::btree {

namespace {

using engine::MakeBtreeInit;
using engine::MakeBtreeInsert;
using engine::MakeBtreeRemove;
using engine::SplitOp;
using engine::SplitTransform;
using storage::Page;

// Routes `key` to a child of an internal node: the child of the last
// entry with key <= `key`, or the leftmost child if none.
uint32_t ChildFor(const NodeRef& node, int64_t key) {
  const uint32_t idx = node.LowerBound(key);
  if (idx < node.count() && node.key(idx) == key) return node.child(idx);
  if (idx == 0) return node.aux();
  return node.child(idx - 1);
}

}  // namespace

void BtreeOpStats::EmitMetrics(obs::MetricEmitter& emit) const {
  emit.Counter("inserts", inserts);
  emit.Counter("lookups", lookups);
  emit.Counter("removes", removes);
  emit.Counter("scans", scans);
  emit.Counter("node_splits", node_splits);
  emit.Counter("leaf_merges", leaf_merges);
  emit.Counter("pages_allocated", pages_allocated);
  emit.Counter("pages_freed", pages_freed);
}

void BtreeOpStats::RegisterMetrics(obs::MetricsRegistry& registry,
                                   const std::string& prefix) {
  registry.Register(
      prefix, [this](obs::MetricEmitter& emit) { EmitMetrics(emit); },
      [this]() { *this = BtreeOpStats{}; });
}

Result<Btree> Btree::Create(engine::MiniDb* db) {
  REDO_CHECK(db != nullptr);
  if (db->num_pages() < 3) {
    return Status::InvalidArgument("btree needs at least 3 pages");
  }
  engine::MiniDb::Session session = db->NewSession();
  REDO_RETURN_IF_ERROR(session.Apply(engine::MakeBlindFormat(kMetaPage, 0)).status());
  REDO_RETURN_IF_ERROR(session.WriteSlot(kMetaPage, kMagicSlot, kMagic).status());
  REDO_RETURN_IF_ERROR(session.WriteSlot(kMetaPage, kRootSlot, 1).status());
  REDO_RETURN_IF_ERROR(session.WriteSlot(kMetaPage, kNextFreeSlot, 2).status());
  REDO_RETURN_IF_ERROR(session.WriteSlot(kMetaPage, kHeightSlot, 1).status());
  REDO_RETURN_IF_ERROR(
      session.Apply(MakeBtreeInit(1, /*is_leaf=*/true, /*aux=*/0)).status());
  return Btree(db);
}

Result<Btree> Btree::Open(engine::MiniDb* db) {
  REDO_CHECK(db != nullptr);
  Btree tree(db);
  Result<int64_t> magic = tree.ReadMeta(kMagicSlot);
  if (!magic.ok()) return magic.status();
  if (magic.value() != kMagic) {
    return Status::Corruption("btree meta page magic mismatch");
  }
  return tree;
}

Result<int64_t> Btree::ReadMeta(uint32_t slot) {
  Result<Page*> meta = db_->FetchPage(kMetaPage);
  if (!meta.ok()) return meta.status();
  return meta.value()->ReadSlot(slot);
}

Result<PageId> Btree::root() {
  Result<int64_t> r = ReadMeta(kRootSlot);
  if (!r.ok()) return r.status();
  return static_cast<PageId>(r.value());
}

Result<PageId> Btree::AllocatePage(engine::MiniDb::Session& session) {
  // Reuse freed pages first.
  Result<int64_t> free_count = ReadMeta(kFreeCountSlot);
  if (!free_count.ok()) return free_count.status();
  if (free_count.value() > 0) {
    Result<int64_t> top = ReadMeta(
        kFreeStackBase + static_cast<uint32_t>(free_count.value()) - 1);
    if (!top.ok()) return top.status();
    REDO_RETURN_IF_ERROR(
        session.WriteSlot(kMetaPage, kFreeCountSlot, free_count.value() - 1)
            .status());
    if (op_stats_ != nullptr) ++op_stats_->pages_allocated;
    return static_cast<PageId>(top.value());
  }
  Result<int64_t> next = ReadMeta(kNextFreeSlot);
  if (!next.ok()) return next.status();
  if (static_cast<size_t>(next.value()) >= db_->num_pages()) {
    return Status::OutOfRange("btree: out of pages");
  }
  REDO_RETURN_IF_ERROR(
      session.WriteSlot(kMetaPage, kNextFreeSlot, next.value() + 1).status());
  if (op_stats_ != nullptr) ++op_stats_->pages_allocated;
  return static_cast<PageId>(next.value());
}

Status Btree::FreePage(engine::MiniDb::Session& session, PageId page) {
  Result<int64_t> free_count = ReadMeta(kFreeCountSlot);
  if (!free_count.ok()) return free_count.status();
  const uint32_t slot = kFreeStackBase + static_cast<uint32_t>(free_count.value());
  if (slot >= storage::Page::NumSlots()) {
    return Status::Ok();  // free stack full: leak the page (harmless)
  }
  REDO_RETURN_IF_ERROR(session.WriteSlot(kMetaPage, slot, page).status());
  if (op_stats_ != nullptr) ++op_stats_->pages_freed;
  return session.WriteSlot(kMetaPage, kFreeCountSlot, free_count.value() + 1)
      .status();
}

Status Btree::Insert(int64_t key, int64_t value) {
  if (op_stats_ != nullptr) ++op_stats_->inserts;
  engine::MiniDb::Session session = db_->NewSession();
  // Grow the root first if it is full (preemptive splitting keeps every
  // parent non-full when a child splits).
  for (;;) {
    Result<PageId> root_page = root();
    if (!root_page.ok()) return root_page.status();
    Result<Page*> root_node = db_->FetchPage(root_page.value());
    if (!root_node.ok()) return root_node.status();
    const NodeRef node(*root_node.value());
    if (node.count() < NodeRef::Capacity()) break;

    // Split the root and grow the tree by one level.
    const int64_t separator = node.SeparatorKey();
    Result<PageId> new_right = AllocatePage(session);
    if (!new_right.ok()) return new_right.status();
    REDO_RETURN_IF_ERROR(
        session.Split(SplitOp{SplitTransform::kBtreeNode, root_page.value(),
                           new_right.value()})
            .status());
    if (op_stats_ != nullptr) ++op_stats_->node_splits;
    Result<PageId> new_root = AllocatePage(session);
    if (!new_root.ok()) return new_root.status();
    REDO_RETURN_IF_ERROR(
        session.Apply(MakeBtreeInit(new_root.value(), /*is_leaf=*/false,
                                 /*aux=*/root_page.value()))
            .status());
    REDO_RETURN_IF_ERROR(
        session.Apply(MakeBtreeInsert(new_root.value(), separator,
                                   static_cast<int64_t>(new_right.value())))
            .status());
    REDO_RETURN_IF_ERROR(
        session.WriteSlot(kMetaPage, kRootSlot, new_root.value()).status());
    Result<int64_t> height = ReadMeta(kHeightSlot);
    if (!height.ok()) return height.status();
    REDO_RETURN_IF_ERROR(
        session.WriteSlot(kMetaPage, kHeightSlot, height.value() + 1).status());
  }

  // Descend, splitting any full child before stepping into it.
  Result<PageId> current = root();
  if (!current.ok()) return current.status();
  PageId page = current.value();
  for (;;) {
    Result<Page*> fetched = db_->FetchPage(page);
    if (!fetched.ok()) return fetched.status();
    const NodeRef node(*fetched.value());
    if (!node.initialized()) {
      return Status::Corruption("btree descended into uninitialized page " +
                                std::to_string(page));
    }
    if (node.is_leaf()) {
      REDO_CHECK_LT(node.count(), NodeRef::Capacity());
      return session.Apply(MakeBtreeInsert(page, key, value)).status();
    }
    PageId child = ChildFor(node, key);

    Result<Page*> child_fetched = db_->FetchPage(child);
    if (!child_fetched.ok()) return child_fetched.status();
    const uint32_t child_count = NodeRef(*child_fetched.value()).count();
    if (child_count == NodeRef::Capacity()) {
      // Split the child; the current node has room for the separator.
      const int64_t separator = NodeRef(*child_fetched.value()).SeparatorKey();
      Result<PageId> new_right = AllocatePage(session);
      if (!new_right.ok()) return new_right.status();
      REDO_RETURN_IF_ERROR(
          session.Split(SplitOp{SplitTransform::kBtreeNode, child,
                             new_right.value()})
              .status());
      if (op_stats_ != nullptr) ++op_stats_->node_splits;
      REDO_RETURN_IF_ERROR(
          session.Apply(MakeBtreeInsert(page, separator,
                                     static_cast<int64_t>(new_right.value())))
              .status());
      if (key >= separator) child = new_right.value();
    }
    page = child;
  }
}

Result<std::optional<int64_t>> Btree::Lookup(int64_t key) {
  if (op_stats_ != nullptr) ++op_stats_->lookups;
  Result<PageId> current = root();
  if (!current.ok()) return current.status();
  PageId page = current.value();
  for (;;) {
    Result<Page*> fetched = db_->FetchPage(page);
    if (!fetched.ok()) return fetched.status();
    const NodeRef node(*fetched.value());
    if (!node.initialized()) {
      return Status::Corruption("btree lookup hit uninitialized page");
    }
    if (node.is_leaf()) {
      const uint32_t idx = node.LowerBound(key);
      if (idx < node.count() && node.key(idx) == key) {
        return std::optional<int64_t>(node.value(idx));
      }
      return std::optional<int64_t>();
    }
    page = ChildFor(node, key);
  }
}

Status Btree::Remove(int64_t key) {
  if (op_stats_ != nullptr) ++op_stats_->removes;
  engine::MiniDb::Session session = db_->NewSession();
  Result<PageId> current = root();
  if (!current.ok()) return current.status();
  PageId page = current.value();
  std::vector<PageId> path;
  for (;;) {
    path.push_back(page);
    Result<Page*> fetched = db_->FetchPage(page);
    if (!fetched.ok()) return fetched.status();
    const NodeRef node(*fetched.value());
    if (node.is_leaf()) {
      REDO_RETURN_IF_ERROR(session.Apply(MakeBtreeRemove(page, key)).status());
      Result<Page*> refetched = db_->FetchPage(page);
      if (!refetched.ok()) return refetched.status();
      if (path.size() > 1 &&
          NodeRef(*refetched.value()).count() < NodeRef::Capacity() / 4) {
        return MaybeMergeLeaf(session, path);
      }
      return Status::Ok();
    }
    page = ChildFor(node, key);
  }
}

Status Btree::MaybeMergeLeaf(engine::MiniDb::Session& session,
                             const std::vector<PageId>& path) {
  REDO_CHECK_GE(path.size(), 2u);
  const PageId leaf = path.back();
  const PageId parent = path[path.size() - 2];

  // Copy the parent's routing info out (fetches below invalidate it).
  Result<Page*> parent_fetched = db_->FetchPage(parent);
  if (!parent_fetched.ok()) return parent_fetched.status();
  const NodeRef parent_node(*parent_fetched.value());
  const uint32_t parent_count = parent_node.count();
  const uint32_t parent_leftmost = parent_node.aux();
  std::vector<int64_t> parent_keys(parent_count);
  std::vector<uint32_t> parent_children(parent_count);
  for (uint32_t i = 0; i < parent_count; ++i) {
    parent_keys[i] = parent_node.key(i);
    parent_children[i] = parent_node.child(i);
  }

  // Pick the merge pair: the leaf and its left-adjacent sibling (or the
  // right-adjacent one when the leaf is the leftmost child).
  PageId left, right;
  uint32_t separator_index;  // parent entry whose child is `right`
  if (parent_leftmost == leaf) {
    if (parent_count == 0) return Status::Ok();  // no sibling
    left = leaf;
    right = parent_children[0];
    separator_index = 0;
  } else {
    uint32_t pos = parent_count;
    for (uint32_t i = 0; i < parent_count; ++i) {
      if (parent_children[i] == leaf) {
        pos = i;
        break;
      }
    }
    if (pos == parent_count) {
      return Status::Corruption("btree: leaf not found under its parent");
    }
    left = pos == 0 ? parent_leftmost : parent_children[pos - 1];
    right = leaf;
    separator_index = pos;
  }

  // Both nodes must be leaves with jointly fitting entries.
  Result<Page*> left_fetched = db_->FetchPage(left);
  if (!left_fetched.ok()) return left_fetched.status();
  const uint32_t left_count = NodeRef(*left_fetched.value()).count();
  const bool left_is_leaf = NodeRef(*left_fetched.value()).is_leaf();
  Result<Page*> right_fetched = db_->FetchPage(right);
  if (!right_fetched.ok()) return right_fetched.status();
  const uint32_t right_count = NodeRef(*right_fetched.value()).count();
  const bool right_is_leaf = NodeRef(*right_fetched.value()).is_leaf();
  if (!left_is_leaf || !right_is_leaf ||
      left_count + right_count > NodeRef::Capacity()) {
    return Status::Ok();
  }

  // The §6.4-class merge: read `right`, write `left`, then empty `right`
  // (the cache manager orders left-before-right under generalized-LSN).
  REDO_RETURN_IF_ERROR(
      session.Split(SplitOp{SplitTransform::kBtreeMerge, right, left}).status());
  if (op_stats_ != nullptr) ++op_stats_->leaf_merges;
  REDO_RETURN_IF_ERROR(
      session.Apply(MakeBtreeRemove(parent, parent_keys[separator_index]))
          .status());
  REDO_RETURN_IF_ERROR(FreePage(session, right));

  // Root collapse: an empty internal root hands the tree to its only
  // child.
  if (parent == path.front()) {
    Result<Page*> root_fetched = db_->FetchPage(parent);
    if (!root_fetched.ok()) return root_fetched.status();
    const NodeRef root_node(*root_fetched.value());
    if (!root_node.is_leaf() && root_node.count() == 0) {
      const uint32_t only_child = root_node.aux();
      REDO_RETURN_IF_ERROR(
          session.WriteSlot(kMetaPage, kRootSlot, only_child).status());
      Result<int64_t> height = ReadMeta(kHeightSlot);
      if (!height.ok()) return height.status();
      REDO_RETURN_IF_ERROR(
          session.WriteSlot(kMetaPage, kHeightSlot, height.value() - 1).status());
      REDO_RETURN_IF_ERROR(FreePage(session, parent));
    }
  }
  return Status::Ok();
}

Result<std::vector<std::pair<int64_t, int64_t>>> Btree::Scan(int64_t lo,
                                                             int64_t hi) {
  if (op_stats_ != nullptr) ++op_stats_->scans;
  std::vector<std::pair<int64_t, int64_t>> out;
  Result<PageId> current = root();
  if (!current.ok()) return current.status();
  PageId page = current.value();
  // Descend to the leaf covering lo.
  for (;;) {
    Result<Page*> fetched = db_->FetchPage(page);
    if (!fetched.ok()) return fetched.status();
    const NodeRef node(*fetched.value());
    if (node.is_leaf()) break;
    page = ChildFor(node, lo);
  }
  // Walk the sibling chain.
  while (page != 0) {
    Result<Page*> fetched = db_->FetchPage(page);
    if (!fetched.ok()) return fetched.status();
    const NodeRef node(*fetched.value());
    bool past_hi = false;
    for (uint32_t i = 0; i < node.count(); ++i) {
      const int64_t k = node.key(i);
      if (k > hi) {
        past_hi = true;
        break;
      }
      if (k >= lo) out.emplace_back(k, node.value(i));
    }
    if (past_hi) break;
    page = node.aux();
  }
  return out;
}

Result<size_t> Btree::Size() {
  Result<PageId> current = root();
  if (!current.ok()) return current.status();
  PageId page = current.value();
  for (;;) {
    Result<Page*> fetched = db_->FetchPage(page);
    if (!fetched.ok()) return fetched.status();
    const NodeRef node(*fetched.value());
    if (node.is_leaf()) break;
    page = node.aux();  // leftmost child
  }
  size_t total = 0;
  while (page != 0) {
    Result<Page*> fetched = db_->FetchPage(page);
    if (!fetched.ok()) return fetched.status();
    const NodeRef node(*fetched.value());
    total += node.count();
    page = node.aux();
  }
  return total;
}

Result<uint32_t> Btree::Height() {
  Result<int64_t> h = ReadMeta(kHeightSlot);
  if (!h.ok()) return h.status();
  return static_cast<uint32_t>(h.value());
}

Result<uint32_t> Btree::AllocatedPages() {
  Result<int64_t> n = ReadMeta(kNextFreeSlot);
  if (!n.ok()) return n.status();
  return static_cast<uint32_t>(n.value());
}

Status Btree::ValidateStructure() {
  Result<PageId> root_page = root();
  if (!root_page.ok()) return root_page.status();
  Result<uint32_t> height = Height();
  if (!height.ok()) return height.status();
  std::vector<PageId> leaves;
  REDO_RETURN_IF_ERROR(ValidateSubtree(root_page.value(), 1, height.value(),
                                       std::nullopt, std::nullopt, &leaves));
  // The leaf chain must link the leaves in left-to-right order.
  for (size_t i = 0; i < leaves.size(); ++i) {
    Result<Page*> fetched = db_->FetchPage(leaves[i]);
    if (!fetched.ok()) return fetched.status();
    const uint32_t sibling = NodeRef(*fetched.value()).aux();
    const uint32_t expected = i + 1 < leaves.size() ? leaves[i + 1] : 0;
    if (sibling != expected) {
      return Status::FailedPrecondition(
          "leaf chain broken at page " + std::to_string(leaves[i]) +
          ": sibling " + std::to_string(sibling) + " expected " +
          std::to_string(expected));
    }
  }
  return Status::Ok();
}

Result<Btree::Stats> Btree::ComputeStats() {
  Stats stats;
  Result<uint32_t> height = Height();
  if (!height.ok()) return height.status();
  stats.height = height.value();

  // Internal nodes via recursion-free BFS over levels; leaves via chain.
  Result<PageId> current = root();
  if (!current.ok()) return current.status();
  std::vector<PageId> level = {current.value()};
  for (uint32_t depth = 1; depth < stats.height; ++depth) {
    std::vector<PageId> next;
    for (PageId page : level) {
      Result<storage::Page*> fetched = db_->FetchPage(page);
      if (!fetched.ok()) return fetched.status();
      const NodeRef node(*fetched.value());
      ++stats.internal_nodes;
      std::vector<PageId> children = {node.aux()};
      for (uint32_t i = 0; i < node.count(); ++i) {
        children.push_back(node.child(i));
      }
      next.insert(next.end(), children.begin(), children.end());
    }
    level = std::move(next);
  }
  double fill_sum = 0;
  for (PageId page : level) {
    Result<storage::Page*> fetched = db_->FetchPage(page);
    if (!fetched.ok()) return fetched.status();
    const NodeRef node(*fetched.value());
    ++stats.leaf_nodes;
    stats.entries += node.count();
    fill_sum += static_cast<double>(node.count()) / NodeRef::Capacity();
  }
  stats.leaf_fill = stats.leaf_nodes > 0 ? fill_sum / stats.leaf_nodes : 0.0;
  return stats;
}

int64_t Btree::Cursor::key() const {
  REDO_CHECK(Valid());
  storage::Page* page = db_->FetchPage(page_).value();
  return NodeRef(*page).key(index_);
}

int64_t Btree::Cursor::value() const {
  REDO_CHECK(Valid());
  storage::Page* page = db_->FetchPage(page_).value();
  return NodeRef(*page).value(index_);
}

Status Btree::Cursor::SkipExhaustedLeaves() {
  while (page_ != 0) {
    Result<storage::Page*> fetched = db_->FetchPage(page_);
    if (!fetched.ok()) return fetched.status();
    const NodeRef node(*fetched.value());
    if (index_ < node.count()) return Status::Ok();
    page_ = node.aux();
    index_ = 0;
  }
  return Status::Ok();
}

Status Btree::Cursor::Next() {
  if (!Valid()) return Status::Ok();
  ++index_;
  return SkipExhaustedLeaves();
}

Result<Btree::Cursor> Btree::Seek(int64_t lo) {
  Result<PageId> current = root();
  if (!current.ok()) return current.status();
  PageId page = current.value();
  for (;;) {
    Result<storage::Page*> fetched = db_->FetchPage(page);
    if (!fetched.ok()) return fetched.status();
    const NodeRef node(*fetched.value());
    if (node.is_leaf()) {
      Cursor cursor(db_, page, node.LowerBound(lo));
      REDO_RETURN_IF_ERROR(cursor.SkipExhaustedLeaves());
      return cursor;
    }
    page = ChildFor(node, lo);
  }
}

Status Btree::ValidateSubtree(PageId page, uint32_t depth, uint32_t height,
                              std::optional<int64_t> lo,
                              std::optional<int64_t> hi,
                              std::vector<PageId>* leftmost_leaves) {
  Result<Page*> fetched = db_->FetchPage(page);
  if (!fetched.ok()) return fetched.status();
  // Copy out header info; recursion below invalidates the pointer.
  const NodeRef node(*fetched.value());
  if (!node.initialized()) {
    return Status::FailedPrecondition("page " + std::to_string(page) +
                                      " is not a btree node");
  }
  const bool is_leaf = node.is_leaf();
  const uint32_t count = node.count();
  const uint32_t aux = node.aux();
  std::vector<int64_t> keys(count);
  std::vector<uint64_t> payloads(count);
  for (uint32_t i = 0; i < count; ++i) {
    keys[i] = node.key(i);
    payloads[i] = node.payload(i);
  }

  for (uint32_t i = 0; i < count; ++i) {
    if (i > 0 && keys[i - 1] >= keys[i]) {
      return Status::FailedPrecondition("keys out of order in page " +
                                        std::to_string(page));
    }
    if ((lo.has_value() && keys[i] < *lo) || (hi.has_value() && keys[i] >= *hi)) {
      return Status::FailedPrecondition("key outside separator bounds in page " +
                                        std::to_string(page));
    }
  }

  if (is_leaf) {
    if (depth != height) {
      return Status::FailedPrecondition("leaf at wrong depth: page " +
                                        std::to_string(page));
    }
    leftmost_leaves->push_back(page);
    return Status::Ok();
  }
  if (depth >= height) {
    return Status::FailedPrecondition("internal node at leaf depth: page " +
                                      std::to_string(page));
  }
  // Leftmost child covers [lo, keys[0]); child i covers [keys[i], keys[i+1]).
  REDO_RETURN_IF_ERROR(ValidateSubtree(
      aux, depth + 1, height, lo,
      count > 0 ? std::optional<int64_t>(keys[0]) : hi, leftmost_leaves));
  for (uint32_t i = 0; i < count; ++i) {
    const std::optional<int64_t> child_hi =
        i + 1 < count ? std::optional<int64_t>(keys[i + 1]) : hi;
    REDO_RETURN_IF_ERROR(ValidateSubtree(static_cast<PageId>(payloads[i]),
                                         depth + 1, height,
                                         std::optional<int64_t>(keys[i]),
                                         child_hi, leftmost_leaves));
  }
  return Status::Ok();
}

}  // namespace redo::btree
