// B-tree deletion with leaf merging: the §6.4-class merge operation,
// free-page recycling, and root collapse.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "btree/btree.h"
#include "btree/node_format.h"
#include "util/rng.h"
#include "method_param_name.h"

namespace redo::btree {
namespace {

using engine::MiniDb;
using methods::MethodKind;

constexpr size_t kPages = 96;

std::unique_ptr<MiniDb> MakeDb(MethodKind kind) {
  engine::MiniDbOptions options;
  options.num_pages = kPages;
  return std::make_unique<MiniDb>(options, methods::MakeMethod(kind, {kPages}));
}

class BtreeMergeMethodTest : public ::testing::TestWithParam<MethodKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllMethods, BtreeMergeMethodTest,
    ::testing::Values(MethodKind::kLogical, MethodKind::kPhysical,
                      MethodKind::kPhysiological, MethodKind::kGeneralized,
                      MethodKind::kPhysicalPartial),
    [](const auto& info) { return MethodParamName(info.param); });

TEST_P(BtreeMergeMethodTest, DrainLeavesTreeMergedAndValid) {
  auto db = MakeDb(GetParam());
  Btree tree = Btree::Create(db.get()).value();
  const int n = static_cast<int>(NodeRef::Capacity()) * 4;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tree.Insert(i, i).ok());
  }
  const uint32_t leaves_full = tree.ComputeStats().value().leaf_nodes;
  ASSERT_GE(leaves_full, 4u);

  // Delete most keys; merges must shrink the leaf count.
  for (int i = 0; i < n; ++i) {
    if (i % 8 != 0) {
      ASSERT_TRUE(tree.Remove(i).ok()) << "i=" << i;
    }
    if (i % 512 == 0) {
      ASSERT_TRUE(tree.ValidateStructure().ok());
    }
  }
  ASSERT_TRUE(tree.ValidateStructure().ok());
  const Btree::Stats after = tree.ComputeStats().value();
  EXPECT_LT(after.leaf_nodes, leaves_full) << "merges must have happened";
  EXPECT_EQ(after.entries, static_cast<size_t>((n + 7) / 8));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(tree.Lookup(i).value().has_value(), i % 8 == 0) << "key " << i;
  }
}

TEST_P(BtreeMergeMethodTest, DrainToEmptyCollapsesRoot) {
  auto db = MakeDb(GetParam());
  Btree tree = Btree::Create(db.get()).value();
  const int n = static_cast<int>(NodeRef::Capacity()) * 3;
  for (int i = 0; i < n; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  ASSERT_GE(tree.Height().value(), 2u);
  for (int i = 0; i < n; ++i) ASSERT_TRUE(tree.Remove(i).ok());
  ASSERT_TRUE(tree.ValidateStructure().ok());
  EXPECT_EQ(tree.Size().value(), 0u);
  EXPECT_EQ(tree.Height().value(), 1u) << "the root collapsed back to a leaf";
}

TEST_P(BtreeMergeMethodTest, MergesSurviveCrashAndRecovery) {
  auto db = MakeDb(GetParam());
  Btree tree = Btree::Create(db.get()).value();
  const int n = static_cast<int>(NodeRef::Capacity()) * 3;
  for (int i = 0; i < n; ++i) ASSERT_TRUE(tree.Insert(i, i * 2).ok());
  for (int i = 0; i < n; i += 2) ASSERT_TRUE(tree.Remove(i).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  Btree reopened = Btree::Open(db.get()).value();
  ASSERT_TRUE(reopened.ValidateStructure().ok());
  EXPECT_EQ(reopened.Size().value(), static_cast<size_t>(n / 2));
  for (int i = 1; i < n; i += 2) {
    ASSERT_EQ(reopened.Lookup(i).value().value(), i * 2);
  }
}

TEST_P(BtreeMergeMethodTest, FreedPagesAreRecycled) {
  auto db = MakeDb(GetParam());
  Btree tree = Btree::Create(db.get()).value();
  const int n = static_cast<int>(NodeRef::Capacity()) * 3;
  for (int i = 0; i < n; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  const uint32_t allocated_high = tree.AllocatedPages().value();
  for (int i = 0; i < n; ++i) ASSERT_TRUE(tree.Remove(i).ok());
  // Grow again: the bump allocator must not advance past its high-water
  // mark because freed pages are reused.
  for (int i = 0; i < n; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  EXPECT_LE(tree.AllocatedPages().value(), allocated_high);
  ASSERT_TRUE(tree.ValidateStructure().ok());
  EXPECT_EQ(tree.Size().value(), static_cast<size_t>(n));
}

TEST(BtreeMergeTest, GeneralizedMergeEnforcesLeftBeforeRightFlush) {
  // The merge's careful write order: the merged-into left node must
  // reach disk before the emptied right node does.
  engine::MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = 8;
  MiniDb db(options, methods::MakeMethod(MethodKind::kGeneralized, {kPages}));
  Btree tree = Btree::Create(&db).value();
  const int n = static_cast<int>(NodeRef::Capacity()) * 2;
  for (int i = 0; i < n; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  ASSERT_TRUE(db.FlushEverything().ok());

  // Drain the upper leaf until it merges into the lower one.
  const uint32_t leaves_before = tree.ComputeStats().value().leaf_nodes;
  for (int i = n - 1; i >= n / 2; --i) ASSERT_TRUE(tree.Remove(i).ok());
  ASSERT_LT(tree.ComputeStats().value().leaf_nodes, leaves_before);

  // Some page flush ordering was constrained; flushing everything
  // respects it (cascades) and recovery is exact.
  ASSERT_TRUE(db.FlushEverything().ok());
  ASSERT_TRUE(db.log().ForceAll().ok());
  db.Crash();
  ASSERT_TRUE(db.Recover().ok());
  Btree reopened = Btree::Open(&db).value();
  ASSERT_TRUE(reopened.ValidateStructure().ok());
  EXPECT_EQ(reopened.Size().value(), static_cast<size_t>(n / 2));
}

TEST(BtreeMergeTest, RandomChurnStaysValid) {
  auto db = MakeDb(MethodKind::kGeneralized);
  Btree tree = Btree::Create(db.get()).value();
  Rng rng(0x3e46e);
  std::map<int64_t, int64_t> reference;
  for (int i = 0; i < 6000; ++i) {
    const int64_t key = rng.Range(0, 1500);
    if (rng.Chance(0.45)) {
      ASSERT_TRUE(tree.Remove(key).ok());
      reference.erase(key);
    } else {
      ASSERT_TRUE(tree.Insert(key, i).ok());
      reference[key] = i;
    }
    if (i % 1000 == 999) {
      ASSERT_TRUE(tree.ValidateStructure().ok()) << "i=" << i;
      ASSERT_EQ(tree.Size().value(), reference.size());
    }
  }
  ASSERT_TRUE(tree.ValidateStructure().ok());
  for (const auto& [k, v] : reference) {
    ASSERT_EQ(tree.Lookup(k).value().value(), v);
  }
}

}  // namespace
}  // namespace redo::btree
