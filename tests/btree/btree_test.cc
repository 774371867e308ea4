// B-tree behavior, parameterized over all four recovery methods.

#include "btree/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "btree/node_format.h"
#include "util/rng.h"
#include "method_param_name.h"

namespace redo::btree {
namespace {

using engine::MiniDb;
using methods::MethodKind;

constexpr size_t kPages = 64;

std::unique_ptr<MiniDb> MakeDb(MethodKind kind) {
  engine::MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = 0;
  return std::make_unique<MiniDb>(options, methods::MakeMethod(kind, {kPages}));
}

class BtreeMethodTest : public ::testing::TestWithParam<MethodKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllMethods, BtreeMethodTest,
    ::testing::ValuesIn(methods::kMethodKinds),
    [](const auto& info) { return MethodParamName(info.param); });

TEST_P(BtreeMethodTest, InsertLookupRoundTrip) {
  auto db = MakeDb(GetParam());
  Result<Btree> tree = Btree::Create(db.get());
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree.value().Insert(10, 100).ok());
  ASSERT_TRUE(tree.value().Insert(5, 50).ok());
  EXPECT_EQ(tree.value().Lookup(10).value().value(), 100);
  EXPECT_EQ(tree.value().Lookup(5).value().value(), 50);
  EXPECT_FALSE(tree.value().Lookup(7).value().has_value());
}

TEST_P(BtreeMethodTest, InsertOverwrites) {
  auto db = MakeDb(GetParam());
  Btree tree = Btree::Create(db.get()).value();
  ASSERT_TRUE(tree.Insert(1, 10).ok());
  ASSERT_TRUE(tree.Insert(1, 11).ok());
  EXPECT_EQ(tree.Lookup(1).value().value(), 11);
  EXPECT_EQ(tree.Size().value(), 1u);
}

TEST_P(BtreeMethodTest, RemoveDeletesKey) {
  auto db = MakeDb(GetParam());
  Btree tree = Btree::Create(db.get()).value();
  ASSERT_TRUE(tree.Insert(1, 10).ok());
  ASSERT_TRUE(tree.Insert(2, 20).ok());
  ASSERT_TRUE(tree.Remove(1).ok());
  EXPECT_FALSE(tree.Lookup(1).value().has_value());
  EXPECT_EQ(tree.Lookup(2).value().value(), 20);
  // Removing an absent key is fine.
  EXPECT_TRUE(tree.Remove(99).ok());
}

TEST_P(BtreeMethodTest, ManyInsertsForceSplitsAndStayValid) {
  auto db = MakeDb(GetParam());
  Btree tree = Btree::Create(db.get()).value();
  const int n = static_cast<int>(NodeRef::Capacity()) * 4;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tree.Insert(i * 7 % n, i).ok()) << "i=" << i;
  }
  EXPECT_GE(tree.Height().value(), 2u) << "splits must have happened";
  ASSERT_TRUE(tree.ValidateStructure().ok());
  EXPECT_EQ(tree.Size().value(), static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) {
    ASSERT_TRUE(tree.Lookup(k).value().has_value()) << "key " << k;
  }
}

TEST_P(BtreeMethodTest, ScanReturnsSortedRange) {
  auto db = MakeDb(GetParam());
  Btree tree = Btree::Create(db.get()).value();
  Rng rng(42);
  std::map<int64_t, int64_t> reference;
  for (int i = 0; i < 1000; ++i) {
    const int64_t key = rng.Range(0, 5000);
    reference[key] = i;
    ASSERT_TRUE(tree.Insert(key, i).ok());
  }
  const auto scanned = tree.Scan(1000, 3000).value();
  std::vector<std::pair<int64_t, int64_t>> expected;
  for (const auto& [k, v] : reference) {
    if (k >= 1000 && k <= 3000) expected.emplace_back(k, v);
  }
  EXPECT_EQ(scanned, expected);
}

TEST_P(BtreeMethodTest, SurvivesCrashAndRecovery) {
  auto db = MakeDb(GetParam());
  Btree tree = Btree::Create(db.get()).value();
  const int n = static_cast<int>(NodeRef::Capacity()) * 3;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tree.Insert(i, i * 2).ok());
  }
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());

  Result<Btree> reopened = Btree::Open(db.get());
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened.value().ValidateStructure().ok());
  EXPECT_EQ(reopened.value().Size().value(), static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) {
    ASSERT_EQ(reopened.value().Lookup(k).value().value(), k * 2);
  }
}

TEST_P(BtreeMethodTest, SurvivesCrashMidWorkloadWithCheckpoints) {
  auto db = MakeDb(GetParam());
  Btree tree = Btree::Create(db.get()).value();
  Rng rng(7);
  std::map<int64_t, int64_t> reference;
  const int rounds = 6;
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < 150; ++i) {
      const int64_t key = rng.Range(0, 2000);
      if (rng.Chance(0.2) && !reference.empty()) {
        ASSERT_TRUE(tree.Remove(key).ok());
        reference.erase(key);
      } else {
        ASSERT_TRUE(tree.Insert(key, key * 3).ok());
        reference[key] = key * 3;
      }
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->log().ForceAll().ok());
    db->Crash();
    ASSERT_TRUE(db->Recover().ok());
    Result<Btree> reopened = Btree::Open(db.get());
    ASSERT_TRUE(reopened.ok());
    tree = reopened.value();
    ASSERT_TRUE(tree.ValidateStructure().ok()) << "round " << round;
    EXPECT_EQ(tree.Size().value(), reference.size());
  }
  for (const auto& [k, v] : reference) {
    ASSERT_EQ(tree.Lookup(k).value().value(), v);
  }
}

TEST_P(BtreeMethodTest, OutOfPagesIsGraceful) {
  engine::MiniDbOptions options;
  options.num_pages = 3;  // meta + root + one more
  auto db = std::make_unique<MiniDb>(options,
                                     methods::MakeMethod(GetParam(), {3}));
  Btree tree = Btree::Create(db.get()).value();
  Status last = Status::Ok();
  for (int i = 0; i < static_cast<int>(NodeRef::Capacity()) * 3 && last.ok();
       ++i) {
    last = tree.Insert(i, i);
  }
  EXPECT_EQ(last.code(), StatusCode::kOutOfRange);
}

TEST(BtreeTest, OpenRejectsUnformattedDatabase) {
  auto db = MakeDb(MethodKind::kPhysiological);
  EXPECT_EQ(Btree::Open(db.get()).status().code(), StatusCode::kCorruption);
}

TEST(BtreeTest, DescendingAndAscendingInsertOrders) {
  for (const bool descending : {false, true}) {
    auto db = MakeDb(MethodKind::kGeneralized);
    Btree tree = Btree::Create(db.get()).value();
    const int n = static_cast<int>(NodeRef::Capacity()) * 3;
    for (int i = 0; i < n; ++i) {
      const int64_t key = descending ? n - 1 - i : i;
      ASSERT_TRUE(tree.Insert(key, key).ok());
    }
    ASSERT_TRUE(tree.ValidateStructure().ok());
    EXPECT_EQ(tree.Size().value(), static_cast<size_t>(n));
    const auto all = tree.Scan(0, n).value();
    ASSERT_EQ(all.size(), static_cast<size_t>(n));
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  }
}

}  // namespace
}  // namespace redo::btree
