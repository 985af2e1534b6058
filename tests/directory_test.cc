// Unit tests for the POD (page-ownership directory) and the GCD
// (global-cache directory) partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/core/directory.h"

namespace gms {
namespace {

std::vector<NodeId> Nodes(uint32_t n) {
  std::vector<NodeId> live;
  for (uint32_t i = 0; i < n; i++) {
    live.push_back(NodeId{i});
  }
  return live;
}

TEST(PodTest, BuildCoversAllBucketsWithLiveNodes) {
  const PodTable table = Pod::Build(1, Nodes(5));
  EXPECT_EQ(table.buckets.size(), Pod::kNumBuckets);
  for (NodeId node : table.buckets) {
    EXPECT_LT(node.value, 5u);
  }
}

TEST(PodTest, BuildSpreadsBucketsAcrossNodes) {
  const PodTable table = Pod::Build(1, Nodes(8));
  std::set<uint32_t> used;
  for (NodeId node : table.buckets) {
    used.insert(node.value);
  }
  EXPECT_GE(used.size(), 7u);  // all (or nearly all) nodes own a section
}

TEST(PodTest, BuildIsDeterministic) {
  const PodTable a = Pod::Build(3, Nodes(7));
  const PodTable b = Pod::Build(3, Nodes(7));
  EXPECT_EQ(a.buckets.size(), b.buckets.size());
  for (size_t i = 0; i < a.buckets.size(); i++) {
    EXPECT_EQ(a.buckets[i], b.buckets[i]);
  }
}

TEST(PodTest, BuildOrderInsensitive) {
  std::vector<NodeId> shuffled = {NodeId{3}, NodeId{0}, NodeId{2}, NodeId{1}};
  const PodTable a = Pod::Build(1, Nodes(4));
  const PodTable b = Pod::Build(1, shuffled);
  for (size_t i = 0; i < a.buckets.size(); i++) {
    EXPECT_EQ(a.buckets[i], b.buckets[i]);
  }
}

TEST(PodTest, PrivatePagesResolveToBackingNode) {
  Pod pod;
  pod.Adopt(Pod::Build(1, Nodes(4)));
  const Uid uid = MakeAnonUid(NodeId{2}, 5, 9);
  EXPECT_EQ(pod.GcdNodeFor(uid), NodeId{2});
}

TEST(PodTest, SharedPagesHashThroughBuckets) {
  Pod pod;
  pod.Adopt(Pod::Build(1, Nodes(4)));
  // Consecutive pages of a file spread across several GCD nodes.
  std::set<uint32_t> owners;
  for (uint32_t off = 0; off < 64; off++) {
    owners.insert(pod.GcdNodeFor(MakeFileUid(NodeId{0}, 7, off)).value);
  }
  EXPECT_GE(owners.size(), 3u);
}

TEST(PodTest, IsLive) {
  Pod pod;
  pod.Adopt(Pod::Build(1, {NodeId{0}, NodeId{2}}));
  EXPECT_TRUE(pod.IsLive(NodeId{0}));
  EXPECT_FALSE(pod.IsLive(NodeId{1}));
  EXPECT_TRUE(pod.IsLive(NodeId{2}));
}

TEST(PodTest, BuildSortsLiveAndIsLiveAgreesWithLinearScan) {
  // IsLive binary-searches `live`, so Build must hand back a sorted list
  // whatever the membership order, and the answer must match a plain scan.
  std::vector<NodeId> members;
  for (uint32_t i = 0; i < 40; i++) {
    members.push_back(NodeId{i * 3 + i % 2});  // gaps of 2 and 4
  }
  std::vector<NodeId> shuffled = members;
  for (size_t i = shuffled.size(); i > 1; i--) {
    std::swap(shuffled[i - 1], shuffled[(i * 7919) % i]);
  }
  ASSERT_NE(shuffled, members);
  Pod pod;
  pod.Adopt(Pod::Build(1, shuffled));
  const std::vector<NodeId>& live = pod.table().live;
  EXPECT_TRUE(std::is_sorted(live.begin(), live.end()));
  EXPECT_EQ(live, members);
  for (uint32_t id = 0; id < 130; id++) {
    const bool linear =
        std::find(shuffled.begin(), shuffled.end(), NodeId{id}) !=
        shuffled.end();
    EXPECT_EQ(pod.IsLive(NodeId{id}), linear) << "node " << id;
  }
  EXPECT_FALSE(pod.IsLive(kInvalidNode));
}

TEST(PodTest, RemovingNodeRemapsOnlyItsBuckets) {
  // The indirection requirement of section 4.1: reconfiguration must not
  // rehash the world. Buckets owned by surviving nodes stay put.
  const PodTable before = Pod::Build(1, Nodes(8));
  std::vector<NodeId> survivors;
  for (uint32_t i = 0; i < 8; i++) {
    if (i != 3) {
      survivors.push_back(NodeId{i});
    }
  }
  const PodTable after = Pod::Build(2, survivors);
  for (size_t b = 0; b < before.buckets.size(); b++) {
    if (before.buckets[b] != NodeId{3}) {
      EXPECT_EQ(after.buckets[b], before.buckets[b]) << "bucket " << b;
    } else {
      EXPECT_NE(after.buckets[b], NodeId{3});
    }
  }
}

// --- GCD ---

TEST(GcdTest, AddAndLookup) {
  GcdTable gcd;
  const Uid uid = MakeFileUid(NodeId{0}, 1, 1);
  gcd.Apply(GcdUpdate{uid, GcdUpdate::kAdd, NodeId{2}, false});
  const GcdTable::Entry* entry = gcd.Lookup(uid);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->holders.size(), 1u);
  EXPECT_EQ(entry->holders[0].node, NodeId{2});
  EXPECT_FALSE(entry->holders[0].global);
}

TEST(GcdTest, AddUpdatesExistingHolderFlag) {
  GcdTable gcd;
  const Uid uid = MakeFileUid(NodeId{0}, 1, 1);
  gcd.Apply(GcdUpdate{uid, GcdUpdate::kAdd, NodeId{2}, true});
  gcd.Apply(GcdUpdate{uid, GcdUpdate::kAdd, NodeId{2}, false});
  const GcdTable::Entry* entry = gcd.Lookup(uid);
  ASSERT_EQ(entry->holders.size(), 1u);
  EXPECT_FALSE(entry->holders[0].global);
}

TEST(GcdTest, RemoveErasesHolderAndEmptyEntry) {
  GcdTable gcd;
  const Uid uid = MakeFileUid(NodeId{0}, 1, 1);
  gcd.Apply(GcdUpdate{uid, GcdUpdate::kAdd, NodeId{1}, false});
  gcd.Apply(GcdUpdate{uid, GcdUpdate::kAdd, NodeId{2}, false});
  gcd.Apply(GcdUpdate{uid, GcdUpdate::kRemove, NodeId{1}, false});
  EXPECT_EQ(gcd.Lookup(uid)->holders.size(), 1u);
  gcd.Apply(GcdUpdate{uid, GcdUpdate::kRemove, NodeId{2}, false});
  EXPECT_EQ(gcd.Lookup(uid), nullptr);
  EXPECT_EQ(gcd.size(), 0u);
}

TEST(GcdTest, ReplaceMovesGlobalCopyAndDropsPrev) {
  GcdTable gcd;
  const Uid uid = MakeFileUid(NodeId{0}, 1, 1);
  gcd.Apply(GcdUpdate{uid, GcdUpdate::kAdd, NodeId{1}, true});   // old global
  gcd.Apply(GcdUpdate{uid, GcdUpdate::kAdd, NodeId{2}, false});  // evictor
  gcd.Apply(GcdUpdate{uid, GcdUpdate::kReplace, NodeId{3}, true, NodeId{2}});
  const GcdTable::Entry* entry = gcd.Lookup(uid);
  ASSERT_EQ(entry->holders.size(), 1u);
  EXPECT_EQ(entry->holders[0].node, NodeId{3});
  EXPECT_TRUE(entry->holders[0].global);
}

TEST(GcdTest, PickPrefersGlobalCopy) {
  GcdTable gcd;
  const Uid uid = MakeFileUid(NodeId{0}, 1, 1);
  gcd.Apply(GcdUpdate{uid, GcdUpdate::kAdd, NodeId{1}, false});
  gcd.Apply(GcdUpdate{uid, GcdUpdate::kAdd, NodeId{2}, true});
  const auto pick = gcd.Pick(uid, NodeId{9});
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->node, NodeId{2});
  EXPECT_TRUE(pick->global);
}

TEST(GcdTest, PickExcludesRequester) {
  GcdTable gcd;
  const Uid uid = MakeFileUid(NodeId{0}, 1, 1);
  gcd.Apply(GcdUpdate{uid, GcdUpdate::kAdd, NodeId{1}, false});
  EXPECT_FALSE(gcd.Pick(uid, NodeId{1}).has_value());
  EXPECT_TRUE(gcd.Pick(uid, NodeId{2}).has_value());
}

TEST(GcdTest, PickMissOnUnknownUid) {
  GcdTable gcd;
  EXPECT_FALSE(gcd.Pick(MakeFileUid(NodeId{0}, 9, 9), NodeId{0}).has_value());
}

TEST(GcdTest, HasDuplicate) {
  GcdTable gcd;
  const Uid uid = MakeFileUid(NodeId{0}, 1, 1);
  gcd.Apply(GcdUpdate{uid, GcdUpdate::kAdd, NodeId{1}, false});
  EXPECT_FALSE(gcd.HasDuplicate(uid));
  gcd.Apply(GcdUpdate{uid, GcdUpdate::kAdd, NodeId{2}, false});
  EXPECT_TRUE(gcd.HasDuplicate(uid));
}

TEST(GcdTest, PruneDropsForeignSectionsAndDeadHolders) {
  Pod pod;
  pod.Adopt(Pod::Build(1, Nodes(4)));
  GcdTable gcd;
  // Entries for many pages; find ones owned and not owned by node 0.
  Uid owned = kInvalidUid;
  Uid foreign = kInvalidUid;
  for (uint32_t off = 0; off < 256; off++) {
    const Uid uid = MakeFileUid(NodeId{1}, 3, off);
    if (pod.GcdNodeFor(uid) == NodeId{0} && !owned.valid()) {
      owned = uid;
    }
    if (pod.GcdNodeFor(uid) != NodeId{0} && !foreign.valid()) {
      foreign = uid;
    }
  }
  ASSERT_TRUE(owned.valid());
  ASSERT_TRUE(foreign.valid());
  gcd.Apply(GcdUpdate{owned, GcdUpdate::kAdd, NodeId{1}, false});
  gcd.Apply(GcdUpdate{owned, GcdUpdate::kAdd, NodeId{3}, false});
  gcd.Apply(GcdUpdate{foreign, GcdUpdate::kAdd, NodeId{1}, false});

  // Node 3 dies; buckets redistribute.
  Pod pod2;
  pod2.Adopt(Pod::Build(2, {NodeId{0}, NodeId{1}, NodeId{2}}));
  gcd.Prune(pod2, NodeId{0});
  // Foreign entry dropped unless its bucket moved to node 0.
  if (pod2.GcdNodeFor(foreign) != NodeId{0}) {
    EXPECT_EQ(gcd.Lookup(foreign), nullptr);
  }
  // The owned entry survives iff still owned, minus the dead holder.
  if (pod2.GcdNodeFor(owned) == NodeId{0}) {
    const GcdTable::Entry* entry = gcd.Lookup(owned);
    ASSERT_NE(entry, nullptr);
    for (const auto& h : entry->holders) {
      EXPECT_NE(h.node, NodeId{3});
    }
  }
}

TEST(DirectoryTest, UidHelpers) {
  const Uid anon = MakeAnonUid(NodeId{3}, 77, 9);
  EXPECT_FALSE(IsShared(anon));
  EXPECT_EQ(NodeOfIp(anon.ip()), NodeId{3});
  const Uid file = MakeFileUid(NodeId{2}, 42, 8);
  EXPECT_TRUE(IsShared(file));
  EXPECT_EQ(file.inode(), 42u);
  // Disk blocks of consecutive file pages are consecutive.
  EXPECT_EQ(DiskBlockOf(MakeFileUid(NodeId{2}, 42, 9)),
            DiskBlockOf(file) + 1);
  // Different inodes land in different block regions.
  EXPECT_NE(DiskBlockOf(MakeFileUid(NodeId{2}, 43, 8)), DiskBlockOf(file));
}

}  // namespace
}  // namespace gms
