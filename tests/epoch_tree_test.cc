// Property tests locking the hierarchical epoch aggregation to the flat
// algorithm: for every node count, fanout, summary permutation, and
// partial-arrival order, the tree-reduced EpochPlan must be bit-identical to
// ComputeEpochPlan over the same summaries. Also holds the reduction's
// algebraic properties (commutative, associative, duplicate-idempotent), the
// sparse wire form's exact round trip, the canonical tree shape, and the
// depth-scaled straggler window — including the cluster-level regression
// where a 3-level tree under delivery jitter must lose no summaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/core/epoch.h"

namespace gms {
namespace {

// A summary with random age mass (sometimes none) and random churn, spanning
// bucket indices from microseconds to weeks so ThresholdForCount lands in
// many different buckets across seeds.
EpochSummary RandomSummary(Rng& rng, NodeId node, uint64_t epoch) {
  EpochSummary s;
  s.epoch = epoch;
  s.node = node;
  const uint64_t entries = rng.NextBelow(8);  // 0 = an empty (busy) node
  for (uint64_t e = 0; e < entries; e++) {
    const uint64_t age_ns = 1ull << (10 + rng.NextBelow(42));
    s.ages.Add(age_ns, rng.NextBelow(500) + 1);
  }
  s.evictions = static_cast<uint32_t>(rng.NextBelow(1000));
  return s;
}

template <typename T>
void Shuffle(Rng& rng, std::vector<T>& v) {
  for (size_t i = v.size(); i > 1; i--) {
    std::swap(v[i - 1], v[rng.NextBelow(i)]);
  }
}

// Simulates one aggregator: reduce the subtree rooted at `pos`, merging the
// node's own summary and its children's fully-reduced partials in a random
// interleaving — the wire protocol guarantees nothing about arrival order.
EpochPartial ReduceSubtree(const EpochTree& tree, size_t pos,
                           const std::vector<EpochSummary>& by_node,
                           uint64_t epoch, Rng& rng) {
  EpochPartial acc;
  acc.epoch = epoch;
  acc.from = tree.At(pos);

  // -1 stands for "fold my own summary"; the rest are child positions.
  std::vector<size_t> steps = {static_cast<size_t>(-1)};
  const size_t first = pos * tree.fanout + 1;
  for (size_t c = first; c < tree.size() && c < first + tree.fanout; c++) {
    steps.push_back(c);
  }
  Shuffle(rng, steps);
  for (size_t step : steps) {
    if (step == static_cast<size_t>(-1)) {
      EXPECT_TRUE(acc.MergeSummary(by_node[tree.At(pos).value]));
    } else {
      const EpochPartial child = ReduceSubtree(tree, step, by_node, epoch, rng);
      EXPECT_TRUE(acc.MergePartial(child));
    }
  }
  return acc;
}

// ages/evictions must stay exactly the sums over the sparse per-node stats —
// the invariant every merge path preserves.
void ExpectPartialConsistent(const EpochPartial& p) {
  LogHistogram sum;
  uint64_t evictions = 0;
  for (const EpochNodeStat& n : p.nodes) {
    sum.Merge(ExpandAges(n));
    evictions += n.evictions;
  }
  ASSERT_EQ(evictions, p.evictions);
  for (int i = 0; i < LogHistogram::kNumBuckets; i++) {
    ASSERT_EQ(sum.bucket(i), p.ages.bucket(i)) << "bucket " << i;
  }
}

void ExpectPlansIdentical(const EpochPlan& a, const EpochPlan& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.min_age, b.min_age);
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.next_initiator, b.next_initiator);
  EXPECT_EQ(a.max_weight, b.max_weight);  // exact: weights are integer counts
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (size_t i = 0; i < a.weights.size(); i++) {
    EXPECT_EQ(a.weights[i], b.weights[i]) << "weight " << i;
  }
}

std::vector<NodeId> LiveNodes(uint32_t n) {
  std::vector<NodeId> live;
  for (uint32_t i = 0; i < n; i++) {
    live.push_back(NodeId{i});
  }
  return live;
}

// Position -> node for the whole tree.
std::vector<NodeId> Order(const EpochTree& tree) {
  std::vector<NodeId> order;
  for (size_t pos = 0; pos < tree.size(); pos++) {
    order.push_back(tree.At(pos));
  }
  return order;
}

TEST(EpochTreeTest, TreeMatchesFlatAcrossScalesAndFanouts) {
  for (uint32_t n : {1u, 2u, 17u, 100u, 1000u}) {
    for (uint32_t fanout : {2u, 4u, 16u, n}) {
      for (uint64_t seed = 1; seed <= 3; seed++) {
        Rng rng(seed * 7919 + n * 131 + fanout);
        const uint64_t epoch = 1 + rng.NextBelow(50);
        const SimTime last_duration =
            rng.NextBool(0.2) ? 0 : static_cast<SimTime>(rng.NextBelow(
                                        static_cast<uint64_t>(Seconds(20))));
        EpochConfig config;
        config.m_min = 16 + rng.NextBelow(256);
        const NodeId root{static_cast<uint32_t>(rng.NextBelow(n))};

        std::vector<EpochSummary> by_node;
        for (uint32_t i = 0; i < n; i++) {
          by_node.push_back(RandomSummary(rng, NodeId{i}, epoch));
        }

        // Flat: summaries arrive at the initiator in arbitrary order.
        std::vector<EpochSummary> arrival = by_node;
        Shuffle(rng, arrival);
        const EpochPlan flat = ComputeEpochPlan(config, epoch, n, arrival,
                                                last_duration, root);

        // Tree: reduce bottom-up with random per-aggregator interleavings.
        const EpochTree tree = EpochTree::Build(LiveNodes(n), root, fanout);
        ASSERT_EQ(tree.size(), n);
        const EpochPartial reduced =
            ReduceSubtree(tree, 0, by_node, epoch, rng);
        ASSERT_EQ(reduced.nodes.size(), n);
        ExpectPartialConsistent(reduced);
        const EpochPlan treed = ComputeEpochPlanFromPartial(
            config, epoch, n, reduced, last_duration, root);

        SCOPED_TRACE(::testing::Message() << "n=" << n << " fanout=" << fanout
                                          << " seed=" << seed);
        ExpectPlansIdentical(flat, treed);
      }
    }
  }
}

TEST(EpochTreeTest, DuplicatedDeliveriesAreIdempotent) {
  Rng rng(42);
  const uint32_t n = 17;
  std::vector<EpochSummary> by_node;
  for (uint32_t i = 0; i < n; i++) {
    by_node.push_back(RandomSummary(rng, NodeId{i}, 7));
  }
  const EpochTree tree = EpochTree::Build(LiveNodes(n), NodeId{3}, 2);

  EpochPartial acc;
  acc.epoch = 7;
  acc.from = NodeId{3};
  EXPECT_TRUE(acc.MergeSummary(by_node[3]));
  // The network may deliver any partial or summary twice; dedup is by node
  // id, so a replay must fold nothing.
  for (size_t c : {1u, 2u}) {
    const EpochPartial child = ReduceSubtree(tree, c, by_node, 7, rng);
    EXPECT_TRUE(acc.MergePartial(child));
    EXPECT_FALSE(acc.MergePartial(child)) << "duplicate folded twice";
  }
  EXPECT_FALSE(acc.MergeSummary(by_node[3]));
  ASSERT_EQ(acc.nodes.size(), n);
  ExpectPartialConsistent(acc);

  const EpochPlan once = ComputeEpochPlanFromPartial(EpochConfig{}, 7, n, acc,
                                                     Seconds(5), NodeId{3});
  const EpochPlan flat = ComputeEpochPlan(EpochConfig{}, 7, n, by_node,
                                          Seconds(5), NodeId{3});
  ExpectPlansIdentical(once, flat);
}

TEST(EpochTreeTest, OverlappingPartialsFoldOnlyNewNodes) {
  // A tree partial racing the root's direct re-request sweep: both carry
  // some of the same nodes. The overlap path must reconstruct exactly the
  // new nodes' histogram mass from the sparse stats.
  Rng rng(99);
  std::vector<EpochSummary> by_node;
  for (uint32_t i = 0; i < 6; i++) {
    by_node.push_back(RandomSummary(rng, NodeId{i}, 3));
  }
  EpochPartial left;
  left.epoch = 3;
  for (uint32_t i : {0u, 1u, 2u, 3u}) {
    left.MergeSummary(by_node[i]);
  }
  EpochPartial right;
  right.epoch = 3;
  for (uint32_t i : {2u, 3u, 4u, 5u}) {
    right.MergeSummary(by_node[i]);
  }
  EXPECT_TRUE(left.MergePartial(right));
  ASSERT_EQ(left.nodes.size(), 6u);
  ExpectPartialConsistent(left);
  ExpectPlansIdentical(
      ComputeEpochPlanFromPartial(EpochConfig{}, 3, 6, left, Seconds(5),
                                  NodeId{0}),
      ComputeEpochPlan(EpochConfig{}, 3, 6, by_node, Seconds(5), NodeId{0}));
}

TEST(EpochTreeTest, MergeIsCommutativeAndAssociative) {
  Rng rng(7);
  std::vector<EpochSummary> by_node;
  for (uint32_t i = 0; i < 9; i++) {
    by_node.push_back(RandomSummary(rng, NodeId{i}, 1));
  }
  auto partial_of = [&](std::initializer_list<uint32_t> ids) {
    EpochPartial p;
    p.epoch = 1;
    for (uint32_t i : ids) {
      p.MergeSummary(by_node[i]);
    }
    return p;
  };
  auto plan_of = [&](const EpochPartial& p) {
    return ComputeEpochPlanFromPartial(EpochConfig{}, 1, 9, p, Seconds(5),
                                       NodeId{0});
  };

  const EpochPartial a = partial_of({0, 1, 2});
  const EpochPartial b = partial_of({3, 4, 5});
  const EpochPartial c = partial_of({6, 7, 8});

  EpochPartial ab = a;
  ab.MergePartial(b);
  EpochPartial ba = b;
  ba.MergePartial(a);
  ExpectPlansIdentical(plan_of(ab), plan_of(ba));  // commutative

  EpochPartial ab_c = ab;
  ab_c.MergePartial(c);
  EpochPartial bc = b;
  bc.MergePartial(c);
  EpochPartial a_bc = a;
  a_bc.MergePartial(bc);
  ExpectPlansIdentical(plan_of(ab_c), plan_of(a_bc));  // associative
  ExpectPartialConsistent(ab_c);
  ExpectPartialConsistent(a_bc);
}

TEST(EpochTreeTest, CompressExpandRoundTripIsExact) {
  Rng rng(1234);
  for (int trial = 0; trial < 20; trial++) {
    const EpochSummary s = RandomSummary(rng, NodeId{1}, 1);
    const EpochNodeStat stat = CompressSummary(s);
    const LogHistogram back = ExpandAges(stat);
    EXPECT_EQ(back.total(), s.ages.total());
    for (int i = 0; i < LogHistogram::kNumBuckets; i++) {
      ASSERT_EQ(back.bucket(i), s.ages.bucket(i)) << "bucket " << i;
    }
    // The sparse suffix sum must agree with the dense one at every bucket
    // lower bound (the only thresholds min_age can take) and at the edges.
    for (int i = 0; i < LogHistogram::kNumBuckets; i++) {
      const uint64_t t = LogHistogram::BucketLowerBound(i);
      ASSERT_EQ(SparseCountAtOrAbove(stat, t), s.ages.CountAtOrAbove(t))
          << "threshold bucket " << i;
    }
    EXPECT_EQ(SparseCountAtOrAbove(stat, 0), s.ages.total());
    EXPECT_EQ(SparseCountAtOrAbove(stat, UINT64_MAX), 0u);
  }
}

TEST(EpochTreeTest, TreeShapeIsCanonicalAndConsistent) {
  Rng rng(5);
  for (uint32_t n : {1u, 2u, 17u, 100u}) {
    for (uint32_t fanout : {2u, 4u, 16u, n}) {
      const NodeId root{n / 2};
      std::vector<NodeId> live = LiveNodes(n);
      Shuffle(rng, live);  // membership join order must not matter
      const EpochTree tree = EpochTree::Build(live, root, fanout);
      const EpochTree sorted = EpochTree::Build(LiveNodes(n), root, fanout);
      ASSERT_EQ(Order(tree), Order(sorted));

      // Coverage: every node exactly once, root in front.
      ASSERT_EQ(tree.size(), n);
      ASSERT_EQ(tree.At(0), root);
      std::vector<NodeId> seen = Order(tree);
      std::sort(seen.begin(), seen.end(),
                [](NodeId a, NodeId b) { return a.value < b.value; });
      ASSERT_EQ(seen, LiveNodes(n));

      ASSERT_EQ(tree.SubtreeSize(root), n);
      EXPECT_EQ(tree.Parent(root), kInvalidNode);
      size_t covered = 1;
      for (NodeId node : Order(tree)) {
        size_t child_total = 0;
        for (NodeId child : tree.Children(node)) {
          EXPECT_EQ(tree.Parent(child), node);
          EXPECT_GT(tree.Depth(child), tree.Depth(node));
          child_total += tree.SubtreeSize(child);
          covered++;
        }
        // A node's subtree is itself plus its children's subtrees.
        EXPECT_EQ(tree.SubtreeSize(node), child_total + 1);
        EXPECT_LE(tree.Depth(node), tree.SubtreeHeight(root));
      }
      EXPECT_EQ(covered, n);  // parent/child edges span the whole tree

      if (fanout >= n && n > 1) {
        // fanout >= n degenerates to a star: one hop, like flat but relayed.
        EXPECT_EQ(tree.Children(root).size(), n - 1);
        EXPECT_EQ(tree.SubtreeHeight(root), 1u);
      }
      EXPECT_EQ(tree.IndexOf(NodeId{n + 100}), EpochTree::kNone);
      EXPECT_EQ(tree.SubtreeSize(NodeId{n + 100}), 0u);
    }
  }
}

// The tree as it was first built: a materialised position -> node list
// ([root] + every other live node sorted by id), with subtree sizes, heights
// and depths tabulated by walking the explicit child lists rather than by
// the per-level index arithmetic. The view must answer every accessor
// exactly like it.
struct MaterialisedTree {
  MaterialisedTree(const std::vector<NodeId>& live, NodeId root, uint32_t f)
      : fanout(f > 0 ? f : 1) {
    order.push_back(root);
    for (NodeId node : live) {
      if (node != root) {
        order.push_back(node);
      }
    }
    std::sort(order.begin() + 1, order.end());
    const size_t n = order.size();
    children.resize(n);
    for (size_t pos = 0; pos < n; pos++) {
      for (size_t c = pos * fanout + 1; c < n && c <= pos * fanout + fanout;
           c++) {
        children[pos].push_back(c);
      }
    }
    depth.assign(n, 0);
    for (size_t pos = 0; pos < n; pos++) {
      for (size_t c : children[pos]) {
        depth[c] = depth[pos] + 1;
      }
    }
    subtree_size.assign(n, 1);
    subtree_height.assign(n, 0);
    for (size_t pos = n; pos-- > 0;) {  // children sit after their parent
      for (size_t c : children[pos]) {
        subtree_size[pos] += subtree_size[c];
        subtree_height[pos] =
            std::max(subtree_height[pos], subtree_height[c] + 1);
      }
    }
  }
  size_t IndexOf(NodeId node) const {
    if (order[0] == node) {
      return 0;
    }
    const auto it = std::lower_bound(order.begin() + 1, order.end(), node);
    return it != order.end() && *it == node
               ? static_cast<size_t>(it - order.begin())
               : EpochTree::kNone;
  }
  NodeId Parent(NodeId node) const {
    const size_t i = IndexOf(node);
    return i == EpochTree::kNone || i == 0 ? kInvalidNode
                                           : order[(i - 1) / fanout];
  }
  std::vector<NodeId> Children(NodeId node) const {
    std::vector<NodeId> out;
    const size_t i = IndexOf(node);
    if (i != EpochTree::kNone) {
      for (size_t c : children[i]) {
        out.push_back(order[c]);
      }
    }
    return out;
  }

  std::vector<NodeId> order;
  uint32_t fanout;
  std::vector<std::vector<size_t>> children;  // by position
  std::vector<uint32_t> depth;
  std::vector<size_t> subtree_size;
  std::vector<uint32_t> subtree_height;
};

void ExpectTreeMatchesReference(const EpochTree& tree,
                                const MaterialisedTree& ref,
                                const std::vector<NodeId>& probes) {
  ASSERT_EQ(tree.size(), ref.order.size());
  ASSERT_EQ(tree.fanout, ref.fanout);
  for (size_t pos = 0; pos < ref.order.size(); pos++) {
    ASSERT_EQ(tree.At(pos), ref.order[pos]) << "position " << pos;
  }
  for (NodeId node : probes) {
    SCOPED_TRACE(::testing::Message() << "node " << node.value);
    ASSERT_EQ(tree.IndexOf(node), ref.IndexOf(node));
    ASSERT_EQ(tree.Parent(node), ref.Parent(node));
    ASSERT_EQ(tree.Children(node), ref.Children(node));
    const size_t i = ref.IndexOf(node);
    ASSERT_EQ(tree.SubtreeSize(node),
              i == EpochTree::kNone ? 0 : ref.subtree_size[i]);
    ASSERT_EQ(tree.SubtreeHeight(node),
              i == EpochTree::kNone ? 0 : ref.subtree_height[i]);
    ASSERT_EQ(tree.Depth(node), i == EpochTree::kNone ? 0 : ref.depth[i]);
  }
}

TEST(EpochTreeTest, ViewMatchesMaterialisedTree) {
  Rng rng(21);
  for (uint32_t n : {1u, 2u, 17u, 1000u}) {
    // Odd ids 1, 3, ..., 2n-1: even ids are gaps, so a root outside the live
    // set can sit below, between or above the members.
    std::vector<NodeId> sorted;
    for (uint32_t i = 0; i < n; i++) {
      sorted.push_back(NodeId{2 * i + 1});
    }
    const uint32_t mid = n | 1;
    const std::vector<NodeId> roots_in = {NodeId{1}, NodeId{mid},
                                          NodeId{2 * n - 1}};
    const std::vector<NodeId> roots_out = {NodeId{0}, NodeId{mid - 1},
                                           NodeId{2 * n}};
    for (uint32_t fanout : {1u, 2u, 16u}) {
      for (bool root_in_live : {true, false}) {
        for (NodeId root : root_in_live ? roots_in : roots_out) {
          for (bool shuffled : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " fanout=" << fanout << " root="
                         << root.value << " shuffled=" << shuffled);
            std::vector<NodeId> live = sorted;
            if (shuffled) {
              Shuffle(rng, live);
            }
            const MaterialisedTree ref(live, root, fanout);
            // Every member, the root, and ids that are in no tree.
            std::vector<NodeId> probes = ref.order;
            probes.push_back(NodeId{2 * n + 2});
            probes.push_back(NodeId{mid + 1});
            probes.push_back(kInvalidNode);

            const EpochTree built = EpochTree::Build(live, root, fanout);
            ExpectTreeMatchesReference(built, ref, probes);
            ExpectTreeMatchesReference(EpochTree(built), ref, probes);
            if (!shuffled) {
              const EpochTree view = EpochTree::View(live, root, fanout);
              ExpectTreeMatchesReference(view, ref, probes);
              ExpectTreeMatchesReference(EpochTree(view), ref, probes);
            }
          }
        }
      }
    }
  }
  // Duplicated ids (never produced by Pod::Build) keep the materialised
  // semantics: every copy of the root goes, other copies keep a position.
  const std::vector<NodeId> dup = {NodeId{5}, NodeId{3}, NodeId{5},
                                   NodeId{7}, NodeId{3}, NodeId{9}};
  for (NodeId root : {NodeId{5}, NodeId{4}}) {
    const MaterialisedTree ref(dup, root, 2);
    ExpectTreeMatchesReference(EpochTree::Build(dup, root, 2), ref,
                               {NodeId{3}, NodeId{4}, NodeId{5}, NodeId{7},
                                NodeId{9}, NodeId{11}});
  }
}

TEST(EpochTreeTest, CollectTimeoutScalesWithSubtreeHeight) {
  EpochConfig config;
  config.summary_timeout = Milliseconds(100);
  // The flat protocol and one-hop aggregators keep the base window exactly —
  // this is what keeps flat-mode goldens byte-identical.
  EXPECT_EQ(TreeCollectTimeout(config, 0), Milliseconds(100));
  EXPECT_EQ(TreeCollectTimeout(config, 1), Milliseconds(100));
  for (uint32_t h = 2; h < 10; h++) {
    EXPECT_EQ(TreeCollectTimeout(config, h),
              config.summary_timeout * static_cast<SimTime>(h));
    EXPECT_GT(TreeCollectTimeout(config, h), TreeCollectTimeout(config, h - 1));
  }
  // A 1000-node fanout-2 tree is ~9 levels; the root's window must cover
  // every level below it.
  const EpochTree tree = EpochTree::Build(LiveNodes(1000), NodeId{0}, 2);
  EXPECT_GE(TreeCollectTimeout(config, tree.SubtreeHeight(NodeId{0})),
            config.summary_timeout *
                static_cast<SimTime>(tree.SubtreeHeight(NodeId{0})));
}

// --- cluster-level regressions ---------------------------------------------

std::unique_ptr<Cluster> IdleCluster(uint32_t nodes, uint32_t fanout) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.policy = PolicyKind::kGms;
  config.frames = 256;
  config.gms.epoch.t_min = Milliseconds(200);
  config.gms.epoch.summary_timeout = Milliseconds(100);
  config.gms.epoch.fanout = fanout;
  auto cluster = std::make_unique<Cluster>(config);
  cluster->Start();
  return cluster;
}

// The timeout-depth regression (satellite of the aggregation-tree change):
// with a per-level straggler window, a 3-level tree under maximal delivery
// jitter must still collect every node's summary — visible as every idle
// node holding nonzero weight, because each folds its free frames into its
// summary. A flat-sized window at the root would cut the deepest level off.
TEST(EpochTreeTest, ThreeLevelTreeUnderJitterLosesNoSummaries) {
  // 13 nodes at fanout 3: root -> 3 interiors -> 9 leaves (depth 2, so the
  // root's window is 3x the base).
  auto cluster = IdleCluster(13, 3);
  Network& net = cluster->net();
  net.EnableFaultInjection(0x7ee5);
  FaultSpec faults;
  faults.delay_jitter = Milliseconds(60);  // most of one per-level window
  net.SetDefaultFaults(faults);
  cluster->sim().RunFor(Seconds(5));

  const EpochView& root_view = cluster->gms_agent(NodeId{0})->epoch_view();
  ASSERT_GE(root_view.epoch, 1u);
  for (uint32_t i = 0; i < 13; i++) {
    const EpochView& v = cluster->gms_agent(NodeId{i})->epoch_view();
    EXPECT_EQ(v.epoch, root_view.epoch) << "node " << i;
    EXPECT_EQ(v.min_age, root_view.min_age) << "node " << i;
    EXPECT_EQ(v.budget, root_view.budget) << "node " << i;
    // Lost summaries would zero this node's weight in the adopted plan.
    EXPECT_GT(v.my_weight, 0) << "node " << i << " summary was lost";
  }
}

// On an idle cluster the summaries are time-invariant (only free frames, at
// a fixed credited age), so the tree and flat protocols must adopt identical
// epoch parameters even though their rounds run on different schedules.
TEST(EpochTreeTest, TreeAndFlatClustersAdoptIdenticalFirstEpoch) {
  auto flat = IdleCluster(13, 0);
  auto tree = IdleCluster(13, 3);
  flat->sim().RunFor(Seconds(2));
  tree->sim().RunFor(Seconds(2));
  const EpochView& f = flat->gms_agent(NodeId{5})->epoch_view();
  const EpochView& t = tree->gms_agent(NodeId{5})->epoch_view();
  ASSERT_GE(f.epoch, 1u);
  ASSERT_GE(t.epoch, 1u);
  EXPECT_EQ(f.min_age, t.min_age);
  EXPECT_EQ(f.budget, t.budget);
  EXPECT_EQ(f.duration, t.duration);
  EXPECT_EQ(f.my_weight, t.my_weight);
}

}  // namespace
}  // namespace gms
