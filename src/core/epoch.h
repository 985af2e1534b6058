// Epoch parameter computation (section 3.2).
//
// At the start of each epoch the initiator merges per-node age summaries and
// derives: MinAge (the age threshold above which evicted pages go to disk or
// are discarded rather than forwarded), the replacement budget M, the epoch
// duration T, the per-node weights w_i (node i holds w_i of the cluster's M
// oldest pages), and the next initiator (the node with the largest w_i).
//
// The paper gives the decision procedure qualitatively: "the more old pages
// there are in the network, the longer T should be (and the larger M and
// MinAge are); similarly, if the expected discard rate is low, T can be
// larger as well. When the number of old pages in the network is too small
// ... MinAge is set to 0, so that pages are always discarded or written to
// disk rather than forwarded." ComputeEpochPlan implements exactly that
// shape, with the constants gathered in EpochConfig.
//
// Pure functions: no clock, no I/O — fully unit-testable.
#ifndef SRC_CORE_EPOCH_H_
#define SRC_CORE_EPOCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/node_id.h"
#include "src/common/time.h"
#include "src/core/messages.h"
#include "src/mem/frame_table.h"

namespace gms {

struct EpochConfig {
  SimTime t_min = Seconds(2);
  SimTime t_max = Seconds(10);
  uint64_t m_min = 64;
  uint64_t m_max = 1 << 20;
  // A computed MinAge below this is treated as "the cluster has no usefully
  // idle pages": MinAge becomes 0 and all evictions go to disk.
  SimTime min_useful_age = Milliseconds(100);
  // Headroom multiplier on the predicted replacement demand when sizing M.
  double budget_headroom = 1.0;
  // Multiplier applied to global pages' ages before summarizing, so they are
  // replaced in preference to local pages of similar age (section 3.1).
  double global_age_boost = 1.5;
  // Age credited to a free frame in the summary: a free frame is idler than
  // any used page.
  SimTime free_frame_age = Seconds(3600);
  // How long the initiator waits for stragglers before computing the plan.
  // In tree mode this is the per-level base: an aggregator with a subtree of
  // height h waits TreeCollectTimeout(config, h) = summary_timeout * h, so a
  // deep tree's root outlasts every descendant level instead of silently
  // truncating their stragglers.
  SimTime summary_timeout = Milliseconds(500);
  // Hierarchical epoch aggregation: branching factor of the summary
  // reduction tree. 0 selects the flat protocol (every node replies straight
  // to the initiator), which is byte-identical to the pre-tree behavior.
  uint32_t fanout = 0;
};

struct EpochPlan {
  uint64_t epoch = 0;
  SimTime min_age = 0;
  uint64_t budget = 0;  // M
  SimTime duration = 0;  // T
  std::vector<double> weights;  // dense by NodeId.value
  NodeId next_initiator;
  double max_weight = 0;
};

// Computes the plan for epoch `epoch` from the received summaries.
// `num_nodes` sizes the dense weight vector. `last_duration` is the measured
// length of the previous epoch (used with the summaries' eviction counts to
// estimate the cluster replacement rate); pass 0 for the first epoch.
// `fallback_initiator` is used when no node has any weight.
EpochPlan ComputeEpochPlan(const EpochConfig& config, uint64_t epoch,
                           uint32_t num_nodes,
                           const std::vector<EpochSummary>& summaries,
                           SimTime last_duration, NodeId fallback_initiator);

// --- hierarchical aggregation (partial reduction) --------------------------
//
// The tree protocol reduces summaries on the way to the root: every
// aggregator folds its children's EpochPartials into one (messages.h). The
// reduction is associative and commutative by construction — histogram
// merges are integer bucket sums and the per-node stats are a set keyed by
// node id — so the root's plan is bit-identical to the flat computation over
// the same summary set, for any fanout and any partial-arrival order
// (tests/epoch_tree_test.cc holds this across N, fanout, permutations).

// The sparse wire form of one summary: its nonzero age buckets + evictions.
EpochNodeStat CompressSummary(const EpochSummary& summary);

// Rebuilds the histogram a stat was compressed from, bit for bit.
LogHistogram ExpandAges(const EpochNodeStat& stat);

// CountAtOrAbove over the sparse form; equals ExpandAges(stat)
// .CountAtOrAbove(threshold) exactly (same bucket-lower-bound predicate).
uint64_t SparseCountAtOrAbove(const EpochNodeStat& stat, uint64_t threshold);

// The per-epoch age scan: adds every in-use page's age — boosted by
// `global_age_boost` for global pages, the same arithmetic PickVictim uses —
// into `out`. Streams the frame table's flags and ages columns directly
// (no per-frame indirect call); this is the hottest whole-table walk in the
// simulation, run by every node at every epoch. Bucket order matches the
// slot-order ForEach walk it replaced, bit for bit.
void AccumulateAgeHistogram(const FrameTable& frames, SimTime now,
                            double global_age_boost, LogHistogram* out);

// Computes the plan from an already-reduced partial. ComputeEpochPlan is
// implemented as a fold into one partial followed by this function, so the
// two can never drift apart.
EpochPlan ComputeEpochPlanFromPartial(const EpochConfig& config,
                                      uint64_t epoch, uint32_t num_nodes,
                                      const EpochPartial& partial,
                                      SimTime last_duration,
                                      NodeId fallback_initiator);

// The aggregation tree for one epoch round: the initiator at position 0,
// every other live node in ascending id order, connected as an implicit
// f-ary heap (children of position i are positions i*f+1 .. i*f+f). Every
// node derives the same tree from its replicated membership view, so the
// tree needs no wire representation beyond (initiator, fanout).
//
// The tree is a view: it keeps the sorted live span, the root and the
// root's rank in that span, and maps position p >= 1 to live[p-1] below the
// root's rank and live[p] from it on. View() builds it in O(log n) without
// copying the node list; every accessor is O(log n) plus O(fanout).
struct EpochTree {
  static constexpr size_t kNone = static_cast<size_t>(-1);

  // O(log n) view over `sorted_live`, which must be strictly ascending (the
  // POD table's live set is) and must outlive the tree.
  static EpochTree View(std::span<const NodeId> sorted_live, NodeId root,
                        uint32_t fanout);
  // Any order, duplicates allowed; the tree owns `live`, sorting it (without
  // the root) only when it is not already strictly ascending. O(n).
  static EpochTree Build(std::vector<NodeId> live, NodeId root,
                         uint32_t fanout);

  size_t size() const { return 1 + Live().size() - (root_in_live_ ? 1 : 0); }
  NodeId At(size_t pos) const;  // position -> node; At(0) is the root
  size_t IndexOf(NodeId node) const;
  NodeId Parent(NodeId node) const;  // kInvalidNode for the root / unknown
  std::vector<NodeId> Children(NodeId node) const;
  size_t SubtreeSize(NodeId node) const;      // 0 when `node` is unknown
  uint32_t SubtreeHeight(NodeId node) const;  // leaf (or unknown) = 0
  uint32_t Depth(NodeId node) const;          // root = 0

  uint32_t fanout = 1;

 private:
  std::span<const NodeId> Live() const {
    return owns_ ? std::span<const NodeId>(owned_) : borrowed_;
  }
  // Locates the root in the sorted live span.
  void RankRoot();

  std::span<const NodeId> borrowed_;
  std::vector<NodeId> owned_;
  bool owns_ = false;
  NodeId root_;
  size_t root_rank_ = 0;  // live nodes with id below the root's
  bool root_in_live_ = false;
};

// Straggler window for an aggregator whose subtree has height
// `subtree_height`: one summary_timeout per level below it, so each level
// can absorb its children's full wait before its own timer fires. The flat
// protocol (height 1 from the root's perspective) keeps summary_timeout
// exactly.
inline SimTime TreeCollectTimeout(const EpochConfig& config,
                                  uint32_t subtree_height) {
  return config.summary_timeout *
         static_cast<SimTime>(subtree_height > 1 ? subtree_height : 1);
}

}  // namespace gms

#endif  // SRC_CORE_EPOCH_H_
