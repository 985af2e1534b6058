// Walker alias method for O(1) sampling from a discrete distribution.
//
// Used for the eviction-targeting rule of section 3.2: "P sends the page to
// node i, where the probability of choosing node i is proportional to w_i".
// Nodes rebuild the table on their first draw after new weights arrive,
// then draw a target per putpage in constant time.
#ifndef SRC_COMMON_ALIAS_H_
#define SRC_COMMON_ALIAS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace gms {

class AliasSampler {
 public:
  AliasSampler() = default;

  // weights must be non-negative; at least one must be positive for the
  // sampler to be usable (otherwise empty() is true and Sample must not be
  // called).
  explicit AliasSampler(const std::vector<double>& weights);

  bool empty() const { return prob_.empty(); }
  size_t size() const { return prob_.size(); }

  // Draws an index with probability proportional to its weight.
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

}  // namespace gms

#endif  // SRC_COMMON_ALIAS_H_
