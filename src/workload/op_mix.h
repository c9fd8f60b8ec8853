// Metadata operation mixes.
//
// Frequencies follow the paper's workload basis (section 5.2): "the
// metadata operations comprising our generated client workload are based
// primarily on a study of a 1997 trace of a general-purpose workload
// [Roselli et al.]" — a stat/open/close-dominated mix with the
// characteristic open->close and readdir->stat sequences, and rare
// namespace restructuring (rename/chmod), whose rarity Lazy Hybrid's
// viability depends on.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace mdsim {

class OpMix {
 public:
  /// `weights` indexed by OpType (size kNumOpTypes).
  explicit OpMix(std::vector<double> weights);

  OpType sample(Rng& rng) const;
  double weight(OpType t) const {
    return weights_[static_cast<std::size_t>(t)];
  }

  /// General-purpose mix (Roselli-style; metadata ops only).
  static OpMix general_purpose();
  /// Create-heavy mix used by the workload-shift experiment ("clients ...
  /// create new files in portions of the hierarchy served by a single
  /// MDS", figure 5).
  static OpMix create_heavy();
  /// Mix with frequent directory chmod/rename — the LH update-storm
  /// stressor (section 3.1.3's caveat).
  static OpMix restructure_heavy();

 private:
  std::vector<double> weights_;
  AliasTable table_;
};

}  // namespace mdsim
