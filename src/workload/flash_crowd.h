// Flash-crowd workload (paper section 5.4 / figure 7): a large number of
// clients "simultaneously request the same file, a scenario typical of
// many scientific computing workloads". Clients are idle until the crowd
// begins, then re-request the target in a tight closed loop for the burst
// window, then go quiet.
//
// An optional steady background load (base_think > 0 plus a background
// file set) turns the crowd into a *spike on top of a baseline*: clients
// stat random background files before and after the burst window instead
// of idling. That persistent post-spike load is what distinguishes a
// transient hiccup from a metastable collapse — with the default
// base_think = 0 the workload is bit-identical to the legacy shape.
#pragma once

#include <vector>

#include "workload/workload.h"

namespace mdsim {

struct FlashCrowdParams {
  SimTime start = 8 * kSecond;
  SimTime duration = from_millis(250);
  /// Think time between a client's successive requests during the crowd.
  SimTime think = from_millis(2);
  /// Small per-client skew of the first request.
  SimTime skew = from_millis(5);
  /// Mean think time of the background load outside the crowd window.
  /// 0 (default) keeps the legacy shape: idle before, finished after.
  SimTime base_think = 0;
  /// Fraction of background ops that are setattrs (the write admission
  /// class) instead of stats.
  double base_write_fraction = 0.0;
};

class FlashCrowdWorkload final : public Workload {
 public:
  FlashCrowdWorkload(FsTree& tree, FsNode* target,
                     FlashCrowdParams params = {});

  /// Files the background load draws from (only consulted when
  /// base_think > 0). Must be set before clients start.
  void set_background(std::vector<FsNode*> files) {
    background_ = std::move(files);
  }

  SimTime next(ClientId c, SimTime now, Rng& rng, Operation* out) override;

  FsNode* target() const { return target_; }

 private:
  FsTree& tree_;
  FsNode* target_;
  FlashCrowdParams params_;
  std::vector<FsNode*> background_;
};

}  // namespace mdsim
