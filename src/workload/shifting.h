// Workload-shift scenario (figures 5 and 6): "after a short time, about
// half of the clients change their local region of activity and create
// new files in portions of the hierarchy served by a single MDS."
//
// Thin factory over GeneralWorkload: picks the destination directories as
// the subtrees initially delegated to one designated MDS and installs a
// create-heavy shift.
#pragma once

#include <memory>

#include "strategy/partition.h"
#include "workload/general.h"

namespace mdsim {

/// MDS whose initial territory absorbs the shifted clients.
inline constexpr MdsId kHotMds = 0;

struct ShiftingWorkloadParams {
  SimTime shift_at = 25 * kSecond;
  double fraction = 0.5;
};

/// Build the shifted workload: clients run `general` until the shift.
/// `partition` must be the run's subtree partition *after* initialization
/// (its delegation map selects the destination subtrees).
std::unique_ptr<GeneralWorkload> make_shifting_workload(
    FsTree& tree, std::vector<FsNode*> home_roots,
    const SubtreePartition& partition, const GeneralWorkloadParams& general,
    const ShiftingWorkloadParams& params);

}  // namespace mdsim
