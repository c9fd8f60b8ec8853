#include "workload/shifting.h"

namespace mdsim {

std::unique_ptr<GeneralWorkload> make_shifting_workload(
    FsTree& tree, std::vector<FsNode*> home_roots,
    const SubtreePartition& partition, const GeneralWorkloadParams& general,
    const ShiftingWorkloadParams& params) {
  auto wl = std::make_unique<GeneralWorkload>(
      tree, std::move(home_roots), OpMix::general_purpose(), general);

  WorkloadShift shift;
  shift.at = params.shift_at;
  shift.fraction = params.fraction;
  shift.mix = OpMix::create_heavy();
  for (const FsNode* d : partition.delegations_of(kHotMds)) {
    shift.destinations.push_back(const_cast<FsNode*>(d));
  }
  if (shift.destinations.empty()) {
    // Degenerate partition: fall back to the first home directory.
    shift.destinations.push_back(tree.root());
  }
  wl->set_shift(std::move(shift));
  return wl;
}

}  // namespace mdsim
