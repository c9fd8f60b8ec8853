// Scientific-computing workload (paper section 5.2).
//
// Based on the LLNL 2003 trace analysis the paper cites: "bursts of
// activity for which all the nodes access the same file or a set of files
// in the same directory". Clients cycle through compute phases (quiet)
// and I/O bursts. Two burst shapes alternate:
//   * N-to-1: every client opens (then closes) the same shared file —
//     e.g. a common input deck or restart file;
//   * N-to-N: every client creates its own file in the same run directory
//     — a checkpoint storm (the create hot-spot that motivates dynamic
//     directory fragmentation).
#pragma once

#include <vector>

#include "workload/workload.h"

namespace mdsim {

/// Think time between ops inside a burst.
inline constexpr SimTime kBurstThink = from_millis(2);
/// Small desynchronization of burst starts across clients.
inline constexpr SimTime kBurstSkew = from_millis(50);

struct ScientificWorkloadParams {
  /// Quiet compute time between bursts, per client.
  SimTime compute_phase = 4 * kSecond;
  /// Ops each client performs per burst.
  int ops_per_burst = 20;
  /// Fraction of bursts that are N-to-1 opens (rest are N-to-N creates).
  double n_to_1_fraction = 0.5;
  /// Within an N-to-1 burst, probability that an op is a shared *write*
  /// (setattr on the common file — concurrent writers updating size/mtime,
  /// the GPFS scenario of paper section 4.2) instead of an open/stat.
  double n_to_1_write_fraction = 0.0;
};

class ScientificWorkload final : public Workload {
 public:
  /// `run_dirs`: the project run directories (each containing the shared
  /// files and receiving checkpoint creates).
  ScientificWorkload(FsTree& tree, std::vector<FsNode*> run_dirs,
                     ScientificWorkloadParams params = {});

  SimTime next(ClientId c, SimTime now, Rng& rng, Operation* out) override;

  /// The shared target of burst number `n` (tests).
  FsNode* burst_dir(std::uint64_t n) const {
    return run_dirs_[n % run_dirs_.size()];
  }

 private:
  struct ClientState {
    std::uint64_t burst = 0;     // burst number this client is in/next
    int remaining = 0;           // ops left in the current burst
    FsNode* open_target = nullptr;
    bool n_to_1 = true;
    std::uint64_t name_counter = 0;
  };

  ClientState& state(ClientId c);

  FsTree& tree_;
  std::vector<FsNode*> run_dirs_;
  ScientificWorkloadParams params_;
  std::vector<ClientState> clients_;
};

}  // namespace mdsim
