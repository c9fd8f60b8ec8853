// General-purpose workload (paper section 5.2).
//
// Clients exhibit directory locality (Floyd/Ellis): each client works
// inside a *region* (a directory) that drifts slowly — mostly to
// parent/child/sibling directories, occasionally jumping elsewhere.
// Operation types follow the configured OpMix, with the two canonical
// sequences modelled explicitly: an open is followed by a close of the
// same file, and a readdir is followed by a burst of stats on entries of
// that directory.
//
// The same class implements the workload-shift scenario of figures 5/6:
// an optional Shift moves a fraction of the clients into a designated set
// of directories at a given time, switching them to a (typically
// create-heavy) second mix.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "workload/op_mix.h"
#include "workload/workload.h"

namespace mdsim {

/// Think time within a sequence (close-after-open, stats-after-readdir).
inline constexpr SimTime kMeanSeqThink = from_millis(4);
/// Per-step region transition probabilities besides
/// GeneralWorkloadParams::p_stay.
inline constexpr double kPMoveChild = 0.10;
inline constexpr double kPMoveParent = 0.05;
inline constexpr double kPMoveSibling = 0.04;
/// Remaining probability: jump to another home directory.
/// When jumping, probability the client returns to its *own* home
/// (whose permissions it always satisfies); otherwise a Zipf-popular
/// home is chosen (a few homes are cluster-wide hot).
inline constexpr double kPOwnHome = 0.7;
/// Zipf skew for cross-client popularity of home directories.
inline constexpr double kHomeZipfSkew = 0.8;
/// Start-up jitter so clients do not tick in lockstep.
inline constexpr SimTime kStartJitter = from_millis(200);

struct GeneralWorkloadParams {
  /// Mean think time between operations.
  SimTime mean_think = from_millis(30);
  /// Probability a client's region stays put on a step.
  double p_stay = 0.78;
  /// After a readdir, stat up to this many entries.
  int readdir_stat_burst = 6;
};

struct WorkloadShift {
  SimTime at = 0;
  /// Fraction of clients that migrate.
  double fraction = 0.5;
  /// Directories the migrating clients move into.
  std::vector<FsNode*> destinations;
  /// Mix used by migrated clients (create-heavy by default).
  std::optional<OpMix> mix;
};

class GeneralWorkload final : public Workload {
 public:
  GeneralWorkload(FsTree& tree, std::vector<FsNode*> home_roots,
                  OpMix mix = OpMix::general_purpose(),
                  GeneralWorkloadParams params = {});

  /// Install a workload shift (figures 5/6). Must be set before clients
  /// start.
  void set_shift(WorkloadShift shift) { shift_ = std::move(shift); }

  SimTime next(ClientId c, SimTime now, Rng& rng, Operation* out) override;

  /// Test hook: the region a client currently works in.
  const FsNode* region_of(ClientId c) const;

 private:
  struct ClientState {
    FsNode* region = nullptr;
    /// After a workload shift, jumps return here instead of the client's
    /// original home (shifted clients *stay* in the new region, fig 5).
    FsNode* home_override = nullptr;
    FsNode* opened = nullptr;  // pending close target
    /// Pending readdir->stat burst: FIFO as (vector, head index) so a
    /// default-constructed state allocates nothing (a deque allocates its
    /// map eagerly — at 10⁶ clients that is 10⁶ startup allocations) and
    /// the buffer's capacity is reused across bursts.
    std::vector<FsNode*> stat_queue;
    std::size_t stat_head = 0;
    bool started = false;
    bool shifted = false;
    std::uint64_t name_counter = 0;
  };

  ClientState& state(ClientId c);
  void clamp_to_override(ClientState& s, Rng& rng);
  void maybe_drift(ClientId c, ClientState& s, Rng& rng);
  void maybe_shift(ClientId c, ClientState& s, SimTime now, Rng& rng);
  FsNode* random_home(ClientId c, Rng& rng);
  FsNode* random_file_in(FsNode* dir, Rng& rng);
  bool generate(ClientId c, ClientState& s, Rng& rng, Operation* out);

  FsTree& tree_;
  std::vector<FsNode*> homes_;
  OpMix mix_;
  GeneralWorkloadParams params_;
  std::optional<WorkloadShift> shift_;
  std::unique_ptr<ZipfSampler> home_zipf_;
  std::vector<ClientState> clients_;
};

}  // namespace mdsim
