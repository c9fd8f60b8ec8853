// Deterministic fault-injection scenarios.
//
// A FaultPlan scripts a timed failure schedule against a ClusterSim —
// crash MDS 1 at t=8s, restart it at t=15s, make the 2<->3 link flaky
// from t=10s to t=12s — and arms it as ordinary simulation events, so a
// chaos run is exactly as reproducible as a healthy one: same seed, same
// plan, same byte-for-byte metrics. Used by the chaos tests, the
// availability bench and the CLI.
#pragma once

#include <functional>
#include <vector>

#include "core/cluster.h"
#include "net/network.h"

namespace mdsim {

class FaultPlan {
 public:
  /// Crash `node` at `at` (survivors detect it via heartbeats; see
  /// ClusterSim::fail_mds). `warm` selects warm vs cold takeover.
  FaultPlan& crash(SimTime at, MdsId node, bool warm = true);

  /// Restart a crashed node at `at` (journal replay + rejoin).
  FaultPlan& restart(SimTime at, MdsId node);

  /// Degrade the a<->b link (both directions) with `fault` from `from`
  /// until `until`, then restore it (`until <= from` = never). One fault
  /// record per link: a later window on the same link replaces it, and
  /// the earlier window's close clears it.
  FaultPlan& flaky_link(SimTime from, SimTime until, NetAddr a, NetAddr b,
                        const LinkFault& fault);

  /// Split the network into `groups` at `from` (see Network::partition)
  /// and heal it at `until`. `until <= from` means the partition never
  /// heals within the run. Only one partition is active at a time; a
  /// later partition action replaces the earlier grouping.
  FaultPlan& partition(SimTime from, SimTime until,
                       std::vector<std::vector<NetAddr>> groups);

  /// Sever the directed src->dst link at `from`, restore it at `until`
  /// (`until <= from` = never). Composable: several cuts model
  /// asymmetric or flapping connectivity.
  FaultPlan& cut_link(SimTime from, SimTime until, NetAddr src, NetAddr dst);

  /// Gray failure: from `from` until `until` (`until <= from` = for the
  /// rest of the run), `node`'s CPU serves every job `cpu_mult` times
  /// slower and its disks `disk_mult` times slower. Heartbeats keep
  /// flowing — the node is degraded, not dead.
  FaultPlan& fail_slow(SimTime from, SimTime until, MdsId node,
                       double cpu_mult, double disk_mult);

  /// Chaos-schedule generator: compose crash/restart, partition, flaky,
  /// fail-slow and sustained lossy-degrade windows from one seeded
  /// stream; the two link windows fall on different links. The same
  /// (seed, num_mds, duration) always yields the same plan, so randomized
  /// chaos sweeps are exactly as reproducible as hand-written ones. All
  /// windows open after `duration/5` (past typical warmup) and close by
  /// `4*duration/5`, leaving the tail to drain and recover.
  static FaultPlan randomize(std::uint64_t seed, int num_mds,
                             SimTime duration);

  /// Schedule every scripted action on the cluster's simulation clock.
  /// Actions due at the same instant run in the builders' order above
  /// (crashes, restarts, link faults, partitions, cuts, fail-slow), in
  /// the order they were added within one kind. The cluster must outlive
  /// the run; call once.
  void arm(ClusterSim& cluster) const;

 private:
  /// Declaration order is arm()'s order for actions due at one instant.
  enum class Kind { kCrash, kRestart, kLink, kPartition, kCut, kFailSlow };
  using Call = std::function<void(ClusterSim&)>;
  /// One timed ClusterSim call.
  struct Action {
    Kind kind;
    SimTime at;
    Call call;
  };

  FaultPlan& add(Kind kind, SimTime at, Call call);
  /// `open` at `from`; `close` at `until` only when `until > from`.
  FaultPlan& window(Kind kind, SimTime from, SimTime until, Call open,
                    Call close);

  std::vector<Action> actions_;
};

}  // namespace mdsim
