// Sharded cluster simulation: the parallel counterpart of a standalone
// ClusterSim.
//
// The system is split into S shards, each one ClusterSim unit — the same
// builder as the standalone engine — bound to one engine of a
// ShardedSimulation over its slice of the users, MDS group and clients
// (core/cluster.h ShardSlice). All of the intra-cluster protocol
// (forwarding, replication, migration, heartbeats, journaling, failure
// detection and takeover) runs unmodified *within* a shard,
// single-threaded, and every shard keeps the standalone observables: its
// own Metrics time series, FaultLog and tracer, and FaultPlan / fail_mds
// injection through shard(s). Cross-shard traffic is client-driven: each
// shard's cohort holds a frozen catalog of remote targets (sampled
// deterministically from the other shards' trees at build time) and
// issues stats against them with a configurable probability; those
// requests and their replies ride the lookahead-bounded mailbox fabric
// (net/shard_link.h), which is what makes N-shard runs bit-stable across
// any thread count.
//
// Non-goals, documented in DESIGN.md §5f: faults on the cross-shard
// fabric itself (partitions, link faults) and cross-shard takeover; a
// crashed MDS is recovered by its own shard's survivors.
#pragma once

#include <memory>
#include <vector>

#include "core/cluster.h"
#include "core/config.h"
#include "core/experiment.h"
#include "net/shard_link.h"
#include "sim/sharded.h"

namespace mdsim {

class ShardedClusterSim {
 public:
  /// Creates the S shard units; they are wired on the first run().
  explicit ShardedClusterSim(SimConfig config);
  ~ShardedClusterSim();
  ShardedClusterSim(const ShardedClusterSim&) = delete;
  ShardedClusterSim& operator=(const ShardedClusterSim&) = delete;

  /// Build, run to config.duration, summarize. Idempotent.
  void run();

  /// Summary over every shard, shaped exactly like a single-cluster run's
  /// summary. Valid after run().
  const RunResult& result() const { return result_; }

  ShardedSimulation& engine() { return engine_; }
  int num_shards() const { return engine_.shard_count(); }
  /// Shard `s`'s cluster unit (arm a FaultPlan on it before run()).
  ClusterSim& shard(int s) { return *shards_[static_cast<std::size_t>(s)]; }
  int total_mds() const;
  int total_clients() const;
  std::uint64_t remote_ops() const;
  /// Merged per-request trace aggregation (null when tracing is off).
  const TraceCollector* tracer() const { return merged_tracer_.get(); }

 private:
  /// Ferries cross-shard messages: source/destination shards are decoded
  /// from the global addresses, so one fabric serves every network.
  struct Fabric final : CrossShardLink {
    ShardedClusterSim* owner = nullptr;
    void deliver(NetAddr global_from, NetAddr global_to, SimTime when,
                 MessagePtr msg) override;
  };

  void build_catalogs();

  SimConfig config_;
  ShardedSimulation engine_;
  Fabric fabric_;
  std::vector<std::unique_ptr<ClusterSim>> shards_;
  std::unique_ptr<TraceCollector> merged_tracer_;
  RunResult result_;
  bool ran_ = false;
};

}  // namespace mdsim
