// Cluster builder and run driver: wires the ground-truth namespace, the
// shared substrates (object store, partition, anchors, dirfrag, network),
// the MDS nodes, the workload, and the client population, then runs the
// simulation while sampling metrics.
//
// A ClusterSim is the one per-cluster unit of both engines. Standalone it
// owns its Simulation and is the whole cluster. Bound to one engine of a
// ShardedSimulation (core/sharded_cluster.h) it is one shard: a
// mini-cluster over its slice of the users, MDS group and clients, with
// the same Metrics, FaultLog, tracer and fault-injection entry points.
#pragma once

#include <memory>
#include <vector>

#include "client/client.h"
#include "client/cohort.h"
#include "common/fault_log.h"
#include "core/config.h"
#include "core/metrics.h"
#include "mds/mds_node.h"
#include "net/shard_link.h"
#include "workload/workload.h"

namespace mdsim {

/// Where a cluster unit sits in a sharded run: shard `index` of `count`,
/// numbering its clients from global id `first_client`, ferrying
/// cross-shard messages over `link`.
struct ShardSlice {
  int index = 0;
  int count = 1;
  ClientId first_client = 0;
  CrossShardLink* link = nullptr;
};

class ClusterSim {
 public:
  explicit ClusterSim(SimConfig config);
  /// One shard of a sharded run, bound to that shard's `engine`. Every
  /// per-shard value derives from the slice: the namespace's users and
  /// seed, the network seed, the MDS count and cache capacity, the
  /// flash-crowd target, and the client count and uids. Shard 0 of 1
  /// derives the standalone values; only the client population differs
  /// (a ClientCohort rather than one Client per client).
  ClusterSim(SimConfig config, Simulation& engine, const ShardSlice& slice);
  ~ClusterSim();
  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  /// Wire the cluster (idempotent; every other entry point builds lazily).
  void build();
  /// Start the clients, the metrics sampling tick and the warm-up reset
  /// (idempotent). The sharded driver calls it on every shard before it
  /// runs the engine.
  void start();
  /// Run to config.duration (builds and starts lazily on first call).
  void run();
  /// Run to an arbitrary time (tests drive the simulation piecewise).
  void run_until(SimTime t);

  /// Crash an MDS (paper sections 2.1.2 and 4.6): the node goes silent
  /// and off the network; nothing else is told. Survivors detect the
  /// death from missed balancer heartbeats and the lowest live id
  /// redistributes the dead node's delegations — replaying its bounded
  /// journal into the heirs when `warm_takeover` (which sets
  /// MdsParams::warm_takeover cluster-wide for this run). Strategies
  /// without heartbeats (hashed / static subtree) get the redistribution
  /// applied directly, as they have no detector to find it.
  void fail_mds(MdsId failed, bool warm_takeover = true);
  /// Restart a crashed MDS: rejoin the network, replay its own bounded
  /// journal against the object store (real disk latency), and resume
  /// serving. Peers mark it back up when its heartbeats resume; the
  /// balancer re-populates it with load over time.
  void recover_mds(MdsId node);

  /// Gray-failure injection: `node`'s CPU serves every subsequent job
  /// `cpu_mult` times slower and its disks `disk_mult` times slower
  /// (1.0/1.0 restores nominal speed). The node stays up and heartbeating
  /// — detection is the health layer's job, not the fault's.
  void set_fail_slow(MdsId node, double cpu_mult, double disk_mult);

  /// Failure-lifecycle incident log (crash / detection / takeover /
  /// restart / rejoin timestamps for every injected fault).
  FaultLog& fault_log() { return fault_log_; }

  const SimConfig& config() const { return config_; }
  Simulation& sim() { return sim_; }
  FsTree& tree() { return tree_; }
  Network& network() { return *net_; }
  Partitioner& partition() { return *partition_; }
  DirFragRegistry& dirfrag() { return *dirfrag_; }
  ObjectStore& object_store() { return store_; }
  AnchorTable& anchors() { return anchors_; }
  LazyHybridManager* lazy() { return lazy_.get(); }
  Workload& workload() { return *workload_; }
  const NamespaceInfo& namespace_info() const { return ns_info_; }

  MdsNode& mds(int i) { return *mds_nodes_[static_cast<std::size_t>(i)]; }
  int num_mds() const { return num_mds_; }
  /// Per-client objects exist on the standalone engine only; a shard's
  /// clients live in its cohort().
  Client& client(int i) { return *clients_[static_cast<std::size_t>(i)]; }
  int num_clients() const { return num_clients_; }
  /// The shard's client population (null when standalone).
  ClientCohort* cohort() { return cohort_.get(); }

  Metrics& metrics() { return *metrics_; }
  /// Per-request trace collector; null unless config.trace.enabled.
  TraceCollector* tracer() { return tracer_.get(); }

 private:
  /// This unit's share of a cluster-wide count: an even split with the
  /// remainder on the first shards, at least one per shard (`total`
  /// itself when standalone).
  int share(int total) const;
  /// Decorrelates per-shard seeds without losing determinism.
  std::uint64_t shard_seed(std::uint64_t seed) const;

  SimConfig config_;
  ShardSlice slice_;
  std::unique_ptr<Simulation> own_sim_;  // null when bound to a shard engine
  Simulation& sim_;
  int num_mds_;
  int num_clients_;
  FsTree tree_;
  NamespaceInfo ns_info_;
  ObjectStore store_;
  AnchorTable anchors_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Partitioner> partition_;
  std::unique_ptr<DirFragRegistry> dirfrag_;
  std::unique_ptr<LazyHybridManager> lazy_;
  std::unique_ptr<ClusterContext> ctx_;
  std::vector<std::unique_ptr<MdsNode>> mds_nodes_;
  std::unique_ptr<Workload> workload_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unique_ptr<ClientCohort> cohort_;
  std::unique_ptr<Metrics> metrics_;
  std::unique_ptr<TraceCollector> tracer_;
  FaultLog fault_log_;
  bool built_ = false;
  bool started_ = false;
};

}  // namespace mdsim
