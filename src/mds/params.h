// Tunables for MDS behaviour. Defaults are calibrated so a single MDS
// saturates in the low thousands of ops/sec with 2004-era disk constants,
// matching the operating region of the paper's figures.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "mds/admission.h"
#include "storage/disk_model.h"

namespace mdsim {

/// Gray-failure detection knobs (see MdsParams::health below). Thresholds
/// are deliberately relative — a gray node is one that is slow *compared
/// to its peers*, not one that crosses an absolute constant — with a small
/// absolute floor so an idle cluster never flags anyone.
struct HealthParams {
  /// Master switch. Off: no EWMA updates, no flags, no balancer bias —
  /// the healthy path is byte-identical to a build without the layer.
  bool enabled = false;
  /// EWMA weight for new health samples (per heartbeat period).
  double alpha = 0.3;
  /// A peer is degraded when its score exceeds the alive-peer median by
  /// this factor...
  double degraded_factor = 4.0;
  /// ...and recovers once back under this factor (hysteresis;
  /// must be < degraded_factor).
  double recovered_factor = 2.0;
  /// Absolute score floor (ns of lag) below which no one is ever flagged,
  /// regardless of relative spread.
  SimTime min_lag = 2 * kMillisecond;
  /// Self-detected degraded nodes volunteer load away once their load
  /// exceeds this fraction of the cluster mean (vs balance_trigger for
  /// healthy nodes).
  double volunteer_trigger = 0.60;
  /// Migration cooldown while self-degraded (vs migration_cooldown for
  /// healthy nodes): a sick node sheds territory round after round
  /// instead of waiting out the anti-thrash pause tuned for load spikes.
  SimTime volunteer_cooldown = 1 * kSecond;
  /// Max subtree roots a volunteer evacuates per migration transaction.
  /// Batching matters because the exporter journals the migration intent
  /// on the very disk that made it sick: one multi-second append buys the
  /// whole batch instead of one subtree.
  std::size_t evacuation_max_roots = 6;
};

struct MdsParams {
  // --- CPU ------------------------------------------------------------
  /// Base CPU service time to process one client request at the server.
  SimTime cpu_request = from_micros(40);
  /// Extra CPU per path component traversed.
  SimTime cpu_per_component = from_micros(3);
  /// CPU to forward a request to another node.
  SimTime cpu_forward = from_micros(5);
  /// CPU to serve a replica grant / handle coherence traffic.
  SimTime cpu_replica = from_micros(15);
  /// CPU per cache item packed/unpacked during subtree migration.
  SimTime cpu_migrate_per_item = from_micros(2);

  // --- Cache ------------------------------------------------------------
  /// Metadata cache capacity, in items (inodes).
  std::size_t cache_capacity = 4000;
  /// Half-life of the popularity decay counters.
  SimTime popularity_half_life = 2 * kSecond;

  // --- Storage ----------------------------------------------------------
  DiskParams disk;
  /// Bounded journal capacity in entries (paper: on the order of the
  /// cache size).
  std::size_t journal_capacity = 4000;

  // --- Load balancer (dynamic subtree only) -----------------------------
  /// Load metric (paper section 4.3). kWeightedLoad is the paper
  /// prototype's "weighted combination of node throughput and cache
  /// misses"; kUtilizationVector is the robust alternative the paper
  /// sketches — "equalize utilization of all resources across the
  /// cluster" — taking the bottleneck resource (CPU, disk, cache
  /// pressure) as the node's load.
  enum class BalancerMetric : std::uint8_t {
    kWeightedLoad,
    kUtilizationVector,
  };
  BalancerMetric balancer_metric = BalancerMetric::kWeightedLoad;

  SimTime heartbeat_period = kSecond;
  /// Rebalance when own load exceeds cluster mean by this factor.
  double balance_trigger = 1.50;
  /// ... and ship work to nodes below mean times this factor.
  double balance_target = 0.90;
  /// Weight of throughput vs cache-miss rate in the load metric (paper
  /// section 5.1: "a weighted combination of node throughput and cache
  /// misses").
  double load_weight_throughput = 1.0;
  double load_weight_miss = 3.0;
  /// Smallest subtree worth migrating (items in cache).
  std::size_t min_migration_items = 8;
  /// Minimum spacing between migrations initiated by one node.
  SimTime migration_cooldown = 4 * kSecond;
  /// A freshly imported subtree must stay this long before it can be
  /// re-exported (stops hot subtrees ping-ponging around the cluster).
  SimTime min_subtree_residency = 8 * kSecond;

  // --- Failure lifecycle (paper section 4.6) ------------------------------
  /// Survivors declare a peer dead once no heartbeat has arrived for this
  /// many heartbeat periods, then the lowest live id redistributes the
  /// dead node's delegations. Only strategies that run the heartbeat
  /// (i.e. those that balance load) detect failures.
  int heartbeat_miss_threshold = 3;
  /// Double-commit watchdog: an exporter with no ack (or an importer with
  /// no commit) after this long resolves the migration unilaterally —
  /// abort before the commit point, importer ownership after. Checked on
  /// the heartbeat, so effective resolution is rounded up to a period.
  SimTime migration_timeout = 3 * kSecond;
  /// Replica fetches whose grant never arrives (dropped message, dead
  /// authority) fail their waiters after this long instead of wedging the
  /// inode's fetch-coalescing slot forever.
  SimTime replica_fetch_timeout = 2 * kSecond;
  /// Attribute gathers park reads while calling deltas in from dirty
  /// holders; if a flush is lost the read resumes with what it has.
  SimTime attr_gather_timeout = 2 * kSecond;

  // --- Partition tolerance (leases, epochs, quorum takeover) --------------
  // Split-brain safety for subtree strategies: authority is held under a
  // renewable lease (renewed by heartbeats from peers that still list us
  // in their alive-mask), takeover is deferred by a grace period and
  // gated on a strict-majority quorum, and every failure-driven
  // reconfiguration bumps the partition-map epoch. Active wherever there
  // are heartbeats (load-balancing strategies) and at least 3 nodes;
  // below that takeover is immediate.

  /// Authority lease duration. A node that has not been acked by a strict
  /// majority within this window self-fences: it parks writes (reads are
  /// still served stale) until the lease renews. Must be shorter than
  /// detection horizon + takeover_grace so a minority node is fenced
  /// before the majority re-delegates its subtrees.
  SimTime authority_lease = 2 * kSecond;
  /// Delay between declaring a peer dead and re-delegating its subtrees.
  /// Covers the victim's lease expiry (see above) and rides out transient
  /// suspicion: a peer that comes back within the grace (flapping link)
  /// cancels the takeover instead of losing its territory.
  SimTime takeover_grace = 4 * kSecond;

  // --- Overload protection (admission control) ----------------------------
  /// Bounded queues + token-bucket admission in handle_client_request;
  /// sheds answer with explicit Rejected{retry_after} replies. Off by
  /// default: every fig run is byte-identical with the gate disabled.
  OverloadParams overload;

  // --- Gray-failure health scoring (fail-slow detection) ------------------
  /// Per-peer health scores: every heartbeat carries the sender's
  /// self-measured service lag (CPU + store backlog) and a send
  /// timestamp; receivers EWMA the one-way delivery lag and the reported
  /// service lag into one score per peer, flag peers whose score crosses
  /// degraded_factor × the cluster median, and deweight them as
  /// balancing targets (a self-detecting node volunteers load away).
  /// Off by default: no scoring, no flags, fig runs byte-identical.
  HealthParams health;

  // --- Traffic control (dynamic subtree only) ----------------------------
  bool traffic_control_enabled = true;
  /// Popularity (decayed requests/interval) above which an item/subtree is
  /// replicated cluster-wide and clients are told "anywhere". The default
  /// only fires for near-root directories and true crowds; flash-crowd
  /// experiments lower it.
  double replication_threshold = 5000.0;
  /// Popularity below which a replicated item collapses back to its
  /// authority.
  double unreplicate_threshold = 400.0;

  // --- Distributed attribute updates (paper section 4.2) ------------------
  /// Replicas absorb monotone attribute writes (setattr: mtime/size)
  /// locally, GPFS-style, and flush them to the authority periodically;
  /// reads at the authority first call outstanding deltas in.
  bool distributed_attr_updates = true;
  SimTime attr_flush_period = 500 * kMillisecond;

  // --- Lazy Hybrid -------------------------------------------------------
  /// Background drain rate of the LH lazy-update log, cluster-wide
  /// (entries per second; one network trip per affected file).
  double lh_drain_rate = 2000.0;
  SimTime lh_drain_tick_period = from_millis(10);

  // --- Dynamic directory fragmentation ------------------------------------
  bool dirfrag_enabled = true;
  /// Fragment a directory across the cluster when its size exceeds this
  /// many entries or its popularity exceeds the replication threshold.
  std::size_t dirfrag_size_threshold = 4000;
  double dirfrag_temp_threshold = 1200.0;
  /// Merge back when size and popularity fall below half the thresholds.
  double dirfrag_hysteresis = 0.25;

  // --- GIGA+ incremental splitting (within dirfrag) -----------------------
  /// Fragment incrementally: start as a single partition at the home node
  /// and split one hot/overfull partition at a time, instead of hashing
  /// the whole directory across the cluster in one step. Off restores the
  /// paper's all-at-once behavior exactly.
  bool giga_enabled = true;
  /// Maximum split depth: at most 2^depth partitions per directory.
  int giga_max_depth = 6;
  /// A mis-routed dentry op is redirected+forwarded at most this many
  /// times before being served locally (the shared tree makes a local
  /// serve correct, just cache-cold).
  int giga_max_hops = 8;
};

}  // namespace mdsim
