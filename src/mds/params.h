// Tunables for MDS behaviour. Defaults are calibrated so a single MDS
// saturates in the low thousands of ops/sec with 2004-era disk constants,
// matching the operating region of the paper's figures.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "mds/admission.h"
#include "storage/disk_model.h"

namespace mdsim {

/// Gray-failure detection constants (see MdsParams::health below).
/// EWMA weight for new health samples (per heartbeat period).
inline constexpr double kHealthAlpha = 0.3;
/// A degraded peer recovers once back under this factor of the alive-peer
/// median (hysteresis; must be < HealthParams::degraded_factor).
inline constexpr double kRecoveredFactor = 2.0;
/// Self-detected degraded nodes volunteer load away once their load
/// exceeds this fraction of the cluster mean (vs balance_trigger for
/// healthy nodes).
inline constexpr double kVolunteerTrigger = 0.60;
/// Migration cooldown while self-degraded (vs kMigrationCooldown for
/// healthy nodes): a sick node sheds territory round after round
/// instead of waiting out the anti-thrash pause tuned for load spikes.
inline constexpr SimTime kVolunteerCooldown = 1 * kSecond;
/// Max subtree roots a volunteer evacuates per migration transaction.
/// Batching matters because the exporter journals the migration intent
/// on the very disk that made it sick: one multi-second append buys the
/// whole batch instead of one subtree.
inline constexpr std::size_t kEvacuationMaxRoots = 6;

/// Gray-failure detection knobs (see MdsParams::health below). Thresholds
/// are deliberately relative — a gray node is one that is slow *compared
/// to its peers*, not one that crosses an absolute constant — with a small
/// absolute floor so an idle cluster never flags anyone.
struct HealthParams {
  /// Master switch. Off: no EWMA updates, no flags, no balancer bias —
  /// the healthy path is byte-identical to a build without the layer.
  bool enabled = false;
  /// A peer is degraded when its score exceeds the alive-peer median by
  /// this factor (and recovers under kRecoveredFactor, which must be
  /// smaller).
  double degraded_factor = 4.0;
  /// Absolute score floor (ns of lag) below which no one is ever flagged,
  /// regardless of relative spread.
  SimTime min_lag = 2 * kMillisecond;
};

// --- Calibration constants ------------------------------------------------
// Fixed across every experiment (paper section 5.1 varies cluster size,
// cache size, strategy and workload only); the settable values are the
// MdsParams fields below.

/// CPU to forward a request to another node.
inline constexpr SimTime kCpuForward = from_micros(5);
/// CPU to serve a replica grant / handle coherence traffic.
inline constexpr SimTime kCpuReplica = from_micros(15);
/// CPU per cache item packed/unpacked during subtree migration.
inline constexpr SimTime kCpuMigratePerItem = from_micros(2);

/// Load balancer: ship work to nodes below the cluster mean times this
/// factor.
inline constexpr double kBalanceTarget = 0.90;
/// Minimum spacing between migrations initiated by one node.
inline constexpr SimTime kMigrationCooldown = 4 * kSecond;
/// A freshly imported subtree must stay this long before it can be
/// re-exported (stops hot subtrees ping-ponging around the cluster).
inline constexpr SimTime kMinSubtreeResidency = 8 * kSecond;

/// Survivors declare a peer dead once no heartbeat has arrived for this
/// many heartbeat periods, then the lowest live id redistributes the
/// dead node's delegations. Only strategies that run the heartbeat
/// (i.e. those that balance load) detect failures.
inline constexpr int kHeartbeatMissThreshold = 3;
/// Double-commit watchdog: an exporter with no ack (or an importer with
/// no commit) after this long resolves the migration unilaterally —
/// abort before the commit point, importer ownership after. Checked on
/// the heartbeat, so effective resolution is rounded up to a period.
inline constexpr SimTime kMigrationTimeout = 3 * kSecond;
/// Replica fetches whose grant never arrives (dropped message, dead
/// authority) fail their waiters after this long instead of wedging the
/// inode's fetch-coalescing slot forever.
inline constexpr SimTime kReplicaFetchTimeout = 2 * kSecond;
/// Attribute gathers park reads while calling deltas in from dirty
/// holders; if a flush is lost the read resumes with what it has.
inline constexpr SimTime kAttrGatherTimeout = 2 * kSecond;

// Partition tolerance (leases, epochs, quorum takeover). Split-brain
// safety for subtree strategies: authority is held under a renewable
// lease (renewed by heartbeats from peers that still list us in their
// alive-mask), takeover is deferred by a grace period and gated on a
// strict-majority quorum, and every failure-driven reconfiguration bumps
// the partition-map epoch. Active wherever there are heartbeats
// (load-balancing strategies) and at least 3 nodes; below that takeover
// is immediate.

/// Authority lease duration. A node that has not been acked by a strict
/// majority within this window self-fences: it parks writes (reads are
/// still served stale) until the lease renews. Must be shorter than
/// detection horizon + kTakeoverGrace so a minority node is fenced
/// before the majority re-delegates its subtrees.
inline constexpr SimTime kAuthorityLease = 2 * kSecond;
/// Delay between declaring a peer dead and re-delegating its subtrees.
/// Covers the victim's lease expiry (see above) and rides out transient
/// suspicion: a peer that comes back within the grace (flapping link)
/// cancels the takeover instead of losing its territory.
inline constexpr SimTime kTakeoverGrace = 4 * kSecond;
// The detection horizon is a positive number of heartbeat periods, so a
// lease shorter than the grace alone is shorter than their sum for every
// heartbeat_period.
static_assert(kAuthorityLease < kTakeoverGrace,
              "a minority node must fence before its subtrees are taken");

/// Tick period of the Lazy Hybrid lazy-update log drain.
inline constexpr SimTime kLhDrainTickPeriod = from_millis(10);

/// Dirfrag merge hysteresis: merge back when size and popularity fall
/// below this fraction of the thresholds.
inline constexpr double kDirfragHysteresis = 0.25;
/// GIGA+ maximum split depth: at most 2^depth partitions per directory.
/// At most 6: the split bitmap is a uint64, so at most 64 partitions
/// (indices 0..63) exist per directory.
inline constexpr int kGigaMaxDepth = 6;
static_assert(kGigaMaxDepth >= 1 && kGigaMaxDepth <= 6);
/// A mis-routed dentry op is redirected+forwarded at most this many
/// times before being served locally (the shared tree makes a local
/// serve correct, just cache-cold).
inline constexpr int kGigaMaxHops = 8;

struct MdsParams {
  // --- CPU ------------------------------------------------------------
  /// Base CPU service time to process one client request at the server.
  SimTime cpu_request = from_micros(40);
  /// Extra CPU per path component traversed.
  SimTime cpu_per_component = from_micros(3);

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
  /// Weight of throughput vs cache-miss rate in the load metric (paper
  /// section 5.1: "a weighted combination of node throughput and cache
  /// misses").
  double load_weight_throughput = 1.0;
  double load_weight_miss = 3.0;
  /// Smallest subtree worth migrating (items in cache).
  std::size_t min_migration_items = 8;

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

  // --- Dynamic directory fragmentation ------------------------------------
  bool dirfrag_enabled = true;
  /// Fragment a directory across the cluster when its size exceeds this
  /// many entries or its popularity exceeds the replication threshold.
  std::size_t dirfrag_size_threshold = 4000;
  double dirfrag_temp_threshold = 1200.0;

  // --- GIGA+ incremental splitting (within dirfrag) -----------------------
  /// Fragment incrementally: start as a single partition at the home node
  /// and split one hot/overfull partition at a time, instead of hashing
  /// the whole directory across the cluster in one step. Off restores the
  /// paper's all-at-once behavior exactly.
  bool giga_enabled = true;
};

}  // namespace mdsim
