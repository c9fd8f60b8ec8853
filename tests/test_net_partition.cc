// Network partitions and split-brain safety. Two layers:
//
//  * fabric-level: Network::partition()/heal() and directed cut_link()
//    drop exactly the traffic they claim to, attribute drops to the
//    right counter, and leave healthy timings byte-identical once healed;
//
//  * cluster-level: a minority-side MDS loses its authority lease and
//    self-fences (parks writes, keeps serving reads), the majority
//    quorum waits out the takeover grace before re-delegating under a
//    bumped epoch, no schedule ever yields two lease-valid authorities
//    for one subtree, and on heal the fenced node reconciles and its
//    parked writes land exactly once.
//
// The namespace-partition *strategies* (how the tree is split across
// nodes) live in test_strategy_partition.cc; this file is about the
// network splitting.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/fault_plan.h"
#include "test_util.h"

namespace mdsim {
namespace {

// ---------------------------------------------------------------------------
// Fabric level
// ---------------------------------------------------------------------------

struct Recorder final : NetEndpoint {
  Simulation* sim = nullptr;
  std::vector<std::pair<NetAddr, SimTime>> arrivals;
  void on_message(NetAddr from, MessagePtr msg) override {
    (void)msg;
    arrivals.push_back({from, sim->now()});
  }
};

class NetPartitionTest : public ::testing::Test {
 protected:
  NetPartitionTest() {
    params_.base_latency = 100;
    params_.jitter_mean = 0;
    params_.seed = 7;
    net_ = std::make_unique<Network>(sim_, params_);
    for (auto& r : nodes_) {
      r.sim = &sim_;
      addrs_.push_back(net_->attach(&r));
    }
  }

  MessagePtr ping() { return std::make_unique<HeartbeatMsg>(); }

  Simulation sim_;
  NetworkParams params_;
  std::unique_ptr<Network> net_;
  Recorder nodes_[4];
  std::vector<NetAddr> addrs_;
};

TEST_F(NetPartitionTest, PartitionDropsCrossGroupTrafficBothWays) {
  net_->partition({{addrs_[0], addrs_[1]}, {addrs_[2], addrs_[3]}});
  EXPECT_TRUE(net_->partitioned());
  for (int i = 0; i < 5; ++i) {
    net_->send(addrs_[0], addrs_[2], ping());  // cross: dropped
    net_->send(addrs_[2], addrs_[0], ping());  // cross: dropped
    net_->send(addrs_[0], addrs_[1], ping());  // same side: delivered
    net_->send(addrs_[2], addrs_[3], ping());  // same side: delivered
  }
  sim_.run();
  EXPECT_TRUE(nodes_[0].arrivals.empty());
  EXPECT_TRUE(nodes_[2].arrivals.empty());
  EXPECT_EQ(nodes_[1].arrivals.size(), 5u);
  EXPECT_EQ(nodes_[3].arrivals.size(), 5u);
  EXPECT_EQ(net_->partition_dropped(), 10u);

  net_->heal();
  EXPECT_FALSE(net_->partitioned());
  net_->send(addrs_[0], addrs_[2], ping());
  sim_.run();
  EXPECT_EQ(nodes_[2].arrivals.size(), 1u);
  EXPECT_EQ(net_->partition_dropped(), 10u);
}

TEST_F(NetPartitionTest, UnlistedEndpointsStayWithGroupZero) {
  // Only node 3 is exiled; 0..2 (including the never-listed 0 and 1)
  // remain mutually connected.
  net_->partition({{addrs_[2]}, {addrs_[3]}});
  net_->send(addrs_[0], addrs_[1], ping());
  net_->send(addrs_[0], addrs_[2], ping());
  net_->send(addrs_[0], addrs_[3], ping());
  sim_.run();
  EXPECT_EQ(nodes_[1].arrivals.size(), 1u);
  EXPECT_EQ(nodes_[2].arrivals.size(), 1u);
  EXPECT_TRUE(nodes_[3].arrivals.empty());
}

TEST_F(NetPartitionTest, DirectedCutDropsOneDirectionOnly) {
  net_->cut_link(addrs_[0], addrs_[1]);
  for (int i = 0; i < 4; ++i) {
    net_->send(addrs_[0], addrs_[1], ping());  // cut direction
    net_->send(addrs_[1], addrs_[0], ping());  // reverse: alive
  }
  sim_.run();
  EXPECT_TRUE(nodes_[1].arrivals.empty());
  EXPECT_EQ(nodes_[0].arrivals.size(), 4u);
  EXPECT_EQ(net_->partition_dropped(), 4u);

  net_->restore_link(addrs_[0], addrs_[1]);
  net_->send(addrs_[0], addrs_[1], ping());
  sim_.run();
  EXPECT_EQ(nodes_[1].arrivals.size(), 1u);
}

TEST_F(NetPartitionTest, DropAttributionSplitsByCause) {
  // One drop of each kind: downed endpoint, partition boundary, link
  // fault. Each lands in its own counter; the legacy total is the sum.
  net_->set_down(addrs_[3], true);
  net_->send(addrs_[0], addrs_[3], ping());  // down drop

  net_->partition({{addrs_[0]}, {addrs_[1], addrs_[2]}});
  net_->send(addrs_[0], addrs_[1], ping());  // partition drop
  net_->heal();

  LinkFault f;
  f.drop = 1.0;
  net_->set_link_fault(addrs_[0], addrs_[1], f);
  net_->send(addrs_[0], addrs_[1], ping());  // fault drop
  net_->clear_link_fault(addrs_[0], addrs_[1]);

  sim_.run();
  EXPECT_EQ(net_->down_dropped(), 1u);
  EXPECT_EQ(net_->partition_dropped(), 1u);
  EXPECT_EQ(net_->fault_dropped(), 1u);
  EXPECT_EQ(net_->dropped_messages(), 3u);
}

TEST_F(NetPartitionTest, HealedFabricKeepsHealthyTimings) {
  // Deliveries after heal() are byte-identical to a network that was
  // never partitioned: the check is a branch, not an RNG consumer.
  NetworkParams params = params_;
  params.jitter_mean = from_micros(20);
  auto run = [&](bool with_partition) {
    Simulation sim;
    Network net(sim, params);
    Recorder a, b;
    a.sim = &sim;
    b.sim = &sim;
    const NetAddr aa = net.attach(&a);
    const NetAddr ab = net.attach(&b);
    if (with_partition) {
      net.partition({{aa}, {ab}});
      net.cut_link(ab, aa);
      net.heal();
    }
    for (int i = 0; i < 50; ++i) {
      net.send(aa, ab, std::make_unique<HeartbeatMsg>());
    }
    sim.run();
    std::vector<SimTime> times;
    for (const auto& arr : b.arrivals) times.push_back(arr.second);
    return times;
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Cluster level
// ---------------------------------------------------------------------------

/// At most one live, unfenced node may believe itself the authority of
/// any subtree root — the split-brain invariant, checked through each
/// node's *own* (possibly frozen) view of the partition map.
void expect_single_authority(ClusterSim& cluster, SimTime at) {
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster.partition());
  ASSERT_NE(subtree, nullptr);
  for (const FsNode* root : subtree->known_roots()) {
    int claimants = 0;
    for (int i = 0; i < cluster.num_mds(); ++i) {
      MdsNode& n = cluster.mds(i);
      if (n.failed() || n.fenced()) continue;
      if (n.authority_for(root) == i) ++claimants;
    }
    EXPECT_LE(claimants, 1)
        << "root ino " << root->ino() << " at t=" << to_seconds(at);
  }
}

/// A user home owned by the given node (nullptr if it owns none).
FsNode* home_owned_by(ClusterSim& cluster, MdsId owner) {
  for (FsNode* u : cluster.namespace_info().user_roots) {
    if (cluster.mds(0).authority_for(u) == owner) return u;
  }
  return nullptr;
}

/// First file child of `dir` (setattr target), else nullptr.
FsNode* file_child(FsNode* dir) {
  for (FsNode* c : dir->children_list()) {
    if (!c->is_dir()) return c;
  }
  for (FsNode* c : dir->children_list()) {
    if (FsNode* f = file_child(c)) return f;
  }
  return nullptr;
}

class ClusterPartitionTest : public ::testing::Test {
 protected:
  void build(int num_mds = 3, std::uint64_t seed = 42) {
    SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree, num_mds,
                                  seed);
    cfg.mds.min_migration_items = 2;
    cluster = std::make_unique<ClusterSim>(cfg);
    maj_client.attach(*cluster);
    min_client.attach(*cluster);
  }

  void run_until(SimTime t) { cluster->run_until(t); }

  std::unique_ptr<ClusterSim> cluster;
  TestClient maj_client;
  TestClient min_client;
};

TEST_F(ClusterPartitionTest, MinorityFencesWritesParkAndLandAfterHeal) {
  build();
  // Isolate a node that owns territory, with min_client on its side.
  MdsId victim = kInvalidMds;
  FsNode* home = nullptr;
  for (MdsId m = 0; m < cluster->num_mds() && home == nullptr; ++m) {
    if ((home = home_owned_by(*cluster, m)) != nullptr) victim = m;
  }
  ASSERT_NE(home, nullptr);
  FsNode* file = file_child(home);
  ASSERT_NE(file, nullptr);

  // Warm the victim's cache for the file's path while healthy, so the
  // fenced read below can be served from cache (a cold read would need a
  // prefix replica from across the cut and just hang — acceptable, but
  // not what this test is about).
  run_until(2 * kSecond);
  const std::uint64_t warm_id = min_client.send(victim, OpType::kStat, file);
  run_until(4 * kSecond);
  ASSERT_NE(min_client.reply_for(warm_id), nullptr);

  std::vector<NetAddr> minority{victim, min_client.addr()};
  cluster->network().partition({{}, minority});

  // The lease (2 s) lapses and the victim self-fences well before the
  // majority's grace-delayed takeover.
  run_until(8 * kSecond);
  EXPECT_TRUE(cluster->mds(victim).fenced());
  EXPECT_GE(cluster->mds(victim).stats().fence_events, 1u);
  for (int i = 0; i < cluster->num_mds(); ++i) {
    if (i != victim) {
      EXPECT_FALSE(cluster->mds(i).fenced()) << i;
    }
  }

  // A minority-side write parks (CP for writes: no ack, no apply)...
  const std::uint64_t size_before = file->inode().size;
  const std::uint64_t parked_id =
      min_client.send(victim, OpType::kSetattr, file);
  // ...while a minority-side read is still served (stale reads allowed).
  const std::uint64_t read_id = min_client.send(victim, OpType::kStat, file);
  run_until(9 * kSecond);
  EXPECT_GE(cluster->mds(victim).parked_requests(), 1u);
  EXPECT_GE(cluster->mds(victim).stats().writes_parked_fenced, 1u);
  EXPECT_EQ(min_client.reply_for(parked_id), nullptr);
  EXPECT_NE(min_client.reply_for(read_id), nullptr);
  EXPECT_EQ(file->inode().size, size_before);

  // Quorum-gated takeover: detection (~3 missed heartbeats) plus the
  // takeover grace, then the majority re-delegates under a bumped epoch.
  run_until(14 * kSecond);
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster->partition());
  ASSERT_NE(subtree, nullptr);
  EXPECT_EQ(subtree->epoch(), 2u);
  const MdsId heir = subtree->authority_of(home);
  EXPECT_NE(heir, victim);
  EXPECT_TRUE(subtree->delegations_of(victim).empty());
  for (int i = 0; i < cluster->num_mds(); ++i) {
    if (i == victim) continue;
    EXPECT_EQ(cluster->mds(i).view_epoch(), 2u) << i;
  }
  // The fenced node's view stays frozen at the old epoch; it cannot be
  // talked into the new regime while it cannot prove a quorum.
  EXPECT_EQ(cluster->mds(victim).view_epoch(), 1u);
  EXPECT_TRUE(cluster->mds(victim).fenced());
  expect_single_authority(*cluster, 14 * kSecond);

  // Heal: the victim's lease renews, it adopts the new epoch, sheds the
  // territory it lost and re-routes the parked write to the heir — which
  // applies it exactly once.
  cluster->network().heal();
  run_until(20 * kSecond);
  EXPECT_FALSE(cluster->mds(victim).fenced());
  EXPECT_GE(cluster->mds(victim).stats().unfence_events, 1u);
  EXPECT_EQ(cluster->mds(victim).view_epoch(), 2u);
  EXPECT_EQ(cluster->mds(victim).parked_requests(), 0u);
  ASSERT_NE(min_client.reply_for(parked_id), nullptr);
  EXPECT_TRUE(min_client.reply_for(parked_id)->success);
  EXPECT_EQ(file->inode().size, size_before + 1);
  expect_single_authority(*cluster, 20 * kSecond);

  // The fence incident was logged and closed.
  const auto& fences = cluster->fault_log().fence_incidents();
  ASSERT_GE(fences.size(), 1u);
  EXPECT_EQ(fences[0].node, victim);
  EXPECT_FALSE(fences[0].open);
}

TEST_F(ClusterPartitionTest, EvenSplitFencesBothSidesAndNobodyTakesOver) {
  build(/*num_mds=*/4);
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster->partition());
  ASSERT_NE(subtree, nullptr);
  const std::size_t points_before = subtree->delegation_count();

  run_until(4 * kSecond);
  cluster->network().partition({{0, 2}, {1, 3}});
  run_until(14 * kSecond);

  // 2-2: neither side can prove a strict majority. Everyone fences; every
  // pending takeover stalls; the map never flips.
  std::uint64_t deferred = 0, takeovers = 0;
  for (int i = 0; i < cluster->num_mds(); ++i) {
    EXPECT_TRUE(cluster->mds(i).fenced()) << i;
    deferred += cluster->mds(i).stats().takeovers_deferred;
    takeovers += cluster->mds(i).stats().takeovers;
  }
  EXPECT_GT(deferred, 0u);
  EXPECT_EQ(takeovers, 0u);
  EXPECT_EQ(subtree->epoch(), 1u);
  EXPECT_EQ(subtree->delegation_count(), points_before);
  expect_single_authority(*cluster, 14 * kSecond);

  cluster->network().heal();
  run_until(20 * kSecond);
  for (int i = 0; i < cluster->num_mds(); ++i) {
    EXPECT_FALSE(cluster->mds(i).fenced()) << i;
    EXPECT_EQ(cluster->mds(i).pending_takeovers(), 0u) << i;
  }
  EXPECT_EQ(subtree->epoch(), 1u);  // nothing was ever reconfigured
  expect_single_authority(*cluster, 20 * kSecond);
}

TEST_F(ClusterPartitionTest, AsymmetricOutboundCutFencesInaudibleNode) {
  build();
  run_until(4 * kSecond);
  // Node 1 can hear everyone, but nobody hears node 1: its outbound
  // links are cut. Merely receiving majority heartbeats must NOT renew
  // its lease — the alive-mask shows the majority no longer lists it.
  cluster->network().cut_link(1, 0);
  cluster->network().cut_link(1, 2);

  run_until(14 * kSecond);
  EXPECT_TRUE(cluster->mds(1).fenced());
  // The majority declared it dead and, after the grace, took over.
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster->partition());
  EXPECT_EQ(subtree->epoch(), 2u);
  EXPECT_TRUE(subtree->delegations_of(1).empty());
  // It keeps hearing epoch-2 heartbeats but stays frozen while fenced.
  EXPECT_EQ(cluster->mds(1).view_epoch(), 1u);
  expect_single_authority(*cluster, 14 * kSecond);

  cluster->network().restore_link(1, 0);
  cluster->network().restore_link(1, 2);
  run_until(20 * kSecond);
  EXPECT_FALSE(cluster->mds(1).fenced());
  EXPECT_EQ(cluster->mds(1).view_epoch(), 2u);
  expect_single_authority(*cluster, 20 * kSecond);
}

TEST_F(ClusterPartitionTest, InboundCutNeverElectsSecondCoordinator) {
  build();
  run_until(4 * kSecond);
  // The reverse asymmetry: node 1 is heard by everyone but hears nobody.
  // From its own view the whole cluster died and it is the lowest alive
  // id — exactly the minority-coordinator hazard. It must fence (no acks
  // renew its lease) and stall every takeover instead of executing one.
  cluster->network().cut_link(0, 1);
  cluster->network().cut_link(2, 1);

  run_until(14 * kSecond);
  EXPECT_TRUE(cluster->mds(1).fenced());
  EXPECT_GT(cluster->mds(1).stats().takeovers_deferred, 0u);
  std::uint64_t takeovers = 0;
  for (int i = 0; i < cluster->num_mds(); ++i) {
    takeovers += cluster->mds(i).stats().takeovers;
  }
  // The majority still hears node 1 — no detection, no takeover, and the
  // fenced node executed none of its own: the map never flipped.
  EXPECT_EQ(takeovers, 0u);
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster->partition());
  EXPECT_EQ(subtree->epoch(), 1u);
  expect_single_authority(*cluster, 14 * kSecond);

  cluster->network().restore_link(0, 1);
  cluster->network().restore_link(2, 1);
  run_until(20 * kSecond);
  EXPECT_FALSE(cluster->mds(1).fenced());
  EXPECT_EQ(cluster->mds(1).pending_takeovers(), 0u);
  expect_single_authority(*cluster, 20 * kSecond);
}

TEST_F(ClusterPartitionTest, FlappingLinkRidesOutSuspicionWithoutTakeover) {
  build();
  run_until(4 * kSecond);
  // Cut the 1<->2 link just past the detection horizon, then restore it:
  // both nodes suspect each other, but the takeover grace outlives the
  // flap and the returning heartbeats cancel the pending takeovers.
  // Neither node ever loses quorum (node 0 stays connected to both).
  cluster->network().cut_link(1, 2);
  cluster->network().cut_link(2, 1);
  run_until(7 * kSecond + 500 * kMillisecond);
  cluster->network().restore_link(1, 2);
  cluster->network().restore_link(2, 1);

  run_until(16 * kSecond);
  std::uint64_t takeovers = 0;
  for (int i = 0; i < cluster->num_mds(); ++i) {
    EXPECT_FALSE(cluster->mds(i).fenced()) << i;
    EXPECT_EQ(cluster->mds(i).pending_takeovers(), 0u) << i;
    takeovers += cluster->mds(i).stats().takeovers;
  }
  EXPECT_EQ(takeovers, 0u);
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster->partition());
  EXPECT_EQ(subtree->epoch(), 1u);
  expect_single_authority(*cluster, 16 * kSecond);
}

TEST_F(ClusterPartitionTest, CutDuringMigrationBeforeAckRollsBackImporter) {
  build();
  FsNode* home = cluster->namespace_info().user_roots[0];
  for (FsNode* u : cluster->namespace_info().user_roots) {
    if (u->subtree_size() > home->subtree_size()) home = u;
  }
  const MdsId src = cluster->mds(0).authority_for(home);
  const MdsId dst = (src + 1) % cluster->num_mds();

  // Warm the exporter so the migration carries real items.
  std::vector<FsNode*> stack{home};
  while (!stack.empty()) {
    FsNode* n = stack.back();
    stack.pop_back();
    maj_client.send(src, n->is_dir() ? OpType::kReaddir : OpType::kStat, n);
    if (n->is_dir()) {
      for (FsNode* c : n->children_list()) stack.push_back(c);
    }
  }
  run_until(cluster->sim().now() + 5 * kSecond);
  const SimTime t0 = cluster->sim().now();

  ASSERT_TRUE(cluster->mds(src).migrate_subtree(home, dst));
  // Step until the prepare landed at the importer, then split the fabric
  // with the importer on the minority side — the ack cannot reach the
  // exporter, and the commit point is never passed.
  for (int i = 0; i < 10000 && !cluster->mds(dst).migrating(); ++i) {
    run_until(cluster->sim().now() + from_micros(50));
  }
  ASSERT_TRUE(cluster->mds(dst).migrating());
  cluster->network().partition({{}, {dst, min_client.addr()}});
  ASSERT_EQ(cluster->mds(0).authority_for(home), src);  // never flipped

  run_until(t0 + 14 * kSecond);
  // The importer (fenced on the minority side) resolved by detection:
  // the map does not name it, so it rolled the installed state back.
  EXPECT_TRUE(cluster->mds(dst).fenced());
  EXPECT_EQ(cluster->mds(dst).stats().migrations_in, 0u);
  EXPECT_EQ(cluster->mds(dst).stats().migrations_rolled_back, 1u);
  // The exporter aborted and kept (or re-delegated within the majority)
  // every subtree; the corpse-to-be owns nothing new.
  EXPECT_EQ(cluster->mds(src).stats().migrations_out, 0u);
  const MdsId auth = cluster->mds(src).authority_for(home);
  EXPECT_NE(auth, dst);
  EXPECT_FALSE(cluster->mds(auth).fenced());
  expect_single_authority(*cluster, t0 + 14 * kSecond);

  cluster->network().heal();
  run_until(t0 + 20 * kSecond);
  EXPECT_FALSE(cluster->mds(dst).fenced());
  expect_single_authority(*cluster, t0 + 20 * kSecond);
  for (int i = 0; i < cluster->num_mds(); ++i) {
    EXPECT_EQ(cluster->mds(i).cache().check_invariants(), "") << i;
    EXPECT_EQ(cluster->mds(i).frozen_subtrees(), 0u) << i;
  }
}

TEST_F(ClusterPartitionTest, CutAfterCommitPointMajorityReclaimsSubtree) {
  build();
  FsNode* home = cluster->namespace_info().user_roots[0];
  for (FsNode* u : cluster->namespace_info().user_roots) {
    if (u->subtree_size() > home->subtree_size()) home = u;
  }
  const MdsId src = cluster->mds(0).authority_for(home);
  const MdsId dst = (src + 1) % cluster->num_mds();

  std::vector<FsNode*> stack{home};
  while (!stack.empty()) {
    FsNode* n = stack.back();
    stack.pop_back();
    maj_client.send(src, n->is_dir() ? OpType::kReaddir : OpType::kStat, n);
    if (n->is_dir()) {
      for (FsNode* c : n->children_list()) stack.push_back(c);
    }
  }
  run_until(cluster->sim().now() + 5 * kSecond);
  const SimTime t0 = cluster->sim().now();

  ASSERT_TRUE(cluster->mds(src).migrate_subtree(home, dst));
  // Step until the commit point (the shared map names the importer),
  // then exile the importer. It now owns a subtree the majority cannot
  // reach — precisely what the grace-delayed epoch takeover reclaims.
  for (int i = 0;
       i < 200000 && cluster->mds(0).authority_for(home) != dst; ++i) {
    run_until(cluster->sim().now() + from_micros(50));
  }
  ASSERT_EQ(cluster->mds(0).authority_for(home), dst);
  cluster->network().partition({{}, {dst, min_client.addr()}});

  run_until(t0 + 14 * kSecond);
  EXPECT_TRUE(cluster->mds(dst).fenced());
  // The majority re-delegated the exile's territory under epoch 2; the
  // imported subtree has exactly one live, unfenced authority again.
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster->partition());
  EXPECT_EQ(subtree->epoch(), 2u);
  const MdsId heir = subtree->authority_of(home);
  EXPECT_NE(heir, dst);
  EXPECT_FALSE(cluster->mds(heir).fenced());
  expect_single_authority(*cluster, t0 + 14 * kSecond);

  // Heal: the exile adopts epoch 2 and sheds the subtree it imported but
  // no longer owns.
  cluster->network().heal();
  run_until(t0 + 20 * kSecond);
  EXPECT_FALSE(cluster->mds(dst).fenced());
  EXPECT_EQ(cluster->mds(dst).view_epoch(), 2u);
  EXPECT_GT(cluster->mds(dst).stats().reconcile_dropped_items, 0u);
  expect_single_authority(*cluster, t0 + 20 * kSecond);
  for (int i = 0; i < cluster->num_mds(); ++i) {
    EXPECT_EQ(cluster->mds(i).cache().check_invariants(), "") << i;
  }
}

TEST_F(ClusterPartitionTest, DuplicatedSetattrAppliesExactlyOnce) {
  build();
  FsNode* home = cluster->namespace_info().user_roots[0];
  FsNode* file = file_child(home);
  ASSERT_NE(file, nullptr);
  const MdsId auth = cluster->mds(0).authority_for(file);

  // Every message on the client<->authority link is delivered twice.
  LinkFault f;
  f.duplicate = 1.0;
  cluster->network().set_link_fault(maj_client.addr(), auth, f);

  const std::uint64_t size_before = file->inode().size;
  const std::uint64_t id = maj_client.send(auth, OpType::kSetattr, file);
  run_until(cluster->sim().now() + kSecond);

  // The request-id high-water mark drops the clone; the attribute
  // advanced exactly once.
  ASSERT_NE(maj_client.reply_for(id), nullptr);
  EXPECT_TRUE(maj_client.reply_for(id)->success);
  EXPECT_EQ(file->inode().size, size_before + 1);
  EXPECT_EQ(cluster->mds(auth).stats().duplicate_updates_dropped, 1u);
}

TEST_F(ClusterPartitionTest, DuplicatedPrepareDoesNotDoubleImport) {
  build();
  FsNode* home = cluster->namespace_info().user_roots[0];
  for (FsNode* u : cluster->namespace_info().user_roots) {
    if (u->subtree_size() > home->subtree_size()) home = u;
  }
  const MdsId src = cluster->mds(0).authority_for(home);
  const MdsId dst = (src + 1) % cluster->num_mds();

  std::vector<FsNode*> stack{home};
  while (!stack.empty()) {
    FsNode* n = stack.back();
    stack.pop_back();
    maj_client.send(src, n->is_dir() ? OpType::kReaddir : OpType::kStat, n);
    if (n->is_dir()) {
      for (FsNode* c : n->children_list()) stack.push_back(c);
    }
  }
  run_until(cluster->sim().now() + 5 * kSecond);

  // Duplicate every message of the migration handshake itself.
  LinkFault f;
  f.duplicate = 1.0;
  cluster->network().set_link_fault(src, dst, f);
  ASSERT_TRUE(cluster->mds(src).migrate_subtree(home, dst));
  run_until(cluster->sim().now() + 5 * kSecond);

  // Exactly one import despite the cloned prepare/ack/commit: the map
  // flipped once and nothing rolled back or double-installed.
  EXPECT_EQ(cluster->mds(dst).stats().migrations_in, 1u);
  EXPECT_EQ(cluster->mds(dst).stats().migrations_rolled_back, 0u);
  EXPECT_EQ(cluster->mds(src).stats().migrations_out, 1u);
  EXPECT_EQ(cluster->mds(0).authority_for(home), dst);
  for (int i = 0; i < cluster->num_mds(); ++i) {
    EXPECT_EQ(cluster->mds(i).cache().check_invariants(), "") << i;
    EXPECT_EQ(cluster->mds(i).frozen_subtrees(), 0u) << i;
    EXPECT_FALSE(cluster->mds(i).migrating()) << i;
  }
}

// ---------------------------------------------------------------------------
// Scripted multi-seed chaos sweep
// ---------------------------------------------------------------------------

SimConfig sweep_config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = 4;
  cfg.num_clients = 120;
  cfg.seed = seed;
  cfg.fs.seed = seed;
  cfg.fs.num_users = 32;
  cfg.fs.nodes_per_user = 200;
  cfg.duration = 30 * kSecond;
  cfg.warmup = 2 * kSecond;
  cfg.client_retry.request_timeout = kSecond;
  return cfg;
}

FaultPlan sweep_plan() {
  // Clean minority cut (heals after the epoch takeover has run), then an
  // asymmetric one-way cut that self-heals inside the grace, then a
  // sub-second flap. Cuts land mid-run, so whatever migrations the
  // balancer has in flight get split too (cut-during-migration occurs
  // organically across the seeds).
  FaultPlan plan;
  plan.partition(8 * kSecond, 18 * kSecond, {{0, 2, 3}, {1}})
      .cut_link(20 * kSecond, 24 * kSecond, 2, 3)
      .cut_link(25 * kSecond, 25 * kSecond + 400 * kMillisecond, 0, 2)
      .cut_link(26 * kSecond, 26 * kSecond + 400 * kMillisecond, 0, 2);
  return plan;
}

class PartitionChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionChaosSweep, SingleAuthorityHoldsAtEveryCheckpoint) {
  ClusterSim cluster(sweep_config(GetParam()));
  cluster.run_until(0);
  sweep_plan().arm(cluster);

  const SimTime checkpoints[] = {
      6 * kSecond,  10 * kSecond, 13 * kSecond, 16 * kSecond, 19 * kSecond,
      22 * kSecond, 24 * kSecond, 26 * kSecond, 30 * kSecond};
  for (SimTime t : checkpoints) {
    cluster.run_until(t);
    expect_single_authority(cluster, t);
    for (int i = 0; i < cluster.num_mds(); ++i) {
      EXPECT_EQ(cluster.mds(i).cache().check_invariants(), "")
          << "node " << i << " at t=" << to_seconds(t);
    }
  }

  // The minority node fenced during the split and recovered after heal.
  EXPECT_GE(cluster.mds(1).stats().fence_events, 1u);
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_FALSE(cluster.mds(i).fenced()) << i;
    EXPECT_FALSE(cluster.mds(i).failed()) << i;
  }
  // The majority reconfigured exactly once (the clean cut); neither the
  // asymmetric cut nor the flaps lasted past the grace.
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster.partition());
  ASSERT_NE(subtree, nullptr);
  EXPECT_GE(subtree->epoch(), 2u);
  for (const auto& fi : cluster.fault_log().fence_incidents()) {
    EXPECT_FALSE(fi.open) << "node " << fi.node;
  }
  // Cross-partition traffic was dropped and attributed as such.
  EXPECT_GT(cluster.network().partition_dropped(), 0u);

  // Nothing leaked: parked queues drained, no stuck takeovers.
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_EQ(cluster.mds(i).parked_requests(), 0u) << i;
    EXPECT_EQ(cluster.mds(i).pending_takeovers(), 0u) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionChaosSweep,
                         ::testing::Values(1u, 42u, 1234u));

TEST(PartitionDeterminism, SameSeedSameScheduleIsBitForBit) {
  auto run = []() {
    ClusterSim cluster(sweep_config(42));
    cluster.run_until(0);
    sweep_plan().arm(cluster);
    cluster.run_until(30 * kSecond);

    std::vector<double> tput;
    for (const auto& p : cluster.metrics().avg_throughput().points()) {
      tput.push_back(p.value);
    }
    const ClientStats clients = cluster.cohort().totals();
    std::uint64_t fences = 0, parked = 0, rejects = 0, deferred = 0;
    for (int i = 0; i < cluster.num_mds(); ++i) {
      const MdsStats& s = cluster.mds(i).stats();
      fences += s.fence_events;
      parked += s.writes_parked_fenced;
      rejects += s.stale_epoch_rejects;
      deferred += s.takeovers_deferred;
    }
    auto* subtree = dynamic_cast<SubtreePartition*>(&cluster.partition());
    return std::make_tuple(tput, clients.ops_completed, clients.retries,
                           clients.stale_replies, fences, parked,
                           rejects, deferred, subtree->epoch(),
                           cluster.network().partition_dropped(),
                           cluster.metrics().total_replies());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace mdsim
