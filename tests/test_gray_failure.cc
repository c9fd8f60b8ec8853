// Gray-failure layer: fail-slow injection primitives (service-rate
// multipliers on the CPU/disk queue servers, sustained link degrades),
// the FaultPlan window that drives them, health-based detection opening
// and closing gray episodes in the FaultLog, and the zero-cost-off
// contract (health + hedging armed but inert is byte-identical to a run
// without the layer — the same configuration the benches' --gray-noop
// gate uses).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/fault_plan.h"
#include "sim/queue_server.h"
#include "storage/disk_model.h"
#include "test_util.h"

namespace mdsim {
namespace {

// --- injection primitives -------------------------------------------------

TEST(FailSlow, QueueServerMultiplierScalesServiceAtSubmission) {
  Simulation sim;
  QueueServer q(sim, "q");

  // Nominal job, then a 4x job behind it: multipliers apply when the job
  // is submitted, so the queued nominal job is unaffected.
  SimTime done_a = 0, done_b = 0, done_c = 0;
  q.submit(kMillisecond, [&]() { done_a = sim.now(); });
  q.set_service_time_multiplier(4.0);
  EXPECT_EQ(q.service_time_multiplier(), 4.0);
  q.submit(kMillisecond, [&]() { done_b = sim.now(); });
  q.set_service_time_multiplier(1.0);  // restore: the 4x job keeps its time
  q.submit(kMillisecond, [&]() { done_c = sim.now(); });
  sim.run_until(kSecond);

  EXPECT_EQ(done_a, kMillisecond);
  EXPECT_EQ(done_b, 5 * kMillisecond);   // 1 ms queued + 4 ms service
  EXPECT_EQ(done_c, 6 * kMillisecond);   // back to nominal
}

TEST(FailSlow, DiskMultiplierScalesStoreAndJournal) {
  Simulation sim;
  DiskParams dp;
  DiskModel disk(sim, dp, "d");

  SimTime read_done = 0, append_done = 0;
  disk.set_service_time_multiplier(5.0);
  EXPECT_EQ(disk.service_time_multiplier(), 5.0);
  disk.read_object(1, [&]() { read_done = sim.now(); });
  disk.journal_append([&]() { append_done = sim.now(); });
  sim.run_until(kSecond);

  // The serialized portion scales; the store's fixed access latency (the
  // controller/bus hop outside the device) does not.
  EXPECT_EQ(read_done, dp.access_latency + 5 * dp.transaction_time);
  EXPECT_EQ(append_done, 5 * dp.journal_append_time);

  disk.set_service_time_multiplier(1.0);
  SimTime nominal_done = 0;
  const SimTime t0 = sim.now();
  disk.journal_append([&]() { nominal_done = sim.now(); });
  sim.run_until(2 * kSecond);
  EXPECT_EQ(nominal_done - t0, dp.journal_append_time);
}

struct Sink final : NetEndpoint {
  std::vector<SimTime> arrivals;
  Simulation* sim = nullptr;
  void on_message(NetAddr, MessagePtr) override {
    arrivals.push_back(sim->now());
  }
};

MessagePtr ping() { return std::make_unique<ClientReplyMsg>(); }

TEST(LinkDegrade, InflatesLatencyBothWaysAndDropsAtLossOne) {
  Simulation sim;
  NetworkParams np;
  np.base_latency = from_micros(100);
  np.jitter_mean = 0;
  Network net(sim, np);
  Sink a, b;
  a.sim = &sim;
  b.sim = &sim;
  const NetAddr na = net.attach(&a);
  const NetAddr nb = net.attach(&b);

  net.send(na, nb, ping());
  sim.run_until(kMillisecond);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0], np.base_latency);

  // A sustained degrade is a link fault whose only knobs are the latency
  // factor and the extra latency.
  LinkFault d;
  d.latency_factor = 3.0;
  d.extra_latency = kMillisecond;
  net.set_link_fault(na, nb, d);
  SimTime t0 = sim.now();
  net.send(na, nb, ping());
  net.send(nb, na, ping());  // symmetric: the reverse direction pays too
  sim.run_until(t0 + 10 * kMillisecond);
  ASSERT_EQ(b.arrivals.size(), 2u);
  ASSERT_EQ(a.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[1] - t0, 3 * np.base_latency + kMillisecond);
  EXPECT_EQ(a.arrivals[0] - t0, 3 * np.base_latency + kMillisecond);

  // drop = 1.0: every message on the link disappears, counted with the
  // fabric's drops.
  d.drop = 1.0;
  net.set_link_fault(na, nb, d);
  net.send(na, nb, ping());
  net.send(na, nb, ping());
  sim.run_until(sim.now() + 10 * kMillisecond);
  EXPECT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(net.fault_counters().dropped, 2u);
  EXPECT_EQ(net.dropped_messages(), 2u);

  net.clear_link_fault(na, nb);
  t0 = sim.now();
  net.send(na, nb, ping());
  sim.run_until(t0 + 10 * kMillisecond);
  ASSERT_EQ(b.arrivals.size(), 3u);
  EXPECT_EQ(b.arrivals[2] - t0, np.base_latency);
}

// --- FaultPlan windows ----------------------------------------------------

SimConfig small_config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = 4;
  cfg.num_clients = 160;
  cfg.seed = seed;
  cfg.fs.seed = seed;
  cfg.fs.num_users = 32;
  cfg.fs.nodes_per_user = 200;
  cfg.duration = 26 * kSecond;
  cfg.warmup = 2 * kSecond;
  return cfg;
}

TEST(FailSlow, PlanWindowAppliesAndRevertsTheMultipliers) {
  SimConfig cfg = small_config(7);
  cfg.num_clients = 20;  // load is irrelevant here
  ClusterSim cluster(cfg);
  cluster.run_until(0);

  FaultPlan plan;
  plan.fail_slow(kSecond, 2 * kSecond, /*node=*/1, /*cpu=*/3.0, /*disk=*/5.0);
  plan.arm(cluster);

  cluster.run_until(kSecond + kSecond / 2);
  EXPECT_EQ(cluster.mds(1).cpu().service_time_multiplier(), 3.0);
  EXPECT_EQ(cluster.mds(1).disk().service_time_multiplier(), 5.0);
  EXPECT_EQ(cluster.mds(0).cpu().service_time_multiplier(), 1.0);
  EXPECT_EQ(cluster.mds(2).disk().service_time_multiplier(), 1.0);
  // The node is degraded, not dead: it still serves and heartbeats.
  EXPECT_FALSE(cluster.mds(1).failed());

  cluster.run_until(2 * kSecond + kSecond / 2);
  EXPECT_EQ(cluster.mds(1).cpu().service_time_multiplier(), 1.0);
  EXPECT_EQ(cluster.mds(1).disk().service_time_multiplier(), 1.0);

  // Injection ground truth was logged with the window's exact bounds.
  const std::vector<Episode> fs =
      cluster.fault_log().episodes(Episode::Kind::kFailSlow);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].node, 1);
  EXPECT_EQ(fs[0].begin, kSecond);
  EXPECT_EQ(fs[0].end, 2 * kSecond);
}

// --- detection ------------------------------------------------------------

TEST(GrayDetection, FailSlowWindowOpensAndClosesAnIncident) {
  SimConfig cfg = small_config(42);
  cfg.mds.health.enabled = true;
  cfg.mds.cache_capacity = 1200;  // force store traffic under the fault
  ClusterSim cluster(cfg);
  cluster.run_until(0);

  const MdsId victim = 0;
  FaultPlan plan;
  plan.fail_slow(6 * kSecond, 12 * kSecond, victim, 10.0, 10.0);
  plan.arm(cluster);
  cluster.run_until(26 * kSecond);

  // Peers (or the victim itself) flagged the victim while the fault was
  // live, and un-flagged it after the backlog drained: the episode has
  // ended, with both edges inside sane bounds.
  const std::vector<Episode> grays =
      cluster.fault_log().episodes(Episode::Kind::kGray);
  ASSERT_FALSE(grays.empty());
  const Episode& g = grays.front();
  EXPECT_EQ(g.node, victim);
  EXPECT_GE(g.begin, 6 * kSecond);
  EXPECT_LE(g.begin, 12 * kSecond);
  EXPECT_NE(g.detected_by, kInvalidMds);
  EXPECT_FALSE(g.open());
  EXPECT_GT(g.end, g.begin);
  EXPECT_GT(
      cluster.fault_log().episode_seconds(Episode::Kind::kGray, 26 * kSecond),
      0.0);
  // Every episode this run concerns the one injected victim.
  for (const Episode& e : grays) EXPECT_EQ(e.node, victim);
}

TEST(GrayDetection, HealthyClusterNeverFlagsAnyone) {
  SimConfig cfg = small_config(42);
  cfg.mds.health.enabled = true;
  cfg.duration = 15 * kSecond;
  ClusterSim cluster(cfg);
  cluster.run();
  EXPECT_TRUE(cluster.fault_log().episodes(Episode::Kind::kGray).empty());
  EXPECT_EQ(
      cluster.fault_log().episode_seconds(Episode::Kind::kGray, 15 * kSecond),
      0.0);
}

// --- zero-cost-off --------------------------------------------------------

TEST(GrayZeroCost, InertLayerIsByteIdenticalToDisabled) {
  auto digest = [](SimConfig cfg) {
    ClusterSim cluster(cfg);
    cluster.run_until(10 * kSecond);
    std::vector<double> tput;
    for (const auto& p : cluster.metrics().avg_throughput().points()) {
      tput.push_back(p.value);
    }
    const ClientStats s = cluster.cohort().totals();
    std::uint64_t migrations = 0;
    for (int i = 0; i < cluster.num_mds(); ++i) {
      migrations += cluster.mds(i).stats().migrations_out;
    }
    return std::make_tuple(tput, s.ops_issued, s.ops_ok, s.retries,
                           s.stale_replies, s.hedges_fired,
                           migrations, cluster.metrics().total_replies(),
                           cluster.network().total_messages());
  };

  SimConfig plain = small_config(7);
  plain.duration = 10 * kSecond;
  SimConfig inert = plain;
  apply_gray_noop(&inert);  // the benches' --gray-noop

  const auto a = digest(plain);
  const auto b = digest(inert);
  EXPECT_EQ(std::get<5>(b), 0u);  // the inert layer never hedged
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace mdsim
