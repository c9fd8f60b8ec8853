// Overload protection (mds/admission.h + the gate in mds_node.cc).
//
// The contracts under test:
//  - the token bucket and retry budget are pure deterministic arithmetic;
//  - a burst beyond the bounded queue is shed with an explicit
//    Rejected{retry_after} reply, and every shed is accounted identically
//    in MdsStats and Metrics, and coalesced into FaultLog episodes;
//  - forwarded requests (hops > 0) face the destination's queue bounds —
//    local backpressure — but are not charged admission tokens twice;
//  - dead-on-arrival requests (deadline passed) are dropped silently;
//  - with protection disabled, or enabled with vacuous limits, a run is
//    byte-identical to the stock simulation (zero-cost-off).
#include <gtest/gtest.h>

#include "client/retry_policy.h"
#include "core/cluster.h"
#include "core/experiment.h"
#include "core/sharded_cluster.h"
#include "mds/admission.h"
#include "test_util.h"

namespace mdsim {
namespace {

// --- pure arithmetic -----------------------------------------------------

TEST(TokenBucket, RefillIsLinearAndCappedAtBurst) {
  TokenBucket b;
  b.init(/*rate=*/100.0, /*burst=*/10.0, /*now=*/0);
  EXPECT_DOUBLE_EQ(b.tokens(0), 10.0);
  EXPECT_TRUE(b.try_take(10.0, 0.0, 0));  // drain the burst
  EXPECT_FALSE(b.try_take(1.0, 0.0, 0));
  // 50 ms at 100 tokens/s refills exactly 5.
  EXPECT_NEAR(b.tokens(50 * kMillisecond), 5.0, 1e-9);
  // A long quiet interval refills to burst, never beyond.
  EXPECT_NEAR(b.tokens(10 * kSecond), 10.0, 1e-9);
}

TEST(TokenBucket, ReserveBlocksRetriesButNotFreshRequests) {
  TokenBucket b;
  b.init(/*rate=*/0.0, /*burst=*/4.0, /*now=*/0);  // no refill: pure spend
  // A retried request spends only the surplus above the reserve.
  EXPECT_TRUE(b.try_take(1.0, 2.0, 0));   // 4 -> 3
  EXPECT_FALSE(b.try_take(2.0, 2.0, 0));  // 3 - 2 would dip below 2
  // Fresh requests (reserve 0) may spend the bucket down to zero.
  EXPECT_TRUE(b.try_take(2.0, 0.0, 0));  // 3 -> 1
  EXPECT_TRUE(b.try_take(1.0, 0.0, 0));  // 1 -> 0
  EXPECT_FALSE(b.try_take(1.0, 0.0, 0));
}

TEST(RetryBudget, SpendEarnCapAndDisabledBypass) {
  RetryBudgetParams p;
  p.enabled = true;
  p.ratio = 0.5;
  p.cap = 2.0;
  RetryBudget b;
  b.init(p);
  EXPECT_TRUE(b.try_spend(p));   // 2 -> 1
  EXPECT_TRUE(b.try_spend(p));   // 1 -> 0
  EXPECT_FALSE(b.try_spend(p));  // dry: fail fast
  b.earn(p);                     // 0.5 — still below one whole token
  EXPECT_FALSE(b.try_spend(p));
  b.earn(p);  // 1.0
  EXPECT_TRUE(b.try_spend(p));
  for (int i = 0; i < 10; ++i) b.earn(p);
  EXPECT_DOUBLE_EQ(b.tokens, p.cap);  // earns saturate at the cap

  RetryBudgetParams off;  // disabled: always allowed, nothing spent
  RetryBudget c;
  c.init(off);
  c.tokens = 0.0;
  EXPECT_TRUE(c.try_spend(off));
}

TEST(FaultLogOverload, ShedsCoalesceIntoEpisodesAcrossQuietGaps) {
  FaultLog log;
  log.note_shed(0, 1 * kSecond);
  log.note_shed(0, 1 * kSecond + 200 * kMillisecond);  // same episode
  log.note_shed(0, 3 * kSecond);  // > 1 s quiet: new episode
  const Summary s = log.episode_spans(Episode::Kind::kOverload);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_NEAR(s.sum(), 0.2, 1e-9);  // 0.2 s span + a zero-length episode
  // Episodes are per node: a shed elsewhere begins its own episode.
  log.note_shed(1, 3 * kSecond);
  EXPECT_EQ(log.episode_spans(Episode::Kind::kOverload).count(), 3u);
}

// --- cluster-level shedding ----------------------------------------------

/// Hand-driven cluster with slow request service (bursts pile up) and a
/// tight CPU depth bound; the token bucket and backlog bound are off so
/// each test isolates one mechanism.
SimConfig gate_config(int num_mds) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree, num_mds);
  cfg.mds.cpu_request = 10 * kMillisecond;
  cfg.mds.cpu_per_component = 0;
  cfg.mds.overload.enabled = true;
  cfg.mds.overload.max_cpu_queue_depth = 2;
  cfg.mds.overload.max_cpu_queue_delay = 0;  // depth bound only
  cfg.mds.overload.admit_rate = 0.0;         // no bucket
  return cfg;
}

TEST(OverloadGate, BurstBeyondQueueBoundShedsWithRetryAfter) {
  ClusterSim cluster(gate_config(1));
  TestClient tc;
  tc.attach(cluster);
  FsNode* f = find_world_readable_file(cluster.tree());
  ASSERT_NE(f, nullptr);
  for (int i = 0; i < 10; ++i) tc.send(0, OpType::kStat, f);
  cluster.run_until(5 * kSecond);

  // Every request is answered: admitted ones succeed (eventually),
  // shed ones get an immediate explicit rejection.
  ASSERT_EQ(tc.replies.size(), 10u);
  std::uint64_t ok = 0, rejected = 0;
  for (const ClientReplyMsg& r : tc.replies) {
    if (r.rejected) {
      ++rejected;
      EXPECT_FALSE(r.success);
      EXPECT_GE(r.retry_after, cluster.config().mds.overload.retry_after_base);
    } else {
      EXPECT_TRUE(r.success);
      ++ok;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(rejected, 0u);

  // One shed, one reject — everywhere the same count.
  const MdsStats& st = cluster.mds(0).stats();
  EXPECT_EQ(st.requests_shed_queue, rejected);
  EXPECT_EQ(st.requests_shed_admission, 0u);
  EXPECT_EQ(st.requests_shed_deadline, 0u);
  EXPECT_EQ(st.rejects_sent, rejected);
  EXPECT_EQ(cluster.metrics().total_sheds(), rejected);
  EXPECT_EQ(cluster.metrics().total_rejects(), rejected);
  // The depth observer saw the burst.
  EXPECT_GE(cluster.metrics().cpu_queue_highwater(), 2u);
}

/// World-readable file whose path authority is `want` (so a request sent
/// straight there is served locally, and one sent elsewhere forwards).
FsNode* file_with_authority(ClusterSim& cluster, MdsId want,
                            std::size_t skip = 0) {
  for (std::size_t i = 0;; ++i) {
    FsNode* f = find_world_readable_file(cluster.tree(), i);
    if (f == nullptr) return nullptr;
    if (cluster.partition().authority_of(f) != want) continue;
    if (skip > 0) {
      --skip;
      continue;
    }
    return f;
  }
}

TEST(OverloadGate, ForwardedArrivalsFaceTheAuthoritysQueueBound) {
  ClusterSim cluster(gate_config(3));
  TestClient tc;
  tc.attach(cluster);
  FsNode* hot = file_with_authority(cluster, 1);
  ASSERT_NE(hot, nullptr);

  // Saturate the authority directly, then route one request through node
  // 0, which forwards it (hops = 1) into the full queue at node 1.
  for (int i = 0; i < 10; ++i) tc.send(1, OpType::kStat, hot);
  const std::uint64_t via_peer = tc.send(0, OpType::kStat, hot);
  cluster.run_until(5 * kSecond);

  EXPECT_GE(cluster.mds(0).stats().forwards, 1u);
  EXPECT_GT(cluster.mds(1).stats().requests_shed_queue, 0u);
  // The forwarded request was shed at the authority and the rejection
  // travelled straight back to the client, carrying its hop count.
  const ClientReplyMsg* r = tc.reply_for(via_peer);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->rejected);
  EXPECT_EQ(r->hops, 1u);
  // Cluster totals aggregate both nodes' counters.
  EXPECT_EQ(cluster.metrics().total_sheds(),
            cluster.mds(0).stats().requests_shed_queue +
                cluster.mds(1).stats().requests_shed_queue +
                cluster.mds(2).stats().requests_shed_queue);
}

TEST(OverloadGate, DeadRequestsAreDroppedSilently) {
  SimConfig cfg = gate_config(1);
  cfg.mds.overload.max_cpu_queue_depth = 1000;  // only the deadline acts
  ClusterSim cluster(cfg);
  TestClient tc;
  tc.attach(cluster);
  FsNode* f = find_world_readable_file(cluster.tree());
  ASSERT_NE(f, nullptr);
  cluster.run_until(1 * kSecond);

  // A request whose deadline passes in flight: the client timed out
  // before the arrival, so the server drops it without a reply.
  auto msg = std::make_unique<ClientRequestMsg>();
  msg->req_id = 1;
  msg->client = 9999;
  msg->client_addr = tc.addr();
  msg->op = OpType::kStat;
  msg->target = f->ino();
  msg->deadline = cluster.sim().now();  // already stale on arrival
  cluster.network().send(tc.addr(), 0, std::move(msg));
  cluster.run_until(2 * kSecond);

  EXPECT_TRUE(tc.replies.empty());
  const MdsStats& st = cluster.mds(0).stats();
  EXPECT_EQ(st.requests_shed_deadline, 1u);
  EXPECT_EQ(st.rejects_sent, 0u);
}

TEST(OverloadGate, BucketReserveShedsRetriesAndPricesWrites) {
  SimConfig cfg = gate_config(1);
  cfg.mds.overload.max_cpu_queue_depth = 1000;  // only the bucket acts
  cfg.mds.overload.admit_rate = 1e-9;           // no meaningful refill
  cfg.mds.overload.admit_burst = 2.0;
  cfg.mds.overload.retry_reserve = 0.5;  // reserve = 1 token
  cfg.mds.overload.write_cost = 2.0;
  ClusterSim cluster(cfg);
  TestClient tc;
  tc.attach(cluster);
  FsNode* f = find_world_readable_file(cluster.tree());
  ASSERT_NE(f, nullptr);

  auto send = [&](std::uint64_t req_id, OpType op, std::uint8_t attempt) {
    auto msg = std::make_unique<ClientRequestMsg>();
    msg->req_id = req_id;
    msg->client = 9999;
    msg->client_addr = tc.addr();
    msg->op = op;
    msg->target = f->ino();
    msg->attempt = attempt;
    cluster.network().send(tc.addr(), 0, std::move(msg));
  };
  // Same-instant burst, handled in send order. Bucket holds 2 tokens:
  //   fresh stat        cost 1, reserve 0 -> admit (1 left)
  //   retried stat      cost 1, reserve 1 -> shed  (would hit the reserve)
  //   fresh setattr     cost 2, reserve 0 -> shed  (write price > balance)
  //   fresh stat        cost 1, reserve 0 -> admit (0 left)
  //   fresh stat        cost 1, reserve 0 -> shed  (empty)
  send(1, OpType::kStat, 0);
  send(2, OpType::kStat, 1);
  send(3, OpType::kSetattr, 0);
  send(4, OpType::kStat, 0);
  send(5, OpType::kStat, 0);
  cluster.run_until(5 * kSecond);

  ASSERT_EQ(tc.replies.size(), 5u);
  EXPECT_FALSE(tc.reply_for(1)->rejected);
  EXPECT_TRUE(tc.reply_for(2)->rejected);
  EXPECT_TRUE(tc.reply_for(3)->rejected);
  EXPECT_FALSE(tc.reply_for(4)->rejected);
  EXPECT_TRUE(tc.reply_for(5)->rejected);
  const MdsStats& st = cluster.mds(0).stats();
  EXPECT_EQ(st.requests_shed_admission, 3u);
  EXPECT_EQ(st.requests_shed_queue, 0u);
}

// --- zero-cost-off -------------------------------------------------------

SimConfig loaded_config() {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = 3;
  cfg.num_clients = 60;
  cfg.fs.num_users = 12;
  cfg.fs.nodes_per_user = 150;
  cfg.duration = 6 * kSecond;
  cfg.warmup = 2 * kSecond;
  return cfg;
}

TEST(OverloadGate, VacuousLimitsAreByteIdenticalToDisabled) {
  ClusterSim off(loaded_config());
  off.run();
  SimConfig noop_cfg = loaded_config();
  apply_overload_noop(&noop_cfg);  // the benches' --overload-noop
  ClusterSim noop(noop_cfg);
  noop.run();

  EXPECT_GT(off.metrics().total_replies(), 1000u);
  EXPECT_EQ(off.metrics().total_replies(), noop.metrics().total_replies());
  EXPECT_EQ(off.metrics().total_failures(), noop.metrics().total_failures());
  EXPECT_EQ(off.metrics().cluster_hit_rate(),
            noop.metrics().cluster_hit_rate());
  EXPECT_EQ(off.metrics().client_latency().sum(),
            noop.metrics().client_latency().sum());
  EXPECT_EQ(off.sim().events_executed(), noop.sim().events_executed());
  EXPECT_EQ(noop.metrics().total_sheds(), 0u);
  EXPECT_EQ(noop.metrics().total_rejects(), 0u);
}

// --- sharded engine ------------------------------------------------------

RunResult run_sharded_overloaded(int threads) {
  SimConfig cfg;
  cfg.num_mds = 4;
  cfg.num_clients = 40;
  cfg.fs.num_users = 4;
  cfg.fs.nodes_per_user = 200;
  cfg.duration = 400 * kMillisecond;
  cfg.warmup = 100 * kMillisecond;
  cfg.shards = 2;
  cfg.threads = threads;
  cfg.general.mean_think = 1 * kMillisecond;  // hammer: offered >> admitted
  cfg.mds.overload.enabled = true;
  cfg.mds.overload.admit_rate = 100.0;
  cfg.mds.overload.admit_burst = 8.0;
  cfg.client_retry.budget.enabled = true;
  cfg.client_retry.budget.cap = 4.0;
  ShardedClusterSim cluster(cfg);
  cluster.run();
  return cluster.result();
}

TEST(OverloadGate, ShardedResultsWithSheddingAreThreadCountInvariant) {
  const RunResult r1 = run_sharded_overloaded(1);
  const RunResult r2 = run_sharded_overloaded(2);
  // The gate fired (budget-dry clients fail fast) and still produced
  // goodput; admission is pure arithmetic, so thread count changes nothing.
  EXPECT_GT(r1.replies, 0u);
  EXPECT_GT(r1.failures, 0u);
  EXPECT_EQ(r1.replies, r2.replies);
  EXPECT_EQ(r1.failures, r2.failures);
  EXPECT_EQ(r1.mean_latency_ms, r2.mean_latency_ms);
  EXPECT_EQ(r1.hit_rate, r2.hit_rate);
}

}  // namespace
}  // namespace mdsim
