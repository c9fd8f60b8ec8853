// Per-request tracing: record tiling invariants, collector aggregation,
// and the end-to-end reconciliation / determinism / zero-perturbation
// guarantees of src/common/trace.h.
#include <gtest/gtest.h>

#include "common/trace.h"
#include "test_util.h"

namespace mdsim {
namespace {

// ---------------------------------------------------------------------------
// TraceRecord unit behaviour.

TEST(TraceRecord, SegmentsTileTheRequestInterval) {
  TraceRecord r;
  r.begin(/*rid=*/7, /*c=*/3, OpType::kStat, /*now=*/100);
  r.advance(TraceStage::kNetRequest, 150, 7);
  r.advance(TraceStage::kCpuQueue, 180, 7);
  r.advance(TraceStage::kCpuService, 400, 7);
  r.advance(TraceStage::kNetReply, 460, 7);
  EXPECT_EQ(r.stage(TraceStage::kNetRequest), 50u);
  EXPECT_EQ(r.stage(TraceStage::kCpuQueue), 30u);
  EXPECT_EQ(r.stage(TraceStage::kCpuService), 220u);
  EXPECT_EQ(r.stage(TraceStage::kNetReply), 60u);
  EXPECT_EQ(r.stage_sum(), 460u - 100u);  // tiling: segments partition it
}

TEST(TraceRecord, StaleRequestIdAttributesNothing) {
  TraceRecord r;
  r.begin(7, 0, OpType::kOpen, 100);
  r.advance(TraceStage::kNetRequest, 150, /*rid=*/6);  // stale instance
  EXPECT_EQ(r.stage_sum(), 0u);
  EXPECT_EQ(r.last, 100u);  // boundary untouched by the rejected segment
  r.advance(TraceStage::kNetRequest, 150, 7);
  EXPECT_EQ(r.stage_sum(), 50u);
}

TEST(TraceRecord, RearmChargesGapToStallAndSwapsInstance) {
  TraceRecord r;
  r.begin(7, 0, OpType::kStat, 100);
  r.advance(TraceStage::kNetRequest, 150, 7);
  // Timeout + backoff: re-issue as rid 8 at t=5000.
  r.rearm(8, 5000);
  EXPECT_EQ(r.stage(TraceStage::kStallWait), 5000u - 150u);
  EXPECT_EQ(r.retries, 1);
  // Old instance still draining through the cluster: ignored.
  r.advance(TraceStage::kCpuService, 5200, 7);
  EXPECT_EQ(r.stage(TraceStage::kCpuService), 0u);
  // New instance attributes normally and the tiling still holds.
  r.advance(TraceStage::kNetRequest, 5100, 8);
  r.advance(TraceStage::kNetReply, 5300, 8);
  EXPECT_EQ(r.stage_sum(), 5300u - 100u);
}

TEST(TraceRecord, SkipPreattributesDeterministicInterval) {
  TraceRecord r;
  r.begin(1, 0, OpType::kReaddir, 0);
  r.advance(TraceStage::kDiskService, 100, 1);
  r.skip(TraceStage::kDiskService, 40, 1);  // disk access-latency tail
  EXPECT_EQ(r.stage(TraceStage::kDiskService), 140u);
  EXPECT_EQ(r.last, 140u);
  // The completion callback fires at t=140; the resume mark adds zero.
  r.advance(TraceStage::kFetchWait, 140, 1);
  EXPECT_EQ(r.stage(TraceStage::kFetchWait), 0u);
  EXPECT_EQ(r.stage_sum(), 140u);
}

TEST(TraceSpan, InertWhenRecordIsNull) {
  TraceSpan span;  // tracing off: default-constructed everywhere
  EXPECT_FALSE(span);
  span.on_service_start(100);  // must not crash
  span.on_service_end(200, 50);
}

// ---------------------------------------------------------------------------
// TraceCollector aggregation.

TraceRecord make_op(std::uint64_t rid, ClientId c, OpType op, SimTime start,
                    SimTime net, SimTime cpu) {
  TraceRecord r;
  r.begin(rid, c, op, start);
  r.advance(TraceStage::kNetRequest, start + net, rid);
  r.advance(TraceStage::kCpuService, start + net + cpu, rid);
  return r;
}

TEST(TraceCollector, StageSumsReconcileWithTotals) {
  TraceCollector tc(8);
  TraceRecord a = make_op(1, 0, OpType::kStat, 0, 50, 200);
  tc.complete(a, 250);
  TraceRecord b = make_op(2, 1, OpType::kStat, 1000, 70, 400);
  tc.complete(b, 1470);
  EXPECT_EQ(tc.completed(), 2u);
  EXPECT_EQ(tc.completed(OpType::kStat), 2u);
  EXPECT_EQ(tc.total_ns(OpType::kStat), 250u + 470u);
  std::uint64_t stage_sum = 0;
  for (int s = 0; s < kNumTraceStages; ++s) {
    stage_sum += tc.stage_total_ns(static_cast<TraceStage>(s), OpType::kStat);
  }
  EXPECT_EQ(stage_sum, tc.total_ns(OpType::kStat));
  EXPECT_EQ(tc.grand_total_ns(), tc.total_ns(OpType::kStat));
}

TEST(TraceCollector, SlowestKeepsTopNInDeterministicOrder) {
  TraceCollector tc(3);
  for (int i = 0; i < 10; ++i) {
    // Totals 100, 200, ..., 1000 ns.
    TraceRecord r = make_op(static_cast<std::uint64_t>(i + 1),
                            static_cast<ClientId>(i), OpType::kOpen,
                            static_cast<SimTime>(i) * 10000, 0,
                            static_cast<SimTime>(i + 1) * 100);
    tc.complete(r, r.start + static_cast<SimTime>(i + 1) * 100);
  }
  const auto slow = tc.slowest();
  ASSERT_EQ(slow.size(), 3u);
  EXPECT_EQ(slow[0].total(), 1000u);
  EXPECT_EQ(slow[1].total(), 900u);
  EXPECT_EQ(slow[2].total(), 800u);
}

TEST(TraceCollector, SlowestTiesBreakOnStartThenClient) {
  TraceCollector tc(2);
  for (ClientId c : {ClientId{5}, ClientId{2}, ClientId{9}}) {
    TraceRecord r = make_op(1, c, OpType::kStat, /*start=*/1000, 0, 100);
    tc.complete(r, 1100);
  }
  const auto slow = tc.slowest();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].rec.client, 2);
  EXPECT_EQ(slow[1].rec.client, 5);
}

TEST(TraceCollector, ResetDropsEverything) {
  TraceCollector tc(4);
  TraceRecord r = make_op(1, 0, OpType::kStat, 0, 10, 20);
  tc.complete(r, 30);
  tc.reset();
  EXPECT_EQ(tc.completed(), 0u);
  EXPECT_EQ(tc.grand_total_ns(), 0u);
  EXPECT_TRUE(tc.slowest().empty());
  EXPECT_EQ(tc.total_hist(OpType::kStat).total_count(), 0u);
}

// ---------------------------------------------------------------------------
// Cluster integration: reconciliation, determinism, zero perturbation.

SimConfig traced_config(std::uint64_t seed = 42) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = 3;
  cfg.num_clients = 60;
  cfg.seed = seed;
  cfg.fs.num_users = 12;
  cfg.fs.nodes_per_user = 150;
  cfg.duration = 8 * kSecond;
  cfg.warmup = 2 * kSecond;
  // Small cache so fetch/disk stages actually occur.
  cfg.cache_fraction = 0.4;
  cfg.trace.enabled = true;
  cfg.trace.slowest_n = 16;
  return cfg;
}

/// The densest same-instant fan-in: with no latency jitter, every message
/// between two endpoints takes exactly the base latency, so many client
/// requests reach one MDS at the same instant.
SimConfig zero_jitter_config() {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = 3;
  cfg.num_clients = 60;
  cfg.fs.num_users = 12;
  cfg.fs.nodes_per_user = 150;
  cfg.duration = 6 * kSecond;
  cfg.warmup = 2 * kSecond;
  cfg.net.jitter_mean = 0;
  cfg.trace.enabled = true;
  return cfg;
}

TEST(TracingCluster, CompletionsMatchClientLatencySamples) {
  ClusterSim cluster(traced_config());
  cluster.run();
  TraceCollector* tr = cluster.tracer();
  ASSERT_NE(tr, nullptr);
  const Summary lat = cluster.metrics().client_latency();
  EXPECT_GT(tr->completed(), 100u);
  // Every accepted reply lands in both the latency Summary and the
  // collector; give-up paths land in neither.
  EXPECT_EQ(tr->completed(), lat.count());
  const double traced_s = static_cast<double>(tr->grand_total_ns()) / 1e9;
  EXPECT_NEAR(traced_s, lat.sum(), lat.sum() * 1e-6);
}

TEST(TracingCluster, StageSumsTileEndToEndPerOp) {
  ClusterSim cluster(traced_config());
  cluster.run();
  TraceCollector* tr = cluster.tracer();
  ASSERT_NE(tr, nullptr);
  // Exact integer equality per op type: the per-request tiling invariant
  // survives aggregation with no rounding.
  for (int op = 0; op < kNumOpTypes; ++op) {
    const auto o = static_cast<OpType>(op);
    std::uint64_t stage_sum = 0;
    for (int s = 0; s < kNumTraceStages; ++s) {
      stage_sum += tr->stage_total_ns(static_cast<TraceStage>(s), o);
    }
    EXPECT_EQ(stage_sum, tr->total_ns(o)) << "op " << op_name(o);
  }
}

TEST(TracingCluster, SameSeedRunsProduceIdenticalTraces) {
  ClusterSim a(traced_config(7));
  a.run();
  ClusterSim b(traced_config(7));
  b.run();
  TraceCollector* ta = a.tracer();
  TraceCollector* tb = b.tracer();
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  EXPECT_EQ(ta->completed(), tb->completed());
  EXPECT_EQ(ta->grand_total_ns(), tb->grand_total_ns());
  for (int op = 0; op < kNumOpTypes; ++op) {
    for (int s = 0; s < kNumTraceStages; ++s) {
      EXPECT_EQ(ta->stage_total_ns(static_cast<TraceStage>(s),
                                   static_cast<OpType>(op)),
                tb->stage_total_ns(static_cast<TraceStage>(s),
                                   static_cast<OpType>(op)));
    }
  }
  const auto sa = ta->slowest();
  const auto sb = tb->slowest();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].rec.client, sb[i].rec.client);
    EXPECT_EQ(sa[i].rec.start, sb[i].rec.start);
    EXPECT_EQ(sa[i].total(), sb[i].total());
    EXPECT_EQ(sa[i].rec.op, sb[i].rec.op);
  }
}

// Same-instant delivery bursts (once folded into one engine event each by
// delivery batching, now one event per message): the zero-jitter cluster's
// results are deterministic and its per-request stages still tile exactly.
TEST(DeliveryBatch, ClusterResultsAndTraceTilingUnchangedByBatching) {
  ClusterSim a(zero_jitter_config());
  a.run();
  ClusterSim b(zero_jitter_config());
  b.run();

  EXPECT_GT(a.metrics().total_replies(), 1000u);
  EXPECT_EQ(a.metrics().total_replies(), b.metrics().total_replies());
  EXPECT_EQ(a.metrics().total_failures(), b.metrics().total_failures());
  EXPECT_EQ(a.metrics().cluster_hit_rate(), b.metrics().cluster_hit_rate());
  EXPECT_EQ(a.metrics().client_latency().sum(),
            b.metrics().client_latency().sum());
  EXPECT_EQ(a.sim().events_executed(), b.sim().events_executed());

  TraceCollector* ta = a.tracer();
  TraceCollector* tb = b.tracer();
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  EXPECT_EQ(ta->grand_total_ns(), tb->grand_total_ns());
  for (int op = 0; op < kNumOpTypes; ++op) {
    const auto o = static_cast<OpType>(op);
    std::uint64_t stage_sum = 0;
    for (int s = 0; s < kNumTraceStages; ++s) {
      const auto st = static_cast<TraceStage>(s);
      EXPECT_EQ(ta->stage_total_ns(st, o), tb->stage_total_ns(st, o));
      stage_sum += ta->stage_total_ns(st, o);
    }
    EXPECT_EQ(stage_sum, ta->total_ns(o)) << "op " << op_name(o);
  }
}

TEST(TracingCluster, EnablingTracingDoesNotPerturbResults) {
  SimConfig on = traced_config(11);
  SimConfig off = on;
  off.trace.enabled = false;
  ClusterSim with(on);
  with.run();
  ClusterSim without(off);
  without.run();
  EXPECT_EQ(without.tracer(), nullptr);
  // Tracing only observes simulated time: every simulation-visible result
  // must be bit-identical with it on or off.
  const Summary la = with.metrics().client_latency();
  const Summary lb = without.metrics().client_latency();
  EXPECT_EQ(la.count(), lb.count());
  EXPECT_DOUBLE_EQ(la.mean(), lb.mean());
  EXPECT_DOUBLE_EQ(la.max(), lb.max());
  EXPECT_EQ(with.metrics().total_replies(), without.metrics().total_replies());
  EXPECT_DOUBLE_EQ(with.metrics().cluster_hit_rate(),
                   without.metrics().cluster_hit_rate());
}

TEST(TracingCluster, WarmupResetDropsWarmupTraces) {
  SimConfig cfg = traced_config();
  ClusterSim cluster(cfg);
  cluster.run_until(cfg.warmup + kSecond);
  TraceCollector* tr = cluster.tracer();
  ASSERT_NE(tr, nullptr);
  // Only ~1s of post-warmup completions should be present, and they must
  // still reconcile with the (also reset) latency Summary.
  EXPECT_EQ(tr->completed(), cluster.metrics().client_latency().count());
  ClusterSim no_reset_check(cfg);
  no_reset_check.run_until(cfg.warmup - kSecond);
  // Before the warmup boundary the collector is accumulating normally.
  EXPECT_GT(no_reset_check.tracer()->completed(), 0u);
}

}  // namespace
}  // namespace mdsim
