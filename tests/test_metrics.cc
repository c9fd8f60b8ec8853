#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/sharded_cluster.h"
#include "test_util.h"

namespace mdsim {
namespace {

SimConfig metrics_config() {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kStaticSubtree;
  cfg.num_mds = 3;
  cfg.num_clients = 60;
  cfg.fs.num_users = 12;
  cfg.fs.nodes_per_user = 150;
  cfg.duration = 6 * kSecond;
  cfg.warmup = 2 * kSecond;
  cfg.sample_period = 500 * kMillisecond;
  return cfg;
}

TEST(Metrics, TimeSeriesSampledOnCadence) {
  ClusterSim cluster(metrics_config());
  cluster.run();
  Metrics& m = cluster.metrics();
  // 6s / 0.5s = 12 samples (+- boundary effects).
  EXPECT_NEAR(static_cast<double>(m.avg_throughput().points().size()), 12.0,
              2.0);
  EXPECT_EQ(m.per_mds_throughput().size(), 3u);
  for (const auto& series : m.per_mds_throughput()) {
    EXPECT_EQ(series.points().size(), m.avg_throughput().points().size());
  }
}

TEST(Metrics, AvgIsBetweenMinAndMax) {
  ClusterSim cluster(metrics_config());
  cluster.run();
  Metrics& m = cluster.metrics();
  const auto& avg = m.avg_throughput().points();
  const auto& mn = m.min_throughput().points();
  const auto& mx = m.max_throughput().points();
  ASSERT_EQ(avg.size(), mn.size());
  ASSERT_EQ(avg.size(), mx.size());
  for (std::size_t i = 0; i < avg.size(); ++i) {
    EXPECT_LE(mn[i].value, avg[i].value + 1e-9);
    EXPECT_LE(avg[i].value, mx[i].value + 1e-9);
  }
}

TEST(Metrics, ThroughputAggregatesMatchStats) {
  ClusterSim cluster(metrics_config());
  cluster.run();
  Metrics& m = cluster.metrics();
  const double avg = m.avg_mds_throughput(cluster.sim().now());
  // Cross-check against the time-series mean over the post-warmup window.
  const double series_mean =
      m.avg_throughput().mean_in(2 * kSecond + 1, ~SimTime{0});
  EXPECT_NEAR(avg, series_mean, avg * 0.25 + 1.0);
}

TEST(Metrics, ForwardFractionWithinBounds) {
  ClusterSim cluster(metrics_config());
  cluster.run();
  Metrics& m = cluster.metrics();
  EXPECT_GE(m.overall_forward_fraction(), 0.0);
  for (const auto& p : m.forward_fraction().points()) {
    EXPECT_GE(p.value, 0.0);
  }
}

TEST(Metrics, WarmupResetDropsEarlyCounts) {
  SimConfig cfg = metrics_config();
  ClusterSim with_warmup(cfg);
  with_warmup.run();
  cfg.warmup = 0;
  ClusterSim without(cfg);
  without.run();
  // Without a warmup reset, more replies are attributed to the window.
  EXPECT_GT(without.metrics().total_replies(),
            with_warmup.metrics().total_replies());
}

TEST(Metrics, AggregatesSafeExactlyAtWarmupBoundary) {
  // The warmup reset fires at t == warmup; querying the aggregates at that
  // instant means a zero-length window. Division guards must hold: no
  // div-by-zero, no negative deltas from the just-captured base_* counters.
  SimConfig cfg = metrics_config();
  ClusterSim cluster(cfg);
  cluster.run_until(cfg.warmup);
  Metrics& m = cluster.metrics();
  EXPECT_EQ(cluster.sim().now(), cfg.warmup);
  EXPECT_DOUBLE_EQ(m.avg_mds_throughput(cluster.sim().now()), 0.0);
  EXPECT_DOUBLE_EQ(m.cluster_hit_rate(), 0.0);
  EXPECT_EQ(m.total_replies(), 0u);
  EXPECT_EQ(m.total_failures(), 0u);
  EXPECT_EQ(m.client_latency().count(), 0u);
}

TEST(Metrics, PostWarmupDeltasCountEachReplyOnce) {
  // base_* subtraction must not double-count: replies seen in the full run
  // equal warmup-window replies plus post-warmup replies, measured on two
  // identically seeded clusters.
  SimConfig cfg = metrics_config();
  ClusterSim full(cfg);
  full.run();
  const std::uint64_t post_warmup = full.metrics().total_replies();
  SimConfig no_reset = cfg;
  no_reset.warmup = 0;
  ClusterSim whole(no_reset);
  ClusterSim warm_only(no_reset);
  whole.run();
  warm_only.run_until(cfg.warmup);
  EXPECT_EQ(warm_only.metrics().total_replies() + post_warmup,
            whole.metrics().total_replies());
}

/// Each node's cumulative reply counter and the cluster's forward count.
struct CounterSnapshot {
  std::vector<std::uint64_t> replies;
  std::uint64_t forwards = 0;
};

CounterSnapshot read_counters(ClusterSim& cluster) {
  CounterSnapshot c;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    c.replies.push_back(cluster.mds(i).stats().replies_sent);
    c.forwards += cluster.mds(i).stats().forwards;
  }
  return c;
}

struct CounterProbe {
  CounterSnapshot at_warmup;
  CounterSnapshot at_last_sample;
};

/// Starts `cluster`, then schedules one read right after the warm-up
/// reset and one right after every metrics sample: each is queued next
/// to the event it shadows, so nothing runs between the two.
void arm_probe(ClusterSim& cluster, const SimConfig& cfg, CounterProbe& p) {
  cluster.start();
  cluster.sim().schedule_at(cfg.warmup, [&cluster, &p]() {
    p.at_warmup = read_counters(cluster);
  });
  cluster.sim().every(cfg.sample_period, cfg.sample_period,
                      [&cluster, &p]() {
                        p.at_last_sample = read_counters(cluster);
                        return true;
                      });
}

/// Σ rate × window length over the windows after the warm-up reset.
double integrate_after(const TimeSeries& series, SimTime warmup) {
  const auto& pts = series.points();
  double sum = 0.0;
  for (std::size_t k = 1; k < pts.size(); ++k) {
    if (pts[k].time <= warmup) continue;
    const SimTime start = std::max(pts[k - 1].time, warmup);
    sum += pts[k].value * to_seconds(pts[k].time - start);
  }
  return sum;
}

void expect_series_integrate_to_counters(ClusterSim& cluster,
                                         const SimConfig& cfg,
                                         const CounterProbe& p) {
  const Metrics& m = cluster.metrics();
  ASSERT_EQ(p.at_warmup.replies.size(),
            static_cast<std::size_t>(cluster.num_mds()));
  for (int i = 0; i < cluster.num_mds(); ++i) {
    const auto node = static_cast<std::size_t>(i);
    const double replies = static_cast<double>(
        p.at_last_sample.replies[node] - p.at_warmup.replies[node]);
    ASSERT_GT(replies, 0.0) << "mds " << i;
    EXPECT_NEAR(integrate_after(m.per_mds_throughput()[node], cfg.warmup),
                replies, 1e-9 * replies)
        << "mds " << i;
  }
  const double forwards = static_cast<double>(p.at_last_sample.forwards -
                                              p.at_warmup.forwards);
  ASSERT_GT(forwards, 0.0);
  EXPECT_NEAR(integrate_after(m.forward_rate(), cfg.warmup), forwards,
              1e-9 * forwards);
}

TEST(Metrics, WindowedSeriesIntegrateToCounterDeltas) {
  // The warm-up reset falls between two samples, so the first measured
  // window is the partial one that opens at the reset.
  SimConfig cfg = metrics_config();
  cfg.warmup = 2 * kSecond + 250 * kMillisecond;
  ClusterSim cluster(cfg);
  CounterProbe probe;
  arm_probe(cluster, cfg, probe);
  cluster.run();
  expect_series_integrate_to_counters(cluster, cfg, probe);

  SimConfig sharded_cfg = cfg;
  sharded_cfg.num_mds = 4;
  sharded_cfg.shards = 2;
  ShardedClusterSim sharded(sharded_cfg);
  std::vector<CounterProbe> probes(2);
  for (int s = 0; s < 2; ++s) {
    arm_probe(sharded.shard(s), sharded_cfg, probes[s]);
  }
  sharded.run();
  for (int s = 0; s < 2; ++s) {
    SCOPED_TRACE(s);
    expect_series_integrate_to_counters(sharded.shard(s), sharded_cfg,
                                        probes[s]);
  }
}

TEST(Metrics, ClientLatencyAggregated) {
  ClusterSim cluster(metrics_config());
  cluster.run();
  const Summary lat = cluster.metrics().client_latency();
  EXPECT_GT(lat.count(), 100u);
  EXPECT_GT(lat.min(), 0.0);
  EXPECT_GE(lat.max(), lat.mean());
}

TEST(Metrics, PrefixFractionAndFillInRange) {
  ClusterSim cluster(metrics_config());
  cluster.run();
  Metrics& m = cluster.metrics();
  EXPECT_GE(m.mean_prefix_fraction(), 0.0);
  EXPECT_LE(m.mean_prefix_fraction(), 1.0);
  double fill = 0.0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    const MetadataCache& c = cluster.mds(i).cache();
    fill += static_cast<double>(c.size()) / static_cast<double>(c.capacity());
  }
  fill /= cluster.num_mds();
  EXPECT_GT(fill, 0.0);
  EXPECT_LE(fill, 1.1);
}

}  // namespace
}  // namespace mdsim
