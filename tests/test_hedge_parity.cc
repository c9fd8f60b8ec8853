// Client hedged-read protocol (client/hedge_policy.h), driven through a
// cohort of one against scripted servers — a slow primary with a slower
// backup, a slow primary with a fast backup: hedges fire on time, each
// race settles the right way, and the loser's reply is discarded as stale.
//
// The scripted world: two server endpoints take addresses 0 and 1 (a
// num_mds=2 client's whole universe). Replies are keyed purely on the
// request's hedge flag, so it does not matter which address the partition
// picks as the primary authority. A short warm-up of fast replies feeds
// the tail estimator past min_samples; after that the primary turns slow
// and every first attempt hedges at the deterministic min_delay floor.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include "client/cohort.h"
#include "client/hedge_policy.h"
#include "client/retry_policy.h"
#include "fstree/generator.h"
#include "mds/dirfrag.h"
#include "mds/messages.h"
#include "net/network.h"
#include "strategy/partition.h"
#include "workload/workload.h"

namespace mdsim {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr SimTime kLatency = from_micros(100);

/// Stat the same file forever with a fixed think time: no RNG draws, so
/// the op stream is a pure function of the protocol.
struct FixedWorkload final : Workload {
  FsNode* target = nullptr;
  SimTime think = 10 * kMillisecond;
  SimTime next(ClientId, SimTime, Rng&, Operation* out) override {
    out->op = OpType::kStat;
    out->target = target;
    return think;
  }
};

struct Arrival {
  SimTime at = 0;
  std::uint8_t hedge = 0;
  std::uint64_t req_id = 0;
};

/// Reply schedule shared by both servers. The first `warm_count`
/// primary requests answer fast (to warm the estimator); after that,
/// primaries answer at `primary_delay` and hedged copies at
/// `hedge_delay` — slower than the primary for the primary-wins case,
/// faster for the backup-wins case.
struct Script {
  SimTime warm_delay = kMillisecond;
  std::size_t warm_count = 8;
  SimTime primary_delay = 30 * kMillisecond;
  SimTime hedge_delay = 0;
  std::size_t primaries_served = 0;
  std::vector<Arrival> arrivals;
};

/// One MDS stand-in: records every arrival, answers per the shared
/// script, echoes the hedge flag so the client can attribute the winner.
struct ScriptedMds final : NetEndpoint {
  Simulation* sim = nullptr;
  Network* net = nullptr;
  Script* script = nullptr;
  NetAddr addr = kInvalidAddr;

  void on_message(NetAddr, MessagePtr msg) override {
    if (msg->type != MsgType::kClientRequest) return;
    auto& m = static_cast<ClientRequestMsg&>(*msg);
    script->arrivals.push_back({sim->now(), m.hedge, m.req_id});
    SimTime delay;
    if (m.hedge != 0) {
      delay = script->hedge_delay;
    } else if (script->primaries_served < script->warm_count) {
      ++script->primaries_served;
      delay = script->warm_delay;
    } else {
      delay = script->primary_delay;
    }
    sim->schedule(delay, [this, id = m.req_id, h = m.hedge,
                          to = m.client_addr]() {
      auto reply = std::make_unique<ClientReplyMsg>();
      reply->req_id = id;
      reply->success = true;
      reply->hedge = h;
      net->send(addr, to, std::move(reply));
    });
  }
};

struct RunOutcome {
  ClientStats stats;
  std::vector<Arrival> arrivals;
};

/// Deterministic hedging: min_delay (5 ms) dominates the warmed-up
/// estimate (~1.5 ms), so every eligible op hedges exactly min_delay
/// after issue — long before the slow primary's 30 ms reply.
HedgeParams test_hedge() {
  HedgeParams hp;
  hp.enabled = true;
  hp.min_delay = 5 * kMillisecond;
  hp.delay_factor = 1.0;
  hp.min_samples = 4;
  return hp;
}

/// Timeouts must never fire (hedging, not retrying, is under test).
ClientRetryParams no_retry() {
  ClientRetryParams rp;
  rp.request_timeout = 200 * kMillisecond;
  return rp;
}

RunOutcome run_world(Script& script, const HedgeParams& hp, SimTime horizon) {
  Simulation sim;
  NetworkParams np;
  np.base_latency = kLatency;
  np.jitter_mean = 0;
  Network net(sim, np);

  FsTree tree;
  NamespaceParams fs;
  fs.seed = kSeed;
  fs.num_users = 4;
  fs.nodes_per_user = 60;
  generate_namespace(tree, fs);
  auto partition = make_partitioner(StrategyKind::kDynamicSubtree, 2, tree);
  DirFragRegistry dirfrag(2);
  FixedWorkload workload;
  workload.target = tree.files().front();

  ScriptedMds servers[2];
  for (int i = 0; i < 2; ++i) {
    servers[i].sim = &sim;
    servers[i].net = &net;
    servers[i].script = &script;
    servers[i].addr = net.attach(&servers[i]);
    EXPECT_EQ(servers[i].addr, i);
  }

  ClientCohort co(sim, net, tree, workload, *partition, dirfrag,
                  /*count=*/1, /*first_id=*/0, /*num_mds=*/2, kSeed);
  co.set_retry_policy(no_retry());
  co.set_hedge_policy(hp);
  co.start();
  sim.run_until(horizon);
  return {co.client(0).stats(), script.arrivals};
}

std::uint64_t absdiff(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

TEST(HedgeParity, HedgeFiresButPrimaryWins) {
  // Backup replies land 60 ms after the hedge — well after the primary's
  // 30 ms reply. Every hedge is wasted and every backup reply is stale.
  Script script;
  script.hedge_delay = 60 * kMillisecond;
  const HedgeParams hp = test_hedge();
  const RunOutcome r = run_world(script, hp, 2 * kSecond);

  EXPECT_GT(r.stats.ops_ok, 20u);
  EXPECT_GT(r.stats.hedges_fired, 10u);
  EXPECT_EQ(r.stats.hedge_wins, 0u);
  // Every settled race was settled by the primary; at most one hedge
  // is still racing at the horizon.
  EXPECT_LE(absdiff(r.stats.wasted_hedges, r.stats.hedges_fired), 1u);
  // The losing backup replies arrive after the op completed and fail
  // the req_id match: one stale reply per wasted hedge, minus any
  // still in flight.
  EXPECT_LE(r.stats.stale_replies, r.stats.hedges_fired);
  EXPECT_GE(r.stats.stale_replies + 3, r.stats.wasted_hedges);
  EXPECT_EQ(r.stats.retries, 0u);
  EXPECT_EQ(r.stats.ops_failed, 0u);
  // Arrivals interleave primaries and hedged copies; each hedged copy
  // carries the req_id of a primary already on the wire.
  std::uint64_t hedged_arrivals = 0;
  for (const Arrival& a : r.arrivals) hedged_arrivals += a.hedge;
  EXPECT_EQ(hedged_arrivals, r.stats.hedges_fired);
  // The first hedge fires at the min_delay floor (the freshly warmed
  // estimate is below it), exactly min_delay after its primary.
  for (std::size_t i = 1; i < r.arrivals.size(); ++i) {
    if (r.arrivals[i].hedge == 0) continue;
    EXPECT_EQ(r.arrivals[i].req_id, r.arrivals[i - 1].req_id);
    EXPECT_EQ(r.arrivals[i].at - r.arrivals[i - 1].at, hp.min_delay);
    break;
  }
}

TEST(HedgeParity, BackupWinsAndPrimaryReplyIsDiscardedAsStale) {
  // Backup replies land 2 ms after the hedge (~7 ms into the op) — far
  // ahead of the primary's 30 ms reply. Every hedge wins, and every
  // primary reply arrives after completion and lands in stale_replies.
  Script script;
  script.hedge_delay = 2 * kMillisecond;
  const RunOutcome r = run_world(script, test_hedge(), 2 * kSecond);

  EXPECT_GT(r.stats.ops_ok, 20u);
  EXPECT_GT(r.stats.hedge_wins, 10u);
  // The estimator tracks its own output here: each win completes at
  // hedge_delay past the fire time, so the estimate ratchets upward
  // until the fire time grazes the primary's reply and a few late
  // races flip to the primary. Backup wins must still dominate.
  EXPECT_LE(r.stats.wasted_hedges, 4u);
  EXPECT_GT(r.stats.hedge_wins, 8 * r.stats.wasted_hedges);
  EXPECT_LE(absdiff(r.stats.hedge_wins + r.stats.wasted_hedges,
                    r.stats.hedges_fired),
            1u);
  // One stale primary reply per won race, minus those still in flight.
  EXPECT_LE(r.stats.stale_replies, r.stats.hedges_fired);
  EXPECT_GE(r.stats.stale_replies + 3, r.stats.hedge_wins);
  EXPECT_EQ(r.stats.retries, 0u);
  EXPECT_EQ(r.stats.ops_failed, 0u);
  // Winning hedges cap the op at ~7 ms instead of 30 ms: the mean must
  // sit well under the slow primary's floor.
  EXPECT_LT(r.stats.latency_seconds.mean(), 0.020);
}

TEST(HedgeParity, ColdEstimatorIsByteIdenticalToDisabled) {
  // min_samples = UINT32_MAX keeps the estimator permanently cold: the
  // issue path must take the ordinary branch, draw no RNG, schedule no
  // timers — the run is indistinguishable from hedging disabled, down to
  // every arrival instant at the servers. This is the same configuration
  // the benches' --gray-noop mode uses for its zero-cost-off gate.
  const SimTime horizon = 2 * kSecond;
  HedgeParams cold = test_hedge();
  cold.min_samples = std::numeric_limits<std::uint32_t>::max();
  HedgeParams off;  // defaults: disabled

  Script sa;
  sa.hedge_delay = 2 * kMillisecond;
  const RunOutcome a = run_world(sa, cold, horizon);
  Script sb;
  sb.hedge_delay = 2 * kMillisecond;
  const RunOutcome b = run_world(sb, off, horizon);

  EXPECT_EQ(a.stats.hedges_fired, 0u);
  EXPECT_EQ(b.stats.hedges_fired, 0u);
  const auto digest = [](const RunOutcome& r) {
    return std::make_tuple(r.stats.ops_issued, r.stats.ops_completed,
                           r.stats.ops_ok, r.stats.retries,
                           r.stats.stale_replies);
  };
  EXPECT_EQ(digest(a), digest(b));
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].at, b.arrivals[i].at) << i;
    EXPECT_EQ(a.arrivals[i].hedge, b.arrivals[i].hedge) << i;
    EXPECT_EQ(a.arrivals[i].req_id, b.arrivals[i].req_id) << i;
  }
}

}  // namespace
}  // namespace mdsim
