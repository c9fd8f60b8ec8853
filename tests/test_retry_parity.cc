// Client retry protocol (client/retry_policy.h), driven through a cohort
// of one against scripted servers — a black hole, an overload rejector, a
// too-slow replier, an instant echo — checking attempt patterns, budget
// accounting and pacing. Client timers are exact engine events, so every
// inter-arrival gap is pinned to the protocol's own delays: a think time,
// a timeout plus its jittered backoff, or a retry_after plus its jitter,
// plus the round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "client/cohort.h"
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
constexpr SimTime kThink = 10 * kMillisecond;

/// Stat the same file forever with a fixed think time: no RNG draws, so
/// the op stream is a pure function of the protocol.
struct FixedWorkload final : Workload {
  FsNode* target = nullptr;
  SimTime think = kThink;
  SimTime next(ClientId, SimTime, Rng&, Operation* out) override {
    out->op = OpType::kStat;
    out->target = target;
    return think;
  }
};

struct Arrival {
  SimTime at = 0;
  std::uint8_t attempt = 0;
  std::uint64_t req_id = 0;
};

/// Records every request and never answers: sustained timeouts.
struct Blackhole : NetEndpoint {
  Simulation* sim = nullptr;
  Network* net = nullptr;
  NetAddr addr = kInvalidAddr;
  std::vector<Arrival> arrivals;

  void on_message(NetAddr, MessagePtr msg) override {
    if (msg->type != MsgType::kClientRequest) return;
    auto& m = static_cast<ClientRequestMsg&>(*msg);
    arrivals.push_back({sim->now(), m.attempt, m.req_id});
    answer(m);
  }
  virtual void answer(const ClientRequestMsg&) {}
};

/// Rejects everything immediately with a fixed retry_after hint.
struct Rejector final : Blackhole {
  SimTime retry_after = 40 * kMillisecond;
  void answer(const ClientRequestMsg& m) override {
    auto reply = std::make_unique<ClientReplyMsg>();
    reply->req_id = m.req_id;
    reply->success = false;
    reply->rejected = true;
    reply->retry_after = retry_after;
    net->send(addr, m.client_addr, std::move(reply));
  }
};

/// Succeeds at once.
struct Echo final : Blackhole {
  void answer(const ClientRequestMsg& m) override {
    auto reply = std::make_unique<ClientReplyMsg>();
    reply->req_id = m.req_id;
    reply->success = true;
    net->send(addr, m.client_addr, std::move(reply));
  }
};

/// Succeeds, but only after the client has already timed out and
/// re-issued: every reply must land in the stale branch.
struct SlowReplier final : Blackhole {
  SimTime delay = 250 * kMillisecond;
  void answer(const ClientRequestMsg& m) override {
    sim->schedule(delay, [this, id = m.req_id, to = m.client_addr]() {
      auto reply = std::make_unique<ClientReplyMsg>();
      reply->req_id = id;
      reply->success = true;
      net->send(addr, to, std::move(reply));
    });
  }
};

struct RunOutcome {
  ClientStats stats;
  std::vector<Arrival> arrivals;
};

/// Build a one-client, one-server world around `server` and run it. The
/// server attaches first, taking address 0 — where a num_mds=1 client
/// sends everything.
template <typename Server>
RunOutcome run_world(const ClientRetryParams& rp, SimTime horizon,
                     SimTime think = kThink) {
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
  auto partition = make_partitioner(StrategyKind::kDynamicSubtree, 1, tree);
  DirFragRegistry dirfrag(1);
  FixedWorkload workload;
  workload.target = tree.files().front();
  workload.think = think;

  Server server;
  server.sim = &sim;
  server.net = &net;
  server.addr = net.attach(&server);
  EXPECT_EQ(server.addr, 0);

  ClientCohort co(sim, net, tree, workload, *partition, dirfrag,
                  /*count=*/1, /*first_id=*/0, /*num_mds=*/1, kSeed);
  co.set_retry_policy(rp);
  co.start();
  sim.run_until(horizon);
  return {co.client(0).stats(), server.arrivals};
}

ClientRetryParams tight_policy() {
  ClientRetryParams rp;
  rp.request_timeout = 100 * kMillisecond;
  rp.backoff_base = 50 * kMillisecond;
  rp.backoff_cap = 200 * kMillisecond;
  return rp;
}

/// Backoff window before re-issue number `attempt` (matches
/// retry_backoff_delay's exponential-with-cap shape).
SimTime backoff_ceiling(const ClientRetryParams& rp, int attempt) {
  SimTime d = rp.backoff_base << (attempt - 1 < 6 ? attempt - 1 : 6);
  return d > rp.backoff_cap ? rp.backoff_cap : d;
}

TEST(RetryParity, SustainedTimeoutsSpendTheBudgetIdentically) {
  ClientRetryParams rp = tight_policy();
  rp.budget.enabled = true;
  rp.budget.ratio = 0.1;
  rp.budget.cap = 3.0;
  const RunOutcome r = run_world<Blackhole>(rp, 3 * kSecond);

  ASSERT_GE(r.arrivals.size(), 8u);
  // One op burns the whole budget (attempts 1..3), then every fresh op
  // fails fast on its first timeout: 0,1,2,3,0,0,0,...
  for (std::size_t i = 0; i < r.arrivals.size(); ++i) {
    EXPECT_EQ(r.arrivals[i].attempt, i < 4 ? i : 0u) << "arrival " << i;
  }
  // Re-issue pacing: timeout plus jittered backoff in [d/2, d).
  for (std::size_t i = 1; i < 4; ++i) {
    const SimTime gap = r.arrivals[i].at - r.arrivals[i - 1].at;
    const SimTime d =
        backoff_ceiling(rp, static_cast<int>(r.arrivals[i].attempt));
    EXPECT_GE(gap, rp.request_timeout + d / 2);
    EXPECT_LT(gap, rp.request_timeout + d);
  }
  // A give-up moves straight on to the next op: its first attempt lands
  // one timeout plus one think time after the abandoned op's.
  for (std::size_t i = 4; i < r.arrivals.size(); ++i) {
    EXPECT_EQ(r.arrivals[i].at - r.arrivals[i - 1].at,
              rp.request_timeout + kThink)
        << "arrival " << i;
  }
  // Budget accounting: exactly cap tokens were ever spent; every later
  // timeout was suppressed, and each suppression failed one op.
  EXPECT_EQ(r.stats.retries - r.stats.retries_suppressed, 3u);
  EXPECT_EQ(r.stats.ops_failed, r.stats.retries_suppressed);
  EXPECT_GT(r.stats.retries_suppressed, 0u);
  EXPECT_EQ(r.stats.ops_completed, 0u);
  EXPECT_EQ(r.stats.stale_replies, 0u);
}

TEST(RetryParity, WithoutBudgetBothRetryForever) {
  const ClientRetryParams rp = tight_policy();  // budget disabled
  const RunOutcome r = run_world<Blackhole>(rp, 2 * kSecond);

  ASSERT_GE(r.arrivals.size(), 5u);
  // One op, attempts strictly increasing: never abandoned.
  for (std::size_t i = 0; i < r.arrivals.size(); ++i) {
    EXPECT_EQ(r.arrivals[i].attempt, i);
  }
  EXPECT_EQ(r.stats.ops_failed, 0u);
  EXPECT_EQ(r.stats.retries_suppressed, 0u);
  // Each arrival after the first was preceded by one timeout; one more
  // timeout may be pending its backoff at the horizon.
  EXPECT_GE(r.stats.retries + 1, r.arrivals.size());
  EXPECT_LE(r.stats.retries, r.arrivals.size());
}

TEST(RetryParity, RejectedRepliesHonorRetryAfterWithJitter) {
  ClientRetryParams rp = tight_policy();
  rp.budget.enabled = true;
  rp.budget.ratio = 0.1;
  rp.budget.cap = 3.0;
  const RunOutcome r = run_world<Rejector>(rp, 2 * kSecond);
  const SimTime retry_after = Rejector{}.retry_after;

  ASSERT_GE(r.arrivals.size(), 8u);
  // Same budget pattern as timeouts, but the cycle is driven by fast
  // rejections, not timeout expiry: no retries, only rejected replies.
  for (std::size_t i = 0; i < r.arrivals.size(); ++i) {
    EXPECT_EQ(r.arrivals[i].attempt, i < 4 ? i : 0u) << "arrival " << i;
  }
  for (std::size_t i = 1; i < 4; ++i) {
    // Round trip + server hint + up to 50% de-synchronizing jitter.
    const SimTime gap = r.arrivals[i].at - r.arrivals[i - 1].at;
    EXPECT_GE(gap, 2 * kLatency + retry_after);
    EXPECT_LT(gap, 2 * kLatency + retry_after + retry_after / 2);
  }
  EXPECT_EQ(r.stats.retries, 0u);
  EXPECT_GT(r.stats.rejected_replies, 0u);
  const std::uint64_t diff =
      r.stats.rejected_replies > r.arrivals.size()
          ? r.stats.rejected_replies - r.arrivals.size()
          : r.arrivals.size() - r.stats.rejected_replies;
  EXPECT_LE(diff, 1u);  // at most one rejection still in flight
  EXPECT_EQ(r.stats.ops_failed, r.stats.retries_suppressed);
  EXPECT_EQ(r.stats.ops_ok, 0u);
}

TEST(RetryParity, LateRepliesAfterReissueAreDiscardedAsStale) {
  ClientRetryParams rp = tight_policy();
  rp.budget.enabled = true;
  rp.budget.ratio = 0.1;
  rp.budget.cap = 2.0;
  // Replies arrive 250 ms after each request: past the timeout (100 ms)
  // plus any backoff (< 100 ms here), so the re-issue — under a fresh
  // req_id — always wins the race and the reply is stale on arrival.
  const RunOutcome r = run_world<SlowReplier>(rp, 3 * kSecond);

  EXPECT_GT(r.stats.stale_replies, 0u);
  EXPECT_EQ(r.stats.ops_ok, 0u);
  EXPECT_EQ(r.stats.ops_completed, 0u);
  EXPECT_EQ(r.stats.retries - r.stats.retries_suppressed, 2u);
  // Every delivered reply was stale (the last few may still be in
  // flight at the horizon).
  EXPECT_LE(r.stats.stale_replies, r.arrivals.size());
  EXPECT_GE(r.stats.stale_replies + 3, r.arrivals.size());
}

TEST(RetryParity, ThinkTimerFiresExactlyOnTime) {
  // A think time off any millisecond grid: the next request must reach
  // the server exactly one think time plus one round trip after the
  // last, never rounded to a timer granule.
  const SimTime think = 10 * kMillisecond + from_micros(300);
  const RunOutcome r = run_world<Echo>(tight_policy(), kSecond, think);

  ASSERT_GE(r.arrivals.size(), 90u);
  EXPECT_EQ(r.arrivals.front().at, think + kLatency);
  for (std::size_t i = 1; i < r.arrivals.size(); ++i) {
    EXPECT_EQ(r.arrivals[i].at - r.arrivals[i - 1].at, think + 2 * kLatency)
        << "arrival " << i;
  }
  EXPECT_LE(r.stats.ops_issued - r.stats.ops_ok, 1u);  // one in flight
  EXPECT_EQ(r.stats.ops_failed, 0u);
  EXPECT_EQ(r.stats.retries, 0u);
}

}  // namespace
}  // namespace mdsim
