#include "unit_costs.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <vector>

#include "cache/metadata_cache.h"
#include "common/rng.h"
#include "sim/simulation.h"

namespace perfbench {

using namespace mdsim;

namespace {

constexpr int kTrials = 3;

/// Median over kTrials of `trial()`'s wall ns divided by `ops`.
template <typename F>
double median_ns_per_op(std::uint64_t ops, F&& trial) {
  std::vector<double> ns;
  for (int t = 0; t < kTrials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    trial();
    const auto t1 = std::chrono::steady_clock::now();
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(ops));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Each fired event schedules its successor after a precomputed
/// exponential gap, so the queue depth stays at its initial size.
struct HoldModel {
  Simulation sim;
  std::vector<SimTime> gaps;
  std::size_t next = 0;

  void fire() {
    sim.schedule(gaps[next++ % gaps.size()], [this]() { fire(); });
  }
};

struct Sink final : NetEndpoint {
  std::uint64_t received = 0;
  void on_message(NetAddr, MessagePtr) override { ++received; }
};

}  // namespace

double sim_event_ns(std::size_t pending, std::uint64_t seed) {
  constexpr std::uint64_t kSteps = 1 << 21;
  HoldModel hold;
  Rng rng(seed, 0x51e7);
  hold.gaps.resize(1 << 16);
  for (SimTime& g : hold.gaps) {
    g = 1 + static_cast<SimTime>(rng.exponential(1e6));  // mean 1 ms
  }
  for (std::size_t i = 0; i < std::max<std::size_t>(pending, 1); ++i) {
    hold.fire();
  }
  const auto steps = [&hold](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) hold.sim.step(Simulation::kNoEvent);
  };
  steps(kSteps / 4);  // warm the slab and heap
  return median_ns_per_op(kSteps, [&]() { steps(kSteps); });
}

double cache_lookup_ns(const FsTree& tree, std::size_t capacity,
                       double hit_rate, std::uint64_t seed) {
  constexpr std::uint64_t kLookups = 1 << 21;
  std::vector<FsNode*> order;  // breadth-first: parents before children
  std::deque<FsNode*> frontier{tree.root()};
  while (!frontier.empty()) {
    FsNode* n = frontier.front();
    frontier.pop_front();
    order.push_back(n);
    for (FsNode* c : n->children_list()) frontier.push_back(c);
  }
  const std::size_t resident = std::min(capacity, order.size());
  MetadataCache cache(std::max<std::size_t>(capacity, 1));
  for (std::size_t i = 0; i < resident; ++i) {
    cache.insert(order[i], InsertKind::kDemand, true, 0);
  }

  Rng rng(seed, 0xcac4e);
  std::vector<InodeId> probes(1 << 16);
  for (InodeId& ino : probes) {
    const bool hit = resident == order.size() || rng.bernoulli(hit_rate);
    const std::size_t i =
        hit ? rng.uniform(resident)
            : resident + rng.uniform(order.size() - resident);
    ino = order[i]->ino();
  }
  SimTime now = 0;
  const auto lookups = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      now += kMicrosecond;
      cache.lookup(probes[i % probes.size()], now);
    }
  };
  lookups(kLookups / 4);
  return median_ns_per_op(kLookups, [&]() { lookups(kLookups); });
}

double net_message_ns(const NetworkParams& params, int mds, int clients,
                      std::uint64_t seed) {
  constexpr std::uint64_t kBatch = 512;
  constexpr std::uint64_t kMessages = 1 << 20;
  Simulation sim;
  NetworkParams p = params;
  p.seed = seed;
  Network net(sim, p);
  std::vector<Sink> sinks(static_cast<std::size_t>(mds + clients));
  for (Sink& s : sinks) net.attach(&s);

  Rng rng(seed, 0x0e7);
  const auto exchange = [&](std::uint64_t n) {
    for (std::uint64_t sent = 0; sent < n; sent += kBatch) {
      for (std::uint64_t k = 0; k < kBatch; k += 2) {
        const auto server = static_cast<NetAddr>(
            rng.uniform(static_cast<std::uint64_t>(mds)));
        const auto client = static_cast<NetAddr>(
            mds + rng.uniform(static_cast<std::uint64_t>(clients)));
        net.send(client, server,
                 std::make_unique<Message>(MsgType::kClientRequest));
        net.send(server, client,
                 std::make_unique<Message>(MsgType::kClientReply));
      }
      sim.run();
    }
  };
  exchange(kMessages / 4);
  return median_ns_per_op(kMessages, [&]() { exchange(kMessages); });
}

}  // namespace perfbench
