// Network fault injection: per-link drop / duplication / latency spikes
// (deterministic chaos harness), plus the zero-cost-when-off guarantee.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "mds/messages.h"
#include "net/network.h"

namespace mdsim {
namespace {

struct Recorder final : NetEndpoint {
  struct Arrival {
    NetAddr from;
    MsgType type;
    SimTime at;
    std::uint64_t payload;
  };
  Simulation* sim = nullptr;
  std::vector<Arrival> arrivals;

  void on_message(NetAddr from, MessagePtr msg) override {
    std::uint64_t payload = 0;
    if (msg->type == MsgType::kHeartbeat) {
      payload = static_cast<std::uint64_t>(
          static_cast<HeartbeatMsg&>(*msg).sender);
    }
    arrivals.push_back({from, msg->type, sim->now(), payload});
  }
};

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() {
    params_.base_latency = 100;
    params_.jitter_mean = 0;
    params_.seed = 7;
    net_ = std::make_unique<Network>(sim_, params_);
    for (auto& r : nodes_) {
      r.sim = &sim_;
      addrs_.push_back(net_->attach(&r));
    }
  }

  MessagePtr heartbeat(MdsId sender) {
    auto m = std::make_unique<HeartbeatMsg>();
    m->sender = sender;
    return m;
  }

  Simulation sim_;
  NetworkParams params_;
  std::unique_ptr<Network> net_;
  Recorder nodes_[3];
  std::vector<NetAddr> addrs_;
};

TEST_F(FaultInjectionTest, DropOneLosesEveryMessageBothWays) {
  LinkFault f;
  f.drop = 1.0;
  net_->set_link_fault(addrs_[0], addrs_[1], f);
  for (int i = 0; i < 10; ++i) {
    net_->send(addrs_[0], addrs_[1], heartbeat(1));
    net_->send(addrs_[1], addrs_[0], heartbeat(2));  // symmetric key
    net_->send(addrs_[0], addrs_[2], heartbeat(3));  // unaffected link
  }
  sim_.run();
  EXPECT_TRUE(nodes_[0].arrivals.empty());
  EXPECT_TRUE(nodes_[1].arrivals.empty());
  EXPECT_EQ(nodes_[2].arrivals.size(), 10u);
  EXPECT_EQ(net_->fault_counters().dropped, 20u);
  EXPECT_EQ(net_->fault_counters().duplicated, 0u);
}

TEST_F(FaultInjectionTest, DuplicateOneDeliversExactlyTwice) {
  LinkFault f;
  f.duplicate = 1.0;
  net_->set_link_fault(addrs_[0], addrs_[1], f);
  for (int i = 0; i < 5; ++i) {
    net_->send(addrs_[0], addrs_[1], heartbeat(static_cast<MdsId>(i)));
  }
  sim_.run();
  // Every message arrives twice, and the clone carries the same payload.
  // The schedule is deterministic: the originals arrive in send order at
  // the base latency, and each copy one base latency behind.
  ASSERT_EQ(nodes_[1].arrivals.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto& a = nodes_[1].arrivals[i];
    EXPECT_EQ(a.payload, i % 5);
    EXPECT_EQ(a.at, i < 5 ? 100u : 200u);
    EXPECT_EQ(a.from, addrs_[0]);
  }
  EXPECT_EQ(net_->fault_counters().duplicated, 5u);
}

// A duplicated burst: the duplicate decision draws from the fault RNG
// stream and every copy is one more engine event, so two runs with one
// seed deliver the same sequence, latency jitter included.
TEST(DeliveryBatch, DuplicateFaultBypassesBatchingDeterministically) {
  auto run = [] {
    Simulation sim;
    NetworkParams params;
    params.base_latency = 100;
    params.jitter_mean = 40;
    params.seed = 7;
    Network net(sim, params);
    Recorder nodes[3];
    std::vector<NetAddr> addrs;
    for (auto& r : nodes) {
      r.sim = &sim;
      addrs.push_back(net.attach(&r));
    }
    LinkFault f;
    f.duplicate = 1.0;  // every message delivered twice
    net.set_link_fault(addrs[0], addrs[2], f);
    net.send(addrs[0], addrs[2], std::make_unique<HeartbeatMsg>());
    net.send(addrs[1], addrs[2],
             std::make_unique<Message>(MsgType::kClientReply));
    net.send(addrs[0], addrs[2],
             std::make_unique<Message>(MsgType::kClientRequest));
    sim.run();
    std::vector<std::tuple<NetAddr, MsgType, SimTime>> out;
    for (const auto& a : nodes[2].arrivals) {
      out.emplace_back(a.from, a.type, a.at);
    }
    return out;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  // Two originals and two copies on the faulty link, one clean message.
  ASSERT_EQ(a.size(), 5u);
  int heartbeats = 0, requests = 0, replies = 0;
  for (const auto& [from, type, at] : a) {
    EXPECT_GE(at, 100u);
    if (type == MsgType::kHeartbeat) ++heartbeats;
    if (type == MsgType::kClientRequest) ++requests;
    if (type == MsgType::kClientReply) ++replies;
  }
  EXPECT_EQ(heartbeats, 2);
  EXPECT_EQ(requests, 2);
  EXPECT_EQ(replies, 1);
}

TEST_F(FaultInjectionTest, SpikeDelaysAndPreservesFifo) {
  LinkFault f;
  f.spike = 1.0;
  f.spike_latency = 10 * kMillisecond;
  net_->set_link_fault(addrs_[0], addrs_[1], f);
  net_->send(addrs_[0], addrs_[1], heartbeat(0));
  net_->clear_link_fault(addrs_[0], addrs_[1]);
  net_->send(addrs_[0], addrs_[1], heartbeat(1));  // healthy follower
  sim_.run();
  ASSERT_EQ(nodes_[1].arrivals.size(), 2u);
  // The spiked message arrives late; the healthy follower cannot overtake
  // it (TCP-like FIFO: the spike raises the pair's delivery floor).
  EXPECT_EQ(nodes_[1].arrivals[0].payload, 0u);
  EXPECT_GE(nodes_[1].arrivals[0].at, 10 * kMillisecond);
  EXPECT_GE(nodes_[1].arrivals[1].at, nodes_[1].arrivals[0].at);
  EXPECT_EQ(net_->fault_counters().spiked, 1u);
}

TEST_F(FaultInjectionTest, ClearedFaultsRestoreHealthyTimings) {
  // Deliveries after clear_link_faults() are byte-identical to a network
  // that never had a fault installed: the fault rng is a separate stream,
  // so the jitter sequence is unperturbed.
  NetworkParams params = params_;
  params.jitter_mean = from_micros(20);

  auto run = [&](bool with_faults) {
    Simulation sim;
    Network net(sim, params);
    Recorder a, b;
    a.sim = &sim;
    b.sim = &sim;
    const NetAddr aa = net.attach(&a);
    const NetAddr ab = net.attach(&b);
    if (with_faults) {
      LinkFault f;
      f.drop = 1.0;
      net.set_link_fault(aa, ab, f);
      net.clear_link_fault(aa, ab);
    }
    for (int i = 0; i < 50; ++i) {
      auto m = std::make_unique<HeartbeatMsg>();
      m->sender = static_cast<MdsId>(i);
      net.send(aa, ab, std::move(m));
    }
    sim.run();
    std::vector<SimTime> times;
    for (const auto& arr : b.arrivals) times.push_back(arr.at);
    return times;
  };

  EXPECT_EQ(run(false), run(true));
}

TEST_F(FaultInjectionTest, InjectionIsDeterministicPerSeed) {
  auto run = [this]() {
    Simulation sim;
    Network net(sim, params_);
    Recorder a, b;
    a.sim = &sim;
    b.sim = &sim;
    const NetAddr aa = net.attach(&a);
    const NetAddr ab = net.attach(&b);
    LinkFault f;
    f.drop = 0.3;
    f.duplicate = 0.2;
    f.spike = 0.1;
    net.set_link_fault(aa, ab, f);
    for (int i = 0; i < 200; ++i) {
      auto m = std::make_unique<HeartbeatMsg>();
      m->sender = static_cast<MdsId>(i);
      net.send(aa, ab, std::move(m));
    }
    sim.run();
    std::vector<std::pair<SimTime, std::uint64_t>> seq;
    for (const auto& arr : b.arrivals) seq.emplace_back(arr.at, arr.payload);
    return std::make_tuple(seq, net.fault_counters().dropped,
                           net.fault_counters().duplicated,
                           net.fault_counters().spiked);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(std::get<1>(first), 0u);
  EXPECT_GT(std::get<2>(first), 0u);
  EXPECT_GT(std::get<3>(first), 0u);
}

TEST_F(FaultInjectionTest, MixedProbabilitiesRoughlyMatchRates) {
  LinkFault f;
  f.drop = 0.5;
  net_->set_link_fault(addrs_[0], addrs_[1], f);
  const int kSends = 2000;
  for (int i = 0; i < kSends; ++i) {
    net_->send(addrs_[0], addrs_[1], heartbeat(0));
  }
  sim_.run();
  const double delivered = static_cast<double>(nodes_[1].arrivals.size());
  EXPECT_GT(delivered, kSends * 0.4);
  EXPECT_LT(delivered, kSends * 0.6);
  EXPECT_EQ(nodes_[1].arrivals.size() + net_->fault_counters().dropped,
            static_cast<std::size_t>(kSends));
}

}  // namespace
}  // namespace mdsim
