#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"

namespace mdsim {
namespace {

struct Recorder final : NetEndpoint {
  struct Arrival {
    NetAddr from;
    MsgType type;
    SimTime at;
  };
  Simulation* sim = nullptr;
  std::vector<Arrival> arrivals;

  void on_message(NetAddr from, MessagePtr msg) override {
    arrivals.push_back({from, msg->type, sim->now()});
  }
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() {
    params_.base_latency = 100;
    params_.jitter_mean = 0;
    net_ = std::make_unique<Network>(sim_, params_);
    for (auto& r : nodes_) {
      r.sim = &sim_;
      addrs_.push_back(net_->attach(&r));
    }
  }

  MessagePtr make(MsgType t) { return std::make_unique<Message>(t); }

  Simulation sim_;
  NetworkParams params_;
  std::unique_ptr<Network> net_;
  Recorder nodes_[3];
  std::vector<NetAddr> addrs_;
};

TEST_F(NetworkTest, DeliversWithBaseLatency) {
  net_->send(addrs_[0], addrs_[1], make(MsgType::kHeartbeat));
  sim_.run();
  ASSERT_EQ(nodes_[1].arrivals.size(), 1u);
  EXPECT_EQ(nodes_[1].arrivals[0].at, 100u);
  EXPECT_EQ(nodes_[1].arrivals[0].from, addrs_[0]);
}

TEST_F(NetworkTest, SelfSendIsImmediate) {
  net_->send(addrs_[0], addrs_[0], make(MsgType::kHeartbeat));
  sim_.run();
  ASSERT_EQ(nodes_[0].arrivals.size(), 1u);
  EXPECT_EQ(nodes_[0].arrivals[0].at, 0u);
}

TEST_F(NetworkTest, CountsByType) {
  net_->send(addrs_[0], addrs_[1], make(MsgType::kHeartbeat));
  net_->send(addrs_[0], addrs_[2], make(MsgType::kHeartbeat));
  net_->send(addrs_[1], addrs_[2], make(MsgType::kClientRequest));
  sim_.run();
  EXPECT_EQ(net_->messages_sent(MsgType::kHeartbeat), 2u);
  EXPECT_EQ(net_->messages_sent(MsgType::kClientRequest), 1u);
  EXPECT_EQ(net_->total_messages(), 3u);
  net_->reset_counters();
  EXPECT_EQ(net_->total_messages(), 0u);
}

// Message conservation across every way the fabric can lose or copy a
// message: each send is counted once, either as sent or as dropped, and
// each delivery is a sent message or a duplicate of one.
TEST_F(NetworkTest, EverySendIsCountedOrDropped) {
  std::uint64_t sends = 0;
  const auto send = [&](int from, int to, int n = 1) {
    for (int i = 0; i < n; ++i) {
      net_->send(addrs_[from], addrs_[to], make(MsgType::kHeartbeat));
      ++sends;
    }
  };
  send(0, 1, 2);
  send(0, 0);  // loopback

  net_->set_down(addrs_[2], true);
  send(0, 2);
  send(2, 1);
  net_->set_down(addrs_[2], false);

  net_->partition({{addrs_[0], addrs_[1]}, {addrs_[2]}});
  send(0, 2);
  send(2, 0);
  net_->heal();

  net_->cut_link(addrs_[0], addrs_[1]);
  send(0, 1);  // cut
  send(1, 0);  // the reverse direction still flows
  net_->restore_link(addrs_[0], addrs_[1]);

  LinkFault drop;
  drop.drop = 1.0;
  net_->set_link_fault(addrs_[0], addrs_[2], drop);
  send(0, 2);
  send(2, 0);
  net_->clear_link_fault(addrs_[0], addrs_[2]);

  LinkFault lossy;  // sustained degrade: slow, and loses about half
  lossy.latency_factor = 3.0;
  lossy.extra_latency = 50;
  lossy.drop = 0.5;
  net_->set_link_fault(addrs_[1], addrs_[2], lossy);
  send(1, 2, 20);
  send(2, 1, 20);
  net_->clear_link_fault(addrs_[1], addrs_[2]);

  LinkFault dup;
  dup.duplicate = 1.0;
  net_->set_link_fault(addrs_[0], addrs_[1], dup);
  send(0, 1, 3);
  net_->clear_link_fault(addrs_[0], addrs_[1]);
  sim_.run();

  std::uint64_t deliveries = 0;
  for (const Recorder& r : nodes_) deliveries += r.arrivals.size();
  const Network::FaultCounters& fc = net_->fault_counters();
  EXPECT_EQ(net_->down_dropped(), 2u);
  EXPECT_EQ(net_->partition_dropped(), 3u);
  EXPECT_GT(fc.dropped, 2u);       // the drop link plus some lossy sends
  EXPECT_LT(fc.dropped, 2u + 40u);
  EXPECT_EQ(fc.duplicated, 3u);
  EXPECT_EQ(sends, net_->total_messages() + net_->dropped_messages());
  EXPECT_EQ(deliveries, net_->total_messages() + fc.duplicated);
}

// A delivery batch: a burst of messages reaching one endpoint at the same
// instant. The network once folded such a burst into one engine event; now
// every message is its own event, and these tests pin that the burst still
// arrives in send order, interleaved exactly with other engine events.

/// Endpoint that records the tag (`size_bytes`) of every message, in
/// arrival order; engine events append -1 to the same record.
struct Tagged final : NetEndpoint {
  std::vector<int> order;
  void on_message(NetAddr, MessagePtr msg) override {
    order.push_back(static_cast<int>(msg->size_bytes));
  }
};

struct BurstRig {
  BurstRig() {
    params.base_latency = 100;
    params.jitter_mean = 0;
    net = std::make_unique<Network>(sim, params);
    for (auto& r : from) {
      r.sim = &sim;
      addrs.push_back(net->attach(&r));
    }
    to = net->attach(&sink);
  }
  void send(std::size_t src, int tag) {
    net->send(addrs[src], to,
              std::make_unique<Message>(MsgType::kClientRequest,
                                        static_cast<std::uint32_t>(tag)));
  }
  Simulation sim;
  NetworkParams params;
  std::unique_ptr<Network> net;
  Recorder from[3];
  std::vector<NetAddr> addrs;
  Tagged sink;
  NetAddr to = 0;
};

TEST(DeliveryBatch, SameInstantSameDestFoldIntoOneBatch) {
  BurstRig r;
  // Back-to-back sends from three senders, no jitter: all reach the sink
  // at t = 100, in send order, one engine event each.
  r.send(0, 1);
  r.send(1, 2);
  r.send(0, 3);
  r.send(2, 4);
  r.sim.run();
  EXPECT_EQ(r.sink.order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(r.sim.now(), 100u);
  EXPECT_EQ(r.sim.events_executed(), 4u);
}

TEST(DeliveryBatch, InterveningScheduleSplitsBatch) {
  BurstRig r;
  // An engine event scheduled between two same-instant sends fires
  // between their deliveries.
  r.send(0, 1);
  r.sim.schedule(100, [&r] { r.sink.order.push_back(-1); });
  r.send(1, 2);
  r.send(0, 3);
  r.sim.run();
  EXPECT_EQ(r.sink.order, (std::vector<int>{1, -1, 2, 3}));
  EXPECT_EQ(r.sim.now(), 100u);
  EXPECT_EQ(r.sim.events_executed(), 4u);
}

TEST(NetworkFifo, PerPairOrderPreservedDespiteJitter) {
  Simulation sim;
  NetworkParams params;
  params.base_latency = 100;
  params.jitter_mean = 500;  // heavy jitter would reorder without FIFO
  Network net(sim, params);
  Recorder a, b;
  a.sim = &sim;
  b.sim = &sim;
  const NetAddr aa = net.attach(&a);
  const NetAddr ba = net.attach(&b);
  constexpr int kMsgs = 200;
  for (int i = 0; i < kMsgs; ++i) {
    auto msg = std::make_unique<Message>(MsgType::kClientRequest,
                                         static_cast<std::uint32_t>(i));
    net.send(aa, ba, std::move(msg));
  }
  sim.run();
  ASSERT_EQ(b.arrivals.size(), static_cast<std::size_t>(kMsgs));
  for (std::size_t i = 1; i < b.arrivals.size(); ++i) {
    EXPECT_LE(b.arrivals[i - 1].at, b.arrivals[i].at);
  }
}

TEST(NetworkJitter, LatencyAtLeastBase) {
  Simulation sim;
  NetworkParams params;
  params.base_latency = 100;
  params.jitter_mean = 50;
  Network net(sim, params);
  Recorder a, b;
  a.sim = &sim;
  b.sim = &sim;
  const NetAddr aa = net.attach(&a);
  const NetAddr ba = net.attach(&b);
  SimTime send_at = 0;
  for (int i = 0; i < 100; ++i) {
    sim.schedule(send_at, [&net, aa, ba] {
      net.send(aa, ba, std::make_unique<Message>(MsgType::kHeartbeat));
    });
    send_at += 10000;
  }
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 100u);
  for (std::size_t i = 0; i < b.arrivals.size(); ++i) {
    const SimTime latency = b.arrivals[i].at - i * 10000;
    EXPECT_GE(latency, 100u);
  }
}

}  // namespace
}  // namespace mdsim
