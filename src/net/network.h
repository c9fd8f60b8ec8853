// Simulated point-to-point interconnect.
//
// Delivery latency = base + Exp(jitter_mean); messages between a pair of
// endpoints are delivered in FIFO order (latency draws are made monotone
// per (src,dst) pair), matching a TCP-like transport. Per-type message
// counters feed the forwarding/overhead statistics in figures 6 and 7.
// Every delivered message is one engine event: one Simulation::schedule of
// one closure that hands the message to its endpoint, so same-instant
// arrivals at one destination fire in send order like any other events.
//
// Addresses are assigned densely from 0, so all per-endpoint state is held
// in plain vectors: down flags are one byte per endpoint, and the per-pair
// FIFO floors are per-source rows grown lazily to the highest destination
// actually messaged (clients only ever message MDS nodes, so client rows
// stay num_mds wide instead of endpoint_count wide).
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/message.h"
#include "net/shard_link.h"
#include "sim/simulation.h"

namespace mdsim {

/// Base latency of cross-shard links (sharded runs only): shards model
/// distant MDS groups — different racks or rows, not LAN neighbors — so
/// their interconnect is an order of magnitude slower. This is also the
/// parallel engine's lookahead, so it bounds how much work each shard
/// can execute per synchronization window.
inline constexpr SimTime kCrossBaseLatency = from_micros(1200);

struct NetworkParams {
  SimTime base_latency = from_micros(120);
  SimTime jitter_mean = from_micros(20);
  std::uint64_t seed = 7;
};

/// Per-link fault injection knobs (chaos harness). A fault is keyed
/// symmetrically, covering both directions of the link. The three
/// probabilities are per-message lotteries; the latency factor and the
/// extra latency are paid by every message while the fault is installed
/// (a sustained gray degradation: a flaky NIC or cable that is always
/// slow). A message's latency is (base + spike) * latency_factor +
/// extra_latency, plus jitter. Draws come from a dedicated RNG stream, so
/// enabling faults on one link never perturbs the latency jitter of
/// healthy traffic — and with no faults installed the send path is
/// byte-for-byte the healthy one.
struct LinkFault {
  double drop = 0.0;       // P(message silently lost)
  double duplicate = 0.0;  // P(message delivered twice)
  double spike = 0.0;      // P(spike_latency added before delivery)
  SimTime spike_latency = 50 * kMillisecond;
  double latency_factor = 1.0;  // multiplies base (+ spike) latency
  SimTime extra_latency = 0;    // flat addition on top
};

class Network {
 public:
  Network(Simulation& sim, NetworkParams params);

  /// Register an endpoint; returns its address. Endpoints must outlive the
  /// network. Addresses are assigned densely from 0.
  NetAddr attach(NetEndpoint* endpoint);

  /// Send a message. Self-sends are delivered with zero latency (used by
  /// loopback forwarding paths to keep code uniform).
  /// Messages from or to a downed endpoint are silently dropped (failure
  /// injection; receivers rely on timeouts, exactly as over a real
  /// interconnect).
  void send(NetAddr from, NetAddr to, MessagePtr msg);

  /// Failure injection: take an endpoint off the network (or back on).
  void set_down(NetAddr addr, bool down);
  bool is_down(NetAddr addr) const {
    return addr >= 0 && static_cast<std::size_t>(addr) < down_.size() &&
           down_[static_cast<std::size_t>(addr)] != 0;
  }

  /// Partition the fabric: endpoints in different groups cannot exchange
  /// messages in either direction. Endpoints not listed in any group join
  /// the first group (so "partition({{0,2,3},{1}})" isolates MDS 1 from
  /// everyone, clients included). Calling again replaces the previous
  /// partition; heal() removes it. Zero cost when no partition or cut is
  /// active.
  void partition(const std::vector<std::vector<NetAddr>>& groups);
  void heal();
  bool partitioned() const { return partition_active_; }

  /// Directed (asymmetric) cut: messages from `from` to `to` are dropped;
  /// the reverse direction is unaffected unless cut separately. Composes
  /// with partition(); heal() clears cuts too.
  void cut_link(NetAddr from, NetAddr to);
  void restore_link(NetAddr from, NetAddr to);

  /// Total messages lost in the fabric, and the attribution split: drops
  /// at a downed endpoint, drops across a partition/cut boundary, and
  /// drops from an installed link fault. Every send is either counted in
  /// total_messages() or here.
  std::uint64_t dropped_messages() const {
    return down_dropped_ + partition_dropped_ + fault_counters_.dropped;
  }
  std::uint64_t down_dropped() const { return down_dropped_; }
  std::uint64_t partition_dropped() const { return partition_dropped_; }
  std::uint64_t fault_dropped() const { return fault_counters_.dropped; }

  /// Install (or replace) a fault on the a<->b link; both directions are
  /// affected. Zero overhead for all other traffic, and none at all once
  /// every fault is cleared.
  void set_link_fault(NetAddr a, NetAddr b, const LinkFault& fault);
  void clear_link_fault(NetAddr a, NetAddr b);
  void clear_link_faults() { link_faults_.clear(); }
  const LinkFault* link_fault(NetAddr a, NetAddr b) const;

  struct FaultCounters {
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t spiked = 0;
  };
  const FaultCounters& fault_counters() const { return fault_counters_; }

  std::uint64_t messages_sent(MsgType t) const {
    return counts_[static_cast<std::size_t>(t)];
  }
  std::uint64_t total_messages() const;
  /// Zero all message counters (e.g. after warm-up).
  void reset_counters();

  std::size_t endpoint_count() const { return endpoints_.size(); }

  /// Join a sharded fabric as shard `shard_id`. Destinations at or above
  /// 2^22 that decode to another shard leave through `link` (latency drawn
  /// here, sender side); everything else is the unchanged legacy path —
  /// with no link attached the legacy path is bit-for-bit what it was.
  /// Cross-shard traffic supports latency jitter and per-directed-pair
  /// FIFO floors. Of the fault axes, only a downed destination applies:
  /// deliver_remote drops it there and counts it in down_dropped().
  /// Partitions and link faults are intra-shard concepts (DESIGN.md §5f).
  void set_shard(int shard_id, CrossShardLink* link);
  int shard_id() const { return shard_id_; }
  bool sharded() const { return link_ != nullptr; }
  /// The shard-global name of a local endpoint (identity in legacy mode).
  NetAddr global_addr(NetAddr local) const { return base_ | local; }

  /// Entry point for messages ferried in from another shard; runs inside
  /// this shard's engine at the delivery time the sender stamped. `from`
  /// stays global so replies route back across the fabric. A message to a
  /// downed endpoint is dropped and counted in down_dropped().
  void deliver_remote(NetAddr global_from, NetAddr global_to, MessagePtr msg);

 private:
  void send_cross(NetAddr from, NetAddr global_to, MessagePtr msg);
  static std::uint64_t link_key(NetAddr a, NetAddr b) {
    const std::uint32_t lo = static_cast<std::uint32_t>(a < b ? a : b);
    const std::uint32_t hi = static_cast<std::uint32_t>(a < b ? b : a);
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }
  static std::uint64_t directed_key(NetAddr from, NetAddr to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
  }
  bool severed(NetAddr from, NetAddr to) const;

  Simulation& sim_;
  NetworkParams params_;
  Rng rng_;
  Rng fault_rng_;  // separate stream: injection never perturbs jitter
  std::vector<NetEndpoint*> endpoints_;
  std::vector<std::uint8_t> down_;
  std::size_t down_count_ = 0;
  std::uint64_t down_dropped_ = 0;
  std::uint64_t partition_dropped_ = 0;
  std::array<std::uint64_t, kNumMsgTypes> counts_{};
  std::unordered_map<std::uint64_t, LinkFault> link_faults_;
  FaultCounters fault_counters_;
  /// Partition state: side_[addr] is the endpoint's group while a
  /// partition is active (unlisted endpoints sit in group 0).
  bool partition_active_ = false;
  std::vector<std::uint16_t> side_;
  /// Directed cuts, keyed (from<<32)|to.
  std::unordered_set<std::uint64_t> cut_links_;
  /// Earliest permissible delivery per (src,dst) to preserve FIFO order;
  /// row `from` is indexed by `to` and grown on first use.
  std::vector<std::vector<SimTime>> fifo_floor_;
  /// Sharded-mode state. base_ == 0 and link_ == nullptr in legacy mode.
  NetAddr base_ = 0;
  int shard_id_ = -1;
  CrossShardLink* link_ = nullptr;
  /// FIFO floors for cross-shard traffic, keyed (global_from<<32)|global_to
  /// — sparse map because global pairs span shards.
  std::unordered_map<std::uint64_t, SimTime> cross_floor_;
};

}  // namespace mdsim
