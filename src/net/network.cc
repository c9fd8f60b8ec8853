#include "net/network.h"

#include <cassert>

namespace mdsim {

Network::Network(Simulation& sim, NetworkParams params)
    : sim_(sim),
      params_(params),
      rng_(params.seed, /*stream=*/0x4e7),
      fault_rng_(params.seed, /*stream=*/0xfa017) {}

void Network::set_link_fault(NetAddr a, NetAddr b, const LinkFault& fault) {
  assert(a != b);
  link_faults_[link_key(a, b)] = fault;
}

void Network::clear_link_fault(NetAddr a, NetAddr b) {
  link_faults_.erase(link_key(a, b));
}

const LinkFault* Network::link_fault(NetAddr a, NetAddr b) const {
  auto it = link_faults_.find(link_key(a, b));
  return it == link_faults_.end() ? nullptr : &it->second;
}

NetAddr Network::attach(NetEndpoint* endpoint) {
  assert(endpoint != nullptr);
  endpoints_.push_back(endpoint);
  down_.push_back(0);
  fifo_floor_.emplace_back();
  if (partition_active_) side_.push_back(0);  // late joiners sit in group 0
  return static_cast<NetAddr>(endpoints_.size() - 1);
}

void Network::partition(const std::vector<std::vector<NetAddr>>& groups) {
  side_.assign(endpoints_.size(), 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (NetAddr a : groups[g]) {
      assert(a >= 0 && static_cast<std::size_t>(a) < side_.size());
      side_[static_cast<std::size_t>(a)] = static_cast<std::uint16_t>(g);
    }
  }
  partition_active_ = true;
}

void Network::heal() {
  partition_active_ = false;
  side_.clear();
  cut_links_.clear();
}

void Network::cut_link(NetAddr from, NetAddr to) {
  assert(from != to);
  cut_links_.insert(directed_key(from, to));
}

void Network::restore_link(NetAddr from, NetAddr to) {
  cut_links_.erase(directed_key(from, to));
}

bool Network::severed(NetAddr from, NetAddr to) const {
  if (partition_active_ &&
      side_[static_cast<std::size_t>(from)] !=
          side_[static_cast<std::size_t>(to)]) {
    return true;
  }
  return !cut_links_.empty() &&
         cut_links_.count(directed_key(from, to)) != 0;
}

void Network::set_down(NetAddr addr, bool down) {
  assert(addr >= 0 && static_cast<std::size_t>(addr) < down_.size());
  std::uint8_t& flag = down_[static_cast<std::size_t>(addr)];
  if (down && flag == 0) {
    flag = 1;
    ++down_count_;
  } else if (!down && flag != 0) {
    flag = 0;
    --down_count_;
  }
}

void Network::set_shard(int shard_id, CrossShardLink* link) {
  assert(shard_id >= 0 && shard_id < kMaxShards);
  shard_id_ = shard_id;
  base_ = shard_global_addr(shard_id, 0);
  link_ = link;
}

void Network::send_cross(NetAddr from, NetAddr global_to, MessagePtr msg) {
  assert(link_ != nullptr);
  counts_[static_cast<std::size_t>(msg->type)]++;
  // Sender-side latency draw, from the same jitter stream as local
  // traffic, so one shard's cross traffic is a deterministic function of
  // that shard's own execution. kCrossBaseLatency is the engine
  // lookahead, so deliver_at >= now + lookahead always holds (jitter and
  // floors only push later).
  SimTime latency = kCrossBaseLatency;
  if (params_.jitter_mean > 0) {
    latency += static_cast<SimTime>(
        rng_.exponential(static_cast<double>(params_.jitter_mean)));
  }
  const NetAddr global_from =
      is_shard_global(from) ? from : global_addr(from);
  SimTime deliver_at = sim_.now() + latency;
  SimTime& floor = cross_floor_[directed_key(global_from, global_to)];
  if (deliver_at < floor) deliver_at = floor;
  floor = deliver_at;
  link_->deliver(global_from, global_to, deliver_at, std::move(msg));
}

void Network::deliver_remote(NetAddr global_from, NetAddr global_to,
                             MessagePtr msg) {
  assert(shard_of_addr(global_to) == shard_id_);
  const NetAddr local = shard_local_addr(global_to);
  assert(local >= 0 && static_cast<std::size_t>(local) < endpoints_.size());
  // A crashed destination loses the message here, counted like a local
  // send to it. Not counted as sent: the sender's network already did.
  if (down_count_ != 0 && down_[static_cast<std::size_t>(local)] != 0) {
    ++down_dropped_;
    return;
  }
  endpoints_[static_cast<std::size_t>(local)]->on_message(global_from,
                                                          std::move(msg));
}

void Network::send(NetAddr from, NetAddr to, MessagePtr msg) {
  if (is_shard_global(to)) {
    // Never true in legacy mode: dense local addresses stay far below
    // 2^22, so this branch costs one compare on the hot path.
    if (shard_of_addr(to) != shard_id_) {
      send_cross(from, to, std::move(msg));
      return;
    }
    to = shard_local_addr(to);
  }
  if (is_shard_global(from)) from = shard_local_addr(from);
  assert(to >= 0 && static_cast<std::size_t>(to) < endpoints_.size());
  assert(from >= 0 && static_cast<std::size_t>(from) < endpoints_.size());
  if (down_count_ != 0 &&
      (down_[static_cast<std::size_t>(from)] |
       down_[static_cast<std::size_t>(to)]) != 0) {
    ++down_dropped_;
    return;
  }
  // Partition / asymmetric cut. Like fault injection below, the boolean
  // check is the whole healthy-path cost.
  if ((partition_active_ || !cut_links_.empty()) && severed(from, to)) {
    ++partition_dropped_;
    return;
  }

  // Fault injection. The empty() check is the entire healthy-path cost:
  // no RNG draws, no hash probes, no timing change unless a fault is
  // actually installed somewhere.
  bool duplicate = false;
  SimTime spike = 0;
  const LinkFault* f = nullptr;
  if (!link_faults_.empty() && from != to &&
      (f = link_fault(from, to)) != nullptr) {
    if (f->drop > 0 && fault_rng_.bernoulli(f->drop)) {
      ++fault_counters_.dropped;
      return;
    }
    if (f->duplicate > 0 && fault_rng_.bernoulli(f->duplicate)) {
      duplicate = true;
      ++fault_counters_.duplicated;
    }
    if (f->spike > 0 && fault_rng_.bernoulli(f->spike)) {
      spike = f->spike_latency;
      ++fault_counters_.spiked;
    }
  }
  counts_[static_cast<std::size_t>(msg->type)]++;

  SimTime latency = 0;
  if (from != to) {
    latency = params_.base_latency + spike;
    if (f != nullptr) {
      latency = static_cast<SimTime>(static_cast<double>(latency) *
                                     f->latency_factor) +
                f->extra_latency;
    }
    if (params_.jitter_mean > 0) {
      latency += static_cast<SimTime>(
          rng_.exponential(static_cast<double>(params_.jitter_mean)));
    }
    // FIFO per (src,dst): never deliver before a previously sent message.
    // A spiked message raises the floor, queueing later traffic behind it
    // (TCP-like head-of-line blocking).
    auto& row = fifo_floor_[static_cast<std::size_t>(from)];
    if (row.size() <= static_cast<std::size_t>(to)) {
      row.resize(static_cast<std::size_t>(to) + 1, 0);
    }
    SimTime& floor = row[static_cast<std::size_t>(to)];
    SimTime deliver_at = sim_.now() + latency;
    if (deliver_at < floor) deliver_at = floor;
    floor = deliver_at;
    latency = deliver_at - sim_.now();
  }

  NetEndpoint* dst = endpoints_[static_cast<std::size_t>(to)];
  if (duplicate) {
    // The copy takes its own path through the fabric, one base latency
    // behind the original, and deliberately skips the FIFO floor: a
    // duplicated packet arriving out of order is exactly the hazard
    // receivers must tolerate.
    sim_.schedule(latency + params_.base_latency,
                  [dst, from, m = msg->clone()]() mutable {
                    dst->on_message(from, std::move(m));
                  });
  }
  sim_.schedule(latency, [dst, from, m = std::move(msg)]() mutable {
    dst->on_message(from, std::move(m));
  });
}

std::uint64_t Network::total_messages() const {
  std::uint64_t total = 0;
  for (auto c : counts_) total += c;
  return total;
}

void Network::reset_counters() { counts_.fill(0); }

}  // namespace mdsim
