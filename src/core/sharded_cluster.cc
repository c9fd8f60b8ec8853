#include "core/sharded_cluster.h"

#include <algorithm>
#include <cassert>

namespace mdsim {

void ShardedClusterSim::Fabric::deliver(NetAddr global_from,
                                        NetAddr global_to, SimTime when,
                                        MessagePtr msg) {
  const int from = shard_of_addr(global_from);
  const int to = shard_of_addr(global_to);
  Network* net = &owner->shard(to).network();
  owner->engine_.post(
      from, to, when,
      InlineTask([net, global_from, global_to,
                  m = std::move(msg)]() mutable {
        net->deliver_remote(global_from, global_to, std::move(m));
      }));
}

ShardedClusterSim::ShardedClusterSim(SimConfig config)
    : config_(std::move(config)),
      engine_(std::min(config_.shards, kMaxShards), kCrossBaseLatency) {
  static_assert(kCrossBaseLatency > 0,
                "cross-shard lookahead requires a positive base latency");
  assert(config_.shards >= 1 && config_.shards <= kMaxShards);
  fabric_.owner = this;
  const int S = engine_.shard_count();
  ClientId first = 0;
  for (int s = 0; s < S; ++s) {
    shards_.push_back(std::make_unique<ClusterSim>(
        config_, engine_.shard(s), ShardSlice{s, S, first, &fabric_}));
    first += shards_.back()->num_clients();
  }
}

ShardedClusterSim::~ShardedClusterSim() = default;

void ShardedClusterSim::build_catalogs() {
  const int S = engine_.shard_count();
  if (S < 2 || config_.shard_remote_fraction <= 0.0) return;
  for (int s = 0; s < S; ++s) {
    // One dedicated stream per destination cohort; iteration order over
    // source shards is fixed, so the catalog is a pure function of the
    // configuration.
    Rng rng(config_.seed, 0xca7a1000ULL + static_cast<std::uint64_t>(s));
    std::vector<ClientCohort::RemoteTarget> catalog;
    for (int t = 0; t < S; ++t) {
      if (t == s) continue;
      ClusterSim& other = shard(t);
      const auto& files = other.tree().files();
      if (files.empty()) continue;
      for (int k = 0; k < kShardCatalogSize; ++k) {
        FsNode* node = files[rng.uniform(files.size())];
        MdsId authority = other.partition().authority_of(node);
        if (authority == kInvalidMds) authority = 0;
        catalog.push_back(ClientCohort::RemoteTarget{
            shard_global_addr(t, authority), node->ino(),
            node->inode().perms.uid});
      }
    }
    shard(s).cohort().set_remote_catalog(std::move(catalog),
                                          config_.shard_remote_fraction);
  }
}

void ShardedClusterSim::run() {
  if (ran_) return;
  ran_ = true;
  engine_.set_threads(config_.threads);
  // Shards build in parallel: a build touches only its own unit and
  // engine (src/ keeps no mutable globals, only thread_local scratch and
  // free lists), and every value it derives comes from the unit's own
  // slice and seeds, so which thread builds which shard is invisible.
  engine_.for_each_shard(
      [this](int s) { shards_[static_cast<std::size_t>(s)]->build(); });
  build_catalogs();
  for (auto& sh : shards_) sh->start();
  engine_.run_until(config_.duration);

  std::vector<const Metrics*> metrics;
  for (auto& sh : shards_) metrics.push_back(&sh->metrics());
  result_ = summarize(config_, metrics, config_.duration);
  if (config_.trace.enabled) {
    merged_tracer_ =
        std::make_unique<TraceCollector>(config_.trace.slowest_n);
    for (auto& sh : shards_) merged_tracer_->merge(*sh->tracer());
  }
}

int ShardedClusterSim::total_mds() const {
  int n = 0;
  for (const auto& sh : shards_) n += sh->num_mds();
  return n;
}

std::uint64_t ShardedClusterSim::remote_ops() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->cohort().remote_ops_issued();
  return n;
}

}  // namespace mdsim
