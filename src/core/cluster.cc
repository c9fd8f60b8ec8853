#include "core/cluster.h"

#include <algorithm>
#include <cassert>

namespace mdsim {

ClusterSim::ClusterSim(SimConfig config)
    : config_(std::move(config)),
      own_sim_(std::make_unique<Simulation>()),
      sim_(*own_sim_),
      num_mds_(share(config_.num_mds)),
      num_clients_(share(config_.num_clients)) {}

ClusterSim::ClusterSim(SimConfig config, Simulation& engine,
                       const ShardSlice& slice)
    : config_(std::move(config)),
      slice_(slice),
      sim_(engine),
      num_mds_(share(config_.num_mds)),
      num_clients_(share(config_.num_clients)) {
  assert(slice_.link != nullptr);
}

ClusterSim::~ClusterSim() = default;

int ClusterSim::share(int total) const {
  const int n =
      total / slice_.count + (slice_.index < total % slice_.count ? 1 : 0);
  return slice_.link != nullptr ? std::max(1, n) : n;
}

std::uint64_t ClusterSim::shard_seed(std::uint64_t seed) const {
  return seed +
         static_cast<std::uint64_t>(slice_.index) * 0x9e3779b97f4a7c15ULL;
}

void ClusterSim::build() {
  if (built_) return;
  built_ = true;

  // --- namespace -----------------------------------------------------------
  // A shard's tree covers its share of the users; distinct seeds keep the
  // shard trees distinct populations rather than copies of one tree.
  NamespaceParams fs = config_.fs;
  fs.num_users = share(config_.fs.num_users);
  fs.seed = shard_seed(config_.fs.seed);
  ns_info_ = generate_namespace(tree_, fs);

  // --- shared substrates -----------------------------------------------------
  NetworkParams net_params = config_.net;
  net_params.seed = shard_seed(config_.seed);
  net_ = std::make_unique<Network>(sim_, net_params);
  if (slice_.link != nullptr) net_->set_shard(slice_.index, slice_.link);
  partition_ = make_partitioner(config_.strategy, num_mds_, tree_);
  dirfrag_ =
      std::make_unique<DirFragRegistry>(num_mds_, config_.mds.giga_max_depth);
  if (config_.strategy == StrategyKind::kLazyHybrid) {
    lazy_ = std::make_unique<LazyHybridManager>(tree_);
  }

  // Figure 4 knob: cache capacity as a fraction of total metadata.
  MdsParams mds_params = config_.mds;
  if (config_.cache_fraction > 0.0) {
    const double total = static_cast<double>(tree_.node_count());
    const double per_node =
        total * config_.cache_fraction / num_mds_;
    mds_params.cache_capacity =
        std::max<std::size_t>(64, static_cast<std::size_t>(per_node));
    mds_params.journal_capacity = mds_params.cache_capacity;
  }

  StrategyTraits traits = traits_for(config_.strategy);
  if (config_.force_whole_dir_io == 0) traits.whole_directory_io = false;
  if (config_.force_whole_dir_io == 1) traits.whole_directory_io = true;

  ctx_ = std::make_unique<ClusterContext>(ClusterContext{
      sim_, *net_, tree_, store_, *partition_, *dirfrag_, anchors_,
      lazy_.get(), traits, mds_params, num_mds_, &fault_log_, {}});

  // --- MDS nodes (network addresses == MdsIds, attached first) -----------
  mds_nodes_.reserve(static_cast<std::size_t>(num_mds_));
  for (MdsId i = 0; i < num_mds_; ++i) {
    auto node = std::make_unique<MdsNode>(*ctx_, i);
    const NetAddr addr = net_->attach(node.get());
    assert(addr == i);
    (void)addr;
    ctx_->nodes.push_back(node.get());
    mds_nodes_.push_back(std::move(node));
  }
  for (auto& node : mds_nodes_) node->bootstrap();

  // --- workload ----------------------------------------------------------
  // Drawn from this unit's own tree, so an S-shard run behaves like S
  // correlated instances of the standalone scenario.
  switch (config_.workload) {
    case WorkloadKind::kGeneral: {
      auto homes = ns_info_.user_roots;
      workload_ = std::make_unique<GeneralWorkload>(
          tree_, std::move(homes), OpMix::general_purpose(),
          config_.general);
      break;
    }
    case WorkloadKind::kScientific: {
      std::vector<FsNode*> runs;
      for (FsNode* proj : ns_info_.project_roots) {
        for (const auto& [_, child] : proj->children()) {
          if (child->is_dir()) runs.push_back(child.get());
        }
      }
      if (runs.empty()) runs = ns_info_.user_roots;  // degenerate config
      workload_ = std::make_unique<ScientificWorkload>(
          tree_, std::move(runs), config_.scientific);
      break;
    }
    case WorkloadKind::kFlashCrowd: {
      // A deterministic, unremarkable file: the crowd's shared target
      // (a distinct one per shard).
      assert(!tree_.files().empty());
      FsNode* target =
          tree_.files()[shard_seed(config_.seed) % tree_.files().size()];
      auto fc = std::make_unique<FlashCrowdWorkload>(tree_, target,
                                                     config_.flash);
      if (config_.flash.base_think > 0) {
        // Background pool for the spike-on-baseline shape: every file in
        // the namespace (ownership stays with the tree).
        fc->set_background(tree_.files());
      }
      workload_ = std::move(fc);
      break;
    }
    case WorkloadKind::kShifting: {
      auto* subtree = dynamic_cast<SubtreePartition*>(partition_.get());
      assert(subtree != nullptr &&
             "shifting workload requires a subtree strategy");
      ShiftingWorkloadParams sp = config_.shifting;
      sp.base = config_.general;
      workload_ = make_shifting_workload(tree_, ns_info_.user_roots,
                                         *subtree, sp);
      break;
    }
  }

  // --- clients -------------------------------------------------------------
  if (config_.trace.enabled) {
    tracer_ = std::make_unique<TraceCollector>(config_.trace.slowest_n);
  }
  // Align each client with the user whose home it primarily works in, so
  // permission checks reflect ownership: the workload maps global client
  // id c to home c % num_users, owned by uid 100 + that user.
  const auto uid_of = [users = fs.num_users](ClientId c) {
    return 100 + static_cast<std::uint32_t>(c % users);
  };
  std::vector<ClientStats*> client_stats;
  if (slice_.link == nullptr) {
    clients_.reserve(static_cast<std::size_t>(num_clients_));
    for (ClientId c = 0; c < num_clients_; ++c) {
      clients_.push_back(std::make_unique<Client>(
          sim_, *net_, tree_, *workload_, *partition_, *dirfrag_, c, num_mds_,
          config_.seed));
      Client& client = *clients_.back();
      if (fs.num_users > 0) client.set_uid(uid_of(c));
      client.set_retry_policy(config_.client_retry);
      client.set_hedge_policy(config_.hedge);
      client.set_tracer(tracer_.get());
      client_stats.push_back(&client.stats());
    }
  } else {
    cohort_ = std::make_unique<ClientCohort>(
        sim_, *net_, tree_, *workload_, *partition_, *dirfrag_, num_clients_,
        slice_.first_client, num_mds_, config_.seed);
    for (int c = 0; c < num_clients_; ++c) {
      cohort_->set_uid(c, uid_of(slice_.first_client + c));
    }
    cohort_->set_retry_policy(config_.client_retry);
    cohort_->set_hedge_policy(config_.hedge);
    cohort_->set_tracer(tracer_.get());
    client_stats.push_back(&cohort_->stats());
  }

  // --- metrics -------------------------------------------------------------
  std::vector<MdsNode*> node_ptrs;
  for (auto& n : mds_nodes_) node_ptrs.push_back(n.get());
  metrics_ = std::make_unique<Metrics>(std::move(node_ptrs),
                                       std::move(client_stats), &sim_);
  metrics_->set_fault_log(&fault_log_);
  metrics_->set_trace(tracer_.get());
}

void ClusterSim::start() {
  build();
  if (started_) return;
  started_ = true;
  if (cohort_) cohort_->start();
  for (auto& c : clients_) c->start();
  sim_.every(config_.sample_period, config_.sample_period, [this]() {
    metrics_->sample(sim_.now());
    return true;
  });
  if (config_.warmup > 0) {
    sim_.schedule(config_.warmup, [this]() {
      metrics_->reset(sim_.now());
      net_->reset_counters();
    });
  }
}

void ClusterSim::run_until(SimTime t) {
  start();
  sim_.run_until(t);
}

void ClusterSim::run() { run_until(config_.duration); }

void ClusterSim::fail_mds(MdsId failed, bool warm_takeover) {
  build();
  assert(failed >= 0 && failed < num_mds_ && num_mds_ > 1);
  ctx_->params.warm_takeover = warm_takeover;
  MdsNode& dead = mds(failed);
  dead.set_failed(true);
  net_->set_down(failed, true);
  fault_log_.note_crash(failed, sim_.now());

  // Strategies that exchange balancer heartbeats detect the crash
  // themselves: the node simply goes silent, survivors declare it dead
  // after heartbeat_miss_threshold missed periods, and the lowest live id
  // performs the takeover (recovery.cc). Nothing more to do here — the
  // unavailability window between crash and takeover is the measurement.
  if (traits_for(config_.strategy).load_balancing &&
      ctx_->params.failure_detection) {
    return;
  }

  // No heartbeats (hashed / static strategies) or detection disabled:
  // apply the redistribution directly, as an external monitor would.
  std::vector<MdsId> survivors;
  dirfrag_->set_node_alive(failed, false);
  for (MdsId i = 0; i < num_mds_; ++i) {
    if (i == failed || mds(i).failed()) continue;
    survivors.push_back(i);
    mds(i).mark_peer_down(failed);
  }
  assert(!survivors.empty());
  fault_log_.note_detection(failed, survivors.front(), sim_.now());

  // Subtree strategies re-delegate; hashed placements would re-map their
  // hash ranges, which is exactly the expansion/contraction weakness the
  // paper describes — out of scope.
  auto* subtree = dynamic_cast<SubtreePartition*>(partition_.get());
  std::vector<MdsId> takeover_nodes;
  if (subtree != nullptr) {
    std::size_t rr = 0;
    for (const FsNode* root : subtree->delegations_of(failed)) {
      const MdsId heir = survivors[rr++ % survivors.size()];
      subtree->delegate(root, heir);
      takeover_nodes.push_back(heir);
    }
    if (subtree->authority_of(tree_.root()) == failed) {
      subtree->delegate(tree_.root(), survivors.front());
      takeover_nodes.push_back(survivors.front());
    }
  }
  if (takeover_nodes.empty()) takeover_nodes.push_back(survivors.front());
  fault_log_.note_takeover(failed, sim_.now());

  if (warm_takeover) {
    // The failed node's journal lives on shared storage: every takeover
    // node replays it and installs the items it now owns (section 4.6).
    std::sort(takeover_nodes.begin(), takeover_nodes.end());
    takeover_nodes.erase(
        std::unique(takeover_nodes.begin(), takeover_nodes.end()),
        takeover_nodes.end());
    const auto working_set = dead.journal().replay();
    for (MdsId heir : takeover_nodes) {
      mds(heir).warm_from_journal(working_set);
    }
  }
}

void ClusterSim::set_fail_slow(MdsId node, double cpu_mult, double disk_mult) {
  build();
  assert(node >= 0 && node < num_mds_);
  mds(node).set_fail_slow(cpu_mult, disk_mult);
  if (cpu_mult != 1.0 || disk_mult != 1.0) {
    fault_log_.note_fail_slow(node, sim_.now());
  } else {
    fault_log_.note_fail_slow_cleared(node, sim_.now());
  }
}

void ClusterSim::recover_mds(MdsId node) {
  build();
  MdsNode& n = mds(node);
  assert(n.failed());
  n.set_failed(false);
  net_->set_down(node, false);
  fault_log_.note_restart(node, sim_.now());
  // Journal replay + cache warm-up with real disk latency; serving
  // resumes immediately, recovering() clears when the replay lands.
  n.restart();

  if (traits_for(config_.strategy).load_balancing &&
      ctx_->params.failure_detection) {
    return;  // peers mark it up when its heartbeats resume
  }
  dirfrag_->set_node_alive(node, true);
  for (MdsId i = 0; i < num_mds_; ++i) {
    if (i == node || mds(i).failed()) continue;
    mds(i).mark_peer_up(node);
  }
  fault_log_.note_marked_up(node, sim_.now());
}

}  // namespace mdsim
