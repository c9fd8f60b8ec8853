#include "core/config.h"

#include <limits>

namespace mdsim {

std::string SimConfig::label() const {
  return std::string(strategy_name(strategy)) + "/" +
         workload_name(workload) + "/m" + std::to_string(num_mds) + "/c" +
         std::to_string(num_clients);
}

SimConfig scaled_system_config(StrategyKind strategy, int num_mds,
                               std::uint64_t seed) {
  SimConfig cfg;
  cfg.strategy = strategy;
  cfg.num_mds = num_mds;
  cfg.seed = seed;
  // Scale the whole system with the cluster; MDS memory stays fixed
  // (paper section 5.3). The demand per node (clients x rate) exceeds
  // disk service capacity at the miss rates the caches produce, so the
  // cluster operates in the paper's disk-bound regime.
  cfg.fs.seed = seed;
  cfg.fs.num_users = 24 * num_mds;
  cfg.fs.nodes_per_user = 500;
  cfg.num_clients = 150 * num_mds;
  cfg.general.mean_think = from_millis(15);
  cfg.mds.cache_capacity = 2500;
  cfg.mds.journal_capacity = 2500;
  cfg.workload = WorkloadKind::kGeneral;
  cfg.duration = 14 * kSecond;
  cfg.warmup = 4 * kSecond;
  return cfg;
}

SimConfig cache_sweep_config(StrategyKind strategy, double cache_fraction,
                             std::uint64_t seed) {
  SimConfig cfg;
  cfg.strategy = strategy;
  cfg.num_mds = 8;
  cfg.seed = seed;
  cfg.fs.seed = seed;
  cfg.fs.num_users = 192;
  cfg.fs.nodes_per_user = 500;
  cfg.num_clients = 480;
  cfg.cache_fraction = cache_fraction;
  cfg.workload = WorkloadKind::kGeneral;
  cfg.duration = 14 * kSecond;
  cfg.warmup = 4 * kSecond;
  return cfg;
}

SimConfig shift_config(StrategyKind strategy, std::uint64_t seed) {
  SimConfig cfg;
  cfg.strategy = strategy;
  cfg.num_mds = 12;
  cfg.seed = seed;
  cfg.fs.seed = seed;
  cfg.fs.num_users = 288;
  cfg.fs.nodes_per_user = 500;
  cfg.num_clients = 720;
  cfg.mds.cache_capacity = 4000;
  cfg.workload = WorkloadKind::kShifting;
  // No retry spray in this experiment: the paper's clients simply wait,
  // so a saturated static node shows up as queueing, not as forwarding.
  cfg.client_retry.request_timeout = 60 * kSecond;
  cfg.shifting.shift_at = 25 * kSecond;
  cfg.shifting.fraction = 0.5;
  cfg.duration = 80 * kSecond;
  cfg.warmup = 5 * kSecond;
  cfg.sample_period = kSecond;
  return cfg;
}

SimConfig flash_crowd_config(bool traffic_control, std::uint64_t seed) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = 10;
  cfg.seed = seed;
  cfg.fs.seed = seed;
  cfg.fs.num_users = 64;
  cfg.fs.nodes_per_user = 400;
  cfg.num_clients = 10000;
  cfg.mds.traffic_control_enabled = traffic_control;
  // A flash crowd must cross the replication threshold within a few
  // milliseconds of the spike.
  cfg.mds.replication_threshold = 300.0;
  cfg.mds.popularity_half_life = kSecond / 2;
  cfg.workload = WorkloadKind::kFlashCrowd;
  cfg.flash.start = 8 * kSecond;
  cfg.flash.duration = from_millis(250);
  // Crowd clients re-issue unanswered requests quickly (they are all
  // stampeding the same file); the retry spray is what lets reply-side
  // replication absorb the crowd — and what buries the authority when
  // traffic control is off (the paper's ~250k req/s forward rates).
  cfg.client_retry.request_timeout = 50 * kMillisecond;
  cfg.duration = from_seconds(8.4);
  cfg.warmup = from_seconds(7.5);
  cfg.sample_period = from_millis(10);
  return cfg;
}

void apply_overload_noop(SimConfig* cfg) {
  OverloadParams& ov = cfg->mds.overload;
  ov.enabled = true;
  ov.max_cpu_queue_depth = std::numeric_limits<std::size_t>::max();
  ov.max_cpu_queue_delay = 0;
  ov.max_disk_queue_depth = std::numeric_limits<std::size_t>::max();
  ov.admit_rate = 0.0;
  ov.deadline_drop = false;
}

void apply_giga_off(SimConfig* cfg) { cfg->mds.giga_enabled = false; }

void apply_gray_noop(SimConfig* cfg) {
  HealthParams& h = cfg->mds.health;
  h.enabled = true;
  h.degraded_factor = 1e300;  // finite: inf * a zero median would be NaN
  h.min_lag = std::numeric_limits<SimTime>::max();
  cfg->hedge.enabled = true;
  cfg->hedge.min_samples = std::numeric_limits<std::uint32_t>::max();
}

}  // namespace mdsim
