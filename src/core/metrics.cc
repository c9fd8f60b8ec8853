#include "core/metrics.h"

#include <algorithm>
#include <limits>

#include "client/cohort.h"
#include "mds/mds_node.h"

namespace mdsim {

Metrics::Metrics(std::vector<MdsNode*> nodes, ClientCohort& clients,
                 const Simulation* sim)
    : nodes_(std::move(nodes)), clients_(clients), sim_(sim) {
  mds_tput_.resize(nodes_.size());
  mds_health_.resize(nodes_.size());
  base_.assign(nodes_.size(), Totals{});
  base_sheds_.assign(nodes_.size(), 0);
  base_rejects_.assign(nodes_.size(), 0);
}

namespace {
std::uint64_t sheds_of(const MdsStats& s) {
  return s.requests_shed_queue + s.requests_shed_admission +
         s.requests_shed_deadline;
}

/// A node's cumulative (never reset) Totals counters.
Metrics::Totals counters_of(MdsNode& n) {
  const MdsStats& s = n.stats();
  const CacheStats& cache = n.cache().stats();
  return {s.replies_sent, s.forwards,   s.requests_received,
          s.failures,     cache.hits,   cache.misses};
}
}  // namespace

void Metrics::sample(SimTime now) {
  double sum = 0.0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = 0.0;
  double fwd_sum = 0.0;
  double req_sum = 0.0;
  double shed_sum = 0.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    MdsStats& s = nodes_[i]->stats();
    const double tput = s.reply_rate.sample(now);
    const double fwd = s.forward_rate.sample(now);
    const double req = s.request_rate.sample(now);
    shed_sum += s.shed_rate.sample(now);
    s.miss_rate.sample(now);  // keep the window aligned
    mds_tput_[i].record(now, tput);
    mds_health_[i].record(now, nodes_[i]->self_health_lag() * 1e-9);
    sum += tput;
    mn = std::min(mn, tput);
    mx = std::max(mx, tput);
    fwd_sum += fwd;
    req_sum += req;
  }
  const double n = static_cast<double>(nodes_.size());
  avg_tput_.record(now, n > 0 ? sum / n : 0.0);
  min_tput_.record(now, nodes_.empty() ? 0.0 : mn);
  max_tput_.record(now, mx);
  reply_rate_.record(now, sum);
  forward_rate_.record(now, fwd_sum);
  fwd_fraction_.record(now, req_sum > 0 ? fwd_sum / req_sum : 0.0);
  shed_rate_.record(now, shed_sum);
  // Gray-degraded census from the incident log (first-detector truth, not
  // any single node's view). Zero whenever health scoring is off.
  double degraded = 0.0;
  if (faults_ != nullptr) {
    for (const GrayIncident& g : faults_->gray_incidents()) {
      if (g.open) degraded += 1.0;
    }
  }
  degraded_nodes_.record(now, degraded);
}

void Metrics::reset(SimTime now) {
  reset_at_ = now;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    MdsStats& s = nodes_[i]->stats();
    base_[i] = counters_of(*nodes_[i]);
    base_sheds_[i] = sheds_of(s);
    base_rejects_[i] = s.rejects_sent;
    s.reply_rate.sample(now);
    s.forward_rate.sample(now);
    s.request_rate.sample(now);
    s.miss_rate.sample(now);
    s.shed_rate.sample(now);
    nodes_[i]->reset_cpu_depth_stats(now);
  }
  clients_.reset_latency();
  // Warmup traces are dropped together with the latency Summaries they
  // reconcile against.
  if (trace_ != nullptr) trace_->reset();
}

Metrics::Totals& Metrics::Totals::operator+=(const Totals& o) {
  replies += o.replies;
  forwards += o.forwards;
  requests += o.requests;
  failures += o.failures;
  hits += o.hits;
  misses += o.misses;
  return *this;
}

Metrics::Totals Metrics::Totals::operator-(const Totals& o) const {
  return {replies - o.replies,   forwards - o.forwards,
          requests - o.requests, failures - o.failures,
          hits - o.hits,         misses - o.misses};
}

double Metrics::Totals::hit_rate() const {
  const std::uint64_t total = hits + misses;
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

double Metrics::Totals::forward_fraction() const {
  const std::uint64_t original = requests > forwards ? requests - forwards : 0;
  return original > 0
             ? static_cast<double>(forwards) / static_cast<double>(original)
             : 0.0;
}

Metrics::Totals Metrics::totals() const {
  Totals t;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    t += counters_of(*nodes_[i]) - base_[i];
  }
  return t;
}

double Metrics::avg_mds_throughput(SimTime now) const {
  if (nodes_.empty() || now <= reset_at_) return 0.0;
  return static_cast<double>(totals().replies) /
         to_seconds(now - reset_at_) / static_cast<double>(nodes_.size());
}

double Metrics::cluster_hit_rate() const { return totals().hit_rate(); }

double Metrics::mean_prefix_fraction() const {
  if (nodes_.empty()) return 0.0;
  double sum = 0.0;
  for (MdsNode* n : nodes_) sum += n->cache().prefix_fraction();
  return sum / static_cast<double>(nodes_.size());
}

double Metrics::mean_cache_fill() const {
  if (nodes_.empty()) return 0.0;
  double sum = 0.0;
  for (MdsNode* n : nodes_) {
    sum += static_cast<double>(n->cache().size()) /
           static_cast<double>(n->cache().capacity());
  }
  return sum / static_cast<double>(nodes_.size());
}

double Metrics::overall_forward_fraction() const {
  return totals().forward_fraction();
}

Summary Metrics::client_latency() const {
  return clients_.totals().latency_seconds;
}

std::uint64_t Metrics::total_replies() const { return totals().replies; }

std::uint64_t Metrics::total_failures() const { return totals().failures; }

std::uint64_t Metrics::total_sheds() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    total += sheds_of(nodes_[i]->stats()) - base_sheds_[i];
  }
  return total;
}

std::uint64_t Metrics::total_rejects() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    total += nodes_[i]->stats().rejects_sent - base_rejects_[i];
  }
  return total;
}

std::size_t Metrics::cpu_queue_highwater() const {
  std::size_t hw = 0;
  for (const MdsNode* n : nodes_) {
    hw = std::max(hw, n->cpu().depth_highwater());
  }
  return hw;
}

double Metrics::mean_cpu_queue_depth(SimTime now) const {
  if (nodes_.empty()) return 0.0;
  double sum = 0.0;
  for (const MdsNode* n : nodes_) sum += n->cpu().mean_depth(now);
  return sum / static_cast<double>(nodes_.size());
}

}  // namespace mdsim
