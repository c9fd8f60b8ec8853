#include "core/metrics.h"

#include <algorithm>
#include <limits>

#include "client/cohort.h"
#include "mds/mds_node.h"

namespace mdsim {

Metrics::Metrics(std::vector<MdsNode*> nodes, ClientCohort& clients)
    : nodes_(std::move(nodes)), clients_(clients) {
  mds_tput_.resize(nodes_.size());
  base_.assign(nodes_.size(), Totals{});
  prev_.assign(nodes_.size(), Totals{});
}

namespace {
/// A node's cumulative (never reset) Totals counters.
Metrics::Totals counters_of(MdsNode& n) {
  const MdsStats& s = n.stats();
  const CacheStats& cache = n.cache().stats();
  return {s.replies_sent,
          s.forwards,
          s.requests_received,
          s.client_requests,
          s.failures,
          cache.hits,
          cache.misses,
          s.requests_shed_queue + s.requests_shed_admission +
              s.requests_shed_deadline,
          s.rejects_sent};
}
}  // namespace

void Metrics::sample(SimTime now) {
  const SimTime dt = now - window_start_;
  const auto rate = [dt](std::uint64_t count) {
    return dt > 0 ? static_cast<double>(count) / to_seconds(dt) : 0.0;
  };
  double sum = 0.0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = 0.0;
  double fwd_sum = 0.0;
  double req_sum = 0.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Totals snap = counters_of(*nodes_[i]);
    const Totals window = snap - prev_[i];
    prev_[i] = snap;
    const double tput = rate(window.replies);
    mds_tput_[i].record(now, tput);
    sum += tput;
    mn = std::min(mn, tput);
    mx = std::max(mx, tput);
    fwd_sum += rate(window.forwards);
    req_sum += rate(window.client_requests);
  }
  window_start_ = now;
  const double n = static_cast<double>(nodes_.size());
  avg_tput_.record(now, n > 0 ? sum / n : 0.0);
  min_tput_.record(now, nodes_.empty() ? 0.0 : mn);
  max_tput_.record(now, mx);
  reply_rate_.record(now, sum);
  forward_rate_.record(now, fwd_sum);
  fwd_fraction_.record(now, req_sum > 0 ? fwd_sum / req_sum : 0.0);
}

void Metrics::reset(SimTime now) {
  reset_at_ = now;
  window_start_ = now;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    base_[i] = prev_[i] = counters_of(*nodes_[i]);
    nodes_[i]->reset_cpu_depth_stats(now);
  }
  clients_.reset_latency();
}

Metrics::Totals& Metrics::Totals::operator+=(const Totals& o) {
  replies += o.replies;
  forwards += o.forwards;
  requests += o.requests;
  client_requests += o.client_requests;
  failures += o.failures;
  hits += o.hits;
  misses += o.misses;
  sheds += o.sheds;
  rejects += o.rejects;
  return *this;
}

Metrics::Totals Metrics::Totals::operator-(const Totals& o) const {
  return {replies - o.replies,
          forwards - o.forwards,
          requests - o.requests,
          client_requests - o.client_requests,
          failures - o.failures,
          hits - o.hits,
          misses - o.misses,
          sheds - o.sheds,
          rejects - o.rejects};
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

double Metrics::overall_forward_fraction() const {
  return totals().forward_fraction();
}

Summary Metrics::client_latency() const {
  return clients_.totals().latency_seconds;
}

std::uint64_t Metrics::total_replies() const { return totals().replies; }

std::uint64_t Metrics::total_failures() const { return totals().failures; }

std::uint64_t Metrics::total_sheds() const { return totals().sheds; }

std::uint64_t Metrics::total_rejects() const { return totals().rejects; }

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
