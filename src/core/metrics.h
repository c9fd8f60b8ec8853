// Cluster metrics collection: periodic sampling of per-MDS and
// cluster-wide rates into time series (figures 5-7) plus end-of-run
// aggregates (figures 2-4).
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace mdsim {

class ClientCohort;
class MdsNode;

class Metrics {
 public:
  Metrics(std::vector<MdsNode*> nodes, ClientCohort& clients);

  /// Take one sample (called by the cluster on its sampling cadence).
  void sample(SimTime now);
  /// Warm-up boundary: snapshot every node's counters as the base of the
  /// aggregates and the start of the next window.
  void reset(SimTime now);

  // --- time series (per sample) ------------------------------------------
  const std::vector<TimeSeries>& per_mds_throughput() const {
    return mds_tput_;
  }
  const TimeSeries& avg_throughput() const { return avg_tput_; }
  const TimeSeries& min_throughput() const { return min_tput_; }
  const TimeSeries& max_throughput() const { return max_tput_; }
  /// Cluster-wide replies/sec and forwards/sec (figure 7's two series).
  const TimeSeries& reply_rate() const { return reply_rate_; }
  const TimeSeries& forward_rate() const { return forward_rate_; }
  /// Fraction of client requests that were forwarded (figure 6).
  const TimeSeries& forward_fraction() const { return fwd_fraction_; }

  // --- end-of-run aggregates ----------------------------------------------
  /// A snapshot of one node's cumulative counters, or a sum or difference
  /// of snapshots. Every windowed number is a difference of two snapshots:
  /// a time-series sample against the previous sample (or the warm-up
  /// reset), an end-of-run aggregate against the reset. Summed over nodes,
  /// the deltas are the integer inputs of the end-of-run ratios, which
  /// combine across shards by plain addition (core/experiment.h
  /// summarize()).
  struct Totals {
    std::uint64_t replies = 0;
    std::uint64_t forwards = 0;
    std::uint64_t requests = 0;  // arrivals, forwarded ones included
    std::uint64_t client_requests = 0;  // first-hop arrivals
    std::uint64_t failures = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t sheds = 0;  // queue bound + token bucket + deadline
    std::uint64_t rejects = 0;

    Totals& operator+=(const Totals& o);
    Totals operator-(const Totals& o) const;
    double hit_rate() const;
    /// Forwarded / original client submissions (forwarded arrivals are
    /// re-counted as received).
    double forward_fraction() const;
  };
  /// Per-node counters since the last reset, summed over nodes.
  Totals totals() const;
  const std::vector<MdsNode*>& nodes() const { return nodes_; }
  /// Start of the measured window: the last reset, or 0.
  SimTime reset_at() const { return reset_at_; }

  /// Mean per-MDS throughput since the last reset (figure 2's y-axis).
  double avg_mds_throughput(SimTime now) const;
  /// Aggregate cache hit rate across nodes since the last reset (fig 4).
  double cluster_hit_rate() const;
  /// Mean fraction of cache consumed by prefix inodes (figure 3).
  double mean_prefix_fraction() const;
  /// Total forwarded / total client requests since reset.
  double overall_forward_fraction() const;
  Summary client_latency() const;
  std::uint64_t total_replies() const;
  std::uint64_t total_failures() const;
  /// Requests shed at admission (queue bound + token bucket + deadline)
  /// and explicit rejection replies sent, since the last reset.
  std::uint64_t total_sheds() const;
  std::uint64_t total_rejects() const;
  /// CPU queue-depth observers: maximum high-water mark across nodes and
  /// the across-node mean of per-node time-weighted mean depths (both
  /// since the last reset; `cpu_queue_depth()` alone is instantaneous).
  std::size_t cpu_queue_highwater() const;
  double mean_cpu_queue_depth(SimTime now) const;

 private:
  std::vector<MdsNode*> nodes_;
  ClientCohort& clients_;

  std::vector<TimeSeries> mds_tput_;
  TimeSeries avg_tput_;
  TimeSeries min_tput_;
  TimeSeries max_tput_;
  TimeSeries reply_rate_;
  TimeSeries forward_rate_;
  TimeSeries fwd_fraction_;

  SimTime reset_at_ = 0;
  SimTime window_start_ = 0;  // the last sample or reset
  std::vector<Totals> base_;  // per node, at the last reset
  std::vector<Totals> prev_;  // per node, at window_start_
};

}  // namespace mdsim
