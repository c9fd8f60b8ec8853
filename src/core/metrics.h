// Cluster metrics collection: periodic sampling of per-MDS and
// cluster-wide rates into time series (figures 5-7) plus end-of-run
// aggregates (figures 2-4).
#pragma once

#include <cstdint>
#include <vector>

#include "common/fault_log.h"
#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"
#include "sim/simulation.h"

namespace mdsim {

class ClientCohort;
class MdsNode;

class Metrics {
 public:
  Metrics(std::vector<MdsNode*> nodes, ClientCohort& clients,
          const Simulation* sim = nullptr);

  /// Take one sample (called by the cluster on its sampling cadence).
  void sample(SimTime now);
  /// Zero windowed state at the warmup boundary.
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
  /// Cluster-wide admission sheds/sec (zero with overload protection off).
  const TimeSeries& shed_rate() const { return shed_rate_; }
  /// Per-node self-measured health lag (seconds of queued-but-unserved
  /// work, EWMA'd; all-zero with health scoring off).
  const std::vector<TimeSeries>& per_mds_health() const { return mds_health_; }
  /// Nodes currently flagged gray-degraded (open GrayIncidents).
  const TimeSeries& degraded_nodes() const { return degraded_nodes_; }

  // --- end-of-run aggregates ----------------------------------------------
  /// Per-node counters since the last reset, summed over nodes: the
  /// integer inputs of the end-of-run ratios, which combine across shards
  /// by plain addition (core/experiment.h summarize()).
  struct Totals {
    std::uint64_t replies = 0;
    std::uint64_t forwards = 0;
    std::uint64_t requests = 0;
    std::uint64_t failures = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    Totals& operator+=(const Totals& o);
    Totals operator-(const Totals& o) const;
    double hit_rate() const;
    /// Forwarded / original client submissions (forwarded arrivals are
    /// re-counted as received).
    double forward_fraction() const;
  };
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
  double mean_cache_fill() const;
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

  /// Event-engine health: schedule/fire/cancel volume and InlineTask
  /// heap-fallback count (nonzero fallbacks on a hot path means an
  /// oversized capture list re-introduced per-event allocations).
  Simulation::Counters engine_counters() const {
    return sim_ != nullptr ? sim_->counters() : Simulation::Counters{};
  }

  // --- latency attribution -------------------------------------------------
  /// Attach the per-request trace collector (null when tracing is off).
  /// Owned by the cluster; reset() drops its warmup-phase traces so the
  /// breakdown table covers the same window as the figure aggregates.
  void set_trace(TraceCollector* trace) { trace_ = trace; }
  TraceCollector* trace() const { return trace_; }

  // --- failure lifecycle ---------------------------------------------------
  void set_fault_log(const FaultLog* log) { faults_ = log; }
  const FaultLog* fault_log() const { return faults_; }
  /// Crash -> first survivor declaring it dead, per incident. Incidents
  /// still open at the current sim time are right-censored at `now()`
  /// rather than silently dropped.
  Summary detection_latency_seconds() const {
    return faults_ != nullptr ? faults_->detection_latency_seconds(asof())
                              : Summary{};
  }
  /// Crash -> delegations redistributed (the unavailability window for
  /// the dead node's territory).
  Summary unavailability_seconds() const {
    return faults_ != nullptr ? faults_->unavailability_seconds(asof())
                              : Summary{};
  }
  /// Restart -> journal replay done (cache warm, serving at speed).
  Summary recovery_time_seconds() const {
    return faults_ != nullptr ? faults_->recovery_time_seconds(asof())
                              : Summary{};
  }
  /// Total node-seconds spent self-fenced (partition write stall).
  double minority_stall_seconds() const {
    return faults_ != nullptr ? faults_->minority_stall_seconds(asof()) : 0.0;
  }
  /// Overload episodes (first shed -> last shed per node per storm).
  Summary overload_episode_seconds() const {
    return faults_ != nullptr ? faults_->overload_episode_seconds(asof())
                              : Summary{};
  }
  /// Total node-seconds spent flagged gray-degraded (open incidents are
  /// right-censored at now()).
  double gray_degraded_seconds() const {
    return faults_ != nullptr ? faults_->gray_degraded_seconds(asof()) : 0.0;
  }

 private:
  /// Censoring horizon for open incidents: the current sim time, or
  /// "never" when no simulation is attached (open incidents drop, as the
  /// standalone-Metrics unit tests expect).
  SimTime asof() const {
    return sim_ != nullptr ? sim_->now() : FaultIncident::kUnset;
  }

  std::vector<MdsNode*> nodes_;
  ClientCohort& clients_;
  const Simulation* sim_ = nullptr;
  const FaultLog* faults_ = nullptr;
  TraceCollector* trace_ = nullptr;

  std::vector<TimeSeries> mds_tput_;
  TimeSeries avg_tput_;
  TimeSeries min_tput_;
  TimeSeries max_tput_;
  TimeSeries reply_rate_;
  TimeSeries forward_rate_;
  TimeSeries fwd_fraction_;
  TimeSeries shed_rate_;
  std::vector<TimeSeries> mds_health_;
  TimeSeries degraded_nodes_;

  SimTime reset_at_ = 0;
  std::vector<Totals> base_;  // per node, at the last reset
  std::vector<std::uint64_t> base_sheds_;
  std::vector<std::uint64_t> base_rejects_;
};

}  // namespace mdsim
