// FIFO single-server queue: the simulator's model for any serialized
// resource with a service time per job — MDS CPU, metadata disk, journal
// device. Matches the paper's storage simplification (section 5.1):
// "average disk latencies and transactional throughputs only".
//
// A job submitted while the server is busy waits; completion callbacks fire
// in submission order. Optional fixed access latency is added on top of the
// queueing delay (e.g. disk seek+rotation vs transfer).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"
#include "sim/inline_task.h"

namespace mdsim {

class Simulation;

class QueueServer {
 public:
  /// `name` is used in statistics output only.
  QueueServer(Simulation& sim, std::string name);

  /// Submit a job with the given service time; `done` fires when it
  /// completes (after queueing + access_latency + service).
  void submit(SimTime service_time, InlineTask done);

  /// As above, with a trace span: the job's queue wait and service time
  /// (plus access latency) are attributed to the span's stages. The span
  /// is observational only — an empty span and a populated one produce
  /// identical scheduling.
  void submit(SimTime service_time, TraceSpan span, InlineTask done);

  /// Fixed latency added to every job, outside the serialized portion
  /// (i.e. it does not consume server capacity; models e.g. bus latency).
  void set_access_latency(SimTime latency) { access_latency_ = latency; }

  /// Fail-slow injection: multiply every subsequent job's service time by
  /// `mult` (10.0 = ten times slower). Applied at submission so the
  /// backlog accounting stays symmetric (`+=` at submit, `-=` at finish
  /// see the same scaled value); jobs already queued keep their original
  /// service times. At the default 1.0 the scaling branch is never taken
  /// and the server is bit-identical to one without the knob.
  void set_service_time_multiplier(double mult) { rate_mult_ = mult; }
  double service_time_multiplier() const { return rate_mult_; }

  std::size_t queue_depth() const { return queue_.size() + (busy_ ? 1 : 0); }
  std::uint64_t jobs_completed() const { return completed_; }

  /// Sum of service times of all jobs currently queued or in service —
  /// the earliest a job submitted now could start, ignoring access
  /// latency. This is what an admission gate should bound: depth alone
  /// undercounts when jobs have heterogeneous service times.
  SimTime backlog() const { return backlog_ns_; }
  /// Maximum queue_depth() observed since construction or the last
  /// depth-stats reset.
  std::size_t depth_highwater() const { return depth_hw_; }
  /// Time-weighted mean queue depth over the same window.
  double mean_depth(SimTime now) const;
  /// Restart the depth-observation window (e.g. at the warmup boundary).
  /// Pure observer state: does not touch busy time, completion counts or
  /// wait summaries, so callers owning deltas of those are unaffected.
  void reset_depth_stats(SimTime now);

  /// Busy time / elapsed simulated time since t = 0.
  double utilization(SimTime now) const;
  /// Cumulative busy time (for caller-side windowed utilization).
  SimTime busy_time() const { return busy_ns_; }
  const Summary& wait_times() const { return wait_; }

  const std::string& name() const { return name_; }

 private:
  struct Job {
    SimTime service = 0;
    /// Enqueue timestamp; kSpanBit flags that the job carries a trace
    /// span (held in the parallel spans_ FIFO). Untraced jobs — the
    /// common case, and all jobs when tracing is off — thus stay exactly
    /// the size they were before tracing existed, keeping deque slots
    /// and job moves off the simulation hot path.
    SimTime enqueued = 0;
    InlineTask done;
  };
  /// Simulated time would need ~292 years to reach this bit.
  static constexpr SimTime kSpanBit = SimTime{1} << 63;

  void start_next();
  void finish();
  /// Fold the previous depth's dwell time into the time-weighted
  /// integral and record the new depth; called whenever depth changes.
  void bump_depth(std::size_t depth);

  Simulation& sim_;
  std::string name_;
  SimTime access_latency_ = 0;
  double rate_mult_ = 1.0;  // fail-slow service-time multiplier
  std::deque<Job> queue_;
  /// Spans of traced queued jobs, in submission order (same relative
  /// order as their kSpanBit-flagged entries in queue_).
  std::deque<TraceSpan> spans_;
  /// The job occupying the server while busy_. Kept here (not captured
  /// into the completion event) so the event's task is just a `this`
  /// pointer — the server is serialized, so one in-service job suffices.
  Job in_service_;
  TraceSpan in_service_span_;
  bool busy_ = false;
  std::uint64_t completed_ = 0;
  SimTime busy_ns_ = 0;
  Summary wait_;
  /// Unfinished work: sum of service times of queued + in-service jobs.
  SimTime backlog_ns_ = 0;
  /// Depth-over-time bookkeeping for depth_highwater()/mean_depth().
  /// Its own window epoch: depth stats are reset at the warmup boundary
  /// without disturbing the cumulative busy time.
  std::size_t last_depth_ = 0;
  std::size_t depth_hw_ = 0;
  double depth_integral_ = 0.0;
  SimTime depth_since_ = 0;
  SimTime depth_stats_since_ = 0;
};

}  // namespace mdsim
