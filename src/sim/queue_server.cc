#include "sim/queue_server.h"

#include "sim/simulation.h"

namespace mdsim {

QueueServer::QueueServer(Simulation& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

void QueueServer::submit(SimTime service_time, InlineTask done) {
  if (rate_mult_ != 1.0) {
    service_time =
        static_cast<SimTime>(static_cast<double>(service_time) * rate_mult_);
  }
  queue_.push_back(Job{service_time, sim_.now(), std::move(done)});
  backlog_ns_ += service_time;
  if (!busy_) start_next();
  bump_depth(queue_depth());
}

void QueueServer::submit(SimTime service_time, TraceSpan span,
                         InlineTask done) {
  if (rate_mult_ != 1.0) {
    service_time =
        static_cast<SimTime>(static_cast<double>(service_time) * rate_mult_);
  }
  SimTime enq = sim_.now();
  if (span.rec != nullptr) {
    spans_.push_back(span);
    enq |= kSpanBit;
  }
  queue_.push_back(Job{service_time, enq, std::move(done)});
  backlog_ns_ += service_time;
  if (!busy_) start_next();
  bump_depth(queue_depth());
}

void QueueServer::start_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  in_service_ = std::move(queue_.front());
  queue_.pop_front();
  wait_.add(to_seconds(sim_.now() - (in_service_.enqueued & ~kSpanBit)));
  if ((in_service_.enqueued & kSpanBit) != 0) {
    in_service_span_ = spans_.front();
    spans_.pop_front();
    in_service_span_.on_service_start(sim_.now());
  }
  busy_ns_ += in_service_.service;
  sim_.schedule(in_service_.service, [this]() { finish(); });
}

void QueueServer::finish() {
  Job job = std::move(in_service_);
  // Read before start_next() hands in_service_span_ to the next job.
  // Only valid when this job's kSpanBit is set; stale otherwise.
  const TraceSpan span = in_service_span_;
  ++completed_;
  backlog_ns_ -= job.service;
  // Chain the next job before invoking the callback so that re-entrant
  // submissions from `done` queue behind already-waiting work.
  start_next();
  bump_depth(queue_depth());
  // The access-latency tail is attributed eagerly (`skip`) rather than by
  // wrapping `done` in another task — the wrapper would overflow the
  // inline callback storage and fall back to the heap on the hot path.
  if ((job.enqueued & kSpanBit) != 0) {
    span.on_service_end(sim_.now(), access_latency_);
  }
  if (access_latency_ == 0) {
    job.done();
  } else {
    sim_.schedule(access_latency_, std::move(job.done));
  }
}

double QueueServer::utilization(SimTime now) const {
  if (now == 0) return 0.0;
  return static_cast<double>(busy_ns_) / static_cast<double>(now);
}

void QueueServer::bump_depth(std::size_t depth) {
  const SimTime now = sim_.now();
  depth_integral_ += static_cast<double>(last_depth_) *
                     static_cast<double>(now - depth_since_);
  depth_since_ = now;
  last_depth_ = depth;
  if (depth > depth_hw_) depth_hw_ = depth;
}

double QueueServer::mean_depth(SimTime now) const {
  const SimTime elapsed = now - depth_stats_since_;
  if (elapsed == 0) return 0.0;
  const double integral =
      depth_integral_ + static_cast<double>(last_depth_) *
                            static_cast<double>(now - depth_since_);
  return integral / static_cast<double>(elapsed);
}

void QueueServer::reset_depth_stats(SimTime now) {
  depth_stats_since_ = now;
  depth_integral_ = 0.0;
  depth_since_ = now;
  last_depth_ = queue_depth();
  depth_hw_ = last_depth_;
}

}  // namespace mdsim
