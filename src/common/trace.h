// Per-request tracing and latency attribution.
//
// Every client operation can carry a TraceRecord through its whole life:
// client -> network -> MDS traversal/forwarding -> cache fetch -> journal
// -> reply. Attribution uses segment tiling: the record keeps the
// timestamp of the last attributed boundary, and each layer that passes a
// boundary charges the elapsed interval to one stage. Because a client op
// is a strictly sequential state machine (closed-loop clients, one op in
// flight, one continuation at a time), the segments partition
// [issue, reply] exactly — the per-stage sums reconcile with the
// end-to-end latency bit for bit, which test_tracing.cc and
// bench/latency_breakdown enforce.
//
// Zero cost when disabled: with tracing off no record exists, every hook
// is a predictable `ptr == nullptr` branch, and — because tracing only
// observes simulated time and never schedules, draws randomness, or
// touches protocol state — enabling it cannot perturb simulation results.
//
// Retries and duplicated messages: the record is re-armed with the new
// request id on every client re-issue, and stale instances (old ids still
// draining through the cluster) fail the id check and attribute nothing.
// Under message-duplication faults two live instances may interleave, in
// which case attribution can mix between stages but the tiling invariant
// (stage sums == end-to-end) still holds: every accepted segment advances
// the shared boundary.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace mdsim {

class CsvWriter;

/// Where a traced request spent its time. Stages are mutually exclusive
/// and collectively exhaustive: their per-request sum equals the
/// end-to-end latency.
enum class TraceStage : std::uint8_t {
  kNetRequest,      // client -> first MDS request link
  kNetForward,      // MDS -> MDS forwarded-request link
  kCpuQueue,        // waiting in an MDS CPU queue
  kCpuService,      // MDS CPU execution
  kDiskQueue,       // metadata-store queue wait (request-initiated I/O)
  kDiskService,     // metadata-store service time + access latency
  kFetchWait,       // parked behind another request's in-flight disk fetch
  kReplicaWait,     // replica request -> grant round trip at a peer
  kJournalQueue,    // journal device queue wait
  kJournalService,  // journal append service time
  kStallWait,       // deferred (migration freeze), attr gather, retry backoff
  kNetReply,        // MDS -> client reply link
};

constexpr int kNumTraceStages = 12;

constexpr const char* trace_stage_name(TraceStage s) {
  switch (s) {
    case TraceStage::kNetRequest: return "net_request";
    case TraceStage::kNetForward: return "net_forward";
    case TraceStage::kCpuQueue: return "cpu_queue";
    case TraceStage::kCpuService: return "cpu_service";
    case TraceStage::kDiskQueue: return "disk_queue";
    case TraceStage::kDiskService: return "disk_service";
    case TraceStage::kFetchWait: return "fetch_wait";
    case TraceStage::kReplicaWait: return "replica_wait";
    case TraceStage::kJournalQueue: return "journal_queue";
    case TraceStage::kJournalService: return "journal_service";
    case TraceStage::kStallWait: return "stall_wait";
    case TraceStage::kNetReply: return "net_reply";
  }
  return "?";
}

/// Trace context for one client operation. Owned by the issuing client
/// (one per client — clients are closed-loop); a raw pointer rides on the
/// request message through forwards, so MDS-side layers attribute into the
/// same record. All stamps are simulated time.
struct TraceRecord {
  std::uint64_t req_id = 0;  // active request instance (re-armed on retry)
  ClientId client = kInvalidClient;
  OpType op = OpType::kStat;
  SimTime start = 0;  // first issue
  SimTime last = 0;   // last attributed boundary
  std::uint8_t hops = 0;
  std::uint8_t retries = 0;
  bool failed = false;
  std::array<SimTime, kNumTraceStages> stage_ns{};

  /// Start tracing a fresh operation at its first issue.
  void begin(std::uint64_t rid, ClientId c, OpType o, SimTime now) {
    req_id = rid;
    client = c;
    op = o;
    start = now;
    last = now;
    hops = 0;
    retries = 0;
    failed = false;
    stage_ns.fill(0);
  }

  /// Client re-issue after a timeout: the wait (timeout + backoff) is
  /// charged to kStallWait and the new request id becomes the only
  /// instance allowed to attribute further segments.
  void rearm(std::uint64_t rid, SimTime now) {
    stage_ns[static_cast<std::size_t>(TraceStage::kStallWait)] += now - last;
    last = now;
    req_id = rid;
    ++retries;
  }

  /// Attribute [last, now) to `stage` iff `rid` is the active instance
  /// (stale retried/duplicated instances attribute nothing).
  void advance(TraceStage stage, SimTime now, std::uint64_t rid) {
    if (rid != req_id) return;
    stage_ns[static_cast<std::size_t>(stage)] += now - last;
    last = now;
  }

  /// Attribute a known-deterministic future interval (e.g. a disk's fixed
  /// access latency that elapses between service end and the completion
  /// callback) without waiting for it to pass.
  void skip(TraceStage stage, SimTime dt, std::uint64_t rid) {
    if (rid != req_id) return;
    stage_ns[static_cast<std::size_t>(stage)] += dt;
    last += dt;
  }

  SimTime stage(TraceStage s) const {
    return stage_ns[static_cast<std::size_t>(s)];
  }
  SimTime stage_sum() const {
    SimTime t = 0;
    for (SimTime v : stage_ns) t += v;
    return t;
  }
};

/// Queue-server attribution handle: lets a QueueServer split a traced
/// job's sojourn into queue wait and service time. Inert when rec is
/// null (the tracing-off case costs one predictable branch per job).
struct TraceSpan {
  TraceRecord* rec = nullptr;
  std::uint64_t req_id = 0;
  TraceStage queue_stage = TraceStage::kCpuQueue;
  TraceStage service_stage = TraceStage::kCpuService;

  explicit operator bool() const { return rec != nullptr; }

  void on_service_start(SimTime now) const {
    if (rec != nullptr) rec->advance(queue_stage, now, req_id);
  }
  void on_service_end(SimTime now, SimTime trailing_latency) const {
    if (rec == nullptr) return;
    rec->advance(service_stage, now, req_id);
    if (trailing_latency != 0) rec->skip(service_stage, trailing_latency, req_id);
  }
};

/// Aggregates completed traces into per-stage x per-op latency histograms
/// and keeps the slowest-N requests for a structured dump. Fully
/// deterministic: everything derives from simulated time, and slowest-N
/// ties break on (start time, client id).
class TraceCollector {
 public:
  explicit TraceCollector(std::size_t slowest_n = 32);

  /// Ingest a finished operation (called by the client when the matching
  /// reply arrives; `end` is the arrival time).
  void complete(const TraceRecord& rec, SimTime end);

  /// Drop everything accumulated so far (warmup boundary).
  void reset();

  /// Fold another collector's accumulation into this one (cross-shard
  /// aggregation at end of run): counts, sums and histograms add; the
  /// slowest-N set is re-ranked over the union under the same
  /// deterministic order, so the merged result is independent of merge
  /// order and identical to having collected centrally.
  void merge(const TraceCollector& other);

  std::uint64_t completed() const { return completed_; }
  std::uint64_t completed(OpType op) const {
    return op_count_[static_cast<std::size_t>(op)];
  }

  /// End-to-end latency histogram for one op type.
  const LogHistogram& total_hist(OpType op) const {
    return total_hist_[static_cast<std::size_t>(op)];
  }

  /// Exact accumulated nanoseconds (for reconciliation against the
  /// client-side latency Summary).
  std::uint64_t stage_total_ns(TraceStage s, OpType op) const {
    return stage_sum_ns_[static_cast<std::size_t>(op)]
                        [static_cast<std::size_t>(s)];
  }
  std::uint64_t total_ns(OpType op) const {
    return total_sum_ns_[static_cast<std::size_t>(op)];
  }
  std::uint64_t grand_total_ns() const;

  struct SlowOp {
    TraceRecord rec;
    SimTime end = 0;
    SimTime total() const { return end - rec.start; }
  };
  /// Slowest completed requests, most expensive first.
  std::vector<SlowOp> slowest() const;

  /// Per-(op, stage) breakdown table:
  /// op,stage,count,total_ms,share,p50_ms,p95_ms,p99_ms.
  void write_breakdown_csv(CsvWriter& csv) const;
  /// Slowest-N dump: one row per request with per-stage columns.
  void write_slowest_csv(CsvWriter& csv) const;

 private:
  bool slower(const SlowOp& a, const SlowOp& b) const;

  std::size_t slowest_n_;
  std::uint64_t completed_ = 0;
  std::array<std::uint64_t, kNumOpTypes> op_count_{};
  // Histograms cover 1 ns .. 10 s with 20 log buckets per decade.
  std::vector<std::array<LogHistogram, kNumTraceStages>> stage_hist_;
  std::vector<LogHistogram> total_hist_;
  std::array<std::array<std::uint64_t, kNumTraceStages>, kNumOpTypes>
      stage_sum_ns_{};
  std::array<std::uint64_t, kNumOpTypes> total_sum_ns_{};
  std::vector<SlowOp> slow_;  // min-heap on slower()
};

}  // namespace mdsim
