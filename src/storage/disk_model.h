// Metadata storage device models (paper section 5.1: storage is simulated
// as "average disk latencies and transactional throughputs only").
//
// Two devices per MDS:
//  * the metadata store (random transactions: directory-object reads and
//    tier-2 writebacks), and
//  * the journal device (sequential appends, much higher throughput;
//    optionally near-zero latency to model NVRAM, section 4.6).
#pragma once

#include <string>

#include "common/types.h"
#include "sim/queue_server.h"

namespace mdsim {

struct DiskParams {
  /// Service time per random metadata transaction (one directory object
  /// or one individual inode, section 5.3: the unit depends on strategy).
  SimTime transaction_time = from_millis(6.0);
  /// Additional service time per B+tree node beyond the first in a
  /// multi-node transfer (sequential transfer is cheap next to the seek).
  SimTime per_node_time = from_micros(150);
  /// Fixed access latency outside the serialized portion (controller/bus).
  SimTime access_latency = from_micros(200);

  /// Journal append service time (sequential; or NVRAM if tiny).
  SimTime journal_append_time = from_micros(400);
};

class DiskModel {
 public:
  DiskModel(Simulation& sim, const DiskParams& params, std::string name);

  /// Read one stored object spanning `nodes` B+tree nodes. The traced
  /// overload attributes queue/service time to the span's stages.
  void read_object(std::uint32_t nodes, InlineTask done) {
    read_object(nodes, TraceSpan{}, std::move(done));
  }
  void read_object(std::uint32_t nodes, TraceSpan span, InlineTask done);
  /// Write (back) an object touching `nodes` B+tree nodes.
  void write_object(std::uint32_t nodes, InlineTask done);
  /// Append a journal entry.
  void journal_append(InlineTask done) {
    journal_append(TraceSpan{}, std::move(done));
  }
  void journal_append(TraceSpan span, InlineTask done);

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t journal_appends() const { return journal_appends_; }
  SimTime store_busy_time() const { return store_.busy_time(); }
  double journal_utilization(SimTime now) const {
    return journal_.utilization(now);
  }
  std::size_t store_queue_depth() const { return store_.queue_depth(); }
  /// Unfinished work (ns of service) queued at the metadata store — the
  /// health layer's local disk-lag signal.
  SimTime store_backlog() const { return store_.backlog(); }

  /// Fail-slow injection: both devices serve every subsequent job `mult`
  /// times slower (1.0 restores nominal speed). Queued jobs keep their
  /// original service times.
  void set_service_time_multiplier(double mult) {
    store_.set_service_time_multiplier(mult);
    journal_.set_service_time_multiplier(mult);
  }
  double service_time_multiplier() const {
    return store_.service_time_multiplier();
  }

 private:
  SimTime transfer_time(std::uint32_t nodes) const;

  DiskParams params_;
  QueueServer store_;
  QueueServer journal_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t journal_appends_ = 0;
};

}  // namespace mdsim
