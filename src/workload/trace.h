// Workload trace recording and replay.
//
// Paper future work (section 7): "The use of actual workload traces with
// matching file system metadata snapshots would allow us to evaluate
// system behavior based on more realistic workloads." The pieces needed
// for that are a trace format tied to a namespace snapshot and a replay
// engine; both are built here:
//
//  * RecordingWorkload decorates any generator and captures the exact
//    per-client operation stream (with think delays) as it is produced.
//  * A Trace can be saved to / loaded from a CSV file. Operations
//    reference inodes, so a trace is replayable against any FsTree built
//    from the same generator seed (the "matching metadata snapshot").
//  * TraceWorkload replays a trace with the recorded think-time pacing,
//    preserving per-client ordering; operations whose targets have been
//    unlinked meanwhile are skipped, mirroring trace-replay practice.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workload/workload.h"

namespace mdsim {

struct TraceEvent {
  ClientId client = kInvalidClient;
  SimTime think = 0;  // delay the generator requested before this op
  OpType op = OpType::kStat;
  InodeId target = kInvalidInode;
  InodeId secondary = kInvalidInode;
  std::string name;
};

class Trace {
 public:
  void append(const TraceEvent& ev) { events_.push_back(ev); }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Highest client id referenced (+1), i.e. the client count needed.
  int num_clients() const;

  /// CSV persistence. `save` throws std::runtime_error on I/O failure;
  /// `load` returns an empty trace on a missing file.
  void save(const std::string& path) const;
  static Trace load(const std::string& path);

 private:
  std::vector<TraceEvent> events_;
};

/// Wraps a workload and records everything it generates.
class RecordingWorkload final : public Workload {
 public:
  explicit RecordingWorkload(std::unique_ptr<Workload> inner)
      : inner_(std::move(inner)) {}

  SimTime next(ClientId c, SimTime now, Rng& rng, Operation* out) override;

  const Trace& trace() const { return trace_; }
  Trace take_trace() { return std::move(trace_); }
  Workload& inner() { return *inner_; }

 private:
  std::unique_ptr<Workload> inner_;
  Trace trace_;
};

/// Replays a trace against a (matching) namespace.
class TraceWorkload final : public Workload {
 public:
  TraceWorkload(FsTree& tree, Trace trace);

  SimTime next(ClientId c, SimTime now, Rng& rng, Operation* out) override;

  std::size_t skipped() const { return skipped_; }

 private:
  struct Cursor {
    std::vector<std::size_t> events;  // indices into trace_ for one client
    std::size_t next = 0;
  };

  FsTree& tree_;
  Trace trace_;
  std::vector<Cursor> cursors_;
  std::size_t skipped_ = 0;
};

}  // namespace mdsim
