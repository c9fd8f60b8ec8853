// Failure-lifecycle incident log (paper section 4.6 made measurable).
//
// Every MDS crash opens an incident; the cluster and the nodes stamp the
// lifecycle milestones onto it as they happen: first detection by a
// survivor (missed heartbeats), takeover (delegations redistributed and
// the journal replayed by heirs), restart (process back, replaying its
// log), rejoin (replay finished, serving again) and re-mark-up (the first
// survivor that heard a heartbeat again). The summaries below derive
// detection latency, unavailability windows and recovery time from these
// stamps. Fences, overload, gray flags and fail-slow windows are episodes:
// one record shape (node, begin, end) per span. The log counts nothing
// another layer already counts, such as sheds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace mdsim {

struct FaultIncident {
  static constexpr SimTime kUnset = ~SimTime{0};

  MdsId node = kInvalidMds;
  SimTime crashed_at = kUnset;
  SimTime detected_at = kUnset;  // first survivor detection
  MdsId detected_by = kInvalidMds;
  SimTime takeover_at = kUnset;  // delegations redistributed
  SimTime restarted_at = kUnset;  // process back, replay begins
  SimTime rejoined_at = kUnset;   // replay done, serving again
  SimTime remarked_up_at = kUnset;  // first peer marked it up again
  bool open = true;

  bool has(SimTime t) const { return t != kUnset; }
};

/// A span of one kind of trouble on one node. Distinct from FaultIncident:
/// the process is up the whole time.
/// - kFence: the node self-fenced (stopped serving writes) because it
///   could not hear a quorum; the network partitioned it away.
/// - kOverload: the node shed load at admission. Consecutive sheds are
///   coalesced: `end` is the last shed, and a shed more than kQuietGap
///   after it begins a new episode.
/// - kGray: a detector saw the node's health score (EWMA of heartbeat lag
///   + self-reported service lag) cross the degraded threshold;
///   `detected_by` is the first detector. This is what the detector saw.
/// - kFailSlow: injection ground truth, the window in which a fail-slow
///   fault was installed (ClusterSim::set_fail_slow). Benches compare
///   detected kGray episodes against these.
/// An episode whose `end` is unset is open.
struct Episode {
  static constexpr SimTime kUnset = FaultIncident::kUnset;
  enum class Kind : std::uint8_t { kFence, kOverload, kGray, kFailSlow };

  Kind kind = Kind::kFence;
  MdsId node = kInvalidMds;
  SimTime begin = kUnset;
  SimTime end = kUnset;
  MdsId detected_by = kInvalidMds;  // kGray: first detector

  bool open() const { return end == kUnset; }
};

class FaultLog {
 public:
  void note_crash(MdsId node, SimTime now) {
    // A re-crash closes any incident still open for the node, and the
    // crash ends a fence: a dead node is not a stalled minority.
    if (FaultIncident* inc = open_incident(node)) inc->open = false;
    end_episode(Episode::Kind::kFence, node, now);
    FaultIncident fresh;
    fresh.node = node;
    fresh.crashed_at = now;
    incidents_.push_back(fresh);
  }

  void note_detection(MdsId node, MdsId by, SimTime now) {
    FaultIncident* inc = open_incident(node);
    if (inc == nullptr || inc->has(inc->detected_at)) return;
    inc->detected_at = now;
    inc->detected_by = by;
  }

  void note_takeover(MdsId node, SimTime now) {
    FaultIncident* inc = open_incident(node);
    if (inc == nullptr || inc->has(inc->takeover_at)) return;
    inc->takeover_at = now;
  }

  void note_restart(MdsId node, SimTime now) {
    FaultIncident* inc = open_incident(node);
    if (inc == nullptr || inc->has(inc->restarted_at)) return;
    inc->restarted_at = now;
  }

  void note_rejoin(MdsId node, SimTime now) {
    FaultIncident* inc = open_incident(node);
    if (inc == nullptr || inc->has(inc->rejoined_at)) return;
    inc->rejoined_at = now;
    maybe_close(*inc);
  }

  void note_marked_up(MdsId node, SimTime now) {
    FaultIncident* inc = open_incident(node);
    if (inc == nullptr || inc->has(inc->remarked_up_at)) return;
    inc->remarked_up_at = now;
    maybe_close(*inc);
  }

  /// Opens a `kind` episode on `node`; a no-op while one is open (for
  /// kGray: the first detector opens it, later ones change nothing).
  void begin_episode(Episode::Kind kind, MdsId node, SimTime now,
                     MdsId by = kInvalidMds) {
    const Episode* e = last_episode(kind, node);
    if (e != nullptr && e->open()) return;
    episodes_.push_back(Episode{kind, node, now, Episode::kUnset, by});
  }

  /// Ends the open `kind` episode on `node`; a no-op when none is open.
  void end_episode(Episode::Kind kind, MdsId node, SimTime now) {
    Episode* e = last_episode(kind, node);
    if (e != nullptr && e->open()) e->end = now;
  }

  /// One admission-gate shed on `node`. Extends the node's overload
  /// episode, or begins a new one after a quiet gap.
  void note_shed(MdsId node, SimTime now) {
    Episode* e = last_episode(Episode::Kind::kOverload, node);
    if (e != nullptr && now - e->end <= kQuietGap) {
      e->end = now;
    } else {
      episodes_.push_back(Episode{Episode::Kind::kOverload, node, now, now});
    }
  }

  const std::vector<FaultIncident>& incidents() const { return incidents_; }

  /// The `kind` episodes, in the order they began.
  std::vector<Episode> episodes(Episode::Kind kind) const {
    std::vector<Episode> out;
    for (const Episode& e : episodes_) {
      if (e.kind == kind) out.push_back(e);
    }
    return out;
  }

  /// Total seconds in `kind` episodes, right-censoring episodes still
  /// open at `asof`: fenced node-seconds (the minority-side write stall)
  /// or gray-flagged node-seconds.
  double episode_seconds(Episode::Kind kind, SimTime asof) const {
    double total = 0.0;
    for (const Episode& e : episodes_) {
      const SimTime end = e.open() ? asof : e.end;
      if (e.kind != kind || end < e.begin) continue;
      total += to_seconds(end - e.begin);
    }
    return total;
  }

  /// Per-episode spans of the ended `kind` episodes. An overload episode
  /// with one shed contributes 0; a sustained storm its whole span.
  Summary episode_spans(Episode::Kind kind) const {
    Summary s;
    for (const Episode& e : episodes_) {
      if (e.kind == kind && !e.open()) s.add(to_seconds(e.end - e.begin));
    }
    return s;
  }

  /// Crash -> first survivor detection. `asof` (usually the run end)
  /// right-censors incidents whose end milestone never happened: a crash
  /// that was *never* detected still contributes `asof - crashed_at`
  /// instead of silently vanishing from the summary.
  Summary detection_latency_seconds(SimTime asof) const {
    return span([](const FaultIncident& i) { return i.detected_at; },
                [](const FaultIncident& i) { return i.crashed_at; }, asof);
  }
  /// Crash -> delegations redistributed, or the node restarted, whichever
  /// came first: the window in which the dead node's territory has no
  /// authority at all. (A restart inside the detection + grace window
  /// cancels the pending takeover.)
  Summary unavailability_seconds(SimTime asof) const {
    return span(
        [](const FaultIncident& i) {
          return std::min(i.takeover_at, i.restarted_at);  // kUnset is max
        },
        [](const FaultIncident& i) { return i.crashed_at; }, asof);
  }
  /// Restart -> journal replay finished (the node serves again).
  Summary recovery_time_seconds(SimTime asof) const {
    return span([](const FaultIncident& i) { return i.rejoined_at; },
                [](const FaultIncident& i) { return i.restarted_at; }, asof);
  }

 private:
  // Rejoin (replay done) and re-mark-up (peers hear heartbeats again)
  // race freely — whichever lands second completes the lifecycle.
  static void maybe_close(FaultIncident& inc) {
    if (inc.has(inc.rejoined_at) && inc.has(inc.remarked_up_at)) {
      inc.open = false;
    }
  }

  /// The most recent record in `v` that `match` accepts, or null. A node
  /// has at most one open record of each sort, and it is the most recent.
  template <typename Record, typename Match>
  static Record* last(std::vector<Record>& v, Match match) {
    const auto it = std::find_if(v.rbegin(), v.rend(), match);
    return it == v.rend() ? nullptr : &*it;
  }

  FaultIncident* open_incident(MdsId node) {
    FaultIncident* inc = last(
        incidents_, [node](const FaultIncident& i) { return i.node == node; });
    return inc != nullptr && inc->open ? inc : nullptr;
  }

  Episode* last_episode(Episode::Kind kind, MdsId node) {
    return last(episodes_, [kind, node](const Episode& e) {
      return e.kind == kind && e.node == node;
    });
  }

  template <typename End, typename Begin>
  Summary span(End end, Begin begin, SimTime asof) const {
    Summary s;
    for (const FaultIncident& i : incidents_) {
      SimTime e = end(i);
      const SimTime b = begin(i);
      if (!i.has(b)) continue;  // milestone chain never started: nothing
      // Right-censor: the end milestone hadn't happened by `asof` (the
      // incident ran past the end of the run). Report the observed lower
      // bound rather than dropping the incident from the summary.
      if (!i.has(e)) e = asof;
      if (e == FaultIncident::kUnset || e < b) continue;
      s.add(to_seconds(e - b));
    }
    return s;
  }

  /// Sheds further apart than this belong to separate overload episodes.
  static constexpr SimTime kQuietGap = kSecond;

  std::vector<FaultIncident> incidents_;
  std::vector<Episode> episodes_;
};

}  // namespace mdsim
