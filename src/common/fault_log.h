// Failure-lifecycle incident log (paper section 4.6 made measurable).
//
// Every MDS crash opens an incident; the cluster and the nodes stamp the
// lifecycle milestones onto it as they happen: first detection by a
// survivor (missed heartbeats), takeover (delegations redistributed and
// the journal replayed by heirs), restart (process back, replaying its
// log), rejoin (replay finished, serving again) and re-mark-up (the first
// survivor that heard a heartbeat again). The summaries below derive
// detection latency, unavailability windows and recovery time from these
// stamps.
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

/// A node losing (and possibly regaining) its authority lease: the span
/// it spent self-fenced — not serving writes — because it could not hear
/// a quorum. Distinct from FaultIncident: the process is up the whole
/// time; the network partitioned it away.
struct FenceIncident {
  static constexpr SimTime kUnset = FaultIncident::kUnset;

  MdsId node = kInvalidMds;
  SimTime fenced_at = kUnset;
  SimTime unfenced_at = kUnset;
  bool open = true;
};

/// An MDS shedding load at admission. Consecutive sheds on one node are
/// coalesced into an episode: the episode stays open while sheds keep
/// arriving and closes after a quiet gap (no shed for kQuietGap). The
/// episode span approximates "time spent in overload" the way fence
/// incidents approximate time spent partitioned.
struct OverloadIncident {
  static constexpr SimTime kUnset = FaultIncident::kUnset;

  MdsId node = kInvalidMds;
  SimTime began_at = kUnset;
  SimTime last_shed_at = kUnset;
  std::uint64_t sheds = 0;
  bool open = true;
};

/// A peer observed to be gray-degraded: its health score (EWMA of
/// heartbeat lag + self-reported service lag) crossed the degraded
/// threshold at some MDS. Distinct from FaultIncident (the node is alive
/// and heartbeating) and from the *injection* record below: this is what
/// the detector saw, that is what was actually done to the node.
struct GrayIncident {
  static constexpr SimTime kUnset = FaultIncident::kUnset;

  MdsId node = kInvalidMds;
  SimTime degraded_at = kUnset;
  SimTime recovered_at = kUnset;
  MdsId detected_by = kInvalidMds;  // first detector
  bool open = true;
};

/// Injection ground truth: the window in which a fail-slow fault was
/// actually installed on a node (ClusterSim::set_fail_slow). Benches
/// compare detected GrayIncidents against these.
struct FailSlowIncident {
  static constexpr SimTime kUnset = FaultIncident::kUnset;

  MdsId node = kInvalidMds;
  SimTime began_at = kUnset;
  SimTime cleared_at = kUnset;
  bool open = true;
};

class FaultLog {
 public:
  void note_crash(MdsId node, SimTime now) {
    // A re-crash closes any incident still open for the node.
    if (FaultIncident* inc = open_in(incidents_, node)) inc->open = false;
    FaultIncident fresh;
    fresh.node = node;
    fresh.crashed_at = now;
    incidents_.push_back(fresh);
  }

  void note_detection(MdsId node, MdsId by, SimTime now) {
    FaultIncident* inc = open_in(incidents_, node);
    if (inc == nullptr || inc->has(inc->detected_at)) return;
    inc->detected_at = now;
    inc->detected_by = by;
  }

  void note_takeover(MdsId node, SimTime now) {
    FaultIncident* inc = open_in(incidents_, node);
    if (inc == nullptr || inc->has(inc->takeover_at)) return;
    inc->takeover_at = now;
  }

  void note_restart(MdsId node, SimTime now) {
    FaultIncident* inc = open_in(incidents_, node);
    if (inc == nullptr || inc->has(inc->restarted_at)) return;
    inc->restarted_at = now;
  }

  void note_rejoin(MdsId node, SimTime now) {
    FaultIncident* inc = open_in(incidents_, node);
    if (inc == nullptr || inc->has(inc->rejoined_at)) return;
    inc->rejoined_at = now;
    maybe_close(*inc);
  }

  void note_marked_up(MdsId node, SimTime now) {
    FaultIncident* inc = open_in(incidents_, node);
    if (inc == nullptr || inc->has(inc->remarked_up_at)) return;
    inc->remarked_up_at = now;
    maybe_close(*inc);
  }

  void note_fenced(MdsId node, SimTime now) {
    if (open_in(fences_, node) != nullptr) return;
    FenceIncident f;
    f.node = node;
    f.fenced_at = now;
    fences_.push_back(f);
  }

  void note_unfenced(MdsId node, SimTime now) {
    FenceIncident* f = open_in(fences_, node);
    if (f == nullptr) return;
    f->unfenced_at = now;
    f->open = false;
  }

  /// One admission-gate shed on `node`. Extends the node's open overload
  /// episode, or opens a new one after a quiet gap.
  void note_shed(MdsId node, SimTime now) {
    OverloadIncident* inc = open_in(overloads_, node);
    if (inc != nullptr && now - inc->last_shed_at > kQuietGap) {
      inc->open = false;
      inc = nullptr;
    }
    if (inc == nullptr) {
      OverloadIncident fresh;
      fresh.node = node;
      fresh.began_at = now;
      overloads_.push_back(fresh);
      inc = &overloads_.back();
    }
    inc->last_shed_at = now;
    ++inc->sheds;
  }

  /// First detector to see `node` cross the degraded threshold opens the
  /// incident; later detectors are no-ops while it stays open.
  void note_gray_degraded(MdsId node, MdsId by, SimTime now) {
    if (open_in(grays_, node) != nullptr) return;
    GrayIncident g;
    g.node = node;
    g.degraded_at = now;
    g.detected_by = by;
    grays_.push_back(g);
  }

  void note_gray_recovered(MdsId node, SimTime now) {
    GrayIncident* g = open_in(grays_, node);
    if (g == nullptr) return;
    g->recovered_at = now;
    g->open = false;
  }

  /// Injection bookkeeping (ClusterSim::set_fail_slow).
  void note_fail_slow(MdsId node, SimTime now) {
    if (open_in(fail_slows_, node) != nullptr) return;
    FailSlowIncident f;
    f.node = node;
    f.began_at = now;
    fail_slows_.push_back(f);
  }

  void note_fail_slow_cleared(MdsId node, SimTime now) {
    FailSlowIncident* f = open_in(fail_slows_, node);
    if (f == nullptr) return;
    f->cleared_at = now;
    f->open = false;
  }

  const std::vector<FaultIncident>& incidents() const { return incidents_; }
  const std::vector<FenceIncident>& fence_incidents() const { return fences_; }
  const std::vector<GrayIncident>& gray_incidents() const { return grays_; }
  const std::vector<FailSlowIncident>& fail_slow_incidents() const {
    return fail_slows_;
  }

  /// Total seconds peers were flagged gray-degraded, right-censoring
  /// incidents still open at `asof`.
  double gray_degraded_seconds(SimTime asof) const {
    return censored_seconds(grays_, &GrayIncident::degraded_at,
                            &GrayIncident::recovered_at, asof);
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

  /// Per-episode overload durations (first shed -> last shed of the
  /// episode). An episode with one shed contributes 0; a sustained storm
  /// contributes its whole span.
  Summary overload_episode_seconds() const {
    Summary s;
    for (const OverloadIncident& o : overloads_) {
      if (o.began_at == OverloadIncident::kUnset) continue;
      s.add(to_seconds(o.last_shed_at - o.began_at));
    }
    return s;
  }

  /// Total requests shed at admission, across all nodes and episodes.
  std::uint64_t total_sheds() const {
    std::uint64_t n = 0;
    for (const OverloadIncident& o : overloads_) n += o.sheds;
    return n;
  }

  /// Total seconds nodes spent self-fenced (minority-side write stall).
  /// Still-open fences are censored at `asof`.
  double minority_stall_seconds(SimTime asof) const {
    return censored_seconds(fences_, &FenceIncident::fenced_at,
                            &FenceIncident::unfenced_at, asof);
  }

 private:
  // Rejoin (replay done) and re-mark-up (peers hear heartbeats again)
  // race freely — whichever lands second completes the lifecycle.
  static void maybe_close(FaultIncident& inc) {
    if (inc.has(inc.rejoined_at) && inc.has(inc.remarked_up_at)) {
      inc.open = false;
    }
  }

  /// The node's most recent still-open incident in `v`, or null.
  template <typename Incident>
  static Incident* open_in(std::vector<Incident>& v, MdsId node) {
    for (auto it = v.rbegin(); it != v.rend(); ++it) {
      if (it->node == node && it->open) return &*it;
    }
    return nullptr;
  }

  /// Total seconds from `begin` to `end` over `v`, right-censoring
  /// still-open incidents at `asof`.
  template <typename Incident>
  static double censored_seconds(const std::vector<Incident>& v,
                                 SimTime Incident::*begin,
                                 SimTime Incident::*end, SimTime asof) {
    double total = 0.0;
    for (const Incident& i : v) {
      const SimTime e = i.open ? asof : i.*end;
      if (e == Incident::kUnset || e < i.*begin) continue;
      total += to_seconds(e - i.*begin);
    }
    return total;
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
  std::vector<FenceIncident> fences_;
  std::vector<OverloadIncident> overloads_;
  std::vector<GrayIncident> grays_;
  std::vector<FailSlowIncident> fail_slows_;
};

}  // namespace mdsim
