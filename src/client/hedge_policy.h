// Client-side hedged reads: knobs, the adaptive per-op-class tail
// estimator, and the hedge trigger/target computations.
//
// Like retry_policy.h, this holds the protocol's math; the client cohort
// (client/cohort.h) drives it, and test_hedge_parity pins its races and
// timing. The protocol: after issuing a read-only op, the client arms a hedge timer at an
// adaptive delay tracking that op class's ~p99 latency (NOT the fixed
// request_timeout — the whole point is to fire while the op is merely
// slow, long before it is presumed lost). If the primary has not answered
// by then, one backup copy of the request — same req_id — goes to a
// different node; whichever reply arrives first wins, and the loser fails
// the client's req_id-match check and is discarded as a stale reply.
//
// Zero-cost-off: with hedging disabled (or before the estimator has seen
// min_samples completions of a class) the issue path takes the ordinary
// timeout-arming branch, makes no extra RNG draws, and schedules nothing.
#pragma once

#include "common/rng.h"
#include "common/types.h"

namespace mdsim {

/// Hedged-read knobs, plumbed through SimConfig like ClientRetryParams.
struct HedgeParams {
  /// Master switch. Off: issue paths are byte-identical to pre-hedging.
  bool enabled = false;
  /// Floor on the hedge trigger delay: never hedge earlier than this,
  /// however fast the estimated tail (guards against hedging every op
  /// when the whole cluster is uniformly fast).
  SimTime min_delay = 2 * kMillisecond;
  /// Hedge trigger = delay_factor × the op class's tail estimate.
  double delay_factor = 1.0;
  /// Completions of an op class required before hedging it (the
  /// estimator must have something to estimate).
  std::uint32_t min_samples = 32;
};

/// Streaming tail-latency estimator, one cell per op class. The update is
/// the classic asymmetric-step quantile tracker: an estimate q moves up
/// by q/16 when a sample exceeds it and down by q/2048 otherwise, so at
/// equilibrium P(sample > q) ≈ (1/2048)/(1/16 + 1/2048) ≈ 0.008 — q sits
/// near the class's p99. Integer-only, no RNG, no allocations: identical
/// across thread counts by construction.
struct HedgeEstimator {
  SimTime q[kNumOpTypes] = {};
  std::uint32_t n[kNumOpTypes] = {};

  /// Feed one successful completion's end-to-end latency.
  void observe(OpType op, SimTime latency) {
    const auto i = static_cast<std::size_t>(op);
    SimTime& est = q[i];
    if (est == 0) {
      est = latency + latency / 2;  // seed above the first sample
    } else if (latency > est) {
      est += est / 16 > 0 ? est / 16 : 1;
    } else {
      est -= est / 2048 > 0 ? est / 2048 : 1;
    }
    ++n[i];
  }

  /// Hedge trigger delay for `op`, or 0 when this op must not hedge
  /// (class not warmed up yet, or the estimate is so close to the retry
  /// timeout that the hedge would never fire before it).
  SimTime delay(OpType op, const HedgeParams& p, SimTime request_timeout) const {
    const auto i = static_cast<std::size_t>(op);
    if (n[i] < p.min_samples) return 0;
    SimTime d = static_cast<SimTime>(p.delay_factor *
                                     static_cast<double>(q[i]));
    if (d < p.min_delay) d = p.min_delay;
    if (d >= request_timeout) return 0;
    return d;
  }
};

/// Backup-target pick: uniform over the other nodes. Exactly one RNG draw.
/// (The backup may itself forward to the slow
/// authority; that is fine — first reply wins either way, and a replica
/// holder answers locally.)
inline MdsId hedge_pick_backup(MdsId primary, int num_mds, Rng& rng) {
  const MdsId off = static_cast<MdsId>(
      rng.uniform(static_cast<std::uint64_t>(num_mds - 1)));
  return off >= primary ? static_cast<MdsId>(off + 1) : off;
}

/// True when `op` is eligible for hedging at all: read-only (a duplicated
/// update would double-apply), a *point* read (a hedged readdir at a node
/// that lacks the complete directory triggers a whole-directory disk
/// fill — duplicating the one bulk read class turns the backup into a
/// disk storm at a healthy node), and a first attempt (retries already
/// spray randomly; hedging them would double the pressure exactly when
/// the cluster is sick).
constexpr bool hedge_eligible(OpType op, int attempts) {
  return !op_is_update(op) && op != OpType::kReaddir && attempts == 0;
}

}  // namespace mdsim
