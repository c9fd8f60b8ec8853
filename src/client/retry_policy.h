// Client-side retry policy: timeout/backoff knobs, the shared backoff
// computation, and the per-client retry budget.
//
// The client cohort (client/cohort.h) implements the retry protocol with
// the timeout, backoff, and jitter math kept here (test_retry_parity pins
// the resulting attempt patterns and pacing). The budget implements
// gRPC-style retry throttling: successes earn fractional tokens, each
// retry spends a whole one, and a dry budget fails the operation fast
// instead of feeding a retry storm.
#pragma once

#include <algorithm>

#include "common/rng.h"
#include "common/types.h"

namespace mdsim {

/// Retry-budget knobs. Disabled by default: the stock client retries
/// unconditionally, which is exactly the behavior the overload bench's
/// "protection off" arm needs to reproduce.
struct RetryBudgetParams {
  bool enabled = false;
  /// Tokens earned per successful reply (gRPC uses 0.1: retries are
  /// throttled to ~10% of the success rate once the budget is spent).
  double ratio = 0.1;
  /// Token cap; also the initial balance, so a cold client can ride out
  /// a short blip before throttling engages.
  double cap = 8.0;
};

/// All client retry knobs, plumbed from SimConfig / MdsParams so benches
/// can sweep them.
struct ClientRetryParams {
  SimTime request_timeout = 5 * kSecond;
  SimTime backoff_base = 250 * kMillisecond;
  SimTime backoff_cap = 2 * kSecond;
  RetryBudgetParams budget;
};

/// Backoff before retry number `attempts` (1-based): exponential in the
/// attempt count, capped, with ±50% decorrelating jitter. Exactly one RNG
/// draw.
inline SimTime retry_backoff_delay(const ClientRetryParams& p, int attempts,
                                   Rng& rng) {
  const int shift = attempts - 1 < 6 ? attempts - 1 : 6;
  SimTime d = p.backoff_base << shift;
  if (d > p.backoff_cap) d = p.backoff_cap;
  return d / 2 + static_cast<SimTime>(rng.uniform_double() *
                                      static_cast<double>(d / 2));
}

/// Delay before honoring a server's Rejected{retry_after}: the server's
/// hint plus up to +50% jitter so a cohort of rejected clients does not
/// return as a synchronized thundering herd. One RNG draw.
inline SimTime rejected_retry_delay(SimTime retry_after, Rng& rng) {
  return retry_after + static_cast<SimTime>(rng.uniform_double() *
                                            static_cast<double>(retry_after / 2));
}

/// Per-client retry budget. Pure arithmetic, no RNG, no time — identical
/// across thread counts by construction.
struct RetryBudget {
  double tokens = 0.0;

  void init(const RetryBudgetParams& p) { tokens = p.cap; }
  void earn(const RetryBudgetParams& p) {
    if (p.enabled) tokens = std::min(p.cap, tokens + p.ratio);
  }
  /// True if a retry may proceed (and the token is spent). With the
  /// budget disabled, always true and free.
  bool try_spend(const RetryBudgetParams& p) {
    if (!p.enabled) return true;
    if (tokens < 1.0) return false;
    tokens -= 1.0;
    return true;
  }
};

}  // namespace mdsim
