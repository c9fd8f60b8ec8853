// Lightweight statistics primitives used throughout the simulator:
// running summaries, log-bucketed latency histograms, exponentially decayed
// rates (the paper's popularity metric), and sampled time series.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.h"

namespace mdsim {

/// Running min/max/mean over double samples.
class Summary {
 public:
  void add(double x);
  void merge(const Summary& other);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Histogram with logarithmically spaced buckets; suited to latencies
/// spanning microseconds to seconds. Values are in arbitrary units.
class LogHistogram {
 public:
  /// Buckets cover [min_value, max_value] with `buckets_per_decade`
  /// log-spaced buckets per factor of 10.
  LogHistogram(double min_value = 1.0, double max_value = 1e10,
               int buckets_per_decade = 10);

  void add(double value, std::uint64_t count = 1);
  void merge(const LogHistogram& other);

  std::uint64_t total_count() const { return total_; }
  double percentile(double p) const;  // p in [0, 100]
  double mean() const { return total_ ? sum_ / static_cast<double>(total_) : 0.0; }

 private:
  std::size_t bucket_for(double value) const;
  double bucket_lower(std::size_t i) const;

  double min_value_;
  double log_min_;
  double inv_log_step_;
  double log_step_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// Exponentially decaying counter: the paper's popularity metric ("a simple
/// access counter whose value decays over time", section 4.4).
///
/// value(t) = value(t0) * 2^-((t - t0)/half_life). Decay is applied lazily
/// on read/update, so idle counters cost nothing.
class DecayCounter {
 public:
  /// Not explicit, so aggregates holding a counter (the cache's slab
  /// entries) can be reset with `T{}`.
  DecayCounter() : DecayCounter(5 * kSecond) {}
  explicit DecayCounter(SimTime half_life)
      : half_life_(half_life),
        inv_half_life_(1.0 / static_cast<double>(half_life)) {}

  void hit(SimTime now, double amount = 1.0) {
    decay_to(now);
    value_ += amount;
  }

  double get(SimTime now) const {
    const_cast<DecayCounter*>(this)->decay_to(now);
    return value_;
  }

  void reset() {
    value_ = 0.0;
    last_ = 0;
  }

  SimTime half_life() const { return half_life_; }

 private:
  void decay_to(SimTime now) {
    if (now <= last_) return;
    if (value_ != 0.0) {
      const double x = static_cast<double>(now - last_) * inv_half_life_;
      value_ *= exp2_neg(x);
    }
    last_ = now;
  }

  /// 2^-x for x >= 0. Hot counters are touched at intervals far below the
  /// half-life, where the libm exp2 call would dominate the whole update;
  /// a cubic expansion is exact to ~1e-10 relative there. Large gaps
  /// (idle counters decaying on their next touch) take the libm path.
  static double exp2_neg(double x) {
    if (x > 1.0 / 64.0) return std::exp2(-x);
    const double t = -0.6931471805599453 * x;  // ln 2
    return 1.0 + t * (1.0 + t * (0.5 + t * (1.0 / 6.0)));
  }

  SimTime half_life_;
  double inv_half_life_;
  SimTime last_ = 0;
  double value_ = 0.0;
};

/// A (time, value) series sampled by a periodic probe; backs the paper's
/// time plots (figures 5-7).
class TimeSeries {
 public:
  void record(SimTime t, double value) { points_.push_back({t, value}); }

  struct Point {
    SimTime time;
    double value;
  };

  const std::vector<Point>& points() const { return points_; }
  bool empty() const { return points_.empty(); }

  /// Mean of values with time in [t0, t1), or [t0, t1] when `include_end`
  /// is set. Consecutive interior windows must use the default half-open
  /// convention so a boundary sample is counted exactly once; the window
  /// that ends at the run end must pass `include_end = true`, because
  /// `Simulation::run_until(d)` fires events *at* d and the final metrics
  /// sample therefore lands exactly on the boundary.
  double mean_in(SimTime t0, SimTime t1, bool include_end = false) const;
  double max_value() const;

 private:
  std::vector<Point> points_;
};

}  // namespace mdsim
