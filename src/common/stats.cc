#include "common/stats.h"

#include <cassert>

namespace mdsim {

void Summary::add(double x) {
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Summary::merge(const Summary& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double nb = static_cast<double>(other.count_);
  const double n = static_cast<double>(count_) + nb;
  mean_ += (other.mean_ - mean_) * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

LogHistogram::LogHistogram(double min_value, double max_value,
                           int buckets_per_decade)
    : min_value_(min_value) {
  assert(min_value > 0 && max_value > min_value && buckets_per_decade > 0);
  log_min_ = std::log10(min_value);
  log_step_ = 1.0 / buckets_per_decade;
  inv_log_step_ = buckets_per_decade;
  const double decades = std::log10(max_value) - log_min_;
  counts_.assign(
      static_cast<std::size_t>(std::ceil(decades * buckets_per_decade)) + 2,
      0);
}

std::size_t LogHistogram::bucket_for(double value) const {
  if (value <= min_value_) return 0;
  const double idx = (std::log10(value) - log_min_) * inv_log_step_;
  const std::size_t i = static_cast<std::size_t>(idx) + 1;
  return std::min(i, counts_.size() - 1);
}

double LogHistogram::bucket_lower(std::size_t i) const {
  if (i == 0) return 0.0;
  return std::pow(10.0, log_min_ + static_cast<double>(i - 1) * log_step_);
}

void LogHistogram::add(double value, std::uint64_t count) {
  counts_[bucket_for(value)] += count;
  total_ += count;
  sum_ += value * static_cast<double>(count);
}

void LogHistogram::merge(const LogHistogram& other) {
  assert(counts_.size() == other.counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
  sum_ += other.sum_;
}

double LogHistogram::percentile(double p) const {
  if (total_ == 0) return 0.0;
  const double target = static_cast<double>(total_) * p / 100.0;
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    // Empty buckets must not satisfy `cum >= target`: with p == 0 the
    // target is 0 and an empty bottom bucket would otherwise report
    // 0.5 * min_value even when every sample is far above it. Percentiles
    // are only ever reported from occupied buckets.
    if (counts_[i] == 0) continue;
    cum += static_cast<double>(counts_[i]);
    if (cum >= target) {
      const double lo = bucket_lower(i);
      // The last bucket is the overflow clamp — it has no meaningful upper
      // edge, so report its lower bound rather than a midpoint beyond
      // max_value (matters for percentile(100) with out-of-range samples).
      if (i + 1 == counts_.size()) return lo;
      // Midpoint of the bucket in log space.
      const double hi = bucket_lower(i + 1);
      return lo > 0 ? std::sqrt(lo * hi) : hi * 0.5;
    }
  }
  return bucket_lower(counts_.size() - 1);
}

double TimeSeries::mean_in(SimTime t0, SimTime t1, bool include_end) const {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const Point& p : points_) {
    if (p.time >= t0 && (p.time < t1 || (include_end && p.time == t1))) {
      sum += p.value;
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double TimeSeries::max_value() const {
  double m = 0.0;
  for (const Point& p : points_) m = std::max(m, p.value);
  return m;
}

}  // namespace mdsim
