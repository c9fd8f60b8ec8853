#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace mdsim {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) : Rng(seed, 0) {}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 sm(seed ^ (stream * 0xd2b74407b1ce6e93ULL + 0x8d1f3a2b));
  for (auto& s : s_) s = sm.next();
  // Avoid the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t n) {
  assert(n > 0);
  // Lemire's method with rejection for unbiased bounded integers.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < n) {
    std::uint64_t t = -n % n;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform_double() {
  // 53 uniform mantissa bits.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) { return uniform_double() < p; }

double Rng::exponential(double mean) {
  double u;
  do {
    u = uniform_double();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::pareto(double xm, double alpha) {
  double u;
  do {
    u = uniform_double();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

// ---------------------------------------------------------------------------
// ZipfSampler (rejection-inversion, Hörmann & Derflinger 1996).
// Samples k in [1, n] with P(k) ∝ k^-s, returned shifted to [0, n).
// ---------------------------------------------------------------------------

ZipfSampler::ZipfSampler(std::size_t n, double s) : n_(n), s_(s) {
  assert(n >= 1);
  assert(s >= 0.0);
  h_x1_ = h(1.5) - 1.0;
  h_n_ = h(static_cast<double>(n) + 0.5);
  c_ = 2.0 - h_inv(h(2.5) - std::pow(2.0, -s_));
}

double ZipfSampler::h(double x) const {
  // Integral of x^-s: handles s == 1 via log.
  if (std::abs(s_ - 1.0) < 1e-12) return std::log(x);
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfSampler::h_inv(double x) const {
  if (std::abs(s_ - 1.0) < 1e-12) return std::exp(x);
  return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

std::size_t ZipfSampler::operator()(Rng& rng) const {
  if (n_ == 1) return 0;
  while (true) {
    const double u = h_n_ + rng.uniform_double() * (h_x1_ - h_n_);
    const double x = h_inv(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) k = 1.0;
    if (k > static_cast<double>(n_)) k = static_cast<double>(n_);
    if (k - x <= c_ || u >= h(k + 0.5) - std::pow(k, -s_)) {
      return static_cast<std::size_t>(k) - 1;
    }
  }
}

// ---------------------------------------------------------------------------
// AliasTable (Vose's method).
// ---------------------------------------------------------------------------

AliasTable::AliasTable(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  assert(n > 0);
  prob_.resize(n);
  alias_.resize(n);
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);

  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }
  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;  // numerical leftovers
}

std::size_t AliasTable::operator()(Rng& rng) const {
  const std::size_t i = rng.uniform(prob_.size());
  return rng.uniform_double() < prob_[i] ? i : alias_[i];
}

}  // namespace mdsim
