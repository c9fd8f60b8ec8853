// Deterministic random number generation for the simulator.
//
// Every stochastic component of the simulation draws from its own Rng
// stream, seeded from a master seed plus a stream id, so that runs are
// reproducible and components are statistically independent.
#pragma once

#include <cstdint>
#include <vector>

namespace mdsim {

/// SplitMix64: used to expand seeds into xoshiro state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — fast, high-quality, 2^256-1 period PRNG.
/// Satisfies the UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9b1a2c3d4e5f6071ULL);
  /// Derive an independent stream: seed ⊕ stream id through SplitMix64.
  Rng(std::uint64_t seed, std::uint64_t stream);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform in [0, n). n must be > 0. Uses rejection to avoid modulo bias.
  std::uint64_t uniform(std::uint64_t n);
  /// Uniform in [0, 1).
  double uniform_double();
  /// True with probability p.
  bool bernoulli(double p);
  /// Exponentially distributed with the given mean.
  double exponential(double mean);
  /// Pareto with scale xm and shape alpha.
  double pareto(double xm, double alpha);

 private:
  std::uint64_t s_[4];
};

/// Zipf(s, n) sampler over {0, 1, ..., n-1} using the rejection-inversion
/// method of Hörmann & Derflinger; O(1) per sample after O(1) setup.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  std::size_t operator()(Rng& rng) const;

  std::size_t n() const { return n_; }
  double s() const { return s_; }

 private:
  double h(double x) const;
  double h_inv(double x) const;

  std::size_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double c_;  // normalizer for the rejection test
};

/// Discrete distribution with alias-table O(1) sampling. Weights need not
/// be normalized. Suited to op-mix tables sampled millions of times.
class AliasTable {
 public:
  explicit AliasTable(const std::vector<double>& weights);

  std::size_t operator()(Rng& rng) const;
  std::size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

}  // namespace mdsim
