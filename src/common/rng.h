#pragma once

/// \file rng.h
/// Deterministic, seedable random number generation. Every stochastic
/// component in the library draws from an explicitly passed Rng so that
/// experiments and tests are reproducible.

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <random>
#include <vector>

namespace rfp::common {

/// Thin wrapper around std::mt19937_64 with the distributions the library
/// needs. Copyable; copies continue the same stream independently.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedu) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int uniformInt(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Normal (Gaussian) sample.
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli trial with success probability \p p.
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Binomial sample: number of successes out of \p n trials of prob. \p p.
  int binomial(int n, double p) {
    return std::binomial_distribution<int>(n, p)(engine_);
  }

  /// Exponential sample with rate \p lambda.
  double exponential(double lambda) {
    return std::exponential_distribution<double>(lambda)(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// Derives an independent child generator; useful for handing separate
  /// deterministic streams to sub-components.
  Rng fork() { return Rng(engine_()); }

  /// Underlying engine, for interop with std distributions.
  std::mt19937_64& engine() { return engine_; }

  /// Writes the engine state as text. Together with loadState this gives a
  /// bit-exact continuation of the stream, which checkpoint/resume of
  /// training needs (distribution objects here are all stateless
  /// per-call, so the engine is the entire RNG state).
  void saveState(std::ostream& out) const { out << engine_; }

  /// Restores a state written by saveState.
  void loadState(std::istream& in) { in >> engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace rfp::common
