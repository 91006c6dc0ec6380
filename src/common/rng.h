// Deterministic, seedable random number generation for workload synthesis.
//
// Every stochastic choice in the repository flows through Rng so that traces, benches and
// property tests are reproducible run-to-run. ZipfianGenerator implements the YCSB-style
// zipfian distribution used for the Memcached and KVS workloads (§7).
#ifndef MIND_SRC_COMMON_RNG_H_
#define MIND_SRC_COMMON_RNG_H_

#include <cassert>
#include <cmath>
#include <cstdint>

#include "src/common/phase_guard.h"

namespace mind {

// xoshiro256** by Blackman & Vigna — fast, high-quality, tiny state.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // SplitMix64 seeding, as recommended by the xoshiro authors.
    uint64_t z = seed;
    for (auto& s : state_) {
      z += 0x9e3779b97f4a7c15ull;
      uint64_t w = z;
      w = (w ^ (w >> 30)) * 0xbf58476d1ce4e5b9ull;
      w = (w ^ (w >> 27)) * 0x94d049bb133111ebull;
      s = w ^ (w >> 31);
    }
  }

  // Draws are legal only on serialized (clock, thread)-ordered paths — never inside a
  // parallel phase (docs/determinism.md). The static side is tools/detlint.py; the
  // dynamic side is the debug assertion below, so the two checks agree on where draws
  // are allowed.
  MIND_SERIALIZED_PATH uint64_t Next() {
    MIND_ASSERT_SERIALIZED_CONTEXT();
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound).
  MIND_SERIALIZED_PATH uint64_t NextBelow(uint64_t bound) {
    assert(bound > 0);
    return Next() % bound;
  }

  // Uniform double in [0, 1).
  MIND_SERIALIZED_PATH double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  // Bernoulli draw.
  MIND_SERIALIZED_PATH bool NextBool(double p_true) { return NextDouble() < p_true; }

 private:
  static constexpr uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

// Zipfian-distributed integers in [0, n) with skew theta (YCSB uses theta = 0.99).
// Implementation follows Gray et al., "Quickly Generating Billion-Record Synthetic
// Databases" — the same derivation YCSB's ZipfianGenerator uses.
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta = 0.99)
      : n_(n), one_cutoff_(1.0 + std::pow(0.5, theta)) {
    assert(n > 0);
    zetan_ = Zeta(n, theta);
    zeta2_ = Zeta(2, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2_ / zetan_);
  }

  MIND_SERIALIZED_PATH uint64_t Next(Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) {
      return 0;
    }
    if (uz < one_cutoff_) {
      return 1;
    }
    const auto v = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return v >= n_ ? n_ - 1 : v;
  }

  [[nodiscard]] uint64_t n() const { return n_; }

 private:
  static double Zeta(uint64_t n, double theta) {
    double sum = 0.0;
    for (uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }

  uint64_t n_;
  double one_cutoff_;  // uz below this (and >= 1) draws item 1: 1 + 0.5^theta.
  double zetan_;
  double zeta2_;
  double alpha_;
  double eta_;
};

}  // namespace mind

#endif  // MIND_SRC_COMMON_RNG_H_
