#pragma once

// Deterministic pseudo-random numbers: the simulator's one splitmix64. The
// simulator never consumes global randomness: every stochastic workload,
// perturbation stream and hash derives from a seed through mix64, so runs
// are reproducible bit-for-bit.

#include <cstdint>

namespace dcuda::sim {

// The splitmix64 output function: a stateless 64-bit mix, usable as a hash.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// The top 53 bits of `r` as a double uniform in [0, 1).
constexpr double to_unit(std::uint64_t r) {
  return static_cast<double>(r >> 11) * 0x1.0p-53;
}

// splitmix64 stream: the state advances by the golden-ratio step, and each
// output is mix64 of the new state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed) {}

  std::uint64_t next_u64() { return mix64(state_ += 0x9e3779b97f4a7c15ull); }

  // Uniform in [0, 1).
  double next_double() { return to_unit(next_u64()); }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

  // Uniform integer in [0, n).
  std::uint64_t next_below(std::uint64_t n) { return n ? next_u64() % n : 0; }

  // Uniform integer in [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

 private:
  std::uint64_t state_;
};

}  // namespace dcuda::sim
