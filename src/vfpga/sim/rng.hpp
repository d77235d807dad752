// Deterministic random number generation for the simulator.
//
// xoshiro256++ (Blackman & Vigna): fast, high-quality, and — unlike
// std::mt19937 — guaranteed to produce identical streams on every
// platform and standard library, which we need for reproducible
// experiment output. SplitMix64 seeds it and derives independent child
// streams so each (driver, payload) experiment cell gets its own RNG and
// parallel sweeps stay deterministic regardless of thread scheduling.
#pragma once

#include <array>

#include "vfpga/common/types.hpp"

namespace vfpga::sim {

/// SplitMix64: seed expander / stream splitter.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(u64 seed) : state_(seed) {}

  constexpr u64 next() {
    u64 z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  u64 state_;
};

/// Element `index` of the SplitMix64 stream seeded with `base`, in O(1):
/// the decorrelated seed of child `index` (trial, cell, run) of one
/// base seed. Linear in `base` before the mix, so
/// derive_seed(b + k·γ, i) == derive_seed(b, k + i) with γ the golden
/// increment.
[[nodiscard]] constexpr u64 derive_seed(u64 base, u64 index) {
  return SplitMix64{base + index * 0x9e3779b97f4a7c15ull}.next();
}

/// xoshiro256++ engine. Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = u64;

  /// Seed via SplitMix64 per the reference implementation's guidance.
  explicit Xoshiro256(u64 seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() noexcept {
    const u64 result = rotl(s_[0] + s_[3], 23) + s_[0];
    const u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  u64 uniform_below(u64 bound) noexcept;

  /// Raw engine state, for snapshot/restore — a restored engine must
  /// continue the exact stream the source would have produced.
  [[nodiscard]] const std::array<u64, 4>& state() const noexcept {
    return s_;
  }
  void set_state(const std::array<u64, 4>& s) noexcept { s_ = s; }

 private:
  static constexpr u64 rotl(u64 x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<u64, 4> s_{};
};

}  // namespace vfpga::sim
