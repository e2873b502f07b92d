#pragma once
// LossyChannel: the unreliable transport under the distributed
// REQUEST/ACK protocol. Every deliver() is an independent Bernoulli trial
// from an explicitly seeded Pcg32 — deterministic per (seed, call
// sequence), so lossy runs replay exactly. The protocol draws in a fixed
// order (mailbox delivery, then commit), so the draw sequence is a
// function of the run.

#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"

namespace sheriff::fault {

class LossyChannel {
 public:
  /// drop_probability in [0, 1]; 0 = reliable.
  explicit LossyChannel(double drop_probability = 0.0, std::uint64_t seed = 2015)
      : drop_probability_(drop_probability), rng_(seed, 0x5e1f0ffULL) {}

  /// True when the message arrives; false = lost (counted).
  bool deliver() {
    if (drop_probability_ <= 0.0) return true;
    if (rng_.bernoulli(drop_probability_)) {
      ++drops_;
      return false;
    }
    return true;
  }

  [[nodiscard]] bool lossless() const noexcept { return drop_probability_ <= 0.0; }
  [[nodiscard]] std::size_t drops() const noexcept { return drops_; }

  /// Checkpointable state: the Bernoulli stream position + loss tally.
  /// (Plain accessors, not archive hooks, so this header stays free of the
  /// snapshot dependency.)
  struct State {
    common::Pcg32::State rng;
    std::uint64_t drops = 0;
  };
  [[nodiscard]] State state() const noexcept { return {rng_.state(), drops_}; }
  void restore(const State& s) noexcept {
    rng_.restore(s.rng);
    drops_ = static_cast<std::size_t>(s.drops);
  }

 private:
  double drop_probability_;
  common::Pcg32 rng_;
  std::size_t drops_ = 0;
};

}  // namespace sheriff::fault
