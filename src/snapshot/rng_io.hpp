#pragma once
// Archive layout of common::Pcg32 state — every subsystem that owns a
// generator (trace dynamics, the lossy channel, ...) checkpoints it the
// same way: raw state + increment + the Box–Muller cache.

#include "common/rng.hpp"
#include "snapshot/archive.hpp"

namespace sheriff::snapshot {

inline void checkpoint_rng(Archive& ar, common::Pcg32::State& s) {
  ar.u64(s.state);
  ar.u64(s.inc);
  ar.boolean(s.has_cached_normal);
  ar.f64(s.cached_normal);
}

inline void checkpoint_rng(Archive& ar, common::Pcg32& rng) {
  common::Pcg32::State s = rng.state();
  checkpoint_rng(ar, s);
  if (ar.loading()) rng.restore(s);
}

}  // namespace sheriff::snapshot
