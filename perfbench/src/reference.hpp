#pragma once
// The benchmark's yardstick for host speed. On a shared machine the speed
// of the host drifts — CPU steal, frequency changes, busy neighbours — and
// that drift moves every host time by more than a code change would. A fixed
// kernel that lives in the benchmark, not in the engine, runs in short
// chunks between rounds, on the thread that runs the rounds, and measures
// the drift in the same process and at the same moments: a host time is
// scaled by kReferenceChunkNs over the local median time of one chunk, so
// it reads as the time at a fixed reference speed.

#include <cstdint>

namespace perfbench {

/// Nominal host time of one chunk: about its median on a calm 4-vCPU
/// x86-64 Xeon VM, so scaled times read close to raw ones there.
inline constexpr double kReferenceChunkNs = 170'000.0;

/// Runs one reference chunk on the calling thread and returns its host
/// time in nanoseconds. A chunk does what slows the engine's rounds when
/// the host is busy: 1000 branchy binary searches in a 64 KiB sorted table
/// (core and L2) and 1000 dependent loads around a 4 MiB ring (L3). Both
/// tables are first read untimed, so the time does not depend on what the
/// engine's last round left in the caches. On a 4-vCPU VM the chunk's time
/// tracked the run-to-run drift of the drill's round times closely
/// (correlation 0.94 over 14 runs of one seed), where a register-only
/// kernel missed most of it.
std::uint64_t reference_chunk_ns();

}  // namespace perfbench
