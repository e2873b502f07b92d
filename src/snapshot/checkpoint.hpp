#pragma once
// Engine-level checkpoint/restore (DESIGN.md §10). A checkpoint captures
// every piece of mutable cross-round state of a DistributedEngine; loading
// one into a *freshly constructed* engine over the same (topology,
// deployment options, config) continues the run bit-identically to one
// that never stopped — metrics CSV, trace summaries, and placement
// included. Structural mismatches and corrupt files throw SnapshotError.

#include <cstdint>
#include <string>
#include <vector>

namespace sheriff::core {

class DistributedEngine;

/// Static façade over DistributedEngine::checkpoint plus the file
/// framing. The in-memory pair exists so tests (and replay_bisect) can
/// round-trip without touching the filesystem. Saving takes a mutable
/// engine because one checkpoint walk both writes and reads fields; it
/// leaves the engine unchanged.
struct Checkpoint {
  /// Serializes `engine` into a self-contained archive buffer.
  [[nodiscard]] static std::vector<std::uint8_t> serialize(DistributedEngine& engine);
  /// Restores `engine` (freshly constructed, same inputs) from a buffer.
  static void deserialize(DistributedEngine& engine, std::vector<std::uint8_t> bytes);

  /// serialize() + atomic-ish write to `path` (write then rename is not
  /// needed here; a failed write throws before any partial file is kept).
  static void save(DistributedEngine& engine, const std::string& path);
  /// Reads `path` and deserializes into `engine`.
  static void load(DistributedEngine& engine, const std::string& path);
};

}  // namespace sheriff::core
