#pragma once
// Forward declaration of the snapshot archive, so subsystem headers can
// declare checkpoint() hooks without pulling the full archive
// implementation into every translation unit.

namespace sheriff::snapshot {
class Archive;
}  // namespace sheriff::snapshot
