#pragma once
// Shared --checkpoint-every / --resume flag parsing for the examples: the
// flags, and the file a periodic save for a round lands at.

#include <cstddef>
#include <string>

namespace sheriff::snapshot {

/// Parsed checkpoint flags. Defaults mean "feature off": no periodic
/// saves, no resume.
struct CheckpointCli {
  std::size_t checkpoint_every = 0;  ///< save every N rounds (0 = never)
  std::string checkpoint_prefix = "checkpoint";  ///< files: <prefix>.round<N>.snap
  std::string resume_path;  ///< load this checkpoint before round one
};

/// Consumes `--checkpoint-every N`, `--checkpoint-prefix P`, and
/// `--resume PATH` from argv (both `--flag value` and `--flag=value`),
/// compacting recognized flags out so the caller's own parsing sees only
/// what is left. Throws std::invalid_argument on a malformed value.
CheckpointCli parse_checkpoint_cli(int& argc, char** argv);

/// The path a periodic save for `round` lands at.
[[nodiscard]] std::string checkpoint_path(const CheckpointCli& cli, std::size_t round);

}  // namespace sheriff::snapshot
