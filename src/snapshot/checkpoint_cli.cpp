#include "snapshot/checkpoint_cli.hpp"

#include <stdexcept>
#include <string_view>

namespace sheriff::snapshot {

namespace {

/// Matches `--flag value` / `--flag=value`; on a hit, fills `value` and
/// reports how many argv slots were consumed (0 = no match).
int match_flag(std::string_view flag, int argc, char** argv, int i, std::string& value) {
  const std::string_view arg = argv[i];
  if (arg == flag) {
    if (i + 1 >= argc) throw std::invalid_argument(std::string(flag) + " needs a value");
    value = argv[i + 1];
    return 2;
  }
  if (arg.size() > flag.size() + 1 && arg.substr(0, flag.size()) == flag &&
      arg[flag.size()] == '=') {
    value = std::string(arg.substr(flag.size() + 1));
    return 1;
  }
  return 0;
}

std::size_t parse_count(std::string_view flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const unsigned long long n = std::stoull(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return static_cast<std::size_t>(n);
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string(flag) + ": not a round count: " + value);
  }
}

}  // namespace

CheckpointCli parse_checkpoint_cli(int& argc, char** argv) {
  CheckpointCli cli;
  int out = 1;
  for (int i = 1; i < argc;) {
    std::string value;
    int used = match_flag("--checkpoint-every", argc, argv, i, value);
    if (used != 0) {
      cli.checkpoint_every = parse_count("--checkpoint-every", value);
      i += used;
      continue;
    }
    used = match_flag("--checkpoint-prefix", argc, argv, i, value);
    if (used != 0) {
      cli.checkpoint_prefix = value;
      i += used;
      continue;
    }
    used = match_flag("--resume", argc, argv, i, value);
    if (used != 0) {
      cli.resume_path = value;
      i += used;
      continue;
    }
    argv[out++] = argv[i++];
  }
  argc = out;
  return cli;
}

std::string checkpoint_path(const CheckpointCli& cli, std::size_t round) {
  return cli.checkpoint_prefix + ".round" + std::to_string(round) + ".snap";
}

}  // namespace sheriff::snapshot
