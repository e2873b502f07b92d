#include "snapshot/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "core/engine.hpp"
#include "snapshot/archive.hpp"

namespace sheriff::core {

std::vector<std::uint8_t> Checkpoint::serialize(DistributedEngine& engine) {
  snapshot::Archive archive;
  engine.checkpoint(archive);
  return std::move(archive).buffer();
}

void Checkpoint::deserialize(DistributedEngine& engine, std::vector<std::uint8_t> bytes) {
  snapshot::Archive archive(std::move(bytes));
  engine.checkpoint(archive);
  if (!archive.at_end()) {
    throw snapshot::SnapshotError("trailing bytes after the last checkpoint section");
  }
}

void Checkpoint::save(DistributedEngine& engine, const std::string& path) {
  const std::vector<std::uint8_t> bytes = serialize(engine);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw snapshot::SnapshotError("cannot open checkpoint file for writing: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    out.close();
    std::remove(path.c_str());
    throw snapshot::SnapshotError("short write to checkpoint file: " + path);
  }
}

void Checkpoint::load(DistributedEngine& engine, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw snapshot::SnapshotError("cannot open checkpoint file: " + path);
  // Sized by the file system, not by seeking to the end: a directory opens
  // too, and its end offset (-1, or a hash cursor near 2^63 on ext4) is no
  // size to allocate.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) {
    throw snapshot::SnapshotError("cannot size checkpoint file " + path + ": " + error.message());
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0) in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
  if (!in) throw snapshot::SnapshotError("short read from checkpoint file: " + path);
  deserialize(engine, std::move(bytes));
}

}  // namespace sheriff::core
