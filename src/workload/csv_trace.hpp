#pragma once
// CSV trace import: drive VM workload dynamics or the predictors with
// *real* measured traces instead of the synthetic generators — the hook a
// production adopter uses to replace our ZopleCloud stand-ins with their
// own monitoring exports.

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "workload/trace_generator.hpp"

namespace sheriff::wl {

/// Reads one numeric column from CSV text. `column` selects by 0-based
/// index; a non-numeric first row is treated as a header and skipped.
/// Throws RequirementError on malformed numeric cells or a missing column.
std::vector<double> read_csv_column(std::istream& is, std::size_t column = 0);

/// Convenience: load from a file path.
std::vector<double> read_csv_column_file(const std::string& path, std::size_t column = 0);

/// A TraceGenerator that replays a recorded series. `loop` controls what
/// happens at the end: wrap around (periodic replay) or hold the last
/// value.
class ReplayTraceGenerator final : public TraceGenerator {
 public:
  explicit ReplayTraceGenerator(std::vector<double> samples, bool loop = true);
  double next() override;
  void checkpoint(snapshot::Archive& ar) override;

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }

 private:
  std::vector<double> samples_;
  std::size_t position_ = 0;
  bool loop_;
};

}  // namespace sheriff::wl
