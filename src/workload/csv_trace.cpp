#include "workload/csv_trace.hpp"

#include <charconv>
#include <fstream>
#include <istream>
#include <sstream>

#include "common/require.hpp"
#include "snapshot/archive.hpp"

namespace sheriff::wl {

namespace {

/// Splits one CSV line (no quoted-comma support: monitoring exports are
/// plain numeric tables).
std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::stringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

bool parse_double(const std::string& text, double* out) {
  // Trim surrounding whitespace / CR.
  std::size_t begin = text.find_first_not_of(" \t\r");
  std::size_t end = text.find_last_not_of(" \t\r");
  if (begin == std::string::npos) return false;
  const std::string trimmed = text.substr(begin, end - begin + 1);
  char* parse_end = nullptr;
  const double value = std::strtod(trimmed.c_str(), &parse_end);
  if (parse_end != trimmed.c_str() + trimmed.size()) return false;
  *out = value;
  return true;
}

}  // namespace

std::vector<double> read_csv_column(std::istream& is, std::size_t column) {
  std::vector<double> out;
  std::string line;
  bool first = true;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const auto cells = split_csv_line(line);
    SHERIFF_REQUIRE(column < cells.size(),
                    "CSV line " + std::to_string(line_no) + " has no column " +
                        std::to_string(column));
    double value = 0.0;
    if (!parse_double(cells[column], &value)) {
      // A non-numeric first data row is a header; anything later is an error.
      SHERIFF_REQUIRE(first, "CSV line " + std::to_string(line_no) +
                                 ": non-numeric cell '" + cells[column] + "'");
      first = false;
      continue;
    }
    first = false;
    out.push_back(value);
  }
  return out;
}

std::vector<double> read_csv_column_file(const std::string& path, std::size_t column) {
  std::ifstream is(path);
  SHERIFF_REQUIRE(is.good(), "cannot open CSV file: " + path);
  return read_csv_column(is, column);
}

ReplayTraceGenerator::ReplayTraceGenerator(std::vector<double> samples, bool loop)
    : samples_(std::move(samples)), loop_(loop) {
  SHERIFF_REQUIRE(!samples_.empty(), "replay trace needs at least one sample");
}

double ReplayTraceGenerator::next() {
  const double value = samples_[position_];
  if (position_ + 1 < samples_.size()) {
    ++position_;
  } else if (loop_) {
    position_ = 0;
  }
  return value;
}

void ReplayTraceGenerator::checkpoint(snapshot::Archive& ar) {
  std::uint64_t position = position_;
  ar.u64(position);
  ar.check(position < samples_.size(), "replay position beyond the recorded trace");
  position_ = static_cast<std::size_t>(position);
}

}  // namespace sheriff::wl
