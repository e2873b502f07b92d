#pragma once
// Strict positional arguments for the examples: an argument is accepted
// only if all of it parses as a base-10 integer inside the example's
// range. Anything else prints the usage line and exits with status 2. An
// output file that cannot be written is reported and exits with status 1.

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

namespace sheriff::examples {

/// Prints the problem and the usage line to stderr and exits 2.
[[noreturn]] inline void usage_error(const char* program, std::string_view problem,
                                     std::string_view usage) {
  std::cerr << program << ": " << problem << "\nusage: " << program << ' ' << usage << '\n';
  std::exit(2);
}

/// Flushes `out`, the stream of output file `path`; when the stream has
/// failed, prints `<program>: cannot write <path>` to stderr and exits 1.
/// Call it right after opening the file, before the run, and again after
/// writing it.
inline void require_writable(const char* program, std::ostream& out, std::string_view path) {
  if (!out.flush()) {
    std::cerr << program << ": cannot write " << path << '\n';
    std::exit(1);
  }
}

/// argv[index] as an integer in [lo, hi], or `fallback` when it is absent.
/// Garbage, trailing characters, overflow or a value out of range is a
/// usage error.
template <typename T>
T positional(int argc, char** argv, int index, T fallback, T lo, T hi, std::string_view usage) {
  if (argc <= index) return fallback;
  const std::string_view text = argv[index];
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc{} && end == text.data() + text.size() && value >= lo && value <= hi) {
    return value;
  }
  usage_error(argv[0],
              "bad argument '" + std::string(text) + "' (expected an integer in [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "])",
              usage);
}

}  // namespace sheriff::examples
