#pragma once
// Versioned, endian-stable binary serialization for checkpoint/restore.
//
// A snapshot archive is a fixed preamble followed by a sequence of
// *sections*. Each section is framed as
//
//   u32 magic | 4-byte tag | u32 version | u64 payload bytes | u32 crc32 | payload
//
// so a reader can (a) verify it is looking at the section it expects,
// (b) reject version skew loudly, and (c) detect truncation or bit rot
// before interpreting a single payload byte. All integers are serialized
// little-endian byte by byte regardless of host order; doubles round-trip
// exactly via their IEEE-754 bit pattern (NaNs and signed zeros included),
// which is what makes save/resume runs bit-identical.
//
// Header-only on purpose: every library in the stack implements its own
// save_state()/load_state() hooks against Writer/Reader without linking a
// snapshot library (sheriff_snapshot, which sits at the top, only holds
// the engine-level Checkpoint wrapper).
//
// Failure policy: every malformed input throws SnapshotError with a
// diagnostic naming the section — never undefined behavior, never a
// silent partial load.

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sheriff::snapshot {

/// Raised on any malformed, truncated, corrupt, or version-skewed input.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over a byte range.
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFU] ^ (crc >> 8U);
  }
  return crc ^ 0xFFFFFFFFU;
}

inline constexpr std::uint8_t kPreamble[8] = {'S', 'H', 'R', 'F', 'S', 'N', 'A', 'P'};
inline constexpr std::uint32_t kSectionMagic = 0x53484353U;  // "SCHS" little-endian

}  // namespace detail

/// Serializes sectioned state into an in-memory byte buffer. Usage:
///
///   Writer w;
///   w.begin_section("DEPL", 1);
///   w.put_u64(...); ...
///   w.end_section();
///   ... more sections ...
///   const std::vector<std::uint8_t>& bytes = w.buffer();
class Writer {
 public:
  Writer() : buffer_(std::begin(detail::kPreamble), std::end(detail::kPreamble)) {}

  /// Opens a section. `tag` must be exactly 4 characters; sections may not
  /// nest. The version is the *section schema* version — bump it whenever
  /// the payload layout changes.
  void begin_section(std::string_view tag, std::uint32_t version) {
    if (tag.size() != 4) throw SnapshotError("section tag must be 4 characters: " + std::string(tag));
    if (open_) throw SnapshotError("begin_section inside an open section");
    open_ = true;
    raw_u32(detail::kSectionMagic);
    buffer_.insert(buffer_.end(), tag.begin(), tag.end());
    raw_u32(version);
    length_pos_ = buffer_.size();
    raw_u64(0);  // payload length, backpatched by end_section
    raw_u32(0);  // crc32, backpatched by end_section
    payload_pos_ = buffer_.size();
  }

  /// Closes the current section, backpatching payload length and CRC.
  void end_section() {
    if (!open_) throw SnapshotError("end_section without begin_section");
    open_ = false;
    const std::uint64_t length = buffer_.size() - payload_pos_;
    const std::uint32_t crc = detail::crc32(buffer_.data() + payload_pos_, length);
    patch_u64(length_pos_, length);
    patch_u32(length_pos_ + 8, crc);
  }

  // --- primitives (always inside a section) --------------------------------
  void put_u8(std::uint8_t v) { payload_byte(v); }
  void put_bool(bool v) { payload_byte(v ? 1 : 0); }
  void put_u32(std::uint32_t v) {
    require_open();
    raw_u32(v);
  }
  void put_u64(std::uint64_t v) {
    require_open();
    raw_u64(v);
  }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  /// Exact bit-pattern round-trip (std::bit_cast, not a decimal detour).
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_str(std::string_view s) {
    put_u64(s.size());
    require_open();
    buffer_.insert(buffer_.end(), s.begin(), s.end());
  }

  // --- vector helpers (u64 count + elements) --------------------------------
  void put_f64v(std::span<const double> v) {
    put_u64(v.size());
    for (double x : v) put_f64(x);
  }
  void put_u64v(std::span<const std::uint64_t> v) {
    put_u64(v.size());
    for (std::uint64_t x : v) put_u64(x);
  }
  void put_u32v(std::span<const std::uint32_t> v) {
    put_u64(v.size());
    for (std::uint32_t x : v) put_u32(x);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const {
    if (open_) throw SnapshotError("buffer() with an open section");
    return buffer_;
  }

 private:
  void require_open() const {
    if (!open_) throw SnapshotError("write outside a section");
  }
  void payload_byte(std::uint8_t v) {
    require_open();
    buffer_.push_back(v);
  }
  void raw_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void raw_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void patch_u32(std::size_t pos, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buffer_[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  void patch_u64(std::size_t pos, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buffer_[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  std::vector<std::uint8_t> buffer_;
  bool open_ = false;
  std::size_t length_pos_ = 0;
  std::size_t payload_pos_ = 0;
};

/// Deserializes an archive produced by Writer. Sections are consumed
/// strictly in order; enter_section verifies magic, tag, and payload CRC
/// up front and returns the stored section version so the caller can
/// reject skew with a precise diagnostic (or use expect_section, which
/// does the rejection for you).
class Reader {
 public:
  explicit Reader(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {
    if (bytes_.size() < sizeof(detail::kPreamble) ||
        std::memcmp(bytes_.data(), detail::kPreamble, sizeof(detail::kPreamble)) != 0) {
      throw SnapshotError("not a sheriff snapshot (bad preamble)");
    }
    pos_ = sizeof(detail::kPreamble);
  }

  /// Opens the next section, which must carry `tag`; returns its version.
  /// Throws on truncation, tag mismatch, or CRC mismatch.
  std::uint32_t enter_section(std::string_view tag) {
    if (in_section_) throw SnapshotError("enter_section inside an open section");
    const std::uint32_t magic = raw_u32("section header of '" + std::string(tag) + "'");
    if (magic != detail::kSectionMagic) {
      throw SnapshotError("corrupt archive: bad section magic where section '" +
                          std::string(tag) + "' was expected");
    }
    char found[5] = {};
    for (char& c : std::span(found, 4)) c = static_cast<char>(raw_u8("section tag"));
    if (tag != std::string_view(found, 4)) {
      throw SnapshotError("section order mismatch: expected '" + std::string(tag) +
                          "', found '" + std::string(found, 4) + "'");
    }
    const std::uint32_t version = raw_u32("section version");
    const std::uint64_t length = raw_u64("section length");
    const std::uint32_t stored_crc = raw_u32("section crc");
    if (length > bytes_.size() - pos_) {
      throw SnapshotError("truncated archive: section '" + std::string(tag) + "' claims " +
                          std::to_string(length) + " payload bytes, only " +
                          std::to_string(bytes_.size() - pos_) + " remain");
    }
    const std::uint32_t crc = detail::crc32(bytes_.data() + pos_, length);
    if (crc != stored_crc) {
      throw SnapshotError("corrupt archive: CRC mismatch in section '" + std::string(tag) + "'");
    }
    in_section_ = true;
    section_tag_ = std::string(tag);
    section_end_ = pos_ + length;
    return version;
  }

  /// enter_section + hard version check: rejects any other version as
  /// forward/backward skew (payload layouts are not self-describing).
  void expect_section(std::string_view tag, std::uint32_t version) {
    const std::uint32_t found = enter_section(tag);
    if (found != version) {
      throw SnapshotError("version skew in section '" + std::string(tag) + "': archive has v" +
                          std::to_string(found) + ", this build reads v" +
                          std::to_string(version));
    }
  }

  /// Closes the current section; every payload byte must have been read.
  void leave_section() {
    if (!in_section_) throw SnapshotError("leave_section without enter_section");
    if (pos_ != section_end_) {
      throw SnapshotError("section '" + section_tag_ + "' has " +
                          std::to_string(section_end_ - pos_) + " unread payload bytes");
    }
    in_section_ = false;
  }

  /// True once every byte of the archive has been consumed.
  [[nodiscard]] bool at_end() const noexcept { return !in_section_ && pos_ == bytes_.size(); }

  // --- primitives -----------------------------------------------------------
  std::uint8_t get_u8() { return payload_u8(); }
  bool get_bool() { return payload_u8() != 0; }
  std::uint32_t get_u32() {
    bounds_check(4);
    return raw_u32("u32");
  }
  std::uint64_t get_u64() {
    bounds_check(8);
    return raw_u64("u64");
  }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64() { return std::bit_cast<double>(get_u64()); }
  std::string get_str() {
    const std::uint64_t n = get_u64();
    bounds_check(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// Reads an element count and pre-validates count*size against the
  /// remaining payload so a corrupt count cannot trigger a huge allocation
  /// (overflow-safe: the division form cannot wrap).
  std::uint64_t counted(std::uint64_t element_size) {
    const std::uint64_t n = get_u64();
    if (!in_section_) throw SnapshotError("read outside a section");
    if (element_size > 0 && n > (section_end_ - pos_) / element_size) {
      throw SnapshotError("corrupt count in section '" + section_tag_ + "': " +
                          std::to_string(n) + " elements of " + std::to_string(element_size) +
                          " bytes exceed the payload");
    }
    return n;
  }

  // --- vector helpers -------------------------------------------------------
  std::vector<double> get_f64v() {
    const std::uint64_t n = counted(8);
    std::vector<double> v(n);
    for (double& x : v) x = get_f64();
    return v;
  }
  std::vector<std::uint64_t> get_u64v() {
    const std::uint64_t n = counted(8);
    std::vector<std::uint64_t> v(n);
    for (std::uint64_t& x : v) x = get_u64();
    return v;
  }
  std::vector<std::uint32_t> get_u32v() {
    const std::uint64_t n = counted(4);
    std::vector<std::uint32_t> v(n);
    for (std::uint32_t& x : v) x = get_u32();
    return v;
  }

 private:
  void bounds_check(std::uint64_t need) const {
    if (!in_section_) throw SnapshotError("read outside a section");
    if (need > section_end_ - pos_) {
      throw SnapshotError("truncated payload in section '" + section_tag_ + "': need " +
                          std::to_string(need) + " bytes, " +
                          std::to_string(section_end_ - pos_) + " remain");
    }
  }
  std::uint8_t payload_u8() {
    bounds_check(1);
    return bytes_[pos_++];
  }
  std::uint8_t raw_u8(const std::string& what) {
    if (pos_ >= bytes_.size()) throw SnapshotError("truncated archive: unexpected end in " + what);
    return bytes_[pos_++];
  }
  std::uint32_t raw_u32(const std::string& what) {
    if (bytes_.size() - pos_ < 4) {
      throw SnapshotError("truncated archive: unexpected end in " + what);
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t raw_u64(const std::string& what) {
    if (bytes_.size() - pos_ < 8) {
      throw SnapshotError("truncated archive: unexpected end in " + what);
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    return v;
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool in_section_ = false;
  std::string section_tag_;
  std::size_t section_end_ = 0;
};

}  // namespace sheriff::snapshot
