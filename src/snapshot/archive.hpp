#pragma once
// Versioned, endian-stable binary serialization for checkpoint/restore.
//
// A snapshot archive is a fixed preamble followed by a sequence of
// *sections*. Each section is framed as
//
//   u32 magic | 4-byte tag | u32 version | u64 payload bytes | u32 crc32 | payload
//
// so a loader can (a) verify it is looking at the section it expects,
// (b) reject version skew loudly, and (c) detect truncation or bit rot
// before interpreting a single payload byte. All integers are serialized
// little-endian byte by byte regardless of host order; doubles round-trip
// exactly via their IEEE-754 bit pattern (NaNs and signed zeros included),
// which is what makes save/resume runs bit-identical.
//
// The section CRC is CRC-32 (IEEE 802.3, reflected) computed eight bytes
// per step by a portable slicing-by-8 table loop (detail::crc32). It is
// the same function as the byte-at-a-time CRC, not a new checksum, so
// every archive, fleet manifest and results digest keeps its bytes; the
// tests check it against the byte loop (oracle::crc32_bytewise).
//
// One Archive both saves and loads. Built empty it saves; built over a
// byte buffer it loads. Every checkpointed type lists its fields once, in
// one `checkpoint(snapshot::Archive&)`:
//
//   void Thing::checkpoint(snapshot::Archive& ar) {
//     ar.u64(count_);    // saving writes count_, loading reads into it
//     ar.f64v(samples_);
//     if (ar.loading()) rebuild_index();
//   }
//
// so a field cannot be saved in one order and loaded in another. What
// differs by direction (recomputing derived state after a load, say)
// stays explicit under `if (ar.loading())`.
//
// Header-only on purpose: every library in the stack implements its own
// checkpoint() hook against Archive without linking a snapshot library
// (sheriff_snapshot, which sits at the top, only holds the engine-level
// Checkpoint wrapper).
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
#include <type_traits>
#include <utility>
#include <vector>

namespace sheriff::snapshot {

/// Raised on any malformed, truncated, corrupt, or version-skewed input.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

/// Slicing-by-8 tables: kCrc32Tables[0] is the classic byte table of the
/// reflected polynomial 0xEDB88320, and kCrc32Tables[k][b] is the CRC
/// register after byte b is followed by k zero bytes.
inline constexpr auto kCrc32Tables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8U) ^ t[0][t[k - 1][i] & 0xFFU];
  }
  return t;
}();

/// Bytes p[0..3] as a little-endian u32, whatever the host's byte order
/// (compilers fuse the four loads into one).
inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8U |
         static_cast<std::uint32_t>(p[2]) << 16U | static_cast<std::uint32_t>(p[3]) << 24U;
}

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320, initial value and final
/// xor 0xFFFFFFFF) over a byte range, eight bytes per step (slicing-by-8);
/// the tail runs through the byte table. The value is the byte-at-a-time
/// CRC's, bit for bit, on every host.
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept {
  const auto& t = kCrc32Tables;
  std::uint32_t crc = 0xFFFFFFFFU;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = crc ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    crc = t[7][lo & 0xFFU] ^ t[6][(lo >> 8U) & 0xFFU] ^ t[5][(lo >> 16U) & 0xFFU] ^
          t[4][lo >> 24U] ^ t[3][hi & 0xFFU] ^ t[2][(hi >> 8U) & 0xFFU] ^
          t[1][(hi >> 16U) & 0xFFU] ^ t[0][hi >> 24U];
  }
  for (; size > 0; ++data, --size) crc = t[0][(crc ^ *data) & 0xFFU] ^ (crc >> 8U);
  return crc ^ 0xFFFFFFFFU;
}

inline constexpr std::uint8_t kPreamble[8] = {'S', 'H', 'R', 'F', 'S', 'N', 'A', 'P'};
inline constexpr std::uint32_t kSectionMagic = 0x53484353U;  // "SCHS" little-endian

}  // namespace detail

/// What an integer field holds: an integer or an enum (doubles go through
/// Archive::f64, never through a width conversion).
template <typename T>
concept IntegerField = std::is_integral_v<T> || std::is_enum_v<T>;

/// A sectioned archive that either saves or loads. Usage:
///
///   Archive out;                         // saving
///   out.begin_section("DEPL", 1);
///   thing.checkpoint(out);
///   out.end_section();
///   ... more sections ...
///
///   Archive in(out.buffer());            // loading, sections in order
///   in.begin_section("DEPL", 1);         // throws on tag/CRC/version skew
///   fresh_thing.checkpoint(in);
///   in.end_section();                    // every payload byte was read
class Archive {
 public:
  /// An empty archive that saves.
  Archive() : bytes_(std::begin(detail::kPreamble), std::end(detail::kPreamble)) {}

  /// An archive that loads `bytes`, which must start with the preamble.
  explicit Archive(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)), loading_(true) {
    if (bytes_.size() < sizeof(detail::kPreamble) ||
        std::memcmp(bytes_.data(), detail::kPreamble, sizeof(detail::kPreamble)) != 0) {
      throw SnapshotError("not a sheriff snapshot (bad preamble)");
    }
    pos_ = sizeof(detail::kPreamble);
  }

  [[nodiscard]] bool loading() const noexcept { return loading_; }
  [[nodiscard]] bool saving() const noexcept { return !loading_; }

  // --- sections --------------------------------------------------------------

  /// Opens a section. `tag` must be exactly 4 characters; sections may not
  /// nest. The version is the *section schema* version — bump it whenever
  /// the payload layout changes. Loading opens the next section, which
  /// must carry `tag` and exactly `version` (payload layouts are not
  /// self-describing, so any other version is skew), and verifies its CRC
  /// before a payload byte is read.
  void begin_section(std::string_view tag, std::uint32_t version) {
    if (tag.size() != 4) throw SnapshotError("section tag must be 4 characters: " + std::string(tag));
    if (in_section_) throw SnapshotError("begin_section inside an open section");
    if (loading_) {
      enter_section(tag, version);
    } else {
      write(detail::kSectionMagic, 4);
      bytes_.insert(bytes_.end(), tag.begin(), tag.end());
      write(version, 4);
      length_pos_ = bytes_.size();
      write(0, 8);  // payload length, backpatched by end_section
      write(0, 4);  // crc32, backpatched by end_section
      payload_pos_ = bytes_.size();
    }
    in_section_ = true;
    section_tag_ = std::string(tag);
  }

  /// Closes the current section. Saving backpatches its payload length
  /// and CRC; loading requires that every payload byte has been read.
  void end_section() {
    if (!in_section_) throw SnapshotError("end_section without begin_section");
    if (loading_ && pos_ != section_end_) {
      throw SnapshotError("section '" + section_tag_ + "' has " +
                          std::to_string(section_end_ - pos_) + " unread payload bytes");
    }
    in_section_ = false;
    if (!loading_) {
      const std::uint64_t length = bytes_.size() - payload_pos_;
      patch(length_pos_, length, 8);
      patch(length_pos_ + 8, detail::crc32(bytes_.data() + payload_pos_, length), 4);
    }
  }

  /// Loading: true once every byte of the archive has been consumed.
  [[nodiscard]] bool at_end() const noexcept { return !in_section_ && pos_ == bytes_.size(); }

  /// Saving: the archive written so far.
  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const& {
    if (in_section_) throw SnapshotError("buffer() with an open section");
    return bytes_;
  }
  /// Saving: the finished archive, moved out of a spent Archive.
  [[nodiscard]] std::vector<std::uint8_t> buffer() && {
    if (in_section_) throw SnapshotError("buffer() with an open section");
    return std::move(bytes_);
  }

  // --- fields ------------------------------------------------------------------
  // Each field is written when saving and read back into the same lvalue
  // when loading. Integers and enums travel little-endian at the width the
  // method names, whatever their C++ type.

  template <IntegerField T>
  void u8(T& v) { integer<1>(v); }
  void boolean(bool& v) { integer<1>(v); }
  template <IntegerField T>
  void u32(T& v) { integer<4>(v); }
  template <IntegerField T>
  void u64(T& v) { integer<8>(v); }
  /// Two's complement in eight bytes.
  template <IntegerField T>
  void i64(T& v) { integer<8>(v); }
  /// Exact bit-pattern round-trip (std::bit_cast, not a decimal detour).
  void f64(double& v) {
    auto bits = std::bit_cast<std::uint64_t>(v);
    integer<8>(bits);
    if (loading_) v = std::bit_cast<double>(bits);
  }
  /// A u64 length, then the bytes.
  void str(std::string& s) {
    std::uint64_t n = s.size();
    integer<8>(n);
    if (loading_) {
      bounds_check(n);
      s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
      pos_ += n;
    } else {
      bytes_.insert(bytes_.end(), s.begin(), s.end());
    }
  }

  // --- vectors (u64 count + elements) ------------------------------------------
  void f64v(std::vector<double>& v) {
    counted(v, 8);
    for (double& x : v) f64(x);
  }
  template <IntegerField T>
  void u64v(std::vector<T>& v) {
    counted(v, 8);
    for (T& x : v) u64(x);
  }
  template <IntegerField T>
  void u32v(std::vector<T>& v) {
    counted(v, 4);
    for (T& x : v) u32(x);
  }

  // --- counts, fingerprints and checks ------------------------------------------

  /// An element count: saving writes `n`; loading reads it and checks
  /// n * element_size against the remaining payload, so a corrupt count
  /// cannot size a huge allocation (overflow-safe: the division form
  /// cannot wrap).
  void count(std::uint64_t& n, std::uint64_t element_size) {
    integer<8>(n);
    if (loading_ && element_size > 0 && n > (section_end_ - pos_) / element_size) {
      throw SnapshotError("corrupt count in section '" + section_tag_ + "': " +
                          std::to_string(n) + " elements of " + std::to_string(element_size) +
                          " bytes exceed the payload");
    }
  }

  /// A value the loading side already knows (a structural fingerprint, a
  /// constructor-sized count): saving writes it; loading reads it and
  /// throws `what` unless it equals `value`. Like the field methods, each
  /// names the width the value travels at, whatever its C++ type.
  template <IntegerField T>
  void expect_u8(T value, std::string_view what) { expected<1>(value, what); }
  void expect_bool(bool value, std::string_view what) { expected<1>(value, what); }
  template <IntegerField T>
  void expect_u64(T value, std::string_view what) { expected<8>(value, what); }

  /// Loading: throws `what` unless `ok`, for loaded values that must
  /// satisfy more than equality (a bound, a known enumerator).
  void check(bool ok, std::string_view what) const {
    if (loading_ && !ok) throw SnapshotError(std::string(what));
  }

 private:
  void enter_section(std::string_view tag, std::uint32_t version) {
    const std::uint32_t magic = static_cast<std::uint32_t>(
        raw(4, "section header of '" + std::string(tag) + "'"));
    if (magic != detail::kSectionMagic) {
      throw SnapshotError("corrupt archive: bad section magic where section '" +
                          std::string(tag) + "' was expected");
    }
    char found[5] = {};
    for (char& c : std::span(found, 4)) c = static_cast<char>(raw(1, "section tag"));
    if (tag != std::string_view(found, 4)) {
      throw SnapshotError("section order mismatch: expected '" + std::string(tag) +
                          "', found '" + std::string(found, 4) + "'");
    }
    const auto stored_version = static_cast<std::uint32_t>(raw(4, "section version"));
    const std::uint64_t length = raw(8, "section length");
    const auto stored_crc = static_cast<std::uint32_t>(raw(4, "section crc"));
    if (length > bytes_.size() - pos_) {
      throw SnapshotError("truncated archive: section '" + std::string(tag) + "' claims " +
                          std::to_string(length) + " payload bytes, only " +
                          std::to_string(bytes_.size() - pos_) + " remain");
    }
    if (detail::crc32(bytes_.data() + pos_, length) != stored_crc) {
      throw SnapshotError("corrupt archive: CRC mismatch in section '" + std::string(tag) + "'");
    }
    if (stored_version != version) {
      throw SnapshotError("version skew in section '" + std::string(tag) + "': archive has v" +
                          std::to_string(stored_version) + ", this build reads v" +
                          std::to_string(version));
    }
    section_end_ = pos_ + length;
  }

  /// Writes or reads `v` as `Bytes` little-endian bytes inside a section.
  template <int Bytes, typename T>
  void integer(T& v) {
    if (!in_section_) {
      throw SnapshotError(loading_ ? "read outside a section" : "write outside a section");
    }
    if (loading_) {
      bounds_check(Bytes);
      std::uint64_t x = 0;
      for (int i = 0; i < Bytes; ++i) x |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
      v = static_cast<T>(x);
    } else {
      write(static_cast<std::uint64_t>(v), Bytes);
    }
  }

  /// A value wider than `Bytes` never compares equal after a load.
  template <int Bytes, typename T>
  void expected(T value, std::string_view what) {
    const auto known = static_cast<std::uint64_t>(value);
    std::uint64_t stored = known;
    integer<Bytes>(stored);
    if (stored != known) throw SnapshotError(std::string(what));
  }

  /// The count of a vector field; loading resizes `v` to it.
  template <typename T>
  void counted(std::vector<T>& v, std::uint64_t element_size) {
    std::uint64_t n = v.size();
    count(n, element_size);
    if (loading_) v.resize(n);
  }

  void bounds_check(std::uint64_t need) const {
    if (need > section_end_ - pos_) {
      throw SnapshotError("truncated payload in section '" + section_tag_ + "': need " +
                          std::to_string(need) + " bytes, " +
                          std::to_string(section_end_ - pos_) + " remain");
    }
  }

  /// A frame field read outside any payload (section headers).
  std::uint64_t raw(int width, const std::string& what) {
    if (bytes_.size() - pos_ < static_cast<std::size_t>(width)) {
      throw SnapshotError("truncated archive: unexpected end in " + what);
    }
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    return v;
  }

  /// Appends `v` as `width` little-endian bytes, composed byte by byte
  /// and appended as one run.
  void write(std::uint64_t v, int width) {
    std::uint8_t le[8];
    for (int i = 0; i < width; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    bytes_.insert(bytes_.end(), le, le + width);
  }
  void patch(std::size_t pos, std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) bytes_[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  std::vector<std::uint8_t> bytes_;
  bool loading_ = false;
  bool in_section_ = false;
  std::string section_tag_;
  std::size_t pos_ = 0;          ///< loading: next byte to read
  std::size_t section_end_ = 0;  ///< loading: end of the open section's payload
  std::size_t length_pos_ = 0;   ///< saving: the open section's length field
  std::size_t payload_pos_ = 0;  ///< saving: the open section's first payload byte
};

}  // namespace sheriff::snapshot
