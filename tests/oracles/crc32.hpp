#pragma once
// CRC-32 one byte at a time: the cross-check of snapshot::detail::crc32,
// whose slicing-by-8 loop must return this value on every range.

#include <cstddef>
#include <cstdint>

namespace sheriff::oracle {

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320, initial value and final
/// xor 0xFFFFFFFF) through the 256-entry byte table, one byte per step.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t size) noexcept;

}  // namespace sheriff::oracle
