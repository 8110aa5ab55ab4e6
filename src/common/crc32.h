// CRC-32 (IEEE 802.3 polynomial, reflected) for durable-state integrity:
// WAL record checksums and the artifact footer of every durable file
// (common/file_io.h). Chosen over the 64-bit mixers in common/hash.h
// because CRC32 is the conventional storage checksum (detects torn/partial
// writes, not adversaries) and its value is stable across platforms and
// releases — it is written to disk.
#ifndef QSTEER_COMMON_CRC32_H_
#define QSTEER_COMMON_CRC32_H_

#include <array>
#include <cstdint>
#include <cstddef>
#include <string_view>

namespace qsteer {

namespace internal {
constexpr std::array<uint32_t, 256> MakeCrc32Table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}
inline constexpr std::array<uint32_t, 256> kCrc32Table = MakeCrc32Table();
}  // namespace internal

/// Incremental update: feed `crc` = 0 for the first chunk, the previous
/// return value for subsequent chunks.
inline uint32_t Crc32Update(uint32_t crc, const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    c = internal::kCrc32Table[(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

inline uint32_t Crc32(std::string_view data) {
  return Crc32Update(0, data.data(), data.size());
}

}  // namespace qsteer

#endif  // QSTEER_COMMON_CRC32_H_
