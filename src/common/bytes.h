// Core byte-string and key-value record types shared by every layer.
//
// The framework is type-erased at the record level, like Hadoop's
// Writable-based pipeline: keys and values travel as byte strings, and user
// code (or the typed adapters in codec.h) is responsible for encoding.
// Keeping records as bytes is what makes the communication accounting in
// net/ and dfs/ byte-accurate.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace imr {

// Owned byte string. std::string is used deliberately: it has the small
// buffer optimization, is hashable, and comparisons are lexicographic,
// which the sort/shuffle layers rely on (codecs are order-preserving).
using Bytes = std::string;
using BytesView = std::string_view;

// One record flowing through the system.
struct KV {
  Bytes key;
  Bytes value;

  KV() = default;
  KV(Bytes k, Bytes v) : key(std::move(k)), value(std::move(v)) {}

  // Wire size of this record: used by the cost model and traffic counters.
  // 8 bytes of framing approximates the length prefixes on the wire.
  std::size_t wire_size() const { return key.size() + value.size() + 8; }

  friend bool operator==(const KV& a, const KV& b) {
    return a.key == b.key && a.value == b.value;
  }
  friend bool operator<(const KV& a, const KV& b) {
    return a.key != b.key ? a.key < b.key : a.value < b.value;
  }
};

using KVVec = std::vector<KV>;

// Converts an unsigned word between host order and big-endian (the byte
// order of the fixed-width codecs and of key prefixes). An involution, so
// the same call loads and stores.
template <typename U>
inline U big_endian(U v) {
  if constexpr (std::endian::native == std::endian::big || sizeof(U) == 1) {
    return v;
  } else if constexpr (sizeof(U) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(U) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

// First 8 bytes of a key as a big-endian integer, zero-padded on the right.
// Because the codecs are order-preserving, comparing prefixes compares keys:
// prefix(a) < prefix(b) implies a < b lexicographically (a pad byte only ties
// with a real 0x00 byte, and ties fall back to the length and then a full
// compare). The sort and join fast paths use this to replace most
// byte-string compares with one integer compare. Short keys load in 4/2/1
// byte pieces, so no length ever goes through a byte loop or a libc call.
inline uint64_t key_prefix_u64(BytesView key) {
  const char* d = key.data();
  const std::size_t n = key.size();
  if (n >= 8) {
    uint64_t w;
    std::memcpy(&w, d, 8);
    return big_endian(w);
  }
  uint64_t p = 0;
  std::size_t off = 0;
  if (n & 4) {
    uint32_t w;
    std::memcpy(&w, d, 4);
    p = static_cast<uint64_t>(big_endian(w)) << 32;
    off = 4;
  }
  if (n & 2) {
    uint16_t w;
    std::memcpy(&w, d + off, 2);
    p |= static_cast<uint64_t>(big_endian(w)) << (48 - 8 * off);
    off += 2;
  }
  if (n & 1) {
    p |= static_cast<uint64_t>(static_cast<unsigned char>(d[off]))
         << (56 - 8 * off);
  }
  return p;
}

// Total wire size of a batch of records.
inline std::size_t wire_size(const KVVec& kvs) {
  std::size_t n = 0;
  for (const KV& kv : kvs) n += kv.wire_size();
  return n;
}

}  // namespace imr
