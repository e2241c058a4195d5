#include "common/codec.h"

#include <bit>
#include <cstring>

namespace imr {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw FormatError(what);
}

// Fixed-width big-endian words move whole: one byte swap and one append
// (encode) or one memcpy (decode), never a loop over bytes. `nbytes` is 4 or
// 8; the value sits in the low `nbytes` bytes of `v`.
void put_be(uint64_t v, int nbytes, Bytes& out) {
  const uint64_t be = big_endian(v << (64 - 8 * nbytes));
  char buf[8];
  std::memcpy(buf, &be, 8);
  out.append(buf, static_cast<std::size_t>(nbytes));
}

uint64_t get_be(BytesView in, std::size_t& pos, int nbytes) {
  require(pos + static_cast<std::size_t>(nbytes) <= in.size(),
          "buffer underflow in fixed-width decode");
  uint64_t raw = 0;
  std::memcpy(&raw, in.data() + pos, static_cast<std::size_t>(nbytes));
  pos += static_cast<std::size_t>(nbytes);
  return big_endian(raw) >> (64 - 8 * nbytes);
}

// One-shot fixed-width value; it fits the small-string buffer, so building
// it allocates nothing.
Bytes be_bytes(uint64_t v, int nbytes) {
  Bytes b;
  put_be(v, nbytes, b);
  return b;
}

uint64_t f64_order_bits(double v) {
  uint64_t bits = std::bit_cast<uint64_t>(v);
  // Standard order-preserving transform for IEEE-754.
  if (bits >> 63) {
    bits = ~bits;  // negative: flip everything
  } else {
    bits |= (1ull << 63);  // positive: set sign bit
  }
  return bits;
}

}  // namespace

void encode_u32(uint32_t v, Bytes& out) { put_be(v, 4, out); }
void encode_u64(uint64_t v, Bytes& out) { put_be(v, 8, out); }

void encode_i64(int64_t v, Bytes& out) {
  // Flip the sign bit so negative < positive in byte order.
  put_be(static_cast<uint64_t>(v) ^ (1ull << 63), 8, out);
}

void encode_f64(double v, Bytes& out) { put_be(f64_order_bits(v), 8, out); }

uint32_t decode_u32(BytesView in, std::size_t& pos) {
  return static_cast<uint32_t>(get_be(in, pos, 4));
}

uint64_t decode_u64(BytesView in, std::size_t& pos) {
  return get_be(in, pos, 8);
}

int64_t decode_i64(BytesView in, std::size_t& pos) {
  return static_cast<int64_t>(get_be(in, pos, 8) ^ (1ull << 63));
}

double decode_f64(BytesView in, std::size_t& pos) {
  uint64_t bits = get_be(in, pos, 8);
  if (bits >> 63) {
    bits &= ~(1ull << 63);
  } else {
    bits = ~bits;
  }
  return std::bit_cast<double>(bits);
}

Bytes u32_key(uint32_t v) { return be_bytes(v, 4); }
Bytes u64_key(uint64_t v) { return be_bytes(v, 8); }
Bytes f64_value(double v) { return be_bytes(f64_order_bits(v), 8); }

uint32_t as_u32(BytesView b) {
  std::size_t pos = 0;
  uint32_t v = decode_u32(b, pos);
  require(pos == b.size(), "trailing bytes after u32");
  return v;
}

uint64_t as_u64(BytesView b) {
  std::size_t pos = 0;
  uint64_t v = decode_u64(b, pos);
  require(pos == b.size(), "trailing bytes after u64");
  return v;
}

double as_f64(BytesView b) {
  std::size_t pos = 0;
  double v = decode_f64(b, pos);
  require(pos == b.size(), "trailing bytes after f64");
  return v;
}

void encode_varint(uint64_t v, Bytes& out) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

uint64_t decode_varint(BytesView in, std::size_t& pos) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    require(pos < in.size(), "buffer underflow in varint");
    require(shift < 64, "varint too long");
    unsigned char b = static_cast<unsigned char>(in[pos++]);
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
  }
}

void encode_bytes(BytesView b, Bytes& out) {
  encode_varint(b.size(), out);
  out.append(b);
}

Bytes decode_bytes(BytesView in, std::size_t& pos) {
  return Bytes(decode_bytes_view(in, pos));
}

BytesView decode_bytes_view(BytesView in, std::size_t& pos) {
  uint64_t n = decode_varint(in, pos);
  require(pos + n <= in.size(), "buffer underflow in bytes segment");
  BytesView v = in.substr(pos, n);
  pos += n;
  return v;
}

void encode_f64_vec(const std::vector<double>& v, Bytes& out) {
  encode_varint(v.size(), out);
  for (double d : v) encode_f64(d, out);
}

std::vector<double> decode_f64_vec(BytesView in, std::size_t& pos) {
  uint64_t n = decode_varint(in, pos);
  std::vector<double> v;
  v.reserve(n);
  for (uint64_t i = 0; i < n; ++i) v.push_back(decode_f64(in, pos));
  return v;
}

void encode_wedges(const std::vector<WEdge>& edges, Bytes& out) {
  encode_varint(edges.size(), out);
  for (const WEdge& e : edges) {
    encode_u32(e.dst, out);
    encode_f64(e.weight, out);
  }
}

std::vector<WEdge> decode_wedges(BytesView in) {
  std::size_t pos = 0;
  uint64_t n = decode_varint(in, pos);
  std::vector<WEdge> edges;
  edges.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    WEdge e;
    e.dst = decode_u32(in, pos);
    e.weight = decode_f64(in, pos);
    edges.push_back(e);
  }
  require(pos == in.size(), "trailing bytes after edge list");
  return edges;
}

void encode_adj(const std::vector<uint32_t>& neighbors, Bytes& out) {
  encode_varint(neighbors.size(), out);
  for (uint32_t v : neighbors) encode_u32(v, out);
}

std::vector<uint32_t> decode_adj(BytesView in) {
  std::size_t pos = 0;
  uint64_t n = decode_varint(in, pos);
  std::vector<uint32_t> adj;
  adj.reserve(n);
  for (uint64_t i = 0; i < n; ++i) adj.push_back(decode_u32(in, pos));
  require(pos == in.size(), "trailing bytes after adjacency list");
  return adj;
}

}  // namespace imr
