#include "wire/codec.hpp"

#include <bit>
#include <cstring>

namespace pmc {

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::svarint(std::int64_t v) {
  // Zig-zag: small magnitudes of either sign stay small on the wire.
  varint((static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63));
}

void Writer::f64(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i)
    out_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

void Writer::str(const std::string& s) {
  varint(s.size());
  out_.insert(out_.end(), s.begin(), s.end());
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw DecodeError("truncated input");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) throw DecodeError("varint too long");
    const std::uint8_t byte = u8();
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

std::int64_t Reader::svarint() {
  const std::uint64_t raw = varint();
  return static_cast<std::int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
}

double Reader::f64() {
  need(8);
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i)
    bits |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return std::bit_cast<double>(bits);
}

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw DecodeError("bad boolean");
  return v == 1;
}

std::size_t Reader::str_length() {
  const std::uint64_t len = varint();
  if (len > remaining()) throw DecodeError("string length beyond input");
  return static_cast<std::size_t>(len);
}

std::string Reader::str() {
  const std::size_t len = str_length();
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

void Reader::skip_str() { pos_ += str_length(); }

void Reader::expect_end() const {
  if (!exhausted()) throw DecodeError("trailing bytes");
}

}  // namespace pmc
