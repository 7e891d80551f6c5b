// Binary wire codec: a compact, explicitly specified encoding so pmcast
// messages can cross real sockets (the simulator passes shared pointers,
// but a deployment serializes). Varint-coded integers, IEEE-754 doubles in
// little-endian byte order, length-prefixed strings.
//
// Decoding is defensive: every read is bounds-checked and malformed input
// raises DecodeError (never UB) — decoders are fed by the network.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace pmc {

class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what)
      : std::runtime_error("wire decode error: " + what) {}
};

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  /// LEB128-style varint (7 bits per byte, high bit = continue).
  void varint(std::uint64_t v);
  /// Zig-zag varint for signed values.
  void svarint(std::int64_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s);
  /// Appends bytes already encoded.
  void raw(std::span<const std::uint8_t> bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

  const std::vector<std::uint8_t>& data() const noexcept { return out_; }
  std::vector<std::uint8_t> take() && { return std::move(out_); }
  std::size_t size() const noexcept { return out_.size(); }
  /// Empties the buffer and keeps its capacity.
  void clear() noexcept { out_.clear(); }

 private:
  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint64_t varint();
  std::int64_t svarint();
  double f64();
  bool boolean();
  std::string str();
  /// Reads past a string with the checks str() makes, keeping nothing.
  void skip_str();

  bool exhausted() const noexcept { return pos_ == data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  /// The bytes read since `from`, a reader of the same input.
  std::span<const std::uint8_t> read_since(const Reader& from) const {
    return data_.subspan(from.pos_, pos_ - from.pos_);
  }
  /// Throws DecodeError unless all input was consumed.
  void expect_end() const;

 private:
  void need(std::size_t n) const;
  /// A string's length prefix, checked against the input left.
  std::size_t str_length();

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace pmc
