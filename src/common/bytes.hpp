// Byte-level serialization used by the network substrate. Fixed little-endian
// wire format so message sizes (and therefore radio energy) are deterministic.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/contracts.hpp"

namespace eecs {

/// Append-only binary encoder.
class ByteWriter {
 public:
  void write_u8(std::uint8_t v) { buf_.push_back(v); }
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i32(std::int32_t v) { write_u32(static_cast<std::uint32_t>(v)); }
  void write_f32(float v);
  void write_f64(double v);
  void write_bytes(std::span<const std::uint8_t> bytes);
  void write_string(const std::string& s);
  void write_f32_vector(std::span<const float> v);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential binary decoder over a borrowed buffer. Throws DecodeError on
/// underrun so malformed messages are detected rather than read out of bounds.
class ByteReader {
 public:
  class DecodeError : public std::runtime_error {
   public:
    using std::runtime_error::runtime_error;
  };

  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32() { return static_cast<std::int32_t>(read_u32()); }
  float read_f32();
  double read_f64();
  std::string read_string();
  std::vector<float> read_f32_vector();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

 private:
  void require(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace eecs
