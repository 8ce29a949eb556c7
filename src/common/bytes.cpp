#include "common/bytes.hpp"

#include <bit>

namespace eecs {

void ByteWriter::write_u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

void ByteWriter::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

void ByteWriter::write_f32(float v) { write_u32(std::bit_cast<std::uint32_t>(v)); }

void ByteWriter::write_f64(double v) { write_u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::write_bytes(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::write_string(const std::string& s) {
  write_u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::write_f32_vector(std::span<const float> v) {
  write_u32(static_cast<std::uint32_t>(v.size()));
  for (float x : v) write_f32(x);
}

void ByteReader::require(std::size_t n) {
  if (remaining() < n) throw DecodeError("ByteReader: buffer underrun");
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::read_u16() {
  require(2);
  const std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::read_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
  pos_ += 8;
  return v;
}

float ByteReader::read_f32() { return std::bit_cast<float>(read_u32()); }

double ByteReader::read_f64() { return std::bit_cast<double>(read_u64()); }

std::string ByteReader::read_string() {
  const std::uint32_t n = read_u32();
  require(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<float> ByteReader::read_f32_vector() {
  const std::uint32_t n = read_u32();
  // Validate the length prefix against the remaining bytes before allocating,
  // so a corrupt prefix throws instead of attempting a multi-GiB allocation.
  require(static_cast<std::size_t>(n) * 4);
  std::vector<float> v(n);
  for (auto& x : v) x = read_f32();
  return v;
}

}  // namespace eecs
