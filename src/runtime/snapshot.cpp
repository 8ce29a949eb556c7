#include "runtime/snapshot.hpp"

#include <array>
#include <cstdio>

namespace eecs::runtime {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) c = table[(c ^ byte) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

ByteWriter& SnapshotWriter::section(const std::string& name) {
  for (auto& [existing, writer] : sections_) {
    if (existing == name) return writer;
  }
  sections_.emplace_back(name, ByteWriter{});
  return sections_.back().second;
}

std::vector<std::uint8_t> SnapshotWriter::finish() const {
  ByteWriter out;
  out.write_u32(kSnapshotMagic);
  out.write_u32(kSnapshotVersion);
  out.write_u32(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, writer] : sections_) {
    out.write_string(name);
    out.write_u32(static_cast<std::uint32_t>(writer.size()));
    out.write_u32(crc32(writer.bytes()));
    out.write_bytes(writer.bytes());
  }
  return out.take();
}

SnapshotReader::SnapshotReader(std::span<const std::uint8_t> data) {
  try {
    ByteReader reader(data);
    if (reader.read_u32() != kSnapshotMagic) throw SnapshotError("snapshot: bad magic");
    // Another version's sections may encode differently, and an older one
    // cannot show that its config matches this build's record.
    const std::uint32_t version = reader.read_u32();
    if (version != kSnapshotVersion) {
      throw SnapshotError("snapshot: version " + std::to_string(version) +
                          " is not this build's version " + std::to_string(kSnapshotVersion));
    }
    const std::uint32_t count = reader.read_u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::string name = reader.read_string();
      const std::uint32_t length = reader.read_u32();
      const std::uint32_t expected_crc = reader.read_u32();
      if (length > reader.remaining()) {
        throw SnapshotError("snapshot: section '" + name + "' length exceeds file size");
      }
      std::vector<std::uint8_t> payload(length);
      for (std::uint32_t b = 0; b < length; ++b) payload[b] = reader.read_u8();
      if (crc32(payload) != expected_crc) {
        throw SnapshotError("snapshot: section '" + name + "' CRC mismatch");
      }
      // SnapshotWriter never repeats a name, so a repeat is corruption.
      if (!sections_.emplace(name, std::move(payload)).second) {
        throw SnapshotError("snapshot: section '" + name + "' appears twice");
      }
    }
    if (reader.remaining() != 0) throw SnapshotError("snapshot: bytes past the last section");
  } catch (const ByteReader::DecodeError&) {
    throw SnapshotError("snapshot: truncated container framing");
  }
}

ByteReader SnapshotReader::open(const std::string& name) const {
  const auto it = sections_.find(name);
  if (it == sections_.end()) throw SnapshotError("snapshot: missing section '" + name + "'");
  return ByteReader(it->second);
}

std::vector<std::string> SnapshotReader::names() const {
  std::vector<std::string> out;
  out.reserve(sections_.size());
  for (const auto& [name, payload] : sections_) out.push_back(name);
  return out;
}

void write_snapshot_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) throw SnapshotError("snapshot: cannot open '" + path + "' for writing");
  const std::size_t written = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != bytes.size() || !closed) {
    throw SnapshotError("snapshot: short write to '" + path + "'");
  }
}

std::vector<std::uint8_t> read_snapshot_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) throw SnapshotError("snapshot: cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 4096> chunk;
  std::size_t got = 0;
  while ((got = std::fread(chunk.data(), 1, chunk.size(), file)) > 0) {
    bytes.insert(bytes.end(), chunk.begin(), chunk.begin() + static_cast<std::ptrdiff_t>(got));
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) throw SnapshotError("snapshot: read error on '" + path + "'");
  return bytes;
}

}  // namespace eecs::runtime
