// Versioned, CRC-checked snapshot container used by checkpoint/resume. A
// snapshot is a flat sequence of named sections, each carrying an opaque
// payload framed through common/bytes: decoders for individual sections stay
// ordinary ByteReader code while the container handles integrity (per-section
// CRC32), versioning (a file of any other version is rejected), unique
// section names, and bounds checking (a corrupt length prefix throws instead
// of reading out of bounds or allocating gigabytes). The container carries
// sections that no caller opens; a caller that knows every section of its
// version, as SimulationCheckpoint::decode does, refuses them through
// names().
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace eecs::runtime {

/// Typed rejection of an unreadable snapshot: bad magic, another version,
/// truncated framing, a repeated section name, bytes past the last section,
/// CRC mismatch, or a malformed section payload (ByteReader::DecodeError is
/// rethrown as this type by the decoders).
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// IEEE 802.3 CRC32 (reflected, polynomial 0xEDB88320) over a byte span.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// "ECSS" little-endian — EECS snapshot container.
inline constexpr std::uint32_t kSnapshotMagic = 0x53534345;
/// Bumped whenever the framing or any section's encoding changes, which
/// includes any change to the checkpoint's field lists or its config record.
/// SnapshotReader accepts this version only.
inline constexpr std::uint32_t kSnapshotVersion = 5;

/// Builds a snapshot: open sections in any order, fill each through the
/// returned ByteWriter, then finish() to frame the container.
class SnapshotWriter {
 public:
  /// Begin (or reopen) a section; bytes written through the returned writer
  /// become the section payload. Section names must be unique.
  ByteWriter& section(const std::string& name);

  /// Frame all sections into the container byte layout:
  ///   magic u32 | version u32 | count u32 |
  ///   per section: name string | payload length u32 | crc32 u32 | payload.
  [[nodiscard]] std::vector<std::uint8_t> finish() const;

 private:
  std::vector<std::pair<std::string, ByteWriter>> sections_;
};

/// Parses and validates a snapshot container. Construction checks magic,
/// version, framing bounds, unique section names, every section CRC and that
/// the file ends with its last section; section payloads are copied out so
/// the reader does not borrow the input buffer.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::span<const std::uint8_t> data);

  /// ByteReader over a section payload; SnapshotError if the section is
  /// missing (a truncated writer or a file from before the section existed).
  [[nodiscard]] ByteReader open(const std::string& name) const;

  /// Every section's name, in name order.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::map<std::string, std::vector<std::uint8_t>> sections_;
};

/// Whole-file helpers; both throw SnapshotError on I/O failure.
void write_snapshot_file(const std::string& path, std::span<const std::uint8_t> bytes);
[[nodiscard]] std::vector<std::uint8_t> read_snapshot_file(const std::string& path);

}  // namespace eecs::runtime
