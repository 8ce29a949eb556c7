#include "net/messages.hpp"

namespace eecs::net {

namespace {

void check_type(ByteReader& reader, MessageType expected) {
  const auto type = static_cast<MessageType>(reader.read_u8());
  if (type != expected) throw ByteReader::DecodeError("unexpected message type");
}

/// A decoded id indexes the detector bank downstream, so the wire may carry
/// only the ids the bank has.
std::uint8_t read_algorithm(ByteReader& reader) {
  const std::uint8_t id = reader.read_u8();
  if (id >= detect::kNumAlgorithms) throw ByteReader::DecodeError("algorithm id out of range");
  return id;
}

}  // namespace

std::vector<std::uint8_t> encode(const FeatureUploadMsg& msg) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(MessageType::FeatureUpload));
  w.write_i32(msg.camera_id);
  w.write_i32(msg.frame_index);
  w.write_i32(msg.feature_dim);
  w.write_f64(msg.energy_budget);
  w.write_f32_vector(msg.features);
  return w.take();
}

std::vector<std::uint8_t> encode(const DetectionMetadataMsg& msg) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(MessageType::DetectionMetadata));
  w.write_i32(msg.camera_id);
  w.write_i32(msg.frame_index);
  w.write_u8(msg.algorithm);
  w.write_u32(static_cast<std::uint32_t>(msg.objects.size()));
  for (const auto& obj : msg.objects) {
    w.write_u16(obj.x);
    w.write_u16(obj.y);
    w.write_u16(obj.w);
    w.write_u16(obj.h);
    w.write_f32(obj.probability);
    // Fixed-size color feature: exactly 40 floats (160 bytes) as in §V-A.
    EECS_EXPECTS(obj.color_feature.size() == 40);
    for (float v : obj.color_feature) w.write_f32(v);
  }
  return w.take();
}

std::vector<std::uint8_t> encode(const AlgorithmAssignmentMsg& msg) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(MessageType::AlgorithmAssignment));
  w.write_i32(msg.camera_id);
  w.write_u32(msg.sequence);
  w.write_u8(msg.algorithm);
  w.write_f64(msg.threshold);
  w.write_u8(msg.active);
  return w.take();
}

std::vector<std::uint8_t> encode(const EnergyReportMsg& msg) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(MessageType::EnergyReport));
  w.write_i32(msg.camera_id);
  w.write_f64(msg.residual_joules);
  return w.take();
}

std::vector<std::uint8_t> encode(const AssignmentAckMsg& msg) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(MessageType::AssignmentAck));
  w.write_i32(msg.camera_id);
  w.write_u32(msg.sequence);
  return w.take();
}

MessageType peek_type(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes);
  const std::uint8_t tag = reader.read_u8();
  if (tag < static_cast<std::uint8_t>(MessageType::FeatureUpload) ||
      tag > static_cast<std::uint8_t>(MessageType::AssignmentAck)) {
    throw ByteReader::DecodeError("unknown message type");
  }
  return static_cast<MessageType>(tag);
}

FeatureUploadMsg decode_feature_upload(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  check_type(r, MessageType::FeatureUpload);
  FeatureUploadMsg msg;
  msg.camera_id = r.read_i32();
  msg.frame_index = r.read_i32();
  msg.feature_dim = r.read_i32();
  msg.energy_budget = r.read_f64();
  msg.features = r.read_f32_vector();
  if (msg.feature_dim < 0) throw ByteReader::DecodeError("negative feature_dim");
  if (msg.feature_dim > 0 && msg.features.size() % static_cast<std::size_t>(msg.feature_dim) != 0) {
    throw ByteReader::DecodeError("feature payload not a multiple of feature_dim");
  }
  return msg;
}

DetectionMetadataMsg decode_detection_metadata(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  check_type(r, MessageType::DetectionMetadata);
  DetectionMetadataMsg msg;
  msg.camera_id = r.read_i32();
  msg.frame_index = r.read_i32();
  msg.algorithm = read_algorithm(r);
  const std::uint32_t count = r.read_u32();
  // Each object is exactly 172 wire bytes; a count that cannot fit in the
  // remaining payload is a corrupt length prefix, not a huge allocation.
  if (static_cast<std::size_t>(count) * 172 > r.remaining()) {
    throw ByteReader::DecodeError("object count exceeds payload");
  }
  msg.objects.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ObjectMetadata obj;
    obj.x = r.read_u16();
    obj.y = r.read_u16();
    obj.w = r.read_u16();
    obj.h = r.read_u16();
    obj.probability = r.read_f32();
    obj.color_feature.resize(40);
    for (auto& v : obj.color_feature) v = r.read_f32();
    msg.objects.push_back(std::move(obj));
  }
  return msg;
}

AlgorithmAssignmentMsg decode_algorithm_assignment(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  check_type(r, MessageType::AlgorithmAssignment);
  AlgorithmAssignmentMsg msg;
  msg.camera_id = r.read_i32();
  msg.sequence = r.read_u32();
  msg.algorithm = read_algorithm(r);
  msg.threshold = r.read_f64();
  msg.active = r.read_u8();
  return msg;
}

EnergyReportMsg decode_energy_report(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  check_type(r, MessageType::EnergyReport);
  EnergyReportMsg msg;
  msg.camera_id = r.read_i32();
  msg.residual_joules = r.read_f64();
  return msg;
}

AssignmentAckMsg decode_assignment_ack(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  check_type(r, MessageType::AssignmentAck);
  AssignmentAckMsg msg;
  msg.camera_id = r.read_i32();
  msg.sequence = r.read_u32();
  return msg;
}

}  // namespace eecs::net
