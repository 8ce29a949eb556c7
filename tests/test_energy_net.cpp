#include <gtest/gtest.h>

#include <span>

#include "common/rng.hpp"
#include "energy/cost.hpp"
#include "energy/model.hpp"
#include "net/fault.hpp"
#include "net/messages.hpp"
#include "net/network.hpp"

namespace eecs {
namespace {

TEST(CostCounter, AccumulatesAndAdds) {
  energy::CostCounter a;
  a.add_pixels(100);
  a.add_features(50);
  a.add_classifier(25);
  EXPECT_EQ(a.compute_ops(), 175u);

  energy::CostCounter b;
  b.add_pixels(1);
  const energy::CostCounter c = a + b;
  EXPECT_EQ(c.pixel_ops, 101u);
}

TEST(CpuEnergyModel, JoulesGrowWithWork) {
  const energy::CpuEnergyModel model;
  energy::CostCounter small, large;
  small.add_features(1000);
  large.add_features(1000000);
  EXPECT_GT(model.joules(large), model.joules(small));
  EXPECT_GE(model.joules({}), model.joules_fixed_per_frame);
  EXPECT_GT(model.seconds(large), model.seconds(small));
}

TEST(RadioModel, PerByteAndPerMessageCosts) {
  const energy::RadioModel radio;
  const double one = radio.tx_joules(1);
  const double big = radio.tx_joules(1000000);
  EXPECT_GT(big, one);
  EXPECT_GT(one, radio.joules_per_message * 0.99);
  EXPECT_GT(radio.tx_seconds(1000000), radio.tx_seconds(1000));
}

TEST(BudgetPlan, PaperArithmetic) {
  // 6 hours at one frame per 2 seconds -> 10800 frames.
  energy::BudgetPlan plan;
  plan.operation_hours = 6.0;
  plan.seconds_per_frame = 2.0;
  EXPECT_EQ(plan.frames_remaining(), 10800);
  EXPECT_NEAR(plan.per_frame_budget(10800.0), 1.0, 1e-9);
}

TEST(Messages, FeatureUploadRoundTrip) {
  net::FeatureUploadMsg msg;
  msg.camera_id = 3;
  msg.frame_index = 1200;
  msg.feature_dim = 2;
  msg.features = {1.0f, 2.0f, 3.0f, 4.0f};
  msg.energy_budget = 1.5;
  const auto bytes = encode(msg);
  EXPECT_EQ(net::peek_type(bytes), net::MessageType::FeatureUpload);
  const auto decoded = net::decode_feature_upload(bytes);
  EXPECT_EQ(decoded.camera_id, 3);
  EXPECT_EQ(decoded.features, msg.features);
  EXPECT_DOUBLE_EQ(decoded.energy_budget, 1.5);
}

TEST(Messages, DetectionMetadataRoundTripAndWireSize) {
  net::DetectionMetadataMsg msg;
  msg.camera_id = 1;
  msg.frame_index = 42;
  msg.algorithm = 2;
  net::ObjectMetadata obj;
  obj.x = 10;
  obj.y = 20;
  obj.w = 30;
  obj.h = 60;
  obj.probability = 0.75f;
  obj.color_feature.assign(40, 0.25f);
  msg.objects.push_back(obj);
  const auto bytes = encode(msg);
  // Header (1 type + 4 cam + 4 frame + 1 alg + 4 count) + 172 per object.
  EXPECT_EQ(bytes.size(), 14u + 172u);
  const auto decoded = net::decode_detection_metadata(bytes);
  ASSERT_EQ(decoded.objects.size(), 1u);
  EXPECT_EQ(decoded.objects[0].h, 60);
  EXPECT_FLOAT_EQ(decoded.objects[0].probability, 0.75f);
  EXPECT_EQ(decoded.objects[0].color_feature, obj.color_feature);
}

TEST(Messages, AssignmentAndEnergyReportRoundTrip) {
  net::AlgorithmAssignmentMsg assign;
  assign.camera_id = 2;
  assign.algorithm = 1;
  assign.threshold = -0.5f;
  assign.active = 0;
  const auto a = net::decode_algorithm_assignment(encode(assign));
  EXPECT_EQ(a.camera_id, 2);
  EXPECT_EQ(a.active, 0);
  EXPECT_FLOAT_EQ(a.threshold, -0.5f);

  net::EnergyReportMsg report;
  report.camera_id = 3;
  report.residual_joules = 123.5;
  const auto r = net::decode_energy_report(encode(report));
  EXPECT_DOUBLE_EQ(r.residual_joules, 123.5);
}

TEST(Messages, AlgorithmIdsOutsideTheBankAreRejected) {
  // The decoded id indexes the detector bank, so ids past the last
  // algorithm must not decode.
  for (const std::uint8_t bad : {std::uint8_t{4}, std::uint8_t{255}}) {
    SCOPED_TRACE(static_cast<int>(bad));
    net::AlgorithmAssignmentMsg assign;
    assign.algorithm = bad;
    EXPECT_THROW((void)net::decode_algorithm_assignment(encode(assign)), ByteReader::DecodeError);
    net::DetectionMetadataMsg meta;
    meta.algorithm = bad;
    EXPECT_THROW((void)net::decode_detection_metadata(encode(meta)), ByteReader::DecodeError);
  }
  net::AlgorithmAssignmentMsg last;
  last.algorithm = detect::kNumAlgorithms - 1;
  EXPECT_EQ(net::decode_algorithm_assignment(encode(last)).algorithm, last.algorithm);
}

TEST(Messages, WrongTypeThrows) {
  const auto bytes = encode(net::EnergyReportMsg{1, 2.0});
  EXPECT_THROW((void)net::decode_feature_upload(bytes), ByteReader::DecodeError);
}

TEST(Messages, ColorFeatureMustBe40d) {
  net::DetectionMetadataMsg msg;
  net::ObjectMetadata obj;
  obj.color_feature.assign(39, 0.0f);
  msg.objects.push_back(obj);
  EXPECT_THROW((void)encode(msg), ContractViolation);
}

TEST(Network, DeliversInTimeOrder) {
  net::Network network({}, 1);
  const int controller = network.add_node({});
  net::LinkQuality fast;
  fast.latency_s = 0.001;
  net::LinkQuality slow;
  slow.latency_s = 0.5;
  const int cam_fast = network.add_node(fast);
  const int cam_slow = network.add_node(slow);

  (void)network.send(cam_slow, controller, {1});
  (void)network.send(cam_fast, controller, {2});
  const auto deliveries = network.advance_to(1.0);
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].payload[0], 2);  // Fast link first.
  EXPECT_EQ(deliveries[1].payload[0], 1);
}

TEST(Network, UndeliveredUntilTimeAdvances) {
  net::Network network({}, 1);
  const int controller = network.add_node({});
  net::LinkQuality link;
  link.latency_s = 2.0;
  const int camera = network.add_node(link);
  (void)network.send(camera, controller, {7});
  EXPECT_TRUE(network.advance_to(1.0).empty());
  EXPECT_EQ(network.advance_to(3.0).size(), 1u);
}

TEST(Network, LossChargesEnergyButDropsPayload) {
  net::Network network({}, 3);
  const int controller = network.add_node({});
  net::LinkQuality lossy;
  lossy.loss_probability = 1.0;
  const int camera = network.add_node(lossy);
  const auto tx = network.send(camera, controller, std::vector<std::uint8_t>(100, 0));
  EXPECT_FALSE(tx.delivered);
  EXPECT_GT(tx.tx_joules, 0.0);
  EXPECT_TRUE(network.advance_to(10.0).empty());
  // The lost message still occupied the air for its full 100 bytes.
  EXPECT_EQ(tx.tx_joules, energy::RadioModel{}.tx_joules(100));
  EXPECT_GT(tx.tx_seconds, 0.0);
}

TEST(Network, RadioEnergyScalesWithBytes) {
  net::Network network({}, 4);
  const int controller = network.add_node({});
  const int camera = network.add_node({});
  const auto small = network.send(camera, controller, std::vector<std::uint8_t>(10, 0));
  const auto large = network.send(camera, controller, std::vector<std::uint8_t>(100000, 0));
  EXPECT_GT(large.tx_joules, small.tx_joules);
  EXPECT_GT(large.tx_seconds, small.tx_seconds);
}

TEST(Network, LossProbabilityIsStatisticallyHonored) {
  net::Network network({}, 99);
  const int controller = network.add_node({});
  net::LinkQuality lossy;
  lossy.loss_probability = 0.5;
  const int camera = network.add_node(lossy);
  int delivered = 0;
  for (int i = 0; i < 1000; ++i) {
    if (network.send(camera, controller, {1}).delivered) ++delivered;
  }
  // Binomial(1000, 0.5): +-100 is > 6 sigma, so this never flakes.
  EXPECT_GT(delivered, 400);
  EXPECT_LT(delivered, 600);
  EXPECT_EQ(network.advance_to(100.0).size(), static_cast<std::size_t>(delivered));
}

TEST(Network, SimultaneousDeliveriesAreFifoBySendOrder) {
  net::Network network({}, 5);
  const int controller = network.add_node({});
  const int cam_a = network.add_node({});
  const int cam_b = network.add_node({});
  // Same payload size and identical links: identical delivery times.
  (void)network.send(cam_b, controller, {9});
  (void)network.send(cam_a, controller, {8});
  (void)network.send(cam_b, controller, {7});
  const auto deliveries = network.advance_to(1.0);
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0].payload[0], 9);
  EXPECT_EQ(deliveries[1].payload[0], 8);
  EXPECT_EQ(deliveries[2].payload[0], 7);
}

TEST(Network, ControlClassChargesNoEnergyButIsStillLossy) {
  net::Network network({}, 6);
  const int controller = network.add_node({});
  const int camera = network.add_node({});
  const auto tx =
      network.send(camera, controller, std::vector<std::uint8_t>(50, 1), net::TxClass::Control);
  EXPECT_TRUE(tx.delivered);
  EXPECT_DOUBLE_EQ(tx.tx_joules, 0.0);
  EXPECT_GT(tx.tx_seconds, 0.0);  // The bytes still cross the link.
  EXPECT_EQ(network.advance_to(1.0).size(), 1u);

  net::Network lossy_net({}, 7);
  (void)lossy_net.add_node({});
  net::LinkQuality dead;
  dead.loss_probability = 1.0;
  const int cam = lossy_net.add_node(dead);
  EXPECT_FALSE(lossy_net.send(cam, 0, {1}, net::TxClass::Control).delivered);
}

TEST(FaultPlan, EmptyPlanReturnsBaseLossBitExactly) {
  const net::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  // Must be the same double, not a reconstruction through 1 - (1 - x).
  const double base = 0.1234567890123456789;
  EXPECT_EQ(plan.loss_probability(1, 0, 50.0, base), base);
  EXPECT_FALSE(plan.node_down(1, 0.0));
}

TEST(FaultPlan, DirectionalLossAndWindows) {
  net::FaultPlan plan;
  plan.uplink_loss = 0.5;
  EXPECT_DOUBLE_EQ(plan.loss_probability(1, 0, 10.0, 0.0), 0.5);  // Camera -> controller.
  EXPECT_DOUBLE_EQ(plan.loss_probability(0, 1, 10.0, 0.0), 0.0);  // Controller -> camera.
  // Independent sources combine: 1 - (1-0.5)(1-0.5).
  EXPECT_DOUBLE_EQ(plan.loss_probability(1, 0, 10.0, 0.5), 0.75);

  net::FaultPlan blackout;
  blackout.add_blackout(100.0, 200.0);
  EXPECT_DOUBLE_EQ(blackout.loss_probability(1, 0, 150.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(blackout.loss_probability(1, 0, 200.0, 0.0), 0.0);  // End-exclusive.
  EXPECT_DOUBLE_EQ(blackout.loss_probability(1, 0, 99.9, 0.0), 0.0);

  net::FaultPlan targeted;
  targeted.loss_windows.push_back({0.0, 10.0, 1.0, 2});
  EXPECT_DOUBLE_EQ(targeted.loss_probability(2, 0, 5.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(targeted.loss_probability(1, 0, 5.0, 0.0), 0.0);  // Other sender untouched.
}

TEST(FaultPlan, CrashWindows) {
  net::FaultPlan plan;
  plan.add_crash(3, 100.0, 200.0);
  EXPECT_FALSE(plan.node_down(3, 99.9));
  EXPECT_TRUE(plan.node_down(3, 100.0));
  EXPECT_TRUE(plan.node_down(3, 199.9));
  EXPECT_FALSE(plan.node_down(3, 200.0));  // Rebooted.
  EXPECT_FALSE(plan.node_down(2, 150.0));
}

TEST(Network, CrashedSenderTransmitsNothingAndPaysNothing) {
  net::FaultPlan plan;
  plan.add_crash(1, 0.0, 10.0);
  net::Network network({}, 8);
  network.set_fault_plan(plan);
  const int controller = network.add_node({});
  const int camera = network.add_node({});
  const auto tx = network.send(camera, controller, std::vector<std::uint8_t>(100, 0));
  EXPECT_FALSE(tx.delivered);
  EXPECT_DOUBLE_EQ(tx.tx_joules, 0.0);
  EXPECT_DOUBLE_EQ(tx.tx_seconds, 0.0);  // Nothing left the node.
  EXPECT_TRUE(network.node_down(camera));
}

TEST(Network, CrashedReceiverDropsDeliveries) {
  net::FaultPlan plan;
  plan.add_crash(2, 0.0, 100.0);
  net::Network network({}, 9);
  network.set_fault_plan(plan);
  (void)network.add_node({});
  const int cam_ok = network.add_node({});
  (void)network.add_node({});  // Node 2, crashed.
  const auto tx = network.send(0, 2, {5});
  EXPECT_TRUE(tx.delivered);  // The sender cannot know.
  EXPECT_TRUE(network.advance_to(50.0).empty());
  EXPECT_EQ(network.rx_dropped(), 1u);
  (void)network.send(0, cam_ok, {6});
  EXPECT_EQ(network.advance_to(60.0).size(), 1u);
  EXPECT_EQ(network.rx_dropped(), 1u);
}

// ---- Decoder hardening: a malformed payload must either decode or throw
// DecodeError; it must never read out of bounds (verified under ASan/UBSan)
// or allocate from an unvalidated length prefix.

void expect_graceful_decode(std::span<const std::uint8_t> bytes) {
  try {
    switch (net::peek_type(bytes)) {
      case net::MessageType::FeatureUpload:
        (void)net::decode_feature_upload(bytes);
        break;
      case net::MessageType::DetectionMetadata:
        (void)net::decode_detection_metadata(bytes);
        break;
      case net::MessageType::AlgorithmAssignment:
        (void)net::decode_algorithm_assignment(bytes);
        break;
      case net::MessageType::EnergyReport:
        (void)net::decode_energy_report(bytes);
        break;
      case net::MessageType::AssignmentAck:
        (void)net::decode_assignment_ack(bytes);
        break;
    }
  } catch (const ByteReader::DecodeError&) {
    // Rejected cleanly: acceptable. Anything else fails the test.
  }
}

std::vector<std::vector<std::uint8_t>> sample_messages() {
  net::FeatureUploadMsg upload;
  upload.camera_id = 1;
  upload.feature_dim = 3;
  upload.features = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  upload.energy_budget = 2.5;

  net::DetectionMetadataMsg meta;
  meta.camera_id = 2;
  meta.frame_index = 1500;
  meta.algorithm = 1;
  net::ObjectMetadata obj;
  obj.color_feature.assign(40, 0.5f);
  meta.objects.assign(3, obj);

  net::AlgorithmAssignmentMsg assign;
  assign.camera_id = 3;
  assign.sequence = 7;
  assign.threshold = -1.25;

  return {encode(upload), encode(meta), encode(assign),
          encode(net::EnergyReportMsg{4, 55.0}), encode(net::AssignmentAckMsg{5, 9})};
}

TEST(MessageHardening, EveryTruncationThrowsDecodeError) {
  for (const auto& bytes : sample_messages()) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::span<const std::uint8_t> prefix(bytes.data(), len);
      if (len == 0) {
        EXPECT_THROW((void)net::peek_type(prefix), ByteReader::DecodeError);
        continue;
      }
      try {
        switch (net::peek_type(prefix)) {
          case net::MessageType::FeatureUpload:
            EXPECT_THROW((void)net::decode_feature_upload(prefix), ByteReader::DecodeError);
            break;
          case net::MessageType::DetectionMetadata:
            EXPECT_THROW((void)net::decode_detection_metadata(prefix), ByteReader::DecodeError);
            break;
          case net::MessageType::AlgorithmAssignment:
            EXPECT_THROW((void)net::decode_algorithm_assignment(prefix), ByteReader::DecodeError);
            break;
          case net::MessageType::EnergyReport:
            EXPECT_THROW((void)net::decode_energy_report(prefix), ByteReader::DecodeError);
            break;
          case net::MessageType::AssignmentAck:
            EXPECT_THROW((void)net::decode_assignment_ack(prefix), ByteReader::DecodeError);
            break;
        }
      } catch (const ByteReader::DecodeError&) {
        // peek_type itself rejecting the prefix is also a clean rejection.
      }
    }
  }
}

TEST(MessageHardening, RandomByteCorruptionNeverEscapesDecodeError) {
  Rng rng(20260805);
  for (const auto& bytes : sample_messages()) {
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<std::uint8_t> corrupt = bytes;
      const int flips = rng.uniform_int(1, 4);
      for (int i = 0; i < flips; ++i) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(corrupt.size()) - 1));
        corrupt[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      expect_graceful_decode(corrupt);
    }
  }
}

TEST(MessageHardening, LengthPrefixBombIsRejectedWithoutAllocating) {
  // FeatureUpload: tag(1) camera(4) frame(4) dim(4) budget(8) veclen(4)...
  net::FeatureUploadMsg upload;
  upload.feature_dim = 1;
  upload.features = {1.0f};
  auto bytes = encode(upload);
  for (std::size_t i = 21; i < 25; ++i) bytes[i] = 0xff;  // veclen = 2^32 - 1.
  EXPECT_THROW((void)net::decode_feature_upload(bytes), ByteReader::DecodeError);

  // DetectionMetadata: tag(1) camera(4) frame(4) alg(1) count(4)...
  net::DetectionMetadataMsg meta;
  net::ObjectMetadata obj;
  obj.color_feature.assign(40, 0.0f);
  meta.objects.push_back(obj);
  auto mbytes = encode(meta);
  for (std::size_t i = 10; i < 14; ++i) mbytes[i] = 0xff;  // count = 2^32 - 1.
  EXPECT_THROW((void)net::decode_detection_metadata(mbytes), ByteReader::DecodeError);
}

TEST(MessageHardening, PeekTypeRejectsUnknownTag) {
  EXPECT_THROW((void)net::peek_type(std::vector<std::uint8_t>{0}), ByteReader::DecodeError);
  EXPECT_THROW((void)net::peek_type(std::vector<std::uint8_t>{6}), ByteReader::DecodeError);
  EXPECT_THROW((void)net::peek_type(std::vector<std::uint8_t>{0xff}), ByteReader::DecodeError);
}

TEST(Messages, AssignmentSequenceAndAckRoundTrip) {
  net::AlgorithmAssignmentMsg assign;
  assign.camera_id = 1;
  assign.sequence = 0xdeadbeef;
  assign.threshold = 0.123456789012345678;  // Must survive the wire exactly.
  const auto a = net::decode_algorithm_assignment(encode(assign));
  EXPECT_EQ(a.sequence, 0xdeadbeefu);
  EXPECT_EQ(a.threshold, assign.threshold);

  net::AssignmentAckMsg ack;
  ack.camera_id = 4;
  ack.sequence = 12345;
  const auto bytes = encode(ack);
  EXPECT_EQ(net::peek_type(bytes), net::MessageType::AssignmentAck);
  const auto decoded = net::decode_assignment_ack(bytes);
  EXPECT_EQ(decoded.camera_id, 4);
  EXPECT_EQ(decoded.sequence, 12345u);
}

}  // namespace
}  // namespace eecs
