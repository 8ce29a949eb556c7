#include "net/network.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "obs/telemetry.hpp"

namespace eecs::net {

namespace {

/// Counter slot for an encoded payload: its MessageType tag, or 0 for empty
/// or unrecognized payloads (raw-byte tests, future types).
int message_kind(const std::vector<std::uint8_t>& payload) {
  if (payload.empty()) return 0;
  const std::uint8_t tag = payload.front();
  return tag >= 1 && tag <= 5 ? static_cast<int>(tag) : 0;
}

}  // namespace

Network::Network(const energy::RadioModel& radio, std::uint64_t seed)
    : radio_(radio), rng_(seed) {
  if constexpr (obs::kEnabled) {
    static constexpr const char* kSent[kNumMessageKinds] = {
        "net.tx.other.sent",          "net.tx.feature_upload.sent",
        "net.tx.detection_metadata.sent", "net.tx.algorithm_assignment.sent",
        "net.tx.energy_report.sent",  "net.tx.assignment_ack.sent"};
    static constexpr const char* kLost[kNumMessageKinds] = {
        "net.tx.other.lost",          "net.tx.feature_upload.lost",
        "net.tx.detection_metadata.lost", "net.tx.algorithm_assignment.lost",
        "net.tx.energy_report.lost",  "net.tx.assignment_ack.lost"};
    obs::MetricsRegistry& metrics = obs::current().metrics();
    for (int k = 0; k < kNumMessageKinds; ++k) {
      tx_sent_[k] = &metrics.counter(kSent[k]);
      tx_lost_[k] = &metrics.counter(kLost[k]);
    }
    for (int c = 0; c < obs::kNumEnergyCauses; ++c) {
      const std::string base =
          std::string("net.tx.cause.") + obs::to_string(static_cast<obs::EnergyCause>(c));
      cause_sent_[c] = &metrics.counter(base + ".sent");
      cause_lost_[c] = &metrics.counter(base + ".lost");
    }
    rx_delivered_metric_ = &metrics.counter("net.rx.delivered");
    rx_dropped_metric_ = &metrics.counter("net.rx.dropped");
  }
}

int Network::add_node(const LinkQuality& link) {
  links_.push_back(link);
  return static_cast<int>(links_.size()) - 1;
}

TxResult Network::send(int from_node, int to_node, std::vector<std::uint8_t> payload,
                       TxClass tx_class, obs::EnergyCause cause) {
  EECS_EXPECTS(from_node >= 0 && from_node < node_count());
  EECS_EXPECTS(to_node >= 0 && to_node < node_count());
  const LinkQuality& link = links_[static_cast<std::size_t>(from_node)];
  const int kind = message_kind(payload);
  const int cause_slot = static_cast<int>(cause);

  TxResult result;
  if (faults_.node_down(from_node, now_)) {
    // The radio is off: nothing leaves the node and nothing is charged.
    // Not counted as sent or lost — the message never reached the air.
    result.delivered = false;
    return result;
  }
  if (tx_sent_[kind] != nullptr) tx_sent_[kind]->inc();
  if (cause_sent_[cause_slot] != nullptr) cause_sent_[cause_slot]->inc();

  result.tx_seconds = static_cast<double>(payload.size()) / link.bandwidth_bytes_per_s;
  if (tx_class == TxClass::Data) result.tx_joules = radio_.tx_joules(payload.size());

  const double loss =
      faults_.loss_probability(from_node, to_node, now_, link.loss_probability);
  result.delivered = !rng_.bernoulli(loss);
  if (result.delivered) {
    queue_.push({now_ + result.tx_seconds + link.latency_s, sequence_++, from_node, to_node,
                 std::move(payload)});
  } else {
    if (tx_lost_[kind] != nullptr) tx_lost_[kind]->inc();
    if (cause_lost_[cause_slot] != nullptr) cause_lost_[cause_slot]->inc();
  }
  return result;
}

std::vector<Network::Delivery> Network::advance_to(double until_time) {
  EECS_EXPECTS(until_time >= now_);
  std::vector<Delivery> out;
  while (!queue_.empty() && queue_.top().time <= until_time) {
    // priority_queue::top is const; copy is unavoidable without const_cast,
    // and payloads here are small.
    QueuedMessage pending = queue_.top();
    queue_.pop();
    if (faults_.node_down(pending.to_node, pending.time)) {
      ++rx_dropped_;
      if (rx_dropped_metric_ != nullptr) rx_dropped_metric_->inc();
      continue;
    }
    if (rx_delivered_metric_ != nullptr) rx_delivered_metric_->inc();
    out.push_back({pending.time, pending.from_node, pending.to_node, std::move(pending.payload)});
  }
  now_ = until_time;
  return out;
}

Network::State Network::export_state() const {
  State state;
  state.now = now_;
  state.sequence = sequence_;
  state.rx_dropped = rx_dropped_;
  state.rng = rng_.state();
  // priority_queue has no iteration; drain a copy. Entries come out in
  // delivery order, which import_state re-heapifies identically.
  auto queue_copy = queue_;
  state.queue.reserve(queue_copy.size());
  while (!queue_copy.empty()) {
    state.queue.push_back(queue_copy.top());
    queue_copy.pop();
  }
  return state;
}

void Network::import_state(State state) {
  now_ = state.now;
  sequence_ = state.sequence;
  rx_dropped_ = state.rx_dropped;
  rng_.restore(state.rng);
  queue_ = {};
  for (QueuedMessage& m : state.queue) queue_.push(std::move(m));
}

}  // namespace eecs::net
