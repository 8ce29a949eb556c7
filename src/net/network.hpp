// Message-level wireless network simulator: per-link bandwidth/latency/loss,
// radio energy accounting, and an event queue delivering messages in time
// order. Camera uplinks charge the sender's radio energy; the controller is
// mains-powered (§IV). An optional FaultPlan injects deterministic link
// degradation and node crashes on top of the base link quality.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "energy/model.hpp"
#include "net/fault.hpp"
#include "obs/ledger.hpp"

namespace eecs::obs {
class Counter;
}

namespace eecs::net {

struct LinkQuality {
  double bandwidth_bytes_per_s = 2.5e6;
  double latency_s = 0.004;
  double loss_probability = 0.0;
};

/// Traffic class of a transmission.
enum class TxClass : std::uint8_t {
  Data,     ///< Application payload: charged radio energy and byte counters.
  Control,  ///< Piggybacked link-layer frame (acks, heartbeats, bookkeeping):
            ///< subject to loss and latency, but charged no application
            ///< radio energy.
};

/// Outcome of one transmission attempt.
struct TxResult {
  bool delivered = true;
  double tx_seconds = 0.0;
  double tx_joules = 0.0;
};

class Network {
 public:
  explicit Network(const energy::RadioModel& radio, std::uint64_t seed);

  /// Register a node; returns its node id. Link quality applies to its
  /// uplink toward the controller (node 0 by convention).
  int add_node(const LinkQuality& link);

  /// Install a fault-injection schedule. An empty plan (the default) leaves
  /// behaviour bit-identical to a network without the fault layer. The plan
  /// is validated on installation (FaultPlan::ValidationError on a malformed
  /// schedule); node ids are range-checked lazily because nodes may be added
  /// after the plan — call fault_plan().validate(node_count()) for that.
  void set_fault_plan(FaultPlan plan) {
    plan.validate();
    faults_ = std::move(plan);
  }
  [[nodiscard]] const FaultPlan& fault_plan() const { return faults_; }

  /// True when `node` is crashed at the current clock.
  [[nodiscard]] bool node_down(int node) const { return faults_.node_down(node, now_); }

  [[nodiscard]] int node_count() const { return static_cast<int>(links_.size()); }
  [[nodiscard]] double now() const { return now_; }

  /// Send bytes from a node; energy is charged per the radio model and the
  /// message is queued for delivery after the serialization + latency delay.
  /// Lost messages still cost the sender transmit energy. A send from a
  /// crashed node is silently dropped and costs nothing (the radio is off).
  /// `cause` tags the attempt for the energy-audit cause counters
  /// (`net.tx.cause.<cause>.sent/.lost`): callers pass Retry for
  /// re-transmissions and Heartbeat for liveness traffic.
  TxResult send(int from_node, int to_node, std::vector<std::uint8_t> payload,
                TxClass tx_class = TxClass::Data,
                obs::EnergyCause cause = obs::EnergyCause::Tx);

  struct Delivery {
    double time = 0.0;
    int from_node = 0;
    int to_node = 0;
    std::vector<std::uint8_t> payload;
  };

  /// Pop all messages deliverable up to (and including) `until_time`,
  /// advancing the clock. Messages arrive in delivery-time order; ties are
  /// broken FIFO by send order. Deliveries to a node that is crashed at the
  /// delivery instant are dropped (counted in rx_dropped()).
  std::vector<Delivery> advance_to(double until_time);

  /// Messages dropped at the receiver because it was crashed at delivery time.
  [[nodiscard]] std::uint64_t rx_dropped() const { return rx_dropped_; }

  /// A message accepted for delivery but not yet delivered: an entry of the
  /// event queue.
  struct QueuedMessage {
    double time = 0.0;
    std::uint64_t sequence = 0;  ///< FIFO tie-break.
    int from_node = 0;
    int to_node = 0;
    std::vector<std::uint8_t> payload;

    [[nodiscard]] bool operator==(const QueuedMessage&) const = default;
  };

  /// Full dynamic state for checkpoint/restore: clock, send sequence, RNG
  /// stream, receiver-drop count, and the undelivered event queue. Links and
  /// the fault plan are configuration, not state — a restored network must
  /// be built with the same ones.
  struct State {
    double now = 0.0;
    std::uint64_t sequence = 0;
    std::uint64_t rx_dropped = 0;
    Rng::State rng;
    std::vector<QueuedMessage> queue;

    [[nodiscard]] bool operator==(const State&) const = default;
  };
  [[nodiscard]] State export_state() const;
  /// Restores export_state()'s capture into a network built with the same
  /// nodes, links and fault plan. Subsequent sends/deliveries are
  /// bit-identical to a network that never went through the save/restore
  /// cycle.
  void import_state(State state);

 private:
  struct Later {
    bool operator()(const QueuedMessage& a, const QueuedMessage& b) const {
      return a.time != b.time ? a.time > b.time : a.sequence > b.sequence;
    }
  };

  /// MessageType tags 1..5 plus slot 0 for empty/unknown payloads.
  static constexpr int kNumMessageKinds = 6;

  /// Per-message-type telemetry counters of the obs session current at
  /// construction, hoisted once so send/advance_to never touch the registry
  /// map (null under EECS_OBS_OFF). Keyed by the encoded type tag — the
  /// network stays payload-agnostic and never decodes.
  obs::Counter* tx_sent_[kNumMessageKinds] = {};
  obs::Counter* tx_lost_[kNumMessageKinds] = {};
  /// Same hoisting, keyed by the caller-declared energy cause of the attempt
  /// (tx/retry/heartbeat) — the audit-ledger view of the same traffic.
  obs::Counter* cause_sent_[obs::kNumEnergyCauses] = {};
  obs::Counter* cause_lost_[obs::kNumEnergyCauses] = {};
  obs::Counter* rx_delivered_metric_ = nullptr;
  obs::Counter* rx_dropped_metric_ = nullptr;

  energy::RadioModel radio_;
  Rng rng_;
  FaultPlan faults_;
  std::vector<LinkQuality> links_;
  std::priority_queue<QueuedMessage, std::vector<QueuedMessage>, Later> queue_;
  double now_ = 0.0;
  std::uint64_t sequence_ = 0;
  std::uint64_t rx_dropped_ = 0;
};

}  // namespace eecs::net
