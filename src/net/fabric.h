// The rack fabric: dedicated full-duplex links between each blade and the ToR switch,
// with a pluggable queue model (src/net/queue_model.h) on every port direction and on the
// switch's pipeline/recirculation stages.
//
// Every compute and memory blade in the paper's testbed has a dedicated 100 Gbps NIC; the
// switch's per-port capacity matches. Each direction of each port is one QueueModel, so
// concurrent page transfers to the same blade queue behind one another (NIC
// serialization) while transfers to different blades proceed in parallel — exactly the
// property MIND's multicast invalidation exploits (§4.3.2).
//
// The fabric boundary is a single routed call: `Route(from, to, kind, now)` carries a
// message from one endpoint to another through the switch and returns the per-hop
// `Delivery` breakdown (egress wait, switch wait, ingress wait, wire time). Either side
// may be `Endpoint::Switch()` for a half-route — a request that terminates in the switch
// pipeline (protection check, directory lookup) before continuing, or a message the
// switch itself originates (invalidation fan-out). Charging rules, chosen so the default
// kFifo configuration is bit-identical to the historical ToSwitch/FromSwitch +
// caller-summed constants:
//
//   * blade -> switch: sender egress port (serialization + queueing), per-message NIC
//     overhead + wire propagation, then one pipeline pass (switch_pipeline + stage
//     queueing; + switch_recirculation when `recirculate` is set).
//   * switch -> blade: destination ingress port + overhead + propagation. No pipeline
//     charge — it was paid on switch entry.
//   * blade -> blade: both of the above composed.
//
// `Rtt()` composes the request route, service at the destination and the response route —
// the 1-RTT fetch shape every system shares, asserted in one place by
// LatencyModel::OneRttFetch's Fig. 7 calibration.
//
// Determinism: all methods here run on MIND_SERIALIZED_PATH code only (the coherence
// drain / serialized access path); queue models are pure functions of the call stream.
#ifndef MIND_SRC_NET_FABRIC_H_
#define MIND_SRC_NET_FABRIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bitops.h"
#include "src/common/phase_guard.h"
#include "src/common/types.h"
#include "src/net/message.h"
#include "src/net/queue_model.h"
#include "src/sim/latency_model.h"

namespace mind {

class MetricsRegistry;

// Endpoint of a route: a compute blade, a memory blade, or the switch ASIC itself
// (pipeline-terminated half-routes).
struct Endpoint {
  enum class Kind : uint8_t { kComputeBlade, kMemoryBlade, kSwitch };
  Kind kind = Kind::kComputeBlade;
  uint16_t id = 0;

  static Endpoint Compute(ComputeBladeId id) { return {Kind::kComputeBlade, id}; }
  static Endpoint Memory(MemoryBladeId id) { return {Kind::kMemoryBlade, id}; }
  static Endpoint Switch() { return {Kind::kSwitch, 0}; }

  [[nodiscard]] bool IsSwitch() const { return kind == Kind::kSwitch; }
};

class Fabric {
 public:
  // The fabric owns the rack's single LatencyModel instance (every system reads it back
  // through latency()) and builds one queue model per port direction + the two switch
  // stages from `config`. The per-kind serialization and stage-service times are fixed
  // here, once.
  Fabric(int num_compute_blades, int num_memory_blades, const LatencyModel& latency,
         const FabricConfig& config = {});

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Per-hop breakdown of one routed message.
  struct Delivery {
    SimTime arrival = 0;       // When the message is fully received at the destination.
    SimTime egress_wait = 0;   // Queueing at the sender's egress port.
    SimTime switch_wait = 0;   // Queueing at the pipeline/recirculation stage.
    SimTime ingress_wait = 0;  // Queueing at the destination's ingress port.
    SimTime wire = 0;          // Serialization + NIC overhead + propagation constants.

    [[nodiscard]] SimTime total_wait() const {
      return egress_wait + switch_wait + ingress_wait;
    }
  };

  // Routes one message from `from` to `to` through the switch, starting at `now`.
  // `recirculate` adds the directory-update recirculation pass on switch entry (§6.3).
  MIND_SERIALIZED_PATH Delivery Route(const Endpoint& from, const Endpoint& to,
                                      MessageKind kind, SimTime now,
                                      bool recirculate = false);

  // A request/response round trip: request route, `service_at_destination` at `to`, then
  // the response route back. `complete` is when the response fully lands at `from`.
  struct RttDelivery {
    Delivery request;
    Delivery response;
    SimTime complete = 0;
  };
  MIND_SERIALIZED_PATH RttDelivery Rtt(const Endpoint& from, const Endpoint& to,
                                       MessageKind request_kind, MessageKind response_kind,
                                       SimTime now, SimTime service_at_destination,
                                       bool recirculate = false);

  // An extra recirculation pass for a message already inside the pipeline (the Fig. 4
  // directory-update pass when it is paid separately from switch entry). Returns when
  // the pass completes; `wait` (optional) receives the stage queueing delay.
  MIND_SERIALIZED_PATH SimTime Recirculate(SimTime now, SimTime* wait = nullptr);

  // Multicast an invalidation from the switch to every compute blade whose bit is set in
  // `sharers`. The switch replicates the packet in the traffic manager; copies traverse
  // distinct egress ports in parallel. Copies for ports not leading to a sharer are
  // dropped in the egress pipeline (§4.3.2), consuming no link bandwidth. Replaces the
  // contents of `*out` with the per-sharer deliveries in blade order alongside the ids;
  // the caller owns the buffer, so a reused one makes a wave allocation-free.
  struct MulticastDelivery {
    ComputeBladeId blade;
    Delivery delivery;
  };
  MIND_SERIALIZED_PATH void MulticastInvalidation(SharerMask sharers, SimTime now,
                                                  std::vector<MulticastDelivery>* out);

  // Unicast equivalent (ablation baseline): the sender issues one invalidation after
  // another, paying per-message serialization sequentially at its own port before fan-out.
  // Same output contract as MulticastInvalidation.
  MIND_SERIALIZED_PATH void UnicastInvalidations(SharerMask sharers, SimTime now,
                                                 std::vector<MulticastDelivery>* out);

  // Windowed demand utilization of a blade endpoint's port, in [0, 1]: the max over its
  // two directions (a fetch loads the rx side with requests and the tx side with page
  // responses). The occupancy-feedback signal for prefetch throttling.
  [[nodiscard]] double Utilization(const Endpoint& e) const;

  // Publishes fabric counters and per-port/per-stage gauges under `prefix`:
  //   <prefix>/invalidations_sent, <prefix>/multicast_operations,
  //   <prefix>/port/<name>/{utilization,depth,wait_ns,jobs},
  //   <prefix>/switch/{pipeline,recirculation}/{utilization,depth,wait_ns,jobs}.
  void CollectMetrics(MetricsRegistry* reg, const std::string& prefix) const;

  [[nodiscard]] uint64_t invalidations_sent() const { return invalidations_sent_; }
  [[nodiscard]] uint64_t multicast_operations() const { return multicast_operations_; }
  [[nodiscard]] const LatencyModel& latency() const { return latency_; }
  [[nodiscard]] const FabricConfig& config() const { return config_; }

  [[nodiscard]] int num_compute_blades() const { return static_cast<int>(compute_tx_.size()); }
  [[nodiscard]] int num_memory_blades() const { return static_cast<int>(memory_tx_.size()); }

 private:
  // Wire serialization of one message of `kind` at the port line rate.
  [[nodiscard]] SimTime SerializeTime(MessageKind kind) const {
    return CarriesPage(kind) ? page_serialize_ : control_serialize_;
  }
  // Service time a message occupies a pipeline stage for under a contending model: the
  // ASIC's aggregate pipeline bandwidth is ~4x one port's line rate, so a stage pass
  // costs a quarter of the wire serialization (docs/fabric.md). Pass-through (kFifo)
  // stages record this as demand without waiting.
  [[nodiscard]] SimTime StageService(MessageKind kind) const {
    return CarriesPage(kind) ? page_stage_ : control_stage_;
  }

  // Port directions of a blade endpoint (switch endpoints have no port).
  QueueModel& TxOf(const Endpoint& e);
  QueueModel& RxOf(const Endpoint& e);
  const QueueModel& TxOf(const Endpoint& e) const;
  const QueueModel& RxOf(const Endpoint& e) const;

  LatencyModel latency_;
  FabricConfig config_;
  SimTime page_serialize_;
  SimTime control_serialize_;
  SimTime page_stage_;
  SimTime control_stage_;
  std::vector<QueueModel> compute_tx_;  // blade -> switch, per blade.
  std::vector<QueueModel> compute_rx_;  // switch -> blade.
  std::vector<QueueModel> memory_tx_;
  std::vector<QueueModel> memory_rx_;
  QueueModel pipeline_stage_;
  QueueModel recirc_stage_;
  uint64_t invalidations_sent_ = 0;
  uint64_t multicast_operations_ = 0;
};

}  // namespace mind

#endif  // MIND_SRC_NET_FABRIC_H_
