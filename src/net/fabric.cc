#include "src/net/fabric.h"

#include <cassert>

#include "src/obs/metrics_registry.h"

namespace mind {

Fabric::Fabric(int num_compute_blades, int num_memory_blades, const LatencyModel& latency,
               const FabricConfig& config)
    : latency_(latency),
      config_(config),
      page_serialize_(latency.Serialize(latency.page_payload_bytes)),
      control_serialize_(latency.Serialize(latency.control_message_bytes)),
      page_stage_(page_serialize_ / 4),
      control_stage_(control_serialize_ / 4),
      pipeline_stage_(MakeStageModel(config)),
      recirc_stage_(MakeStageModel(config)) {
  compute_tx_.reserve(static_cast<size_t>(num_compute_blades));
  compute_rx_.reserve(static_cast<size_t>(num_compute_blades));
  for (int i = 0; i < num_compute_blades; ++i) {
    compute_tx_.push_back(MakeQueueModel(config));
    compute_rx_.push_back(MakeQueueModel(config));
  }
  memory_tx_.reserve(static_cast<size_t>(num_memory_blades));
  memory_rx_.reserve(static_cast<size_t>(num_memory_blades));
  for (int i = 0; i < num_memory_blades; ++i) {
    memory_tx_.push_back(MakeQueueModel(config));
    memory_rx_.push_back(MakeQueueModel(config));
  }
}

const QueueModel& Fabric::TxOf(const Endpoint& e) const {
  assert(!e.IsSwitch());
  return e.kind == Endpoint::Kind::kComputeBlade ? compute_tx_[e.id] : memory_tx_[e.id];
}

const QueueModel& Fabric::RxOf(const Endpoint& e) const {
  assert(!e.IsSwitch());
  return e.kind == Endpoint::Kind::kComputeBlade ? compute_rx_[e.id] : memory_rx_[e.id];
}

QueueModel& Fabric::TxOf(const Endpoint& e) {
  assert(!e.IsSwitch());
  return e.kind == Endpoint::Kind::kComputeBlade ? compute_tx_[e.id] : memory_tx_[e.id];
}

QueueModel& Fabric::RxOf(const Endpoint& e) {
  assert(!e.IsSwitch());
  return e.kind == Endpoint::Kind::kComputeBlade ? compute_rx_[e.id] : memory_rx_[e.id];
}

MIND_SERIALIZED_PATH Fabric::Delivery Fabric::Route(const Endpoint& from, const Endpoint& to,
                                                    MessageKind kind, SimTime now,
                                                    bool recirculate) {
  Delivery d;
  SimTime t = now;
  const SimTime ser = SerializeTime(kind);
  if (!from.IsSwitch()) {
    // Sender egress: the port serializes wire bytes only; per-message NIC processing
    // (doorbells, CQEs) pipelines with other messages, so it adds latency without
    // occupying the link.
    const auto grant = TxOf(from).Acquire(t, ser);
    d.egress_wait = grant.wait;
    d.wire += ser + latency_.rdma_message_overhead + latency_.link_propagation;
    t = grant.finish + latency_.rdma_message_overhead + latency_.link_propagation;
    // Switch entry: one pipeline pass (parser + match-action stages), plus the
    // directory-update recirculation when requested.
    const auto stage = pipeline_stage_.Acquire(t, StageService(kind));
    d.switch_wait += stage.wait;
    t += stage.wait + latency_.switch_pipeline;
    if (recirculate) {
      const auto recirc = recirc_stage_.Acquire(t, StageService(kind));
      d.switch_wait += recirc.wait;
      t += recirc.wait + latency_.switch_recirculation;
    }
  }
  if (!to.IsSwitch()) {
    // Destination ingress: switch egress port toward the blade. No pipeline charge here —
    // a message the switch forwards paid it on entry, and one the switch originates
    // (invalidation fan-out) is generated past the pipeline in the traffic manager.
    const auto grant = RxOf(to).Acquire(t, ser);
    d.ingress_wait = grant.wait;
    d.wire += ser + latency_.rdma_message_overhead + latency_.link_propagation;
    t = grant.finish + latency_.rdma_message_overhead + latency_.link_propagation;
  }
  d.arrival = t;
  return d;
}

MIND_SERIALIZED_PATH Fabric::RttDelivery Fabric::Rtt(const Endpoint& from, const Endpoint& to,
                                                     MessageKind request_kind,
                                                     MessageKind response_kind, SimTime now,
                                                     SimTime service_at_destination,
                                                     bool recirculate) {
  RttDelivery rtt;
  rtt.request = Route(from, to, request_kind, now, recirculate);
  rtt.response =
      Route(to, from, response_kind, rtt.request.arrival + service_at_destination);
  rtt.complete = rtt.response.arrival;
  return rtt;
}

MIND_SERIALIZED_PATH SimTime Fabric::Recirculate(SimTime now, SimTime* wait) {
  const auto stage = recirc_stage_.Acquire(now, control_stage_);
  if (wait != nullptr) {
    *wait = stage.wait;
  }
  return now + stage.wait + latency_.switch_recirculation;
}

MIND_SERIALIZED_PATH void Fabric::MulticastInvalidation(SharerMask sharers, SimTime now,
                                                     std::vector<MulticastDelivery>* out) {
  out->clear();
  SharerMask remaining = sharers;
  while (remaining != 0) {
    const auto blade = static_cast<ComputeBladeId>(LowestSetBit(remaining));
    remaining &= remaining - 1;
    out->push_back({blade, Route(Endpoint::Switch(), Endpoint::Compute(blade),
                                 MessageKind::kInvalidation, now)});
    ++invalidations_sent_;
  }
  ++multicast_operations_;
}

MIND_SERIALIZED_PATH void Fabric::UnicastInvalidations(SharerMask sharers, SimTime now,
                                                    std::vector<MulticastDelivery>* out) {
  out->clear();
  SimTime send_time = now;
  SharerMask remaining = sharers;
  while (remaining != 0) {
    const auto blade = static_cast<ComputeBladeId>(LowestSetBit(remaining));
    remaining &= remaining - 1;
    // Sequential issue: each message occupies the sender CPU/NIC before the next.
    send_time += latency_.rdma_message_overhead + control_serialize_;
    out->push_back({blade, Route(Endpoint::Switch(), Endpoint::Compute(blade),
                                 MessageKind::kInvalidation, send_time)});
    ++invalidations_sent_;
  }
}

double Fabric::Utilization(const Endpoint& e) const {
  const double tx = TxOf(e).Utilization();
  const double rx = RxOf(e).Utilization();
  return tx > rx ? tx : rx;
}

void Fabric::CollectMetrics(MetricsRegistry* reg, const std::string& prefix) const {
  reg->SetCounter(prefix + "/invalidations_sent", invalidations_sent_);
  reg->SetCounter(prefix + "/multicast_operations", multicast_operations_);
  const auto port = [&](const std::string& name, const QueueModel& m) {
    const std::string base = prefix + "/port/" + name;
    reg->SetGauge(base + "/utilization", m.Utilization());
    reg->SetGauge(base + "/depth", static_cast<double>(m.QueueDepth()));
    reg->SetCounter(base + "/wait_ns", m.total_wait());
    reg->SetCounter(base + "/jobs", m.jobs());
  };
  for (size_t i = 0; i < compute_tx_.size(); ++i) {
    const std::string id = std::to_string(i);
    port("compute" + id + "/tx", compute_tx_[i]);
    port("compute" + id + "/rx", compute_rx_[i]);
  }
  for (size_t i = 0; i < memory_tx_.size(); ++i) {
    const std::string id = std::to_string(i);
    port("memory" + id + "/tx", memory_tx_[i]);
    port("memory" + id + "/rx", memory_rx_[i]);
  }
  const auto stage = [&](const std::string& name, const QueueModel& m) {
    const std::string base = prefix + "/switch/" + name;
    reg->SetGauge(base + "/utilization", m.Utilization());
    reg->SetGauge(base + "/depth", static_cast<double>(m.QueueDepth()));
    reg->SetCounter(base + "/wait_ns", m.total_wait());
    reg->SetCounter(base + "/jobs", m.jobs());
  };
  stage("pipeline", pipeline_stage_);
  stage("recirculation", recirc_stage_);
}

}  // namespace mind
