// Pluggable deterministic queue models for fabric ports and switch pipeline stages.
//
// The fabric used to model every port as a busy-until FifoResource and every switch
// pipeline pass as a flat constant — correct on an idle rack, blind under load: incast at
// a hot memory blade, invalidation-wave fan-out and prefetch traffic stealing demand
// bandwidth were all invisible. This header gives every service point a queueing
// discipline from a closed set, in the shape Graphite's performance models proved out for
// deterministic discrete-time simulators:
//
//   * kFifo        — single-server busy-until FIFO, bit-identical to the historical
//                    FifoResource::Acquire path (the default; replay timing is unchanged).
//   * kWindowedMG1 — an analytical M/G/1 wait estimate from recent demand: utilization
//                    rho over a sliding window turns into wait ≈ rho·S̄ / (2·(1 − rho)).
//                    Requests never serialize against each other directly; the *estimate*
//                    rises with offered load, which is what a load-latency curve needs.
//
// Every model additionally tracks a sliding demand window — (arrival, service) pairs with
// a running sum — from which Utilization() reports the fraction of recent wall time the
// port was asked to serve. That number is the occupancy-feedback signal: it drives the
// MetricsRegistry port gauges and PrefetchEngine issue throttling.
//
// Determinism contract (docs/determinism.md): models are pure functions of the serialized
// Acquire call stream — no RNG, no wall clock, no iteration over unordered containers —
// and are only ever called from MIND_SERIALIZED_PATH code (the fabric is part of the
// serialized coherence path). Replay therefore stays bit-identical across shard counts,
// channel groups and fault schedules with any model enabled.
#ifndef MIND_SRC_NET_QUEUE_MODEL_H_
#define MIND_SRC_NET_QUEUE_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/phase_guard.h"
#include "src/common/types.h"

namespace mind {

enum class QueueModelKind : uint8_t {
  kFifo = 0,
  kWindowedMG1,
};

[[nodiscard]] constexpr const char* ToString(QueueModelKind kind) {
  switch (kind) {
    case QueueModelKind::kFifo:
      return "fifo";
    case QueueModelKind::kWindowedMG1:
      return "windowed-mg1";
  }
  return "?";
}

// Queueing configuration of a Fabric, embedded in RackConfig / GamConfig /
// FastSwapConfig (the FaultPlaneConfig pattern). The default is kFifo with the
// historical behavior: timing bit-identical to the pre-queue-model fabric.
struct FabricConfig {
  QueueModelKind queue_model = QueueModelKind::kFifo;
  // Sliding demand window for Utilization() and the kWindowedMG1 estimate. 200 us spans
  // a few dozen remote fetches at paper latencies — long enough to smooth bursts, short
  // enough that pressure decays once traffic moves away.
  SimTime window_ns = 200'000;
};

// Queueing discipline of one service point. kFifo and kWindowedMG1 are the port
// disciplines of the matching QueueModelKind; kPassThrough is the kFifo configuration's
// switch pipeline stage.
enum class QueueDiscipline : uint8_t {
  // Single-server busy-until FIFO: the historical FifoResource::Acquire arithmetic,
  // reproduced bit for bit so the default fabric configuration replays unchanged.
  kFifo = 0,
  // The message is timed by the caller's flat pipeline constant (wait 0); the model only
  // records demand so Utilization()/metrics still see the stage's load.
  kPassThrough,
  // Windowed M/G/1 estimate: rho and the mean service from the sliding demand window,
  // wait = rho*S / (2*(1 - rho)), with rho clamped to 0.98 so a saturated window yields
  // a large but finite (and deterministic) penalty instead of a singularity.
  kWindowedMG1,
};

// One service point (a port direction, or a switch pipeline stage). A closed, non-virtual
// class: the discipline is a switch inside Acquire, and the sliding demand window is a
// power-of-two ring buffer, allocated on the first request and doubled when full, that
// expires entries in insertion order.
class QueueModel {
 public:
  struct Grant {
    SimTime start;   // When service begins (>= arrival).
    SimTime finish;  // When service completes.
    SimTime wait;    // start - arrival (queueing delay).
  };

  QueueModel(QueueDiscipline discipline, SimTime window_ns)
      : discipline_(discipline), window_(window_ns == 0 ? 1 : window_ns) {}
  QueueModel(QueueModel&&) noexcept = default;
  QueueModel& operator=(QueueModel&&) noexcept = default;
  QueueModel(const QueueModel&) = delete;
  QueueModel& operator=(const QueueModel&) = delete;

  // Reserve the service point for `service` time units starting no earlier than
  // `arrival`. Serialized-path only: mutates the demand window and model state.
  MIND_SERIALIZED_PATH Grant Acquire(SimTime arrival, SimTime service) {
    // The wait is computed against demand *before* this request (a request never queues
    // behind itself), then the request joins the window.
    Grant g{};
    switch (discipline_) {
      case QueueDiscipline::kFifo: {
        const SimTime start = arrival > busy_until_ ? arrival : busy_until_;
        busy_until_ = start + service;
        g = Grant{start, busy_until_, start - arrival};
        break;
      }
      case QueueDiscipline::kPassThrough:
        g = Grant{arrival, arrival + service, 0};
        break;
      case QueueDiscipline::kWindowedMG1:
        g = MG1Estimate(arrival, service);
        break;
    }
    RecordDemand(arrival, service);
    total_busy_ += service;
    total_wait_ += g.wait;
    ++jobs_;
    return g;
  }

  // Fraction of the sliding window consumed by recent demand, clamped to [0, 1].
  // Evaluated at the latest arrival the model has seen, so it is a pure function of the
  // serialized Acquire stream (no "current time" input that could differ across modes).
  [[nodiscard]] double Utilization() const {
    const double u = static_cast<double>(demand_sum_) / static_cast<double>(window_);
    return u > 1.0 ? 1.0 : u;
  }

  // Requests still inside the sliding demand window (the queue-depth gauge).
  [[nodiscard]] uint64_t QueueDepth() const { return count_; }

  // Raw windowed demand (service time requested inside the window, unclamped).
  [[nodiscard]] SimTime demand_sum() const { return demand_sum_; }

  [[nodiscard]] SimTime total_busy() const { return total_busy_; }
  [[nodiscard]] SimTime total_wait() const { return total_wait_; }
  [[nodiscard]] uint64_t jobs() const { return jobs_; }
  [[nodiscard]] SimTime window() const { return window_; }
  [[nodiscard]] SimTime horizon() const { return horizon_; }

 private:
  struct Demand {
    SimTime arrival;
    SimTime service;
  };

  // The estimate reads the window as the previous request left it: entries are expired
  // against the horizon only when a request joins (see docs/fabric.md, "Known modelling
  // edges").
  [[nodiscard]] Grant MG1Estimate(SimTime arrival, SimTime service) const {
    constexpr double kMaxRho = 0.98;
    double rho = Utilization();
    if (rho > kMaxRho) {
      rho = kMaxRho;
    }
    const double mean_service =
        count_ == 0 ? static_cast<double>(service)
                    : static_cast<double>(demand_sum_) / static_cast<double>(count_);
    const auto wait = static_cast<SimTime>(rho * mean_service / (2.0 * (1.0 - rho)));
    const SimTime start = arrival + wait;
    return Grant{start, start + service, wait};
  }

  void RecordDemand(SimTime arrival, SimTime service) {
    horizon_ = arrival > horizon_ ? arrival : horizon_;
    if (count_ == ring_.size()) {
      GrowRing();
    }
    const size_t mask = ring_.size() - 1;
    ring_[(head_ + count_) & mask] = Demand{arrival, service};
    ++count_;
    demand_sum_ += service;
    // Latest arrival seen minus the window: demand older than this can no longer affect
    // any estimate. Expiry is in insertion order, so an out-of-order (earlier) arrival
    // stays until everything queued ahead of it has expired.
    const SimTime floor = horizon_ > window_ ? horizon_ - window_ : 0;
    while (count_ != 0 && ring_[head_].arrival < floor) {
      demand_sum_ -= ring_[head_].service;
      head_ = (head_ + 1) & mask;
      --count_;
    }
  }

  // Doubles the ring (first allocation: kInitialRing entries), unrolling it to start at 0.
  void GrowRing();

  static constexpr size_t kInitialRing = 16;

  QueueDiscipline discipline_;
  SimTime window_;
  SimTime horizon_ = 0;     // Latest arrival observed.
  SimTime demand_sum_ = 0;  // Sum of service over the window's entries.
  SimTime busy_until_ = 0;  // kFifo only.
  std::vector<Demand> ring_;  // Power-of-two capacity (or empty before the first request).
  size_t head_ = 0;           // Oldest entry.
  size_t count_ = 0;          // Entries inside the window.
  SimTime total_busy_ = 0;
  SimTime total_wait_ = 0;
  uint64_t jobs_ = 0;
};

// A port model of the configured kind.
[[nodiscard]] QueueModel MakeQueueModel(const FabricConfig& config);

// A switch pipeline-stage model. Under kFifo this is kPassThrough (wait 0, demand still
// recorded): historically the pipeline was a flat constant that every message paid
// concurrently, and the default must stay bit-identical to that. The other kinds contend
// on the stage with `MakeQueueModel`'s discipline.
[[nodiscard]] QueueModel MakeStageModel(const FabricConfig& config);

}  // namespace mind

#endif  // MIND_SRC_NET_QUEUE_MODEL_H_
