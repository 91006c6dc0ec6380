// Unit tests for src/net/queue_model.h: kFifo equivalence with FifoResource, demand
// window expiry, ring-buffer window parity with a std::deque reference for every
// discipline, windowed-M/G/1 load response, and the determinism contract — replay
// stays bit-identical across the execution matrix with a non-trivial queue model enabled
// under a live fault schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/mind_system.h"
#include "src/common/rng.h"
#include "src/net/queue_model.h"
#include "src/sim/resource.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

namespace mind {
namespace {

FabricConfig Config(QueueModelKind kind, SimTime window = 200'000) {
  FabricConfig c;
  c.queue_model = kind;
  c.window_ns = window;
  return c;
}

// --- kFifo: bit-identical to the historical FifoResource ------------------------------

TEST(QueueModel, FifoBitIdenticalToFifoResource) {
  auto model = MakeQueueModel(Config(QueueModelKind::kFifo));
  FifoResource reference;
  // A deterministic mix of backlogged, idle-gap and zero-service requests.
  SimTime arrival = 0;
  for (int i = 0; i < 500; ++i) {
    const SimTime service = static_cast<SimTime>((i * 37) % 400);
    arrival += static_cast<SimTime>((i * 13) % 250);
    const auto got = model.Acquire(arrival, service);
    const auto want = reference.Acquire(arrival, service);
    ASSERT_EQ(got.start, want.start) << "request " << i;
    ASSERT_EQ(got.finish, want.finish) << "request " << i;
    ASSERT_EQ(got.wait, want.wait) << "request " << i;
  }
  EXPECT_EQ(model.total_busy(), reference.total_busy());
  EXPECT_EQ(model.total_wait(), reference.total_wait());
  EXPECT_EQ(model.jobs(), reference.jobs());
}

TEST(QueueModel, FifoStageModelIsPassThrough) {
  // Historical switch pipeline: a flat constant every message pays concurrently. The
  // default stage model must never add wait, whatever the backlog.
  auto stage = MakeStageModel(Config(QueueModelKind::kFifo));
  for (int i = 0; i < 100; ++i) {
    const auto g = stage.Acquire(/*arrival=*/50, /*service=*/1000);
    EXPECT_EQ(g.start, 50u);
    EXPECT_EQ(g.finish, 1050u);
    EXPECT_EQ(g.wait, 0u);
  }
  // Demand is still recorded: occupancy feedback works under the default too.
  EXPECT_GT(stage.Utilization(), 0.0);
}

// --- Sliding demand window (shared by every model) ------------------------------------

TEST(QueueModel, DemandWindowExpiresOldRequests) {
  // Small window: demand older than it must be forgotten.
  auto model = MakeQueueModel(Config(QueueModelKind::kFifo, /*window=*/1'000));
  for (int i = 0; i < 8; ++i) {
    (void)model.Acquire(static_cast<SimTime>(i) * 10, /*service=*/100);
  }
  EXPECT_GT(model.Utilization(), 0.0);
  EXPECT_GT(model.QueueDepth(), 0u);
  (void)model.Acquire(/*arrival=*/1'000'000, /*service=*/10);
  EXPECT_EQ(model.QueueDepth(), 1u);  // Only the late request remains in the window.
  EXPECT_EQ(model.demand_sum(), 10u);
}

// --- Ring-buffer window vs the std::deque reference ------------------------------------

// The demand window and the three disciplines exactly as they were written over a
// std::deque (RecordDemand + the FIFO / pass-through / windowed-M/G/1 DoAcquire), kept as
// the reference the ring buffer must reproduce call for call.
class DequeReference {
 public:
  enum class Discipline { kFifo, kPassThrough, kWindowedMG1 };
  DequeReference(Discipline discipline, SimTime window_ns)
      : discipline_(discipline), window_(window_ns == 0 ? 1 : window_ns) {}

  QueueModel::Grant Acquire(SimTime arrival, SimTime service) {
    QueueModel::Grant g = DoAcquire(arrival, service);
    RecordDemand(arrival, service);
    total_busy_ += service;
    total_wait_ += g.wait;
    ++jobs_;
    return g;
  }
  [[nodiscard]] double Utilization() const {
    const double u = static_cast<double>(demand_sum_) / static_cast<double>(window_);
    return u > 1.0 ? 1.0 : u;
  }
  [[nodiscard]] uint64_t QueueDepth() const { return demand_.size(); }
  [[nodiscard]] SimTime demand_sum() const { return demand_sum_; }
  [[nodiscard]] SimTime total_busy() const { return total_busy_; }
  [[nodiscard]] SimTime total_wait() const { return total_wait_; }
  [[nodiscard]] uint64_t jobs() const { return jobs_; }

 private:
  QueueModel::Grant DoAcquire(SimTime arrival, SimTime service) {
    switch (discipline_) {
      case Discipline::kFifo: {
        const SimTime start = std::max(arrival, busy_until_);
        const SimTime finish = start + service;
        busy_until_ = finish;
        return QueueModel::Grant{start, finish, start - arrival};
      }
      case Discipline::kPassThrough:
        return QueueModel::Grant{arrival, arrival + service, 0};
      case Discipline::kWindowedMG1: {
        constexpr double kMaxRho = 0.98;
        double rho = Utilization();
        if (rho > kMaxRho) {
          rho = kMaxRho;
        }
        const uint64_t n = QueueDepth();
        const double mean_service =
            n == 0 ? static_cast<double>(service)
                   : static_cast<double>(demand_sum()) / static_cast<double>(n);
        const auto wait = static_cast<SimTime>(rho * mean_service / (2.0 * (1.0 - rho)));
        const SimTime start = arrival + wait;
        return QueueModel::Grant{start, start + service, wait};
      }
    }
    return {};
  }
  void RecordDemand(SimTime arrival, SimTime service) {
    horizon_ = arrival > horizon_ ? arrival : horizon_;
    demand_.push_back({arrival, service});
    demand_sum_ += service;
    const SimTime floor = horizon_ > window_ ? horizon_ - window_ : 0;
    while (!demand_.empty() && demand_.front().arrival < floor) {
      demand_sum_ -= demand_.front().service;
      demand_.pop_front();
    }
  }

  struct Demand {
    SimTime arrival;
    SimTime service;
  };
  Discipline discipline_;
  SimTime window_;
  SimTime horizon_ = 0;
  SimTime demand_sum_ = 0;
  std::deque<Demand> demand_;
  SimTime busy_until_ = 0;
  SimTime total_busy_ = 0;
  SimTime total_wait_ = 0;
  uint64_t jobs_ = 0;
};

// One seeded stream per call: mostly small forward steps, with arrivals that jump
// backwards (non-monotone serialized order), same-instant bursts of hundreds of requests
// (far past any small initial ring capacity), idle gaps longer than the window, and
// arrivals exactly one window after an earlier one (the expiry boundary).
void ExpectWindowParity(QueueModelKind kind, bool stage, uint64_t seed, SimTime window) {
  const FabricConfig config = Config(kind, window);
  auto model = stage ? MakeStageModel(config) : MakeQueueModel(config);
  using D = DequeReference::Discipline;
  const D discipline = stage && kind == QueueModelKind::kFifo ? D::kPassThrough
                       : kind == QueueModelKind::kFifo        ? D::kFifo
                                                              : D::kWindowedMG1;
  DequeReference ref(discipline, window);
  Rng rng(seed);
  SimTime clock = 1'000'000;
  std::vector<SimTime> recent;  // Earlier arrivals, for exact-boundary steps.
  for (int i = 0; i < 20'000; ++i) {
    const double roll = rng.NextDouble();
    int burst = 1;
    if (roll < 0.01) {
      clock += window + rng.NextBelow(4 * window);  // Idle gap past the window.
    } else if (roll < 0.015) {
      burst = 100 + static_cast<int>(rng.NextBelow(400));  // Same-instant burst.
    } else if (roll < 0.10) {
      clock -= std::min<SimTime>(clock, rng.NextBelow(window));  // Arrival goes back.
    } else if (roll < 0.15 && !recent.empty()) {
      clock = recent[rng.NextBelow(recent.size())] + window;  // Lands on the boundary.
    } else {
      clock += rng.NextBelow(window / 50 + 1);
    }
    if (recent.size() < 64) {
      recent.push_back(clock);
    } else {
      recent[static_cast<size_t>(i) % 64] = clock;
    }
    for (int b = 0; b < burst; ++b) {
      const SimTime service = rng.NextBelow(2'000);
      const QueueModel::Grant got = model.Acquire(clock, service);
      const QueueModel::Grant want = ref.Acquire(clock, service);
      ASSERT_EQ(got.start, want.start) << "call " << i << "/" << b;
      ASSERT_EQ(got.finish, want.finish) << "call " << i << "/" << b;
      ASSERT_EQ(got.wait, want.wait) << "call " << i << "/" << b;
      ASSERT_EQ(model.Utilization(), ref.Utilization()) << "call " << i << "/" << b;
      ASSERT_EQ(model.QueueDepth(), ref.QueueDepth()) << "call " << i << "/" << b;
      ASSERT_EQ(model.demand_sum(), ref.demand_sum()) << "call " << i << "/" << b;
    }
  }
  EXPECT_EQ(model.total_busy(), ref.total_busy());
  EXPECT_EQ(model.total_wait(), ref.total_wait());
  EXPECT_EQ(model.jobs(), ref.jobs());
}

TEST(QueueModel, RingWindowMatchesDequeReferenceFifo) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    ExpectWindowParity(QueueModelKind::kFifo, /*stage=*/false, seed, /*window=*/200'000);
    ExpectWindowParity(QueueModelKind::kFifo, /*stage=*/false, seed, /*window=*/5'000);
  }
}

TEST(QueueModel, RingWindowMatchesDequeReferencePassThrough) {
  for (const uint64_t seed : {4u, 5u, 6u}) {
    SCOPED_TRACE(seed);
    ExpectWindowParity(QueueModelKind::kFifo, /*stage=*/true, seed, /*window=*/200'000);
    ExpectWindowParity(QueueModelKind::kFifo, /*stage=*/true, seed, /*window=*/5'000);
  }
}

TEST(QueueModel, RingWindowMatchesDequeReferenceWindowedMG1) {
  for (const uint64_t seed : {7u, 8u, 9u}) {
    SCOPED_TRACE(seed);
    ExpectWindowParity(QueueModelKind::kWindowedMG1, /*stage=*/false, seed,
                       /*window=*/200'000);
    ExpectWindowParity(QueueModelKind::kWindowedMG1, /*stage=*/true, seed,
                       /*window=*/5'000);
  }
}

// --- Windowed M/G/1: analytical load response ------------------------------------------

TEST(QueueModel, WindowedMG1IdlePortHasNoWait) {
  auto model = MakeQueueModel(Config(QueueModelKind::kWindowedMG1));
  const auto g = model.Acquire(/*arrival=*/0, /*service=*/500);
  EXPECT_EQ(g.wait, 0u);  // First request sees an empty window.
  EXPECT_EQ(g.finish, 500u);
}

TEST(QueueModel, WindowedMG1WaitRisesWithOfferedLoad) {
  // Same service, increasing arrival density: the M/G/1 estimate must be monotone in
  // windowed utilization and stay finite at saturation (rho clamp).
  constexpr SimTime kService = 1'000;
  SimTime last_wait = 0;
  for (const int jobs : {4, 16, 64, 160}) {
    auto model = MakeQueueModel(Config(QueueModelKind::kWindowedMG1,
                                             /*window=*/100'000));
    QueueModel::Grant g{};
    for (int i = 0; i < jobs; ++i) {
      g = model.Acquire(/*arrival=*/static_cast<SimTime>(i), kService);
    }
    EXPECT_GE(g.wait, last_wait) << jobs << " jobs";
    last_wait = g.wait;
  }
  EXPECT_GT(last_wait, 0u);
  // rho <= 0.98 bounds the estimate at rho*S/(2(1-rho)) = 24.5 * S.
  EXPECT_LE(last_wait, 25 * kService);
}

TEST(QueueModel, WindowedMG1UtilizationIsPureFunctionOfStream) {
  // Two models fed the same serialized stream must agree exactly — Utilization() has no
  // "current time" input that could diverge across replay modes.
  auto a = MakeQueueModel(Config(QueueModelKind::kWindowedMG1));
  auto b = MakeQueueModel(Config(QueueModelKind::kWindowedMG1));
  for (int i = 0; i < 100; ++i) {
    const SimTime arrival = static_cast<SimTime>(i) * 777;
    const SimTime service = static_cast<SimTime>((i * 31) % 900);
    const auto ga = a.Acquire(arrival, service);
    const auto gb = b.Acquire(arrival, service);
    ASSERT_EQ(ga.start, gb.start);
    ASSERT_EQ(ga.wait, gb.wait);
    ASSERT_DOUBLE_EQ(a.Utilization(), b.Utilization());
  }
}

// --- Determinism: the execution matrix with a live queue model + fault schedule --------

struct RunResult {
  ReplayReport report;
  std::string semantic_bytes;
  uint64_t digest = 0;
};

RunResult RunMind(const RackConfig& config, const WorkloadTraces& traces,
                  ReplayOptions opts) {
  opts.trace = true;
  MindSystem sys(config);
  ReplayEngine engine(&sys, &traces, opts);
  EXPECT_TRUE(engine.Setup().ok());
  RunResult out;
  out.report = engine.Run();
  const TraceScope* scope = engine.trace_scope();
  EXPECT_NE(scope, nullptr);
  out.semantic_bytes = scope->SemanticBytes();
  out.digest = scope->SemanticDigest();
  return out;
}

TEST(QueueModel, ShardedReplayBitIdenticalWithMG1UnderFaults) {
  // The acceptance case: a coherence-dense trace on a kWindowedMG1 fabric with message
  // loss, a blade death and a scheduled drain. Counters, histograms AND the canonical
  // semantic byte stream must be identical across 1/2/4/8 shards and groups on/off.
  RackConfig config;
  config.num_compute_blades = 4;
  config.num_memory_blades = 4;
  config.memory_blade_capacity = 2ull << 30;
  config.compute_cache_bytes = 8ull << 20;
  config.directory_slots = 2048;
  config.splitting.epoch_length = 2 * kMillisecond;
  config.fabric = Config(QueueModelKind::kWindowedMG1);
  config.prefetch.policy = PrefetchPolicy::kNextN;  // Exercises occupancy throttling.
  config.fault.reliability.loss_probability = 0.02;
  config.fault.death.blade = 1;
  config.fault.death.at = 40 * kMillisecond;
  config.fault.drains.push_back(
      FaultPlaneConfig::BladeDrain{/*blade=*/0, /*dst=*/1, /*at=*/20 * kMillisecond});

  WorkloadSpec spec = MemcachedASpec(/*blades=*/4, /*threads_per_blade=*/2,
                                     /*accesses_per_thread=*/2000);
  spec.shared_pages = 4096;
  const WorkloadTraces traces = GenerateTraces(spec);

  ReplayOptions ref_opts;
  ref_opts.use_channels = false;
  const RunResult want = RunMind(config, traces, ref_opts);
  ASSERT_GT(want.report.total_ops, 0u);

  struct Mode {
    bool groups;
    int shards;
  };
  for (const Mode& m : std::vector<Mode>{{true, 1}, {true, 2}, {true, 4}, {true, 8},
                                         {false, 4}}) {
    SCOPED_TRACE(::testing::Message()
                 << (m.groups ? "groups" : "plain") << "/" << m.shards << "shards");
    ReplayOptions opts;
    opts.shards = m.shards;
    opts.use_channel_groups = m.groups;
    const RunResult got = RunMind(config, traces, opts);
    EXPECT_EQ(want.report.makespan, got.report.makespan);
    EXPECT_EQ(want.report.total_ops, got.report.total_ops);
    EXPECT_EQ(want.report.counters.total_accesses, got.report.counters.total_accesses);
    EXPECT_EQ(want.report.counters.invalidations, got.report.counters.invalidations);
    EXPECT_EQ(want.report.counters.breakdown_sums.fabric_wait,
              got.report.counters.breakdown_sums.fabric_wait);
    EXPECT_TRUE(want.report.latency_histogram == got.report.latency_histogram);
    EXPECT_EQ(want.digest, got.digest);
    EXPECT_EQ(want.semantic_bytes, got.semantic_bytes);  // Byte-for-byte.
  }
}

TEST(QueueModel, QueueModelsActuallyChangeTimingUnderLoad) {
  // Sanity that the matrix above is not vacuous: a contended run must produce nonzero
  // fabric wait under kWindowedMG1 and a different makespan than the kFifo default.
  RackConfig fifo_cfg;
  fifo_cfg.num_compute_blades = 4;
  fifo_cfg.num_memory_blades = 2;  // Few ports: concentrated incast.
  fifo_cfg.compute_cache_bytes = 8ull << 20;
  RackConfig mg1_cfg = fifo_cfg;
  mg1_cfg.fabric = Config(QueueModelKind::kWindowedMG1);

  WorkloadSpec spec = MemcachedASpec(/*blades=*/4, /*threads_per_blade=*/2,
                                     /*accesses_per_thread=*/2000);
  spec.shared_pages = 4096;
  spec.think_time = 0;  // Saturating offered load.
  const WorkloadTraces traces = GenerateTraces(spec);

  ReplayOptions opts;
  const RunResult fifo = RunMind(fifo_cfg, traces, opts);
  const RunResult mg1 = RunMind(mg1_cfg, traces, opts);
  EXPECT_GT(mg1.report.counters.breakdown_sums.fabric_wait, 0u);
  EXPECT_NE(mg1.report.makespan, fifo.report.makespan);
  EXPECT_NE(mg1.digest, fifo.digest);  // Access spans carry the changed timing.
}

}  // namespace
}  // namespace mind
