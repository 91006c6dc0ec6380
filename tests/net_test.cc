// Unit tests for src/net: fabric link contention, multicast pruning, reliability protocol.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/bitops.h"
#include "src/net/fabric.h"
#include "src/net/message.h"
#include "src/net/reliability.h"

namespace mind {
namespace {

LatencyModel Lat() { return LatencyModel{}; }

TEST(Message, PagePayloadClassification) {
  EXPECT_TRUE(CarriesPage(MessageKind::kRdmaReadResponse));
  EXPECT_TRUE(CarriesPage(MessageKind::kRdmaWriteRequest));
  EXPECT_FALSE(CarriesPage(MessageKind::kRdmaReadRequest));
  EXPECT_FALSE(CarriesPage(MessageKind::kInvalidation));
  EXPECT_FALSE(CarriesPage(MessageKind::kInvalidationAck));
}

TEST(Fabric, ControlTransferTiming) {
  Fabric f(2, 2, Lat());
  // Blade -> switch half-route on an idle fabric:
  // serialize(64B ~ 5ns) + overhead(300) + propagation(1000) + pipeline(400).
  const auto d = f.Route(Endpoint::Compute(0), Endpoint::Switch(),
                         MessageKind::kRdmaReadRequest, 0);
  EXPECT_NEAR(static_cast<double>(d.arrival), 1705.0, 10.0);
  EXPECT_EQ(d.total_wait(), 0u);
  // Switch -> blade half-route pays no pipeline (charged on switch entry).
  const auto down =
      f.Route(Endpoint::Switch(), Endpoint::Compute(1), MessageKind::kInvalidation, 0);
  EXPECT_NEAR(static_cast<double>(down.arrival), 1305.0, 10.0);
}

TEST(Fabric, PageTransferSlowerThanControl) {
  Fabric f(2, 2, Lat());
  const auto ctrl =
      f.Route(Endpoint::Switch(), Endpoint::Compute(0), MessageKind::kInvalidation, 0);
  const auto page =
      f.Route(Endpoint::Switch(), Endpoint::Compute(1), MessageKind::kRdmaReadResponse, 0);
  EXPECT_GT(page.arrival, ctrl.arrival);
}

TEST(Fabric, SameLinkSerializes) {
  Fabric f(2, 2, Lat());
  const auto d1 =
      f.Route(Endpoint::Switch(), Endpoint::Compute(0), MessageKind::kRdmaReadResponse, 0);
  const auto d2 =
      f.Route(Endpoint::Switch(), Endpoint::Compute(0), MessageKind::kRdmaReadResponse, 0);
  EXPECT_GT(d2.arrival, d1.arrival);
  EXPECT_GT(d2.ingress_wait, 0u);
  EXPECT_EQ(d2.total_wait(), d2.ingress_wait + d2.egress_wait + d2.switch_wait);
}

TEST(Fabric, DistinctBladesParallel) {
  Fabric f(2, 2, Lat());
  const auto d1 =
      f.Route(Endpoint::Switch(), Endpoint::Compute(0), MessageKind::kRdmaReadResponse, 0);
  const auto d2 =
      f.Route(Endpoint::Switch(), Endpoint::Compute(1), MessageKind::kRdmaReadResponse, 0);
  EXPECT_EQ(d1.arrival, d2.arrival);  // Independent ingress ports.
}

TEST(Fabric, TxAndRxAreFullDuplex) {
  Fabric busy(1, 1, Lat());
  const auto up = busy.Route(Endpoint::Compute(0), Endpoint::Switch(),
                             MessageKind::kRdmaWriteRequest, 0);
  const auto down = busy.Route(Endpoint::Switch(), Endpoint::Compute(0),
                               MessageKind::kRdmaReadResponse, 0);
  // No shared queue between directions: the prior tx send leaves the rx path idle.
  EXPECT_EQ(up.total_wait(), 0u);
  EXPECT_EQ(down.total_wait(), 0u);
  Fabric idle(1, 1, Lat());
  const auto down_idle = idle.Route(Endpoint::Switch(), Endpoint::Compute(0),
                                    MessageKind::kRdmaReadResponse, 0);
  EXPECT_EQ(down.arrival, down_idle.arrival);
}

TEST(Fabric, FullRouteComposesHalfRoutes) {
  // Blade -> blade routing must decompose into the two half-routes exactly (kFifo).
  Fabric whole(2, 2, Lat());
  Fabric halves(2, 2, Lat());
  const auto full = whole.Route(Endpoint::Compute(0), Endpoint::Memory(1),
                                MessageKind::kRdmaWriteRequest, 17);
  const auto up = halves.Route(Endpoint::Compute(0), Endpoint::Switch(),
                               MessageKind::kRdmaWriteRequest, 17);
  const auto down = halves.Route(Endpoint::Switch(), Endpoint::Memory(1),
                                 MessageKind::kRdmaWriteRequest, up.arrival);
  EXPECT_EQ(full.arrival, down.arrival);
}

TEST(Fabric, RttComposesRequestServiceResponse) {
  Fabric f(1, 1, Lat());
  Fabric ref(1, 1, Lat());
  const SimTime service = Lat().memory_blade_service;
  const auto rtt =
      f.Rtt(Endpoint::Compute(0), Endpoint::Memory(0), MessageKind::kRdmaReadRequest,
            MessageKind::kRdmaReadResponse, 0, service);
  const auto req = ref.Route(Endpoint::Compute(0), Endpoint::Memory(0),
                             MessageKind::kRdmaReadRequest, 0);
  const auto resp = ref.Route(Endpoint::Memory(0), Endpoint::Compute(0),
                              MessageKind::kRdmaReadResponse, req.arrival + service);
  EXPECT_EQ(rtt.request.arrival, req.arrival);
  EXPECT_EQ(rtt.complete, resp.arrival);
  EXPECT_EQ(rtt.response.arrival, rtt.complete);
}

TEST(Fabric, RecirculationChargesExtraStage) {
  Fabric f(1, 1, Lat());
  SimTime wait = 123;  // Must be overwritten, not accumulated.
  const SimTime out = f.Recirculate(5000, &wait);
  EXPECT_EQ(out, 5000 + Lat().switch_recirculation);
  EXPECT_EQ(wait, 0u);  // Pass-through stage under kFifo.
}

TEST(Fabric, OneRttFetchCalibrationIsRouted) {
  // Fig. 7 anchor: the routed idle RTT must stay within the paper's ~9.1us band.
  const SimTime fetch = Lat().OneRttFetch();
  EXPECT_GE(fetch, 8000u);
  EXPECT_LE(fetch, 9500u);
}

TEST(Fabric, UtilizationRisesWithLoad) {
  FabricConfig cfg;
  cfg.queue_model = QueueModelKind::kWindowedMG1;
  Fabric f(2, 2, Lat(), cfg);
  EXPECT_EQ(f.Utilization(Endpoint::Memory(0)), 0.0);
  for (int i = 0; i < 64; ++i) {
    (void)f.Route(Endpoint::Switch(), Endpoint::Memory(0),
                  MessageKind::kRdmaReadResponse, 0);
  }
  EXPECT_GT(f.Utilization(Endpoint::Memory(0)), 0.0);
  EXPECT_LE(f.Utilization(Endpoint::Memory(0)), 1.0);
  EXPECT_EQ(f.Utilization(Endpoint::Memory(1)), 0.0);  // Other ports untouched.
}

TEST(Fabric, MulticastReachesExactlySharers) {
  Fabric f(8, 1, Lat());
  const SharerMask sharers = BladeBit(1) | BladeBit(3) | BladeBit(6);
  std::vector<Fabric::MulticastDelivery> deliveries;
  f.MulticastInvalidation(sharers, 0, &deliveries);
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0].blade, 1);
  EXPECT_EQ(deliveries[1].blade, 3);
  EXPECT_EQ(deliveries[2].blade, 6);
  // Egress-pruned multicast: copies go out in parallel on distinct ports.
  EXPECT_EQ(deliveries[0].delivery.arrival, deliveries[2].delivery.arrival);
  EXPECT_EQ(f.invalidations_sent(), 3u);
  EXPECT_EQ(f.multicast_operations(), 1u);
}

TEST(Fabric, UnicastSlowerThanMulticastForFanout) {
  Fabric fm(8, 1, Lat());
  Fabric fu(8, 1, Lat());
  SharerMask all = 0;
  for (int i = 0; i < 8; ++i) {
    all |= BladeBit(static_cast<ComputeBladeId>(i));
  }
  std::vector<Fabric::MulticastDelivery> mc;
  std::vector<Fabric::MulticastDelivery> uc;
  fm.MulticastInvalidation(all, 0, &mc);
  fu.UnicastInvalidations(all, 0, &uc);
  SimTime mc_last = 0;
  SimTime uc_last = 0;
  for (const auto& d : mc) {
    mc_last = std::max(mc_last, d.delivery.arrival);
  }
  for (const auto& d : uc) {
    uc_last = std::max(uc_last, d.delivery.arrival);
  }
  // Sequential software sends pay per-message issue cost before fan-out completes.
  EXPECT_GT(uc_last, mc_last);
}

TEST(Fabric, EmptyMaskNoDeliveries) {
  Fabric f(4, 1, Lat());
  std::vector<Fabric::MulticastDelivery> deliveries(3);  // Stale contents are replaced.
  f.MulticastInvalidation(0, 0, &deliveries);
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(f.invalidations_sent(), 0u);
}

TEST(Reliability, LossFreeSingleAttempt) {
  ReliabilityTracker r;
  const auto out = r.SendWithAck(9000);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.latency, 9000u);
  EXPECT_EQ(r.snapshot().timeouts, 0u);
}

TEST(Reliability, LossyEventuallyDelivers) {
  ReliabilityConfig cfg;
  cfg.loss_probability = 0.5;
  cfg.max_retransmissions = 50;
  ReliabilityTracker r(cfg);
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    const auto out = r.SendWithAck(1000);
    if (!out.delivered) {
      ++failures;
    } else if (out.attempts > 1) {
      // Retried sends pay the timeout before succeeding.
      EXPECT_GT(out.latency, 1000u);
    }
  }
  EXPECT_EQ(failures, 0);  // 50 retries at p=0.5 practically never exhaust.
  const ReliabilityTracker::Snapshot snap = r.snapshot();
  EXPECT_GT(snap.timeouts, 0u);
  EXPECT_GT(snap.retransmissions, 0u);
}

TEST(Reliability, AlwaysLostTriggersReset) {
  ReliabilityConfig cfg;
  cfg.loss_probability = 1.0;
  cfg.max_retransmissions = 3;
  ReliabilityTracker r(cfg);
  const auto out = r.SendWithAck(1000);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.attempts, 4);  // Initial + 3 retransmissions.
  EXPECT_EQ(r.snapshot().resets_triggered, 1u);
  EXPECT_EQ(out.latency, 4 * cfg.ack_timeout);
}

TEST(Reliability, ZeroRetransmissionBudgetAlwaysLost) {
  // Degenerate budget: the initial send is the only attempt. Exhaustion pays exactly one
  // ack_timeout (no base RTT lands — the message never arrived) and counts one timeout,
  // zero retransmissions, one reset.
  ReliabilityConfig cfg;
  cfg.loss_probability = 1.0;
  cfg.max_retransmissions = 0;
  ReliabilityTracker r(cfg);
  const auto out = r.SendWithAck(9000);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.latency, cfg.ack_timeout);
  const ReliabilityTracker::Snapshot snap = r.snapshot();
  EXPECT_EQ(snap.timeouts, 1u);
  EXPECT_EQ(snap.retransmissions, 0u);
  EXPECT_EQ(snap.resets_triggered, 1u);
}

TEST(Reliability, ZeroRetransmissionBudgetLossFree) {
  // Same budget without loss: the single attempt delivers at the base RTT and nothing is
  // counted — the p = 0 fast path must stay bit-identical to no tracker at all.
  ReliabilityConfig cfg;
  cfg.loss_probability = 0.0;
  cfg.max_retransmissions = 0;
  ReliabilityTracker r(cfg);
  const auto out = r.SendWithAck(9000);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.latency, 9000u);
  EXPECT_EQ(r.snapshot(), ReliabilityTracker::Snapshot{});
}

TEST(Reliability, ExhaustedLatencySumsEveryTimeout) {
  // delivered = false means every attempt timed out: latency is exactly
  // (max_retransmissions + 1) * ack_timeout, independent of the base RTT.
  ReliabilityConfig cfg;
  cfg.loss_probability = 1.0;
  cfg.max_retransmissions = 7;
  ReliabilityTracker r(cfg);
  const auto out = r.SendWithAck(123456);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.attempts, 8);
  EXPECT_EQ(out.latency, 8 * cfg.ack_timeout);
  EXPECT_EQ(r.snapshot().timeouts, 8u);
}

}  // namespace
}  // namespace mind
