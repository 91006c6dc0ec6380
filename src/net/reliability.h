// Communication-failure handling (§4.4): ACKs, timeouts, retransmission and the reset path.
//
// MIND detects packet loss with ACKs + timeouts; a requester retransmits up to a limit, after
// which it sends a *reset* for the virtual address to the switch control plane, forcing all
// compute blades to flush their data for that address and removing the directory entry. That
// reset is what prevents deadlock when a blade dies mid-transition. This module tracks the
// bookkeeping and exposes a failure-injection hook used by the failure tests.
#ifndef MIND_SRC_NET_RELIABILITY_H_
#define MIND_SRC_NET_RELIABILITY_H_

#include <cstdint>
#include <functional>

#include "src/common/phase_guard.h"
#include "src/common/rng.h"
#include "src/common/types.h"

namespace mind {

struct ReliabilityConfig {
  SimTime ack_timeout = 100 * kMicrosecond;  // Conservative vs ~9-18 us transitions.
  int max_retransmissions = 3;
  double loss_probability = 0.0;             // Failure injection; 0 in normal operation.
  uint64_t loss_seed = 42;
};

class ReliabilityTracker {
 public:
  explicit ReliabilityTracker(const ReliabilityConfig& config = {})
      : config_(config), rng_(config.loss_seed) {}

  // Outcome of sending one message-with-ACK under the loss model. `base_rtt` is the loss-free
  // round-trip; the returned latency includes timeout + retransmission costs actually paid.
  struct SendOutcome {
    bool delivered = true;     // False => retransmission limit exhausted; caller must reset.
    int attempts = 1;
    SimTime latency = 0;       // Total elapsed including timeouts.
  };

  // Draws the seeded loss RNG: serialized paths only (docs/determinism.md).
  MIND_SERIALIZED_PATH SendOutcome SendWithAck(SimTime base_rtt) {
    SendOutcome out;
    out.latency = 0;
    for (int attempt = 0; attempt <= config_.max_retransmissions; ++attempt) {
      out.attempts = attempt + 1;
      const bool lost = config_.loss_probability > 0.0 && rng_.NextBool(config_.loss_probability);
      if (!lost) {
        out.latency += base_rtt;
        out.delivered = true;
        if (attempt > 0) {
          retransmissions_ += static_cast<uint64_t>(attempt);
        }
        return out;
      }
      out.latency += config_.ack_timeout;  // Wait out the timer before retrying.
      ++timeouts_;
    }
    out.delivered = false;
    retransmissions_ += static_cast<uint64_t>(config_.max_retransmissions);
    ++resets_triggered_;
    return out;
  }

  // Point-in-time view of the protocol counters (monotonic; diff two snapshots for a
  // window). Exact equality is meaningful: the fault conformance oracle compares these.
  struct Snapshot {
    uint64_t timeouts = 0;
    uint64_t retransmissions = 0;
    uint64_t resets_triggered = 0;
    friend bool operator==(const Snapshot&, const Snapshot&) = default;
  };

  [[nodiscard]] Snapshot snapshot() const {
    return Snapshot{timeouts_, retransmissions_, resets_triggered_};
  }

  [[nodiscard]] const ReliabilityConfig& config() const { return config_; }

 private:
  ReliabilityConfig config_;
  Rng rng_;
  uint64_t timeouts_ = 0;
  uint64_t retransmissions_ = 0;
  uint64_t resets_triggered_ = 0;
};

}  // namespace mind

#endif  // MIND_SRC_NET_RELIABILITY_H_
