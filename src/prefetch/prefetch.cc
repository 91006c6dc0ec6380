#include "src/prefetch/prefetch.h"

namespace mind {

std::optional<PrefetchPolicy> ParsePrefetchPolicy(std::string_view s) {
  if (s == "none") {
    return PrefetchPolicy::kNone;
  }
  if (s == "nextn") {
    return PrefetchPolicy::kNextN;
  }
  if (s == "stride") {
    return PrefetchPolicy::kMajorityStride;
  }
  return std::nullopt;
}

int64_t StrideDetector::MajorityStride() const {
  const uint32_t n = num_deltas_;
  if (n < kWarmupDeltas) {
    return 0;
  }
  // Boyer-Moore majority vote, then a verification count: the candidate is only a real
  // stride if strictly more than half the deltas agree (Leap's majority criterion, which
  // is what keeps interleaved streams and random noise from producing a bogus stride).
  // A strict majority wins the vote in any visit order, so both passes read the ring in
  // slot order.
  int64_t candidate = 0;
  uint32_t votes = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const int64_t d = deltas_[i];
    if (votes == 0) {
      candidate = d;
      votes = 1;
    } else if (d == candidate) {
      ++votes;
    } else {
      --votes;
    }
  }
  uint32_t count = 0;
  for (uint32_t i = 0; i < n; ++i) {
    count += deltas_[i] == candidate ? 1 : 0;
  }
  if (candidate == 0 || count * 2 <= n) {
    return 0;
  }
  return candidate;
}

PrefetchCandidates PrefetchEngine::Predict(uint64_t page) const {
  int64_t stride = 0;
  switch (config_.policy) {
    case PrefetchPolicy::kNone:
      return {};
    case PrefetchPolicy::kNextN:
      stride = 1;
      break;
    case PrefetchPolicy::kMajorityStride:
      stride = detector_.MajorityStride();
      if (stride == 0) {
        return {};  // No majority pattern: speculating would only pollute the cache.
      }
      break;
  }
  // Stop at address-space edges instead of wrapping into foreign mappings: at most
  // `room` whole strides fit between `page` and the edge the stride points at.
  const uint64_t magnitude =
      stride > 0 ? static_cast<uint64_t>(stride) : uint64_t{0} - static_cast<uint64_t>(stride);
  const uint64_t room = (stride > 0 ? ~uint64_t{0} - page : page) / magnitude;
  return {page, stride, static_cast<uint32_t>(std::min<uint64_t>(window_, room))};
}

}  // namespace mind
