#include "src/net/queue_model.h"

#include <utility>

namespace mind {

void QueueModel::GrowRing() {
  std::vector<Demand> grown(ring_.empty() ? kInitialRing : 2 * ring_.size());
  const size_t mask = ring_.size() - 1;
  for (size_t i = 0; i < count_; ++i) {
    grown[i] = ring_[(head_ + i) & mask];
  }
  ring_ = std::move(grown);
  head_ = 0;
}

QueueModel MakeQueueModel(const FabricConfig& config) {
  return QueueModel(config.queue_model == QueueModelKind::kWindowedMG1
                        ? QueueDiscipline::kWindowedMG1
                        : QueueDiscipline::kFifo,
                    config.window_ns);
}

QueueModel MakeStageModel(const FabricConfig& config) {
  if (config.queue_model == QueueModelKind::kFifo) {
    return QueueModel(QueueDiscipline::kPassThrough, config.window_ns);
  }
  return MakeQueueModel(config);
}

}  // namespace mind
