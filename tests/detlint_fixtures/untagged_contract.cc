// detlint-expect: untagged-contract
// Overrides of the phase-contract methods (MemorySystem, AccessChannel) must
// restate their phase tag so the contract stays total: a new system cannot
// silently opt out of declaring which phase its channel entry points run in.
#include <cstddef>
#include <cstdint>

#define MIND_PARALLEL_PHASE
#define MIND_SERIALIZED_PATH

namespace mind {

using SimTime = uint64_t;

class AccessChannel {
 public:
  virtual ~AccessChannel() = default;
  MIND_PARALLEL_PHASE virtual bool RunValid() const = 0;
  MIND_PARALLEL_PHASE virtual void Commit(size_t count, SimTime now) = 0;
};

class MyChannel final : public AccessChannel {
 public:
  // BAD: no phase tag restated on a contract method override.
  bool RunValid() const override { return valid_; }
  MIND_PARALLEL_PHASE void Commit(size_t count, SimTime now) override {
    valid_ = count != 0 && now != 0;
  }

 private:
  bool valid_ = true;
};

}  // namespace mind
