// Open-addressed hash map from 64-bit keys to small values — the flat, cache-friendly
// building block of the simulated switch's O(1) access pipeline.
//
// The data-plane hot paths (directory lookup, TCAM LPM probe, DRAM-cache hit) model
// match-action table lookups that execute in a constant number of SRAM reads on the ASIC.
// A red-black tree's pointer-chasing descent is the wrong cost model for that; this map
// does a hash, a masked index and a short linear probe over three parallel arrays, which
// is as close as portable C++ gets to the hardware's behavior.
//
// Semantics: linear probing, power-of-two capacity, max load factor 3/4 before an
// amortized doubling. Erase uses backward-shift deletion: the entries behind the erased
// slot in its probe cluster slide back into the hole, so the table never holds a
// tombstone, probe lengths stay those of a table that never saw the erased key, and
// churn at a fixed live size never grows or rehashes the table. Value pointers returned
// by Find or Upsert are invalidated by any subsequent mutation — an Erase moves
// *other* keys' values too — so callers copy a value out before erasing anything, and
// callers needing stable storage keep indices into an external arena instead (see
// CacheDirectory, DramCache).
#ifndef MIND_SRC_COMMON_FLAT_MAP_H_
#define MIND_SRC_COMMON_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mind {

template <typename Value>
class FlatMap64 {
 public:
  FlatMap64() = default;

  [[nodiscard]] Value* Find(uint64_t key) {
    return const_cast<Value*>(static_cast<const FlatMap64*>(this)->Find(key));
  }

  [[nodiscard]] const Value* Find(uint64_t key) const {
    if (state_.empty()) {
      return nullptr;
    }
    size_t idx = Hash(key) & mask_;
    while (true) {
      const uint8_t s = state_[idx];
      if (s == kEmpty) {
        return nullptr;
      }
      if (s == kFull && keys_[idx] == key) {
        return &values_[idx];
      }
      idx = (idx + 1) & mask_;
    }
  }

  // Inserts `value` under `key`, or assigns it to the existing entry. Returns the value
  // slot and whether a new entry was created.
  std::pair<Value*, bool> Upsert(uint64_t key, Value value) {
    if (state_.empty() || (size_ + 1) * 4 >= (mask_ + 1) * 3) {
      Grow();
    }
    size_t idx = Hash(key) & mask_;
    while (true) {
      const uint8_t s = state_[idx];
      if (s == kFull && keys_[idx] == key) {
        values_[idx] = std::move(value);
        return {&values_[idx], false};
      }
      if (s == kEmpty) {
        state_[idx] = kFull;
        keys_[idx] = key;
        values_[idx] = std::move(value);
        ++size_;
        return {&values_[idx], true};
      }
      idx = (idx + 1) & mask_;
    }
  }

  bool Erase(uint64_t key) {
    const Value* found = Find(key);
    if (found == nullptr) {
      return false;
    }
    EraseAt(found);
    return true;
  }

  // Erases the entry `found` points at: a value pointer that Find or Upsert returned,
  // with no mutation since. Saves the probe of a Find-then-Erase(key).
  void EraseAt(const Value* found) {
    assert(found != nullptr && found >= values_.data() &&
           found < values_.data() + values_.size() &&
           state_[static_cast<size_t>(found - values_.data())] == kFull &&
           "EraseAt needs a live pointer into this map");
    size_t hole = static_cast<size_t>(found - values_.data());
    // Backward shift: walk the rest of the cluster and move each entry whose home slot
    // is cyclically at or before the hole (its probe distance covers the hole) into it.
    for (size_t next = (hole + 1) & mask_; state_[next] == kFull; next = (next + 1) & mask_) {
      const size_t home = Hash(keys_[next]) & mask_;
      if (((next - home) & mask_) >= ((next - hole) & mask_)) {
        keys_[hole] = keys_[next];
        values_[hole] = std::move(values_[next]);
        hole = next;
      }
    }
    state_[hole] = kEmpty;
    values_[hole] = Value{};  // Release value-held resources eagerly.
    --size_;
  }

  // Unordered iteration; fn(key, value&). The map must not be mutated during iteration.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] == kFull) {
        fn(keys_[i], values_[i]);
      }
    }
  }

  void Clear() {
    state_.clear();
    keys_.clear();
    values_.clear();
    size_ = 0;
    mask_ = 0;
  }

  void Reserve(size_t n) {
    size_t cap = 16;
    while (n * 3 >= cap * 2) {
      cap <<= 1;
    }
    if (cap > state_.size()) {
      Rehash(cap);
    }
  }

  // Sizes the table for steady churn at up to `live` entries, where every insert is
  // paired with an erase (a full cache's page index, an in-flight table): load stays
  // below 1/3 instead of Upsert's 1/2 to 3/4, so lookups and backward-shift erasures
  // rarely probe past the home slot. A no-op once the table is that large, so a table
  // whose live size grows can call it before each insert.
  void ReserveForChurn(size_t live) {
    if (state_.size() < 3 * live) {
      Reserve(2 * live);
    }
  }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] size_t capacity() const { return state_.size(); }

 private:
  enum : uint8_t { kEmpty = 0, kFull = 1 };

  [[nodiscard]] static size_t Hash(uint64_t key) {
    uint64_t h = key * 0x9E3779B97F4A7C15ull;  // Fibonacci multiplier.
    h ^= h >> 32;
    return static_cast<size_t>(h);
  }

  void Grow() {
    size_t cap = 16;
    while ((size_ + 1) * 2 >= cap) {
      cap <<= 1;  // Rehash to load factor <= 1/2.
    }
    Rehash(cap);
  }

  void Rehash(size_t new_cap) {
    std::vector<uint8_t> old_state = std::move(state_);
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    state_.assign(new_cap, kEmpty);
    keys_.assign(new_cap, 0);
    values_.assign(new_cap, Value{});
    mask_ = new_cap - 1;
    for (size_t i = 0; i < old_state.size(); ++i) {
      if (old_state[i] != kFull) {
        continue;
      }
      size_t idx = Hash(old_keys[i]) & mask_;
      while (state_[idx] == kFull) {
        idx = (idx + 1) & mask_;
      }
      state_[idx] = kFull;
      keys_[idx] = old_keys[i];
      values_[idx] = std::move(old_values[i]);
    }
  }

  std::vector<uint8_t> state_;
  std::vector<uint64_t> keys_;
  std::vector<Value> values_;
  size_t size_ = 0;
  size_t mask_ = 0;  // capacity - 1 (0 when unallocated).
};

}  // namespace mind

#endif  // MIND_SRC_COMMON_FLAT_MAP_H_
