// FlatIdMap: an integer-keyed map to non-negative int32 values in one flat array (open
// addressing, linear probing, at most half full), for tables rebuilt every round from
// scratch: Reset keeps the storage, so a rebuild of the same size allocates nothing, and a
// lookup is a multiply, a shift and a short probe instead of a node walk.
//
// Keys are sparse ids (server ids, replica keys, hashes), so they are hashed, never used as
// indices.

#ifndef SRC_COMMON_FLAT_ID_MAP_H_
#define SRC_COMMON_FLAT_ID_MAP_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace shardman {

class FlatIdMap {
 public:
  // Empties the map and sizes it for up to `max_entries` keys.
  void Reset(size_t max_entries) {
    size_t slots = 16;
    while (slots < 2 * max_entries) {
      slots <<= 1;
    }
    slots_.assign(slots, Slot{});
    shift_ = 64 - std::countr_zero(slots);
    size_ = 0;
    max_entries_ = max_entries;
  }

  // The value stored for `key`, or -1.
  int32_t Find(int64_t key) const { return slots_.empty() ? -1 : slots_[Probe(key)].value; }

  // Stores `value` for `key`, replacing an earlier value.
  void Assign(int64_t key, int32_t value) { *Claim(key, value) = value; }

  // The value stored for `key`; stores `value` first when the key is new.
  int32_t FindOrInsert(int64_t key, int32_t value) { return *Claim(key, value); }

 private:
  struct Slot {
    int64_t key = 0;
    int32_t value = -1;  // -1: empty
  };

  // The slot holding `key`, or the empty slot where it would go.
  size_t Probe(int64_t key) const {
    const size_t mask = slots_.size() - 1;
    size_t i =
        static_cast<size_t>((static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (slots_[i].value >= 0 && slots_[i].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  int32_t* Claim(int64_t key, int32_t value) {
    SM_CHECK_GE(value, 0);
    SM_CHECK(!slots_.empty());  // Reset first
    Slot& slot = slots_[Probe(key)];
    if (slot.value < 0) {
      SM_CHECK_LT(size_, max_entries_);  // Reset sized the table for fewer keys
      ++size_;
      slot.key = key;
      slot.value = value;
    }
    return &slot.value;
  }

  std::vector<Slot> slots_;
  int shift_ = 64;
  size_t size_ = 0;
  size_t max_entries_ = 0;
};

}  // namespace shardman

#endif  // SRC_COMMON_FLAT_ID_MAP_H_
