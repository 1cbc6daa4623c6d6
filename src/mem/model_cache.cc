#include "mem/model_cache.h"

#include <cassert>

namespace aegaeon {

ModelCache::ModelCache(double capacity_bytes, double remote_bw_bytes_per_s)
    : capacity_(capacity_bytes), remote_bw_(remote_bw_bytes_per_s) {
  assert(capacity_ > 0.0);
  assert(remote_bw_ > 0.0);
}

void ModelCache::EnableSsdTier(double ssd_capacity_bytes, double ssd_bw_bytes_per_s) {
  assert(ssd_capacity_bytes >= 0.0);
  assert(ssd_bw_bytes_per_s > 0.0);
  ssd_capacity_ = ssd_capacity_bytes;
  ssd_bw_ = ssd_bw_bytes_per_s;
}

ModelCache::Slot& ModelCache::SlotFor(ModelId model) {
  assert(model != kInvalidModel);
  if (model >= slots_.size()) {
    slots_.resize(static_cast<size_t>(model) + 1);
  }
  return slots_[model];
}

void ModelCache::Unlink(Tier tier, uint32_t id) {
  Slot& slot = slots_[id];
  const uint32_t prev = slot.prev[tier];
  const uint32_t next = slot.next[tier];
  (prev == kNil ? lru_[tier].front : slots_[prev].next[tier]) = next;
  (next == kNil ? lru_[tier].back : slots_[next].prev[tier]) = prev;
}

void ModelCache::PushFront(Tier tier, uint32_t id) {
  Slot& slot = slots_[id];
  slot.prev[tier] = kNil;
  slot.next[tier] = lru_[tier].front;
  (lru_[tier].front == kNil ? lru_[tier].back : slots_[lru_[tier].front].prev[tier]) = id;
  lru_[tier].front = id;
}

void ModelCache::DemoteToSsd(uint32_t id, double bytes) {
  if (ssd_capacity_ <= 0.0 || bytes > ssd_capacity_) {
    return;
  }
  if (slots_[id].on_ssd) {
    return;  // already present; keep its LRU position
  }
  while (ssd_used_ + bytes > ssd_capacity_ && lru_[kSsd].back != kNil) {
    const uint32_t victim = lru_[kSsd].back;
    Unlink(kSsd, victim);
    ssd_used_ -= slots_[victim].ssd_bytes;
    slots_[victim].on_ssd = false;
  }
  slots_[id].on_ssd = true;
  slots_[id].ssd_bytes = bytes;
  PushFront(kSsd, id);
  ssd_used_ += bytes;
}

ModelCache::LoadPlan ModelCache::Load(ModelId model, double bytes) {
  LoadPlan plan;
  Slot& slot = SlotFor(model);  // no resize below, so the reference holds
  if (slot.resident) {
    plan.cache_hit = true;
    ++hits_;
    Unlink(kDram, model);
    PushFront(kDram, model);
    return plan;
  }
  ++misses_;
  if (slot.on_ssd) {
    plan.ssd_hit = true;
    plan.registry_fetch = bytes / ssd_bw_;
    ++ssd_hits_;
    // Promote: bump SSD LRU position (the copy stays on SSD as well).
    Unlink(kSsd, model);
    PushFront(kSsd, model);
  } else {
    plan.registry_fetch = bytes / remote_bw_;
  }
  if (bytes > capacity_) {
    return plan;  // streams through the stage buffer; nothing is retained
  }
  while (used_ + bytes > capacity_) {
    const uint32_t victim = lru_[kDram].back;
    if (victim == kNil) {
      return plan;  // only rounding residue in used_ is left; do not retain
    }
    // Evicted checkpoints demote to the SSD tier (when enabled) so a later
    // reload costs an NVMe read instead of a registry fetch.
    DemoteToSsd(victim, slots_[victim].bytes);
    used_ -= slots_[victim].bytes;
    slots_[victim].resident = false;
    Unlink(kDram, victim);
    ++evictions_;
  }
  slot.resident = true;
  slot.bytes = bytes;
  PushFront(kDram, model);
  used_ += bytes;
  return plan;
}

}  // namespace aegaeon
