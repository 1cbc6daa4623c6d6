// The host-memory Model Cache of §5.2 ("Quick model loading").
//
// Raw tensor chunks of model checkpoints are cached in a shared host memory
// region. A cache hit loads weights GPU-ward at the optimized effective PCIe
// bandwidth via the per-GPU page-locked Stage Buffer; a miss falls back to
// an optional local SSD tier (ServerlessLLM-style multi-tier checkpoint
// storage) and finally to the remote registry (Figure 5) at network speed.
// DRAM evictions demote to the SSD tier instead of being dropped.
//
// This class makes placement/eviction decisions and reports fetch latencies;
// the engine's auto-scaler turns them into simulated transfers.
//
// Layout: one dense slot per ModelId (ids are dense, ModelRegistry::Add
// hands out models_.size()), grown on first touch. Each slot carries its
// DRAM and SSD state plus prev/next indices into two intrusive LRU lists,
// one per tier, so a hit, a promotion, an eviction and a demotion are each
// an unlink plus a link at the front: O(1), and ordered by plain indices,
// never by hash iteration (aegaeon_lint's unordered-container rule).
//
// There are no pins. Each loader (AutoScaler::ScaleTo and Prefetch) reads
// the plan and enqueues the host-to-device copy in one synchronous call,
// with no event in between, so no other Load runs while a checkpoint is
// being copied out and the eviction victim is always the DRAM LRU tail.

#ifndef AEGAEON_MEM_MODEL_CACHE_H_
#define AEGAEON_MEM_MODEL_CACHE_H_

#include <cstdint>
#include <vector>

#include "model/registry.h"
#include "sim/time.h"

namespace aegaeon {

class ModelCache {
 public:
  // `capacity_bytes`: DRAM reserved for cached checkpoints.
  // `remote_bw_bytes_per_s`: bandwidth to the remote model registry.
  ModelCache(double capacity_bytes, double remote_bw_bytes_per_s);

  // Enables the local SSD tier: `ssd_capacity_bytes` of checkpoint storage
  // read at `ssd_bw_bytes_per_s` (NVMe-class).
  void EnableSsdTier(double ssd_capacity_bytes, double ssd_bw_bytes_per_s);

  struct LoadPlan {
    bool cache_hit = false;
    bool ssd_hit = false;
    // Time to bring the checkpoint into the Model Cache (0 on a DRAM hit;
    // an SSD read or a registry fetch otherwise).
    Duration registry_fetch = 0.0;
  };

  // Ensures `model`'s checkpoint (`bytes` large) is resident, evicting
  // least-recently-used entries as needed, bumps its recency, and returns
  // how long residency takes to establish. Used for loads, prefetches and
  // pre-staging alike. A checkpoint larger than the cache streams straight
  // through the stage buffer and is not retained.
  LoadPlan Load(ModelId model, double bytes);

  bool Resident(ModelId model) const { return model < slots_.size() && slots_[model].resident; }
  bool OnSsd(ModelId model) const { return model < slots_.size() && slots_[model].on_ssd; }
  double used_bytes() const { return used_; }
  double capacity_bytes() const { return capacity_; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t ssd_hits() const { return ssd_hits_; }
  double ssd_used_bytes() const { return ssd_used_; }

 private:
  enum Tier { kDram = 0, kSsd = 1 };
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Slot {
    double bytes = 0.0;      // DRAM copy size, valid while `resident`
    double ssd_bytes = 0.0;  // SSD copy size, valid while `on_ssd`
    bool resident = false;
    bool on_ssd = false;
    uint32_t prev[2] = {kNil, kNil};  // toward the front of lru_[tier]
    uint32_t next[2] = {kNil, kNil};  // toward the back (least recent)
  };
  struct Lru {
    uint32_t front = kNil;  // most recent
    uint32_t back = kNil;   // eviction victim
  };

  Slot& SlotFor(ModelId model);
  void Unlink(Tier tier, uint32_t id);
  void PushFront(Tier tier, uint32_t id);
  // Writes an evicted checkpoint to the SSD tier (LRU within the tier).
  void DemoteToSsd(uint32_t id, double bytes);

  double capacity_;
  double remote_bw_;
  double used_ = 0.0;
  std::vector<Slot> slots_;  // indexed by ModelId
  Lru lru_[2];
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;

  // SSD tier (disabled until EnableSsdTier).
  double ssd_capacity_ = 0.0;
  double ssd_bw_ = 0.0;
  double ssd_used_ = 0.0;
  uint64_t ssd_hits_ = 0;
};

}  // namespace aegaeon

#endif  // AEGAEON_MEM_MODEL_CACHE_H_
