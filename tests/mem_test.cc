// Tests for the explicit memory management substrate (§5.2): bump
// allocation, slab allocation, and the host model cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <list>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "mem/bump_allocator.h"
#include "mem/model_cache.h"
#include "mem/slab_allocator.h"
#include "sim/random.h"

namespace aegaeon {
namespace {

// --- BumpAllocator --------------------------------------------------------

TEST(BumpAllocatorTest, AllocationsAreConsecutiveAndAligned) {
  BumpAllocator bump(1024);
  auto a = bump.Alloc(100, 64);
  auto b = bump.Alloc(100, 64);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 128u);  // 100 rounded up to the next 64-byte boundary
  EXPECT_EQ(*b % 64, 0u);
}

TEST(BumpAllocatorTest, ExhaustionReturnsNullopt) {
  BumpAllocator bump(256);
  EXPECT_TRUE(bump.Alloc(200, 1).has_value());
  EXPECT_FALSE(bump.Alloc(100, 1).has_value());
  EXPECT_EQ(bump.used(), 200u);
}

TEST(BumpAllocatorTest, ResetIsInstantFullFree) {
  BumpAllocator bump(256);
  bump.Alloc(200, 1);
  bump.Reset();
  EXPECT_EQ(bump.used(), 0u);
  EXPECT_TRUE(bump.Alloc(256, 1).has_value());
  EXPECT_EQ(bump.high_water(), 256u);
}

TEST(BumpAllocatorTest, ResetKeepingFrontModelsPrefetchPromotion) {
  BumpAllocator bump(1000);
  bump.Alloc(400, 1);  // running model
  bump.Alloc(300, 1);  // prefetched model behind it
  // Promote: the prefetched 300 bytes move to the front; rest freed.
  bump.ResetKeepingFront(300);
  EXPECT_EQ(bump.used(), 300u);
  EXPECT_EQ(bump.remaining(), 700u);
}

TEST(BumpAllocatorTest, OverflowNearCapacityIsSafe) {
  BumpAllocator bump(100);
  bump.Alloc(90, 1);
  // aligned offset would exceed capacity; must not wrap.
  EXPECT_FALSE(bump.Alloc(1, 64).has_value());
}

// --- SlabAllocator ----------------------------------------------------------

TEST(SlabAllocatorTest, AllocatesRegisteredShapes) {
  SlabAllocator slabs(1000, 100);
  ASSERT_TRUE(slabs.RegisterShape(0, 30));  // 3 blocks per slab
  auto blocks = slabs.Alloc(0, 4);
  EXPECT_EQ(blocks.size(), 4u);
  EXPECT_EQ(slabs.used_bytes(0), 120u);
  EXPECT_EQ(slabs.held_bytes(0), 200u);  // two slabs
}

TEST(SlabAllocatorTest, RejectsOversizedBlocks) {
  SlabAllocator slabs(1000, 100);
  EXPECT_FALSE(slabs.RegisterShape(0, 101));
  EXPECT_FALSE(slabs.RegisterShape(1, 0));
  EXPECT_TRUE(slabs.RegisterShape(2, 100));
}

TEST(SlabAllocatorTest, AllOrNothingOnExhaustion) {
  SlabAllocator slabs(200, 100);
  slabs.RegisterShape(0, 100);  // 1 block per slab, 2 slabs total
  EXPECT_EQ(slabs.Alloc(0, 3).size(), 0u);
  // The failed allocation rolled back completely.
  EXPECT_EQ(slabs.used_bytes(0), 0u);
  EXPECT_EQ(slabs.free_slabs(), 2u);
  EXPECT_EQ(slabs.Alloc(0, 2).size(), 2u);
}

TEST(SlabAllocatorTest, EmptySlabsAreReclaimedForOtherShapes) {
  SlabAllocator slabs(200, 100);
  slabs.RegisterShape(0, 100);
  slabs.RegisterShape(1, 50);
  auto blocks = slabs.Alloc(0, 2);  // consumes both slabs
  EXPECT_EQ(slabs.Alloc(1, 1).size(), 0u);
  slabs.Free(blocks);
  EXPECT_EQ(slabs.free_slabs(), 2u);
  EXPECT_EQ(slabs.Alloc(1, 4).size(), 4u);  // shape 1 now fits
}

TEST(SlabAllocatorTest, BlocksAreUniqueAcrossShapes) {
  SlabAllocator slabs(10000, 1000);
  slabs.RegisterShape(0, 128);
  slabs.RegisterShape(1, 512);
  std::set<uint64_t> seen;
  auto a = slabs.Alloc(0, 20);
  auto b = slabs.Alloc(1, 10);
  for (const BlockRef& block : a) {
    EXPECT_TRUE(seen.insert(block.Packed()).second);
  }
  for (const BlockRef& block : b) {
    EXPECT_TRUE(seen.insert(block.Packed()).second);
  }
}

TEST(SlabAllocatorTest, FragmentationStatsTrackPeak) {
  SlabAllocator slabs(1000, 100);
  slabs.RegisterShape(0, 40);  // 2 blocks/slab, 20% slack per full slab
  auto blocks = slabs.Alloc(0, 3);  // 2 slabs held, 120 used of 200
  auto stats = slabs.shape_stats(0);
  EXPECT_EQ(stats.peak_held_bytes, 200u);
  EXPECT_EQ(stats.used_at_peak, 120u);
  EXPECT_NEAR(stats.FragmentationAtPeak(), 0.4, 1e-9);
  slabs.Free(blocks);
  EXPECT_EQ(slabs.shape_stats(0).used_bytes, 0u);
  // Peak statistics persist after frees.
  EXPECT_EQ(slabs.shape_stats(0).peak_held_bytes, 200u);
}

// The hand-out order is part of the allocator's contract: KV block ids feed
// SimSan's shadow state and the cluster's digests, so a refactor must hand
// out exactly the same BlockRefs. Returned slabs and blocks go first (LIFO),
// then fresh ones in ascending order.
// Replays a fixed Alloc/Free/FreeOne script over two shapes on a 6-slab
// arena and logs, per step, the blocks handed out and free_slabs().
std::string ReplaySlabScript() {
  SlabAllocator slabs(600, 100);
  slabs.RegisterShape(0, 25);  // 4 blocks per slab
  slabs.RegisterShape(1, 40);  // 2 blocks per slab
  std::vector<std::vector<BlockRef>> held;
  std::string log;
  auto note = [&](const std::string& step) {
    log += step + " free=" + std::to_string(slabs.free_slabs()) + "\n";
  };
  auto alloc = [&](ShapeClassId shape, size_t count) {
    std::vector<BlockRef> blocks = slabs.Alloc(shape, count);
    std::string step = "A" + std::to_string(shape) + "x" + std::to_string(count) + ":";
    for (const BlockRef& block : blocks) {
      step += " " + std::to_string(block.slab) + "." + std::to_string(block.index);
    }
    held.push_back(std::move(blocks));
    note(step);
  };
  auto free_one = [&](size_t handle, size_t i) {
    slabs.FreeOne(held[handle][i]);
    held[handle].erase(held[handle].begin() + static_cast<std::ptrdiff_t>(i));
    note("F1 h" + std::to_string(handle));
  };
  auto free_all = [&](size_t handle) {
    slabs.Free(held[handle]);
    held[handle].clear();
    note("F h" + std::to_string(handle));
  };
  alloc(0, 6);       // h0: slab 0 full, slab 1 half
  alloc(1, 3);       // h1: slabs 2-3
  free_one(0, 1);    // holes in slab 0
  free_one(0, 1);
  alloc(0, 3);       // h2: refills the holes LIFO, then slab 1
  free_all(1);       // slabs 2 and 3 reclaimed
  alloc(1, 5);       // h3: reuses returned slabs LIFO, then fresh ones
  alloc(0, 40);      // h4: cannot fit: rolled back, slabs reclaimed again
  free_one(3, 0);
  free_one(3, 2);
  alloc(1, 3);       // h5
  free_all(0);
  free_all(2);       // slabs 0 and 1 reclaimed
  alloc(0, 9);       // h6
  free_one(6, 4);
  free_one(6, 0);
  free_one(6, 6);
  alloc(0, 2);       // h7
  free_all(3);
  free_all(5);
  alloc(1, 7);       // h8
  free_all(6);
  free_all(7);
  free_all(8);       // everything returned
  alloc(0, 24);      // h9: the whole arena as one shape
  free_all(9);
  alloc(1, 12);      // h10: the whole arena as the other shape
  return log;
}

TEST(SlabAllocatorTest, HandOutOrderMatchesGolden) {
  // Recorded from the fully seeded free-stack implementation.
  const std::string golden =
      "A0x6: 0.0 0.1 0.2 0.3 1.0 1.1 free=4\n"
      "A1x3: 2.0 2.1 3.0 free=2\n"
      "F1 h0 free=2\n"
      "F1 h0 free=2\n"
      "A0x3: 0.2 0.1 1.2 free=2\n"
      "F h1 free=4\n"
      "A1x5: 3.0 3.1 2.0 2.1 4.0 free=1\n"
      "A0x40: free=1\n"
      "F1 h3 free=1\n"
      "F1 h3 free=1\n"
      "A1x3: 2.1 3.0 4.1 free=1\n"
      "F h0 free=1\n"
      "F h2 free=3\n"
      "A0x9: 1.0 1.1 1.2 1.3 0.0 0.1 0.2 0.3 5.0 free=0\n"
      "F1 h6 free=0\n"
      "F1 h6 free=0\n"
      "F1 h6 free=1\n"
      "A0x2: 1.0 0.0 free=1\n"
      "F h3 free=1\n"
      "F h5 free=4\n"
      "A1x7: 4.0 4.1 3.0 3.1 2.0 2.1 5.0 free=0\n"
      "F h6 free=0\n"
      "F h7 free=2\n"
      "F h8 free=6\n"
      "A0x24: 5.0 5.1 5.2 5.3 2.0 2.1 2.2 2.3 3.0 3.1 3.2 3.3 4.0 4.1 4.2 4.3 0.0 0.1 0.2 0.3 1.0 1.1 1.2 1.3 free=0\n"
      "F h9 free=6\n"
      "A1x12: 1.0 1.1 0.0 0.1 4.0 4.1 3.0 3.1 2.0 2.1 5.0 5.1 free=0\n";
  EXPECT_EQ(ReplaySlabScript(), golden);
}

// Property test: random alloc/free cycles across several shapes preserve
// the allocator's core invariants.
class SlabPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlabPropertyTest, InvariantsHoldUnderRandomWorkload) {
  SlabAllocator slabs(64 * 1024, 4096);
  const std::vector<uint64_t> block_sizes = {128, 512, 800, 2048};
  for (size_t s = 0; s < block_sizes.size(); ++s) {
    ASSERT_TRUE(slabs.RegisterShape(static_cast<ShapeClassId>(s), block_sizes[s]));
  }
  Rng rng(GetParam());
  std::vector<std::pair<ShapeClassId, std::vector<BlockRef>>> live;
  std::set<uint64_t> outstanding;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      ShapeClassId shape = static_cast<ShapeClassId>(rng.UniformInt(block_sizes.size()));
      size_t count = 1 + rng.UniformInt(6);
      auto blocks = slabs.Alloc(shape, count);
      if (!blocks.empty()) {
        for (const BlockRef& block : blocks) {
          // No block is ever handed out twice.
          ASSERT_TRUE(outstanding.insert(block.Packed()).second);
        }
        live.emplace_back(shape, std::move(blocks));
      }
    } else {
      size_t victim = rng.UniformInt(live.size());
      for (const BlockRef& block : live[victim].second) {
        outstanding.erase(block.Packed());
      }
      slabs.Free(live[victim].second);
      live.erase(live.begin() + victim);
    }
    // used <= held, and held never exceeds the arena.
    ASSERT_LE(slabs.total_used_bytes(), slabs.total_held_bytes());
    ASSERT_LE(slabs.total_held_bytes(), 64u * 1024);
  }
  for (auto& [shape, blocks] : live) {
    slabs.Free(blocks);
  }
  EXPECT_EQ(slabs.total_used_bytes(), 0u);
  EXPECT_EQ(slabs.free_slabs(), slabs.total_slabs());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlabPropertyTest, ::testing::Values(1, 2, 3, 42, 1337));

// --- ModelCache -------------------------------------------------------------

TEST(ModelCacheTest, MissThenHit) {
  ModelCache cache(100e9, 10e9);
  auto first = cache.Load(7, 30e9);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_DOUBLE_EQ(first.registry_fetch, 3.0);
  auto second = cache.Load(7, 30e9);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_DOUBLE_EQ(second.registry_fetch, 0.0);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ModelCacheTest, LruEviction) {
  ModelCache cache(100e9, 10e9);
  cache.Load(0, 40e9);
  cache.Load(1, 40e9);
  cache.Load(0, 40e9);  // touch 0 -> 1 is now LRU
  cache.Load(2, 40e9);  // evicts 1
  EXPECT_TRUE(cache.Resident(0));
  EXPECT_FALSE(cache.Resident(1));
  EXPECT_TRUE(cache.Resident(2));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ModelCacheTest, EvictionDemotesToSsdTier) {
  ModelCache cache(100e9, 10e9);
  cache.EnableSsdTier(/*ssd_capacity_bytes=*/200e9, /*ssd_bw_bytes_per_s=*/5e9);
  cache.Load(0, 80e9);
  cache.Load(1, 80e9);  // evicts 0 -> SSD
  EXPECT_FALSE(cache.Resident(0));
  EXPECT_TRUE(cache.OnSsd(0));
  // Reload of 0: SSD read (16 s at 5 GB/s), not a registry fetch (8 s at
  // 10 GB/s would be cheaper here, but the point is the path taken).
  auto plan = cache.Load(0, 80e9);
  EXPECT_FALSE(plan.cache_hit);
  EXPECT_TRUE(plan.ssd_hit);
  EXPECT_DOUBLE_EQ(plan.registry_fetch, 16.0);
  EXPECT_EQ(cache.ssd_hits(), 1u);
}

TEST(ModelCacheTest, SsdTierEvictsLruWhenFull) {
  ModelCache cache(50e9, 10e9);
  cache.EnableSsdTier(100e9, 5e9);
  cache.Load(0, 40e9);
  cache.Load(1, 40e9);  // 0 -> SSD
  cache.Load(2, 40e9);  // 1 -> SSD
  cache.Load(3, 40e9);  // 2 -> SSD; SSD holds {1, 2}, 0 evicted from SSD
  EXPECT_FALSE(cache.OnSsd(0));
  EXPECT_TRUE(cache.OnSsd(1));
  EXPECT_TRUE(cache.OnSsd(2));
  EXPECT_LE(cache.ssd_used_bytes(), 100e9);
}

TEST(ModelCacheTest, SsdHitRefreshesSsdRecency) {
  ModelCache cache(50e9, 10e9);
  cache.EnableSsdTier(100e9, 5e9);  // room for two 40 GB checkpoints
  cache.Load(0, 40e9);
  cache.Load(1, 40e9);  // 0 -> SSD
  cache.Load(2, 40e9);  // 1 -> SSD; SSD LRU order (oldest first): 0, 1
  auto plan = cache.Load(0, 40e9);  // SSD hit: 0 becomes the most recent
  EXPECT_TRUE(plan.ssd_hit);
  // Loading 0 evicted 2 from DRAM; demoting it pushed out the SSD LRU
  // victim, which is now 1, not the just-read 0.
  EXPECT_TRUE(cache.OnSsd(0));
  EXPECT_FALSE(cache.OnSsd(1));
  EXPECT_TRUE(cache.OnSsd(2));
  EXPECT_DOUBLE_EQ(cache.ssd_used_bytes(), 80e9);
}

TEST(ModelCacheTest, SsdDisabledDropsEvictions) {
  ModelCache cache(100e9, 10e9);
  cache.Load(0, 80e9);
  cache.Load(1, 80e9);
  EXPECT_FALSE(cache.OnSsd(0));
  auto plan = cache.Load(0, 80e9);
  EXPECT_FALSE(plan.ssd_hit);
  EXPECT_DOUBLE_EQ(plan.registry_fetch, 8.0);  // registry path
}

TEST(ModelCacheTest, OversizedLoadStreamsThrough) {
  ModelCache cache(10e9, 10e9);
  auto plan = cache.Load(0, 20e9);
  EXPECT_FALSE(plan.cache_hit);
  EXPECT_DOUBLE_EQ(plan.registry_fetch, 2.0);
  EXPECT_FALSE(cache.Resident(0));  // too big to retain
  EXPECT_DOUBLE_EQ(cache.used_bytes(), 0.0);
}

// The list/map Model Cache with loading pins that the slot table replaced,
// kept verbatim as the differential oracle: ModelCache must make the same
// decisions, bit for bit, including the floating-point order of its byte
// counters.
class ReferenceModelCache {
 public:
  ReferenceModelCache(double capacity_bytes, double remote_bw_bytes_per_s)
      : capacity_(capacity_bytes), remote_bw_(remote_bw_bytes_per_s) {}

  void EnableSsdTier(double ssd_capacity_bytes, double ssd_bw_bytes_per_s) {
    ssd_capacity_ = ssd_capacity_bytes;
    ssd_bw_ = ssd_bw_bytes_per_s;
  }

  ModelCache::LoadPlan PrepareLoad(ModelId model, double bytes) {
    return Insert(model, bytes, /*pin=*/true);
  }

  void Unpin(ModelId model) {
    auto it = entries_.find(model);
    if (it != entries_.end() && it->second.pins > 0) {
      it->second.pins--;
    }
  }

  ModelCache::LoadPlan Warm(ModelId model, double bytes) {
    return Insert(model, bytes, /*pin=*/false);
  }

  bool Resident(ModelId model) const { return entries_.count(model) > 0; }
  bool OnSsd(ModelId model) const { return ssd_entries_.count(model) > 0; }
  double used_bytes() const { return used_; }
  double ssd_used_bytes() const { return ssd_used_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t ssd_hits() const { return ssd_hits_; }

 private:
  struct Entry {
    double bytes = 0.0;
    int pins = 0;
    std::list<ModelId>::iterator lru_pos;
  };

  void DemoteToSsd(ModelId model, double bytes) {
    if (ssd_capacity_ <= 0.0 || bytes > ssd_capacity_) {
      return;
    }
    if (ssd_entries_.count(model) > 0) {
      return;
    }
    while (ssd_used_ + bytes > ssd_capacity_ && !ssd_lru_.empty()) {
      ModelId victim = ssd_lru_.back();
      ssd_lru_.pop_back();
      ssd_used_ -= ssd_entries_.at(victim);
      ssd_entries_.erase(victim);
    }
    ssd_entries_.emplace(model, bytes);
    ssd_lru_.push_front(model);
    ssd_used_ += bytes;
  }

  void Touch(ModelId model) {
    Entry& entry = entries_.at(model);
    lru_.erase(entry.lru_pos);
    lru_.push_front(model);
    entry.lru_pos = lru_.begin();
  }

  bool EvictFor(double bytes) {
    if (bytes > capacity_) {
      return false;
    }
    while (used_ + bytes > capacity_) {
      auto victim = lru_.end();
      for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        if (entries_.at(*it).pins == 0) {
          victim = std::prev(it.base());
          break;
        }
      }
      if (victim == lru_.end()) {
        return false;
      }
      DemoteToSsd(*victim, entries_.at(*victim).bytes);
      used_ -= entries_.at(*victim).bytes;
      entries_.erase(*victim);
      lru_.erase(victim);
      ++evictions_;
    }
    return true;
  }

  ModelCache::LoadPlan Insert(ModelId model, double bytes, bool pin) {
    ModelCache::LoadPlan plan;
    auto it = entries_.find(model);
    if (it != entries_.end()) {
      plan.cache_hit = true;
      ++hits_;
      Touch(model);
      if (pin) {
        it->second.pins++;
      }
      return plan;
    }
    ++misses_;
    plan.cache_hit = false;
    auto ssd_it = ssd_entries_.find(model);
    if (ssd_it != ssd_entries_.end()) {
      plan.ssd_hit = true;
      plan.registry_fetch = bytes / ssd_bw_;
      ++ssd_hits_;
      ssd_lru_.remove(model);
      ssd_lru_.push_front(model);
    } else {
      plan.registry_fetch = bytes / remote_bw_;
    }
    if (!EvictFor(bytes)) {
      return plan;
    }
    lru_.push_front(model);
    Entry entry;
    entry.bytes = bytes;
    entry.pins = pin ? 1 : 0;
    entry.lru_pos = lru_.begin();
    entries_.emplace(model, entry);
    used_ += bytes;
    return plan;
  }

  double capacity_;
  double remote_bw_;
  double used_ = 0.0;
  std::map<ModelId, Entry> entries_;
  std::list<ModelId> lru_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  double ssd_capacity_ = 0.0;
  double ssd_bw_ = 0.0;
  double ssd_used_ = 0.0;
  std::map<ModelId, double> ssd_entries_;
  std::list<ModelId> ssd_lru_;
  uint64_t ssd_hits_ = 0;
};

// (seed, model ids, SSD tier on)
using CacheDiffParam = std::tuple<uint64_t, int, bool>;
class ModelCacheDiffTest : public ::testing::TestWithParam<CacheDiffParam> {};

// Seeded random load sequences drive ModelCache and the reference side by
// side. The reference takes the auto-scaler's old PrepareLoad+Unpin pair
// or a Warm at random; both must equal one ModelCache::Load. Checkpoint
// sizes are fractional so the byte counters carry rounding residue, and
// the mix includes oversized loads and exact-capacity fits.
TEST_P(ModelCacheDiffTest, MatchesReferenceAfterEveryLoad) {
  const auto [seed, models, ssd] = GetParam();
  constexpr double kCapacity = 100e9;
  constexpr int kOps = 12000;
  Rng rng(seed);
  ModelCache cache(kCapacity, 1.2e9);
  ReferenceModelCache ref(kCapacity, 1.2e9);
  if (ssd) {
    // From smaller than DRAM (large checkpoints skip the tier) to 3x it.
    const double ssd_capacity = kCapacity * rng.Uniform(0.4, 3.0);
    cache.EnableSsdTier(ssd_capacity, 5e9);
    ref.EnableSsdTier(ssd_capacity, 5e9);
  }
  std::vector<double> sizes(static_cast<size_t>(models));
  for (double& size : sizes) {
    size = kCapacity * rng.Uniform(0.01, 0.45);
  }
  const int hot = std::max(1, models / 8);

  for (int op = 0; op < kOps; ++op) {
    const ModelId model = static_cast<ModelId>(
        rng.Bernoulli(0.5) ? rng.UniformInt(hot) : rng.UniformInt(static_cast<uint64_t>(models)));
    double bytes = sizes[model];
    const double shape = rng.NextDouble();
    if (shape < 0.03) {
      bytes = kCapacity * 1.5;  // oversized: streams through
    } else if (shape < 0.06) {
      bytes = kCapacity;  // exact fit into an empty cache
    } else if (shape < 0.09 && ref.used_bytes() < kCapacity) {
      bytes = kCapacity - ref.used_bytes();  // exact fit into the free room
    }
    ModelCache::LoadPlan want;
    if (rng.Bernoulli(0.5)) {
      want = ref.PrepareLoad(model, bytes);
      ref.Unpin(model);
    } else {
      want = ref.Warm(model, bytes);
    }
    const ModelCache::LoadPlan got = cache.Load(model, bytes);

    SCOPED_TRACE(::testing::Message() << "op " << op << " model " << model << " bytes " << bytes);
    ASSERT_EQ(got.cache_hit, want.cache_hit);
    ASSERT_EQ(got.ssd_hit, want.ssd_hit);
    ASSERT_TRUE(got.registry_fetch == want.registry_fetch);
    ASSERT_TRUE(cache.used_bytes() == ref.used_bytes());
    ASSERT_TRUE(cache.ssd_used_bytes() == ref.ssd_used_bytes());
    ASSERT_EQ(cache.hits(), ref.hits());
    ASSERT_EQ(cache.misses(), ref.misses());
    ASSERT_EQ(cache.evictions(), ref.evictions());
    ASSERT_EQ(cache.ssd_hits(), ref.ssd_hits());
    for (ModelId id = 0; id <= static_cast<ModelId>(models); ++id) {
      if (cache.Resident(id) != ref.Resident(id) || cache.OnSsd(id) != ref.OnSsd(id)) {
        FAIL() << "model " << id << " resident " << cache.Resident(id) << " vs "
               << ref.Resident(id) << ", on SSD " << cache.OnSsd(id) << " vs " << ref.OnSsd(id);
      }
    }
  }
  // The sequences must reach every path they are meant to compare.
  EXPECT_GT(cache.hits(), 0u);
  if (models > 1) {
    EXPECT_GT(cache.evictions(), 0u);
  }
  if (ssd && models > 1) {
    EXPECT_GT(cache.ssd_hits(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelCacheDiffTest,
                         ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3),
                                            ::testing::Values(1, 12, 90, 600),
                                            ::testing::Bool()));

}  // namespace
}  // namespace aegaeon
