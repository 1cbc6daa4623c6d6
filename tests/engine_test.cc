// Tests for engine initialization costs (Figure 7) and the preemptive
// auto-scaler's optimization tiers T0-T3 (Figures 8 and 10).

#include <gtest/gtest.h>

#include <memory>

#include "engine/autoscaler.h"
#include "engine/components.h"
#include "hw/gpu_device.h"
#include "hw/gpu_spec.h"
#include "mem/model_cache.h"
#include "model/latency_model.h"
#include "model/registry.h"

namespace aegaeon {
namespace {

constexpr double kWeightBuffer = 40.0 * kGiB;
constexpr double kPinPool = 30e9;

TEST(EngineCostModelTest, Figure7TotalsFor13B) {
  // Figure 7: an unoptimized 13B (TP=2) initialization takes ~26.9 s.
  EngineCostModel costs;
  ModelSpec spec = ModelSpec::Llama13B();
  LatencyModel latency(GpuSpec::H800());
  double total = costs.DistExecutorInit(2) + costs.ProfileInit(spec) + costs.KvPinInit(kPinPool) +
                 costs.MiscInit() + costs.GcPass() +
                 latency.NaiveLoad(spec, 2, costs.naive_load_bytes_per_s);
  EXPECT_NEAR(total, 26.9, 0.3);
}

TEST(EngineCostModelTest, ComponentCostsMatchPaperQualitatively) {
  EngineCostModel costs;
  // Distributed executor: "tens of seconds" territory at higher TP.
  EXPECT_GT(costs.DistExecutorInit(2), 10.0);
  // Profiling and KV pinning: "several seconds".
  EXPECT_GT(costs.ProfileInit(ModelSpec::Llama13B()), 2.0);
  EXPECT_LT(costs.ProfileInit(ModelSpec::Llama13B()), 5.0);
  EXPECT_NEAR(costs.KvPinInit(30e9), 4.0, 0.1);
}

class AutoScalerTest : public ::testing::Test {
 protected:
  AutoScalerTest()
      : registry_(ModelRegistry::MidSizeMarket(6)),
        latency_(GpuSpec::H800()),
        cache_(1536.0 * kGiB, 1.2e9) {
    for (const DeployedModel& model : registry_.models()) {
      cache_.Load(model.id, model.spec.weight_bytes());
    }
  }

  std::unique_ptr<AutoScaler> Make(GpuDevice& gpu, OptLevel level, bool boot = true) {
    auto scaler = std::make_unique<AutoScaler>(gpu, latency_, cache_, EngineCostModel{}, level,
                                               kWeightBuffer, kPinPool);
    if (boot && level >= OptLevel::kComponentReuse) {
      scaler->BootBeforeServing();
    }
    return scaler;
  }

  // One switch latency at the given level on a fresh GPU, after a first
  // scale-up established a resident model.
  Duration SwitchLatency(OptLevel level, double kv_out = 0.0, double kv_in = 0.0) {
    GpuDevice gpu(0, GpuSpec::H800());
    auto scaler = Make(gpu, level);
    ScaleResult first = scaler->ScaleTo(registry_.Get(0), 0.0);
    ScaleResult second =
        scaler->ScaleTo(registry_.Get(2), first.ready_at + 10.0, kv_out, kv_in);
    return second.ready_at - (first.ready_at + 10.0);
  }

  ModelRegistry registry_;
  LatencyModel latency_;
  ModelCache cache_;
};

TEST_F(AutoScalerTest, OptimizationTiersStrictlyImprove) {
  // T0 > T1 > T2 >= T3 with KV volumes in play (Figures 8 and 10).
  double kv = 4e9;
  Duration t0 = SwitchLatency(OptLevel::kBaseline, kv, kv);
  Duration t1 = SwitchLatency(OptLevel::kComponentReuse, kv, kv);
  Duration t2 = SwitchLatency(OptLevel::kExplicitMemory, kv, kv);
  Duration t3 = SwitchLatency(OptLevel::kFineGrainedSync, kv, kv);
  EXPECT_GT(t0, t1);
  EXPECT_GT(t1, t2);
  EXPECT_GT(t2, t3);
  // §5: the full stack removes ~97% of the unoptimized latency.
  EXPECT_GT((t0 - t3) / t0, 0.90);
  // §7.3: sub-second scaling.
  EXPECT_LT(t3, 1.0);
}

TEST_F(AutoScalerTest, BaselinePaysFullInitEverySwitch) {
  GpuDevice gpu(0, GpuSpec::H800());
  auto scaler = Make(gpu, OptLevel::kBaseline);
  ScaleResult first = scaler->ScaleTo(registry_.Get(0), 0.0);
  ScaleResult second = scaler->ScaleTo(registry_.Get(1), first.ready_at);
  EXPECT_GT(second.breakdown.dist_exec, 0.0);
  EXPECT_GT(second.breakdown.profile, 0.0);
  EXPECT_GT(second.breakdown.kv_init, 0.0);
  EXPECT_GT(second.breakdown.gc, 0.0);
}

TEST_F(AutoScalerTest, ComponentReuseSkipsEngineInit) {
  GpuDevice gpu(0, GpuSpec::H800());
  auto scaler = Make(gpu, OptLevel::kComponentReuse);
  ScaleResult first = scaler->ScaleTo(registry_.Get(0), 0.0);
  EXPECT_DOUBLE_EQ(first.breakdown.dist_exec, 0.0);  // booted before serving
  ScaleResult second = scaler->ScaleTo(registry_.Get(1), first.ready_at);
  EXPECT_DOUBLE_EQ(second.breakdown.dist_exec, 0.0);
  EXPECT_DOUBLE_EQ(second.breakdown.profile, 0.0);
  EXPECT_DOUBLE_EQ(second.breakdown.kv_init, 0.0);
  // But the GC pass and the naive load remain at T1.
  EXPECT_GT(second.breakdown.gc, 0.0);
  EXPECT_GT(second.breakdown.model_load, 2.0);
}

TEST_F(AutoScalerTest, ExplicitMemoryRemovesGcAndSpeedsLoad) {
  GpuDevice gpu(0, GpuSpec::H800());
  auto scaler = Make(gpu, OptLevel::kExplicitMemory);
  scaler->set_prefetch_enabled(false);
  ScaleResult first = scaler->ScaleTo(registry_.Get(0), 0.0);
  ScaleResult second = scaler->ScaleTo(registry_.Get(1), first.ready_at);
  EXPECT_DOUBLE_EQ(second.breakdown.gc, 0.0);
  EXPECT_LT(second.breakdown.model_load, 1.0);  // "under one second"
}

TEST_F(AutoScalerTest, FineGrainedSyncTakesKvOffCriticalPath) {
  double kv = 8e9;
  GpuDevice gpu(0, GpuSpec::H800());
  auto t2 = Make(gpu, OptLevel::kExplicitMemory);
  t2->set_prefetch_enabled(false);
  ScaleResult a = t2->ScaleTo(registry_.Get(0), 0.0);
  ScaleResult b = t2->ScaleTo(registry_.Get(1), a.ready_at + 1.0, kv, kv);
  EXPECT_TRUE(b.breakdown.kv_blocking);

  GpuDevice gpu2(1, GpuSpec::H800());
  auto t3 = Make(gpu2, OptLevel::kFineGrainedSync);
  t3->set_prefetch_enabled(false);
  ScaleResult c = t3->ScaleTo(registry_.Get(0), 0.0);
  ScaleResult d = t3->ScaleTo(registry_.Get(1), c.ready_at + 1.0, kv, kv);
  EXPECT_FALSE(d.breakdown.kv_blocking);
  // Same KV volume, but the switch completes earlier at T3.
  EXPECT_LT(d.ready_at - (c.ready_at + 1.0), b.ready_at - (a.ready_at + 1.0));
}

TEST_F(AutoScalerTest, PrefetchHitMakesSwitchNearInstant) {
  GpuDevice gpu(0, GpuSpec::H800());
  auto scaler = Make(gpu, OptLevel::kFineGrainedSync);
  ScaleResult first = scaler->ScaleTo(registry_.Get(0), 0.0);
  TimePoint done = scaler->Prefetch(registry_.Get(1), first.ready_at);
  ASSERT_NE(done, kTimeNever);
  // Switch after the prefetch completed: only the on-device promote copy.
  ScaleResult second = scaler->ScaleTo(registry_.Get(1), done + 1.0);
  EXPECT_TRUE(second.breakdown.prefetch_hit);
  EXPECT_LT(second.breakdown.model_load, 0.05);
  EXPECT_EQ(scaler->prefetch_hits(), 1u);
}

TEST_F(AutoScalerTest, PrefetchRespectsBufferHeadroom) {
  // Two large models cannot be co-resident in the 40 GiB weight buffer.
  ModelRegistry big;
  big.Add(ModelSpec::Llama13B(), 1, SloSpec::Chatbot());   // 26 GB
  big.Add(ModelSpec::Qwen14B(), 1, SloSpec::Chatbot());    // 28 GB
  cache_.Load(big.Get(0).id, big.Get(0).spec.weight_bytes());
  cache_.Load(big.Get(1).id, big.Get(1).spec.weight_bytes());
  GpuDevice gpu(0, GpuSpec::H800());
  AutoScaler scaler(gpu, latency_, cache_, EngineCostModel{}, OptLevel::kFineGrainedSync,
                    kWeightBuffer, kPinPool);
  scaler.BootBeforeServing();
  scaler.ScaleTo(big.Get(0), 0.0);
  EXPECT_EQ(scaler.Prefetch(big.Get(1), 10.0), kTimeNever);
}

TEST_F(AutoScalerTest, InFlightPrefetchIsNotReplaced) {
  GpuDevice gpu(0, GpuSpec::H800());
  auto scaler = Make(gpu, OptLevel::kFineGrainedSync);
  ScaleResult first = scaler->ScaleTo(registry_.Get(0), 0.0);
  TimePoint a = scaler->Prefetch(registry_.Get(1), first.ready_at);
  ASSERT_NE(a, kTimeNever);
  // Immediately requesting a different prefetch is refused (link thrash).
  EXPECT_EQ(scaler->Prefetch(registry_.Get(2), first.ready_at), kTimeNever);
  EXPECT_EQ(scaler->prefetched_model(), registry_.Get(1).id);
  // After it lands, a new prefetch is allowed.
  EXPECT_NE(scaler->Prefetch(registry_.Get(2), a + 0.001), kTimeNever);
}

TEST_F(AutoScalerTest, EstimateSwitchTracksLevel) {
  GpuDevice gpu(0, GpuSpec::H800());
  auto fast = Make(gpu, OptLevel::kFineGrainedSync);
  GpuDevice gpu2(1, GpuSpec::H800());
  auto slow = Make(gpu2, OptLevel::kBaseline);
  const DeployedModel& target = registry_.Get(2);
  EXPECT_LT(fast->EstimateSwitch(target), 1.0);
  EXPECT_GT(slow->EstimateSwitch(target), 15.0);
  // Estimating a switch to the resident model is free.
  fast->ScaleTo(target, 0.0);
  EXPECT_DOUBLE_EQ(fast->EstimateSwitch(target), 0.0);
}

TEST_F(AutoScalerTest, ResidentSetMakesRepeatSwitchesNearFree) {
  // §8 hybrid multiplexing: with a resident set of 2, alternating between
  // two models loads each once and then switches by activation only.
  GpuDevice gpu(0, GpuSpec::H800());
  auto scaler = Make(gpu, OptLevel::kFineGrainedSync);
  scaler->set_prefetch_enabled(false);
  scaler->set_resident_capacity(2);
  TimePoint t = scaler->ScaleTo(registry_.Get(0), 0.0).ready_at + 1.0;
  t = scaler->ScaleTo(registry_.Get(1), t).ready_at + 1.0;  // cold load
  for (int i = 0; i < 4; ++i) {
    ScaleResult result = scaler->ScaleTo(registry_.Get(i % 2), t);
    EXPECT_LT(result.ready_at - t, 0.01) << "switch " << i;
    t = result.ready_at + 1.0;
  }
  EXPECT_EQ(scaler->resident_hits(), 4u);
  EXPECT_TRUE(scaler->IsResident(registry_.Get(0).id));
  EXPECT_TRUE(scaler->IsResident(registry_.Get(1).id));
  EXPECT_LT(scaler->EstimateSwitch(registry_.Get(0)), 0.01);
}

TEST_F(AutoScalerTest, ResidentSetEvictsLru) {
  GpuDevice gpu(0, GpuSpec::H800());
  auto scaler = Make(gpu, OptLevel::kFineGrainedSync);
  scaler->set_prefetch_enabled(false);
  scaler->set_resident_capacity(2);
  TimePoint t = scaler->ScaleTo(registry_.Get(0), 0.0).ready_at + 1.0;
  t = scaler->ScaleTo(registry_.Get(1), t).ready_at + 1.0;
  // Loading a third model evicts the LRU resident (model 0).
  t = scaler->ScaleTo(registry_.Get(2), t).ready_at + 1.0;
  EXPECT_FALSE(scaler->IsResident(registry_.Get(0).id));
  EXPECT_TRUE(scaler->IsResident(registry_.Get(1).id));
  EXPECT_TRUE(scaler->IsResident(registry_.Get(2).id));
  // Switching back to model 0 is a cold load again.
  ScaleResult back = scaler->ScaleTo(registry_.Get(0), t);
  EXPECT_GT(back.ready_at - t, 0.1);
}

TEST_F(AutoScalerTest, ResidentCapacityOneKeepsPaperBehavior) {
  GpuDevice gpu(0, GpuSpec::H800());
  auto scaler = Make(gpu, OptLevel::kFineGrainedSync);
  scaler->set_prefetch_enabled(false);
  TimePoint t = scaler->ScaleTo(registry_.Get(0), 0.0).ready_at + 1.0;
  t = scaler->ScaleTo(registry_.Get(1), t).ready_at + 1.0;
  ScaleResult back = scaler->ScaleTo(registry_.Get(0), t);
  EXPECT_GT(back.ready_at - t, 0.1);  // full reload, no resident hit
  EXPECT_EQ(scaler->resident_hits(), 0u);
}

TEST_F(AutoScalerTest, SwitchLatenciesAreRecorded) {
  GpuDevice gpu(0, GpuSpec::H800());
  auto scaler = Make(gpu, OptLevel::kFineGrainedSync);
  ScaleResult first = scaler->ScaleTo(registry_.Get(0), 0.0);
  scaler->ScaleTo(registry_.Get(1), first.ready_at + 5.0);
  EXPECT_EQ(scaler->switches(), 2u);
  EXPECT_EQ(scaler->switch_latencies().size(), 2u);
}

}  // namespace
}  // namespace aegaeon
