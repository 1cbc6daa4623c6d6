// Figures 8 and 10: preemptive auto-scaling latency across the optimization
// tiers. A decode instance switches LLaMA-13B -> Qwen-7B with 4 GB of KV
// cache leaving and 4 GB arriving:
//   T0  baseline            (full reinit, naive load, blocking KV, GC)
//   T1  + component reuse   (§5.1)
//   T2  + explicit memory   (§5.2, incl. prefetch)
//   T3  + fine-grained sync (§5.3, KV off the critical path)
// Paper: the full stack removes ~97% of T0.

#include <cstdio>
#include <functional>
#include <vector>

#include "engine/autoscaler.h"
#include "hw/gpu_device.h"
#include "hw/gpu_spec.h"
#include "mem/model_cache.h"
#include "model/latency_model.h"
#include "model/registry.h"
#include "sim/parallel_sweep.h"

using namespace aegaeon;

namespace {

struct TierResult {
  Duration latency;
  ScaleBreakdown breakdown;
};

TierResult MeasureTier(OptLevel level, bool prefetch, const ModelRegistry& registry,
                       const LatencyModel& latency, ModelCache& cache) {
  GpuDevice gpu(0, GpuSpec::H800());
  AutoScaler scaler(gpu, latency, cache, EngineCostModel{}, level, 40.0 * kGiB, 30e9);
  if (level >= OptLevel::kComponentReuse) {
    scaler.BootBeforeServing();
  }
  scaler.set_prefetch_enabled(prefetch);
  ScaleResult first = scaler.ScaleTo(registry.Get(0), 0.0);  // LLaMA-13B resident
  TimePoint idle = first.ready_at + 30.0;
  if (prefetch) {
    // The token-level schedule knows the next model; the previous turn's
    // quota hides the prefetch (§5.2).
    scaler.Prefetch(registry.Get(1), idle - 5.0);
  }
  ScaleResult second = scaler.ScaleTo(registry.Get(1), idle, /*kv_out_bytes=*/4e9,
                                      /*kv_in_bytes=*/4e9);
  return TierResult{second.ready_at - idle, second.breakdown};
}

// Each tier task constructs its own registry/latency/cache so the fan-out
// shares no mutable state (ModelCache tracks LRU order across ScaleTo).
TierResult MeasureTierIsolated(OptLevel level, bool prefetch) {
  ModelRegistry registry;
  registry.Add(ModelSpec::Llama13B(), 1, SloSpec::Chatbot());
  registry.Add(ModelSpec::Qwen7B(), 1, SloSpec::Chatbot());
  LatencyModel latency(GpuSpec::H800());
  ModelCache cache(1536.0 * kGiB, 1.2e9);
  for (const DeployedModel& model : registry.models()) {
    cache.Load(model.id, model.spec.weight_bytes());
  }
  return MeasureTier(level, prefetch, registry, latency, cache);
}

}  // namespace

int main() {
  std::printf("=== Figures 8 & 10: preemptive scaling latency by optimization tier ===\n");
  std::printf("Switch: LLaMA-13B -> Qwen-7B, 4 GB KV out + 4 GB KV in\n\n");
  std::printf("%-26s %10s %8s %8s %8s %8s %8s %8s\n", "tier", "latency(s)", "kv_out", "gc",
              "init", "load", "kv_in", "kv-path");

  struct Tier {
    const char* name;
    OptLevel level;
    bool prefetch;
  };
  const Tier tiers[] = {
      {"T0 baseline", OptLevel::kBaseline, false},
      {"T1 component-reuse", OptLevel::kComponentReuse, false},
      {"T2 explicit-memory", OptLevel::kExplicitMemory, false},
      {"T2 + prefetch", OptLevel::kExplicitMemory, true},
      {"T3 fine-grained-sync", OptLevel::kFineGrainedSync, true},
  };

  std::vector<std::function<TierResult()>> tasks;
  for (const Tier& tier : tiers) {
    tasks.push_back([tier] { return MeasureTierIsolated(tier.level, tier.prefetch); });
  }
  ParallelSweep sweep;
  std::vector<TierResult> results = sweep.Map(std::move(tasks));

  double t0 = 0.0;
  double t3 = 0.0;
  for (size_t i = 0; i < results.size(); ++i) {
    const Tier& tier = tiers[i];
    const TierResult& result = results[i];
    const ScaleBreakdown& b = result.breakdown;
    double init = b.dist_exec + b.profile + b.kv_init + b.misc;
    std::printf("%-26s %10.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8s\n", tier.name, result.latency,
                b.kv_out, b.gc, init, b.model_load, b.kv_in,
                b.kv_blocking ? "blocking" : "overlapped");
    if (tier.level == OptLevel::kBaseline) {
      t0 = result.latency;
    }
    if (tier.level == OptLevel::kFineGrainedSync) {
      t3 = result.latency;
    }
  }
  std::printf("\nLatency reduction T0 -> T3: %.1f%% (paper: ~97%%)\n", 100.0 * (1.0 - t3 / t0));
  return 0;
}
