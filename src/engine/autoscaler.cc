#include "engine/autoscaler.h"

#include <algorithm>
#include <cassert>

namespace aegaeon {

std::string ToString(OptLevel level) {
  switch (level) {
    case OptLevel::kBaseline:
      return "T0-baseline";
    case OptLevel::kComponentReuse:
      return "T1-component-reuse";
    case OptLevel::kExplicitMemory:
      return "T2-explicit-memory";
    case OptLevel::kFineGrainedSync:
      return "T3-fine-grained-sync";
  }
  return "unknown";
}

AutoScaler::AutoScaler(GpuDevice& gpu, const LatencyModel& latency, ModelCache& model_cache,
                       EngineCostModel costs, OptLevel level, double weight_buffer_bytes,
                       double cpu_kv_pool_bytes)
    : gpu_(gpu),
      latency_(latency),
      model_cache_(model_cache),
      costs_(costs),
      level_(level),
      prefetch_enabled_(level >= OptLevel::kExplicitMemory),
      weight_buffer_(static_cast<uint64_t>(weight_buffer_bytes)),
      cpu_kv_pool_bytes_(cpu_kv_pool_bytes) {}

bool AutoScaler::PrefetchFits(const DeployedModel& running, const DeployedModel& next) const {
  return running.shard_bytes() + next.shard_bytes() <= static_cast<double>(weight_buffer_.capacity());
}

bool AutoScaler::IsResident(ModelId model) const {
  for (const Resident& r : residents_) {
    if (r.id == model) {
      return true;
    }
  }
  return false;
}

double AutoScaler::ResidentBytes() const {
  double total = 0.0;
  for (const Resident& r : residents_) {
    total += r.shard_bytes;
  }
  return total;
}

void AutoScaler::EvictResidentsFor(double needed) {
  // Evict LRU residents (never the current model) until `needed` bytes fit
  // alongside the survivors, or only the current model remains.
  while (ResidentBytes() + needed > static_cast<double>(weight_buffer_.capacity()) ||
         static_cast<int>(residents_.size()) >= resident_capacity_) {
    int victim = -1;
    TimePoint oldest = kTimeNever;
    for (size_t i = 0; i < residents_.size(); ++i) {
      if (residents_[i].id == current_model_) {
        continue;
      }
      if (residents_[i].last_use < oldest) {
        oldest = residents_[i].last_use;
        victim = static_cast<int>(i);
      }
    }
    if (victim < 0) {
      return;
    }
    residents_.erase(residents_.begin() + victim);
  }
}

void AutoScaler::TouchResident(ModelId model, double shard, TimePoint now) {
  for (Resident& r : residents_) {
    if (r.id == model) {
      r.last_use = now;
      return;
    }
  }
  EvictResidentsFor(shard);
  residents_.push_back(Resident{model, shard, now});
}

ScaleResult AutoScaler::ScaleTo(const DeployedModel& target, TimePoint now, double kv_out_bytes,
                                double kv_in_bytes) {
  ScaleResult result;
  ScaleBreakdown& b = result.breakdown;
  const bool fine_sync = level_ >= OptLevel::kFineGrainedSync;
  b.kv_blocking = !fine_sync;
  TimePoint t = now;

  // --- Scale-down: offload the old model's KV cache -----------------------
  if (kv_out_bytes > 0.0) {
    StreamSim::Span span =
        gpu_.EnqueueOptimizedCopy(gpu_.kv_out_stream(), t, kv_out_bytes, CopyDir::kDeviceToHost);
    b.kv_out = span.end - span.start;
    if (!fine_sync) {
      // Blocking synchronization: the switch cannot proceed until the KV
      // cache has fully left the device.
      t = std::max(t, span.end);
    }
  }

  // --- Garbage collection (only needed with library-managed VRAM) ---------
  if (level_ < OptLevel::kExplicitMemory && current_model_ != kInvalidModel) {
    b.gc = costs_.GcPass();
    t += b.gc;
  }

  // --- Engine (re)initialization ------------------------------------------
  // kBaseline rebuilds the engine on every switch; higher levels boot once
  // per instance and reuse every component (§5.1).
  const bool pay_init = (level_ == OptLevel::kBaseline) || !engine_booted_;
  if (pay_init) {
    b.dist_exec = costs_.DistExecutorInit(target.tp);
    b.profile = costs_.ProfileInit(target.spec);
    b.kv_init = costs_.KvPinInit(cpu_kv_pool_bytes_);
    b.misc = costs_.MiscInit();
    t += b.dist_exec + b.profile + b.kv_init + b.misc;
    engine_booted_ = true;
  }

  // --- Model weights --------------------------------------------------------
  const double shard = target.shard_bytes();
  const bool resident_hit =
      resident_capacity_ > 1 && target.id != current_model_ && IsResident(target.id);
  if (resident_hit) {
    // §8 hybrid multiplexing: the weights are already on the device; the
    // switch is a pointer swap plus activation-workspace handoff.
    b.model_load = 0.002;
    t += b.model_load;
    resident_hits_++;
    result.weights_loaded = EventSim();
  } else if (level_ >= OptLevel::kExplicitMemory && prefetched_model_ == target.id) {
    // Figure 9, step 3.b: the prefetched weights sit right behind the old
    // model in the self-managed buffer; wait out any residual prefetch time
    // and promote them to the front with a cheap on-device copy.
    Duration residual = std::max(0.0, prefetch_done_.complete_at() - t);
    Duration promote = 2.0 * shard / gpu_.spec().effective_hbm();  // read + write
    b.model_load = residual + promote;
    b.prefetch_hit = true;
    prefetch_hits_++;
    t += b.model_load;
    weight_buffer_.ResetKeepingFront(static_cast<uint64_t>(prefetched_shard_bytes_));
  } else {
    ModelCache::LoadPlan plan = model_cache_.Load(target.id, target.spec.weight_bytes());
    t += plan.registry_fetch;
    double bw_fraction = level_ >= OptLevel::kExplicitMemory
                             ? gpu_.spec().pcie_efficiency
                             : costs_.naive_load_bytes_per_s / gpu_.spec().pcie_bytes_per_s;
    StreamSim::Span span =
        gpu_.EnqueueCopy(gpu_.compute_stream(), t, shard, CopyDir::kHostToDevice, bw_fraction);
    b.model_load = plan.registry_fetch + (span.end - t);
    t = span.end;
    if (resident_capacity_ > 1) {
      // Hybrid mode: make room among the co-resident models instead of
      // resetting the whole buffer.
      EvictResidentsFor(shard);
    } else if (level_ >= OptLevel::kExplicitMemory) {
      weight_buffer_.Reset();
      std::optional<uint64_t> offset = weight_buffer_.Alloc(static_cast<uint64_t>(shard));
      assert(offset.has_value() && "weight buffer too small for the model shard");
      (void)offset;
    }
  }
  if (!resident_hit) {
    result.weights_loaded = gpu_.compute_stream().Record();
    prefetched_model_ = kInvalidModel;
    prefetched_shard_bytes_ = 0.0;
  }

  // --- Scale-up: bring back the KV cache of the new model's requests ------
  if (kv_in_bytes > 0.0) {
    StreamSim::Span span =
        gpu_.EnqueueOptimizedCopy(gpu_.kv_in_stream(), t, kv_in_bytes, CopyDir::kHostToDevice);
    b.kv_in = span.end - span.start;
    if (!fine_sync) {
      t = std::max(t, span.end);
    }
  }

  current_model_ = target.id;
  current_shard_bytes_ = shard;
  if (resident_capacity_ > 1) {
    TouchResident(target.id, shard, now);
  }
  result.ready_at = t;
  switch_latencies_.push_back(t - now);
  return result;
}

TimePoint AutoScaler::Prefetch(const DeployedModel& next, TimePoint now) {
  if (!prefetch_enabled_ || level_ < OptLevel::kExplicitMemory) {
    return kTimeNever;
  }
  if (next.id == current_model_) {
    return now;  // already resident
  }
  if (next.id == prefetched_model_) {
    return prefetch_done_.complete_at();
  }
  if (prefetched_model_ != kInvalidModel && !prefetch_done_.Query(now)) {
    // A prefetch is already in flight; issuing another would only thrash
    // the PCIe link. Let the current one finish.
    return kTimeNever;
  }
  if (current_model_ != kInvalidModel && current_shard_bytes_ + next.shard_bytes() >
                                             static_cast<double>(weight_buffer_.capacity())) {
    return kTimeNever;  // no headroom for a second resident model
  }
  ModelCache::LoadPlan plan = model_cache_.Load(next.id, next.spec.weight_bytes());
  StreamSim::Span span = gpu_.EnqueueOptimizedCopy(gpu_.prefetch_stream(), now + plan.registry_fetch,
                                                   next.shard_bytes(), CopyDir::kHostToDevice);
  prefetch_done_ = gpu_.prefetch_stream().Record();
  prefetched_model_ = next.id;
  prefetched_shard_bytes_ = next.shard_bytes();
  prefetch_issued_++;
  return span.end;
}

Duration AutoScaler::EstimateSwitch(const DeployedModel& target) const {
  if (target.id == current_model_) {
    return 0.0;
  }
  if (resident_capacity_ > 1 && IsResident(target.id)) {
    return 0.002;
  }
  Duration load;
  if (level_ >= OptLevel::kExplicitMemory) {
    load = (prefetched_model_ == target.id)
               ? 2.0 * target.shard_bytes() / gpu_.spec().effective_hbm()
               : latency_.SwitchLoad(target.spec, target.tp);
  } else {
    load = latency_.NaiveLoad(target.spec, target.tp, costs_.naive_load_bytes_per_s);
  }
  Duration fixed = 0.0;
  if (level_ < OptLevel::kExplicitMemory) {
    fixed += costs_.GcPass();
  }
  if (level_ == OptLevel::kBaseline) {
    fixed += costs_.DistExecutorInit(target.tp) + costs_.ProfileInit(target.spec) +
             costs_.KvPinInit(cpu_kv_pool_bytes_) + costs_.MiscInit();
  }
  return load + fixed;
}

}  // namespace aegaeon
