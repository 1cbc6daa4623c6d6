// The strawman: one dedicated GPU instance per model (§3, "no auto-scaling
// at all"). This is the production status quo Aegaeon replaces (§7.5), and
// the reference point for the deployment GPU-saving figures.

#ifndef AEGAEON_BASELINES_DEDICATED_H_
#define AEGAEON_BASELINES_DEDICATED_H_

#include <deque>
#include <memory>
#include <vector>

#include "analysis/metrics.h"
#include "baselines/model_server.h"
#include "core/request.h"
#include "model/latency_model.h"
#include "model/registry.h"
#include "sim/simulator.h"

namespace aegaeon {

struct DedicatedConfig {
  Duration chunk = 0.25;
  int max_batch = 32;
};

class DedicatedCluster {
 public:
  DedicatedCluster(DedicatedConfig config, const ModelRegistry& registry,
                   const GpuSpec& gpu_spec);

  RunMetrics Run(const std::vector<ArrivalEvent>& trace);

  int gpus() const { return static_cast<int>(registry_.size()); }

  // Busy fraction per GPU over the run (Figure 18's "Before" series).
  const std::vector<Duration>& busy_time() const { return busy_time_; }

 private:
  void Kick(int g);

  DedicatedConfig config_;
  const ModelRegistry& registry_;
  LatencyModel latency_;
  Simulator sim_;
  std::vector<std::unique_ptr<ModelServer>> servers_;
  std::vector<bool> busy_;
  std::vector<Duration> busy_time_;
  std::deque<Request> requests_;
};

}  // namespace aegaeon

#endif  // AEGAEON_BASELINES_DEDICATED_H_
