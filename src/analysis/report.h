// Per-model quality reports and machine-readable (JSON) metric export —
// the operator-facing view of a run (every model on the market has its own
// SLO story, not just the aggregate).

#ifndef AEGAEON_ANALYSIS_REPORT_H_
#define AEGAEON_ANALYSIS_REPORT_H_

#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "core/request.h"
#include "model/registry.h"

namespace aegaeon {

struct ModelReport {
  ModelId id = kInvalidModel;
  std::string name;
  uint64_t requests = 0;
  uint64_t completed = 0;
  int64_t tokens_total = 0;
  int64_t tokens_met = 0;
  // Serving-proxy outcomes for this model (all zero when disabled).
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t timed_out = 0;
  int64_t tokens_generated = 0;
  // GPU execution seconds attributed to this model (prefill + decode).
  double exec_seconds = 0.0;
  double mean_ttft = 0.0;
  double p99_ttft = 0.0;
  // $ per 1000 generated tokens, apportioned from the pool's rental rate by
  // ApplyPoolCost; 0 until applied (or when cost is unset).
  double cost_per_1k_tokens = 0.0;

  double Attainment() const {
    return tokens_total == 0 ? 1.0 : static_cast<double>(tokens_met) / tokens_total;
  }
};

// One report row per model that received at least one request, ordered by
// model id.
std::vector<ModelReport> BuildPerModelReport(const std::deque<Request>& requests,
                                             const ModelRegistry& registry);

// Aligned table of the per-model report. Proxy-outcome columns (rejected /
// shed / timeout) appear only when at least one row has a nonzero count, so
// proxy-less runs print the familiar narrow table.
void PrintPerModelReport(std::ostream& os, const std::vector<ModelReport>& report);

// Apportions the run's pool rent (metrics.pool_cost_per_hour over the
// makespan) across models by their GPU execution-time share and fills each
// row's cost_per_1k_tokens. No-op when cost is unset — the table's $ column
// then stays hidden (the conditional-column convention above).
void ApplyPoolCost(std::vector<ModelReport>& report, const RunMetrics& metrics);

// Jain's fairness index over per-model SLO attainment, in (0, 1]: 1.0 means
// every model attains equally; 1/n means one model takes everything.
double JainFairness(const std::vector<ModelReport>& report);

// Flat JSON object with the run's headline metrics (for dashboards/CI).
void WriteMetricsJson(std::ostream& os, const RunMetrics& metrics);

}  // namespace aegaeon

#endif  // AEGAEON_ANALYSIS_REPORT_H_
