// Tests for per-model reporting, JSON export, and the diurnal generator.

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <sstream>

#include "analysis/report.h"
#include "core/cluster.h"
#include "hw/gpu_spec.h"
#include "model/registry.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace aegaeon {
namespace {

TEST(ReportTest, PerModelRowsAggregateCorrectly) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(4);
  std::deque<Request> requests(3);
  requests[0].model = 1;
  requests[0].output_tokens = 10;
  requests[0].generated = 10;
  requests[0].tokens_met = 9;
  requests[0].first_token_time = 2.0;
  requests[0].completion = 5.0;
  requests[1].model = 1;
  requests[1].output_tokens = 20;
  requests[1].generated = 5;
  requests[1].tokens_met = 5;
  requests[2].model = 3;
  requests[2].output_tokens = 8;
  requests[2].generated = 8;
  requests[2].tokens_met = 8;
  requests[2].first_token_time = 1.0;
  requests[2].completion = 2.0;

  auto report = BuildPerModelReport(requests, registry);
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].id, 1u);
  EXPECT_EQ(report[0].requests, 2u);
  EXPECT_EQ(report[0].completed, 1u);
  EXPECT_EQ(report[0].tokens_total, 30);
  EXPECT_EQ(report[0].tokens_met, 14);
  EXPECT_NEAR(report[0].Attainment(), 14.0 / 30.0, 1e-12);
  EXPECT_EQ(report[1].id, 3u);
  EXPECT_NEAR(report[1].Attainment(), 1.0, 1e-12);
}

TEST(ReportTest, PrintedTableContainsModelNames) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(2);
  std::deque<Request> requests(1);
  requests[0].model = 0;
  requests[0].output_tokens = 4;
  requests[0].generated = 4;
  requests[0].tokens_met = 4;
  auto report = BuildPerModelReport(requests, registry);
  std::ostringstream os;
  PrintPerModelReport(os, report);
  EXPECT_NE(os.str().find(registry.Get(0).spec.name), std::string::npos);
}

TEST(ReportTest, MetricsJsonIsBalancedAndContainsKeys) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(6);
  auto trace = GeneratePoisson(registry, 0.1, 80.0, Dataset::ShareGpt(), 3);
  AegaeonConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  AegaeonCluster cluster(config, registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(trace);
  std::ostringstream os;
  WriteMetricsJson(os, metrics);
  std::string out = os.str();
  for (const char* key : {"slo_attainment", "ttft_p99_s", "breakdown", "decode_wait_s"}) {
    EXPECT_NE(out.find(key), std::string::npos) << key;
  }
  int depth = 0;
  for (char c : out) {
    depth += (c == '{');
    depth -= (c == '}');
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(DiurnalTest, MeanRateMatchesAndModulationIsVisible) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(20);
  const double period = 600.0;
  const double horizon = 2400.0;  // 4 full periods
  auto events =
      GenerateDiurnal(registry, 0.2, horizon, period, /*amplitude=*/0.8, Dataset::ShareGpt(), 9);
  // Mean rate over whole periods matches the configured mean.
  double mean = static_cast<double>(events.size()) / horizon;
  EXPECT_NEAR(mean, 20 * 0.2, 0.35);
  // Aggregate modulation is damped by per-model phase staggering, but a
  // single model's rate must swing with its own phase.
  auto counts_for = [&](ModelId m, double lo, double hi) {
    int n = 0;
    for (const ArrivalEvent& e : events) {
      n += (e.model == m && e.time >= lo && e.time < hi);
    }
    return n;
  };
  // Model 0 has phase 0: peak near period/4, trough near 3*period/4.
  int peak = 0;
  int trough = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    double base = cycle * period;
    peak += counts_for(0, base + period * 0.10, base + period * 0.40);
    trough += counts_for(0, base + period * 0.60, base + period * 0.90);
  }
  EXPECT_GT(peak, trough);
}

TEST(DiurnalTest, ZeroAmplitudeReducesToPoisson) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(10);
  auto events =
      GenerateDiurnal(registry, 0.1, 2000.0, 600.0, 0.0, Dataset::ShareGpt(), 4);
  EXPECT_NEAR(static_cast<double>(events.size()) / 2000.0, 1.0, 0.12);
}

}  // namespace
}  // namespace aegaeon
