// Tests for metrics folding, statistics helpers, Theorem 3.1, and the
// table printer.

#include <gtest/gtest.h>

#include <deque>
#include <sstream>

#include "analysis/metrics.h"
#include "analysis/stats.h"
#include "analysis/table.h"
#include "analysis/theory.h"

namespace aegaeon {
namespace {

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> values = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(StatsTest, MeanHandlesEmpty) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0, 4.0}), 3.0);
}

TEST(StatsTest, CdfIsMonotone) {
  std::vector<double> values;
  for (int i = 100; i > 0; --i) {
    values.push_back(static_cast<double>(i));
  }
  auto cdf = BuildCdf(values, 10);
  ASSERT_EQ(cdf.size(), 10u);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GT(cdf[i].fraction, cdf[i - 1].fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().value, 100.0);
}

TEST(MetricsTest, FoldCountsTokensAndCompletion) {
  std::deque<Request> requests(2);
  requests[0].output_tokens = 10;
  requests[0].generated = 10;
  requests[0].tokens_met = 8;
  requests[0].arrival = 0.0;
  requests[0].first_token_time = 1.0;
  requests[0].completion = 5.0;
  requests[1].output_tokens = 20;
  requests[1].generated = 5;  // unfinished
  requests[1].tokens_met = 5;
  RunMetrics metrics = FoldRequests(requests, 100.0);
  EXPECT_EQ(metrics.total_requests, 2u);
  EXPECT_EQ(metrics.completed_requests, 1u);
  EXPECT_EQ(metrics.tokens_total, 30);
  EXPECT_EQ(metrics.tokens_met, 13);
  EXPECT_NEAR(metrics.SloAttainment(), 13.0 / 30.0, 1e-12);
  EXPECT_DOUBLE_EQ(metrics.Throughput(), 0.01);
  ASSERT_EQ(metrics.ttft_samples.size(), 1u);
  EXPECT_DOUBLE_EQ(metrics.ttft_samples[0], 1.0);
}

TEST(MetricsTest, FillDecodeWaitsDerivesResidual) {
  std::deque<Request> requests(1);
  Request& r = requests[0];
  r.output_tokens = 10;
  r.generated = 10;
  r.first_token_time = 1.0;
  r.completion = 11.0;
  r.decode_exec = 4.0;
  FillDecodeWaits(requests);
  EXPECT_DOUBLE_EQ(r.decode_wait, 6.0);
}

TEST(TheoryTest, ClosedFormMatchesPaperExample) {
  // §3.1: M = 100, lambda = 0.037, T = 16.79 s => E[m] = 46.55. (The exact
  // closed form gives 46.27; the paper evidently rounded lambda/T, so allow
  // a 0.3-model slack.)
  EXPECT_NEAR(ExpectedActiveModels(100, 0.037, 16.79), 46.55, 0.3);
  // Limits: no arrivals -> 0 active; infinite service -> all active.
  EXPECT_NEAR(ExpectedActiveModels(50, 0.0001, 0.01), 0.0, 0.01);
  EXPECT_NEAR(ExpectedActiveModels(50, 10.0, 100.0), 50.0, 0.01);
}

TEST(TheoryTest, SimulationFluctuatesAroundExpectation) {
  // Figure 4: the simulated active model count fluctuates around E[m].
  ActiveModelTrace trace = SimulateActiveModels(100, 0.037, 16.79, /*horizon=*/4000.0,
                                                /*sample_interval=*/1.0, /*seed=*/3,
                                                /*warmup=*/100.0);
  EXPECT_NEAR(trace.mean, 46.55, 2.5);
  int min_count = 1000;
  int max_count = 0;
  for (int c : trace.active_counts) {
    min_count = std::min(min_count, c);
    max_count = std::max(max_count, c);
  }
  EXPECT_LT(min_count, 47);
  EXPECT_GT(max_count, 46);
}

class TheoremSweepTest
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(TheoremSweepTest, SimulationMatchesClosedForm) {
  auto [models, lambda, service] = GetParam();
  double expected = ExpectedActiveModels(models, lambda, service);
  ActiveModelTrace trace =
      SimulateActiveModels(models, lambda, service, 6000.0, 2.0, 17, 200.0);
  EXPECT_NEAR(trace.mean, expected, std::max(2.0, expected * 0.08));
}

INSTANTIATE_TEST_SUITE_P(Grid, TheoremSweepTest,
                         ::testing::Values(std::make_tuple(50, 0.02, 10.0),
                                           std::make_tuple(100, 0.037, 16.79),
                                           std::make_tuple(100, 0.1, 5.0),
                                           std::make_tuple(200, 0.01, 30.0)));

TEST(TableTest, PrintsAlignedRows) {
  Table table({"system", "slo"});
  table.AddRow({"Aegaeon", Table::Pct(0.915)});
  table.AddRow({"ServerlessLLM", Table::Pct(0.4)});
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("Aegaeon"), std::string::npos);
  EXPECT_NE(out.find("91.5%"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
}

TEST(SeriesTest, PrintsPairs) {
  std::ostringstream os;
  PrintSeries(os, "fig", {1.0, 2.0}, {0.5, 0.25}, 2);
  EXPECT_EQ(os.str(), "fig: (1.00, 0.50) (2.00, 0.25)\n");
}

}  // namespace
}  // namespace aegaeon
