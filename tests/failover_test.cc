// Fleet failover tests: dispatcher replication wired into the sharded
// fleet (core/fleet.h + ctrl/). The replication-disabled configuration is
// golden (bit-identical to the pre-replication fleet), elections and
// failovers stay bit-identical across shard counts, every request
// completes through a leader crash, and the fault kill switches validate
// their targets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/fleet.h"
#include "ctrl/dispatcher.h"
#include "ctrl/fault_plan.h"
#include "hw/gpu_spec.h"
#include "model/registry.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace aegaeon {
namespace {

AegaeonConfig SmallCell() {
  AegaeonConfig config;
  config.prefill_instances = 1;
  config.decode_instances = 2;
  return config;
}

FleetConfig SmallFleet(int cells, int shards) {
  FleetConfig config;
  config.cells = cells;
  config.shards = shards;
  config.threads = 2;
  config.cell = SmallCell();
  return config;
}

// A trace with a burst straddling the crash instant, so some arrivals are
// guaranteed to be in flight (routed, undelivered) when the leader dies.
std::vector<ArrivalEvent> CrashStraddlingTrace(const ModelRegistry& registry,
                                               TimePoint crash) {
  std::vector<ArrivalEvent> trace =
      GeneratePoisson(registry, 0.8, 90.0, Dataset::ShareGpt(), 23);
  for (int i = 0; i < 6; ++i) {
    ArrivalEvent event;
    // Arrivals within one dispatch hop of the crash: their deliveries are
    // exactly the ones the crash can lose.
    event.time = crash - 0.04 + 0.01 * static_cast<double>(i % 3);
    event.model = i % static_cast<int>(registry.size());
    event.prompt_tokens = 64;
    event.output_tokens = 32;
    trace.push_back(event);
  }
  std::sort(trace.begin(), trace.end(),
            [](const ArrivalEvent& a, const ArrivalEvent& b) { return a.time < b.time; });
  return trace;
}

void ExpectBitIdentical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_EQ(a.tokens_total, b.tokens_total);
  EXPECT_EQ(a.tokens_met, b.tokens_met);
  EXPECT_EQ(a.horizon, b.horizon);  // exact: same double or bust
  EXPECT_EQ(a.breakdown.prefill_wait, b.breakdown.prefill_wait);
  EXPECT_EQ(a.breakdown.decode_exec, b.breakdown.decode_exec);
  ASSERT_EQ(a.ttft_samples.size(), b.ttft_samples.size());
  for (size_t i = 0; i < a.ttft_samples.size(); ++i) {
    EXPECT_EQ(a.ttft_samples[i], b.ttft_samples[i]) << "ttft sample " << i;
  }
  EXPECT_EQ(a.sim.events_processed, b.sim.events_processed);
}

// The protocol outcome is part of the simulated result: identical runs
// elect identically. (Kept separate from ExpectBitIdentical — heartbeat
// counts legitimately differ between replication factors.)
void ExpectCtrlIdentical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.ctrl.heartbeats_sent, b.ctrl.heartbeats_sent);
  EXPECT_EQ(a.ctrl.heartbeats_missed, b.ctrl.heartbeats_missed);
  EXPECT_EQ(a.ctrl.elections, b.ctrl.elections);
  EXPECT_EQ(a.ctrl.failovers, b.ctrl.failovers);
  EXPECT_EQ(a.ctrl.redispatched_requests, b.ctrl.redispatched_requests);
  EXPECT_EQ(a.ctrl.frontdoor_replays, b.ctrl.frontdoor_replays);
  EXPECT_EQ(a.ctrl.leader_downtime, b.ctrl.leader_downtime);
}

void ExpectAllComplete(const ShardedFleet& fleet, const RunMetrics& metrics,
                       size_t trace_size) {
  EXPECT_EQ(metrics.total_requests, trace_size);
  EXPECT_EQ(metrics.completed_requests, metrics.total_requests);
  uint64_t pooled = 0;
  for (int c = 0; c < fleet.cells(); ++c) {
    for (const Request& request : fleet.cell(c).requests()) {
      EXPECT_TRUE(request.finished()) << "request " << request.id << " in cell " << c;
      EXPECT_EQ(request.generated, request.output_tokens);
      ++pooled;
    }
  }
  EXPECT_EQ(pooled, trace_size);
}

// Every request's placement and timeline, in cell order: cell, id, model,
// exact (hex) arrival / first-token / completion times and met tokens.
std::string RequestFingerprint(const ShardedFleet& fleet) {
  std::string text;
  char line[192];
  for (int c = 0; c < fleet.cells(); ++c) {
    for (const Request& r : fleet.cell(c).requests()) {
      std::snprintf(line, sizeof(line), "%d %llu %u %a %a %a %lld\n", c,
                    static_cast<unsigned long long>(r.id), static_cast<unsigned>(r.model),
                    r.arrival, r.first_token_time, r.completion,
                    static_cast<long long>(r.tokens_met));
      text += line;
    }
  }
  return text;
}

// FNV-1a, so a golden fingerprint fits in one constant.
uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 14695981039346656037ull;
  for (const char ch : text) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ull;
  }
  return hash;
}

// Golden: a replicated-but-unfaulted control plane must not perturb the
// simulation — replicas {1, 3} produce bit-identical results (heartbeat
// traffic exists but never reaches a cell or bounds an epoch).
TEST(FailoverTest, ReplicationWithoutFaultsIsBitIdenticalToDisabled) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(10);
  auto trace = GeneratePoisson(registry, 0.8, 90.0, Dataset::ShareGpt(), 29);
  std::vector<RunMetrics> results;
  std::vector<uint64_t> epochs;
  for (int replicas : {1, 3}) {
    FleetConfig config = SmallFleet(4, 2);
    config.ctrl.replicas = replicas;
    ShardedFleet fleet(config, registry, GpuSpec::H800());
    results.push_back(fleet.Run(trace));
    epochs.push_back(fleet.epochs());
  }
  ExpectBitIdentical(results[0], results[1]);
  EXPECT_EQ(epochs[0], epochs[1]);  // heartbeats never add barriers
  EXPECT_FALSE(results[0].ctrl.Any());
  EXPECT_GT(results[1].ctrl.heartbeats_sent, 0u);
  EXPECT_EQ(results[1].ctrl.elections, 0u);
}

// The tentpole determinism contract, now through a mid-epoch leader crash:
// shard count stays pure parallelism for the whole crash -> election ->
// replay -> recovery sequence.
TEST(FailoverTest, LeaderCrashMidEpochBitIdenticalAcrossShardCounts) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(10);
  const TimePoint crash = 40.0;
  auto trace = CrashStraddlingTrace(registry, crash);
  std::vector<RunMetrics> results;
  for (int shards : {1, 2, 4, 8}) {
    FleetConfig config = SmallFleet(8, shards);
    config.ctrl.replicas = 3;
    ShardedFleet fleet(config, registry, GpuSpec::H800());
    fleet.ScheduleDispatcherCrash(crash, /*downtime=*/10.0);
    results.push_back(fleet.Run(trace));
    EXPECT_EQ(fleet.shards(), shards);
    ExpectAllComplete(fleet, results.back(), trace.size());
    EXPECT_EQ(fleet.audit().sync_overruns, 0u);
    EXPECT_EQ(fleet.audit().violations, 0u);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectBitIdentical(results[0], results[i]);
    ExpectCtrlIdentical(results[0], results[i]);
  }
  // The crash actually bit: an election ran and in-flight arrivals were
  // re-dispatched by the successor.
  EXPECT_EQ(results[0].ctrl.failovers, 1u);
  EXPECT_GE(results[0].ctrl.elections, 1u);
  EXPECT_GT(results[0].ctrl.redispatched_requests, 0u);
  EXPECT_GT(results[0].ctrl.leader_downtime, 0.0);
}

// Crash-storm: the leader dies while two cells lose instances, and the
// replay detour shows up as client-visible TTFT, never as request loss.
TEST(FailoverTest, CrashStormCompletesEveryRequest) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(10);
  const TimePoint crash = 40.0;
  auto trace = CrashStraddlingTrace(registry, crash);
  FleetConfig config = SmallFleet(4, 4);
  config.ctrl.replicas = 3;
  ShardedFleet fleet(config, registry, GpuSpec::H800());
  fleet.ScheduleDispatcherCrash(crash, /*downtime=*/10.0);
  fleet.ScheduleCellFailure(/*cell=*/0, /*prefill_partition=*/false, /*index=*/0,
                            /*when=*/35.0, /*downtime=*/20.0);
  fleet.ScheduleCellFailure(/*cell=*/2, /*prefill_partition=*/true, /*index=*/0,
                            /*when=*/42.0, /*downtime=*/15.0);
  RunMetrics metrics = fleet.Run(trace);
  ExpectAllComplete(fleet, metrics, trace.size());
  EXPECT_EQ(metrics.ctrl.failovers, 1u);
  EXPECT_GT(metrics.ctrl.redispatched_requests, 0u);
  // Replayed arrivals keep their client timestamps, so the failover delay
  // (election + re-dispatch) appears as TTFT on the affected requests.
  double max_ttft = 0.0;
  for (double ttft : metrics.ttft_samples) {
    max_ttft = std::max(max_ttft, ttft);
  }
  EXPECT_GT(max_ttft, metrics.ctrl.leader_downtime);
}

// Golden per-request outcome of a 16-cell crash storm: two dispatcher
// crashes (one with in-flight arrivals to replay) plus instance failures
// in three cells. The fingerprint pins where every request went and when
// it was served, and must not depend on the shard count.
TEST(FailoverTest, CrashStormFingerprintIsGoldenAcrossShardCounts) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(12);
  std::vector<ArrivalEvent> trace = CrashStraddlingTrace(registry, 40.0);
  const std::vector<ArrivalEvent> extra =
      GeneratePoisson(registry, 2.4, 90.0, Dataset::ShareGpt(), 41);
  trace.insert(trace.end(), extra.begin(), extra.end());
  std::stable_sort(trace.begin(), trace.end(),
                   [](const ArrivalEvent& a, const ArrivalEvent& b) { return a.time < b.time; });
  std::vector<std::string> prints;
  for (int shards : {1, 2, 4}) {
    FleetConfig config = SmallFleet(16, shards);
    config.ctrl.replicas = 3;
    ShardedFleet fleet(config, registry, GpuSpec::H800());
    fleet.ScheduleDispatcherCrash(40.0, /*downtime=*/10.0);
    fleet.ScheduleDispatcherCrash(65.0, /*downtime=*/4.0);
    fleet.ScheduleCellFailure(/*cell=*/3, /*prefill_partition=*/false, /*index=*/1,
                              /*when=*/30.0, /*downtime=*/25.0);
    fleet.ScheduleCellFailure(/*cell=*/9, /*prefill_partition=*/true, /*index=*/0,
                              /*when=*/41.0, /*downtime=*/12.0);
    fleet.ScheduleCellFailure(/*cell=*/15, /*prefill_partition=*/false, /*index=*/0,
                              /*when=*/60.0, /*downtime=*/10.0);
    const RunMetrics metrics = fleet.Run(trace);
    ExpectAllComplete(fleet, metrics, trace.size());
    EXPECT_EQ(metrics.ctrl.failovers, 2u);
    EXPECT_GT(metrics.ctrl.redispatched_requests, 0u);
    prints.push_back(RequestFingerprint(fleet));
  }
  EXPECT_EQ(prints[1], prints[0]);
  EXPECT_EQ(prints[2], prints[0]);
  EXPECT_EQ(Fnv1a(prints[0]), 0x89c4560c0bb7b1c0ull)
      << "fingerprint hash 0x" << std::hex << Fnv1a(prints[0]);
}

// FaultPlan::ApplyTo is the scripted form of the kill switches above.
TEST(FailoverTest, FaultPlanDrivesFleetFaults) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(8);
  auto trace = CrashStraddlingTrace(registry, 30.0);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultSpecs(
      {"dispatcher@30+10", "cell/1/decode:0@25+10", "aging:0.0002", "link:0.5@20+10"},
      &plan, &error))
      << error;
  FleetConfig config = SmallFleet(4, 2);
  config.ctrl.replicas = 3;
  ShardedFleet fleet(config, registry, GpuSpec::H800());
  plan.ApplyTo(fleet);
  RunMetrics metrics = fleet.Run(trace);
  ExpectAllComplete(fleet, metrics, trace.size());
  EXPECT_EQ(metrics.ctrl.failovers, 1u);
}

// Aging drift (software aging, modeled): a drifting cell is strictly
// slower than a fresh one, and a zero rate is bitwise free.
TEST(FailoverTest, AgingDriftDegradesLatencyMonotonically) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(8);
  auto trace = GeneratePoisson(registry, 0.4, 120.0, Dataset::ShareGpt(), 31);
  double exec_by_rate[2] = {0.0, 0.0};
  for (int aged = 0; aged < 2; ++aged) {
    AegaeonConfig config = SmallCell();
    config.aging.latency_rate = aged ? 0.002 : 0.0;
    AegaeonCluster cluster(config, registry, GpuSpec::H800());
    RunMetrics metrics = cluster.Run(trace);
    EXPECT_EQ(metrics.completed_requests, metrics.total_requests);
    exec_by_rate[aged] = metrics.breakdown.decode_exec + metrics.breakdown.prefill_exec;
  }
  EXPECT_GT(exec_by_rate[1], exec_by_rate[0]);
}

// An injected policy is honored: round-robin spreads a burst exactly
// evenly no matter what the cells' loads look like.
TEST(FailoverTest, InjectedDispatcherPolicyIsHonored) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(8);
  auto trace = GeneratePoisson(registry, 0.8, 60.0, Dataset::ShareGpt(), 37);
  FleetConfig config = SmallFleet(4, 2);
  ShardedFleet fleet(config, registry, GpuSpec::H800());
  fleet.SetDispatcher(std::make_unique<RoundRobinDispatcher>());
  RunMetrics metrics = fleet.Run(trace);
  EXPECT_EQ(metrics.total_requests, trace.size());
  const uint64_t share = trace.size() / 4;
  for (uint64_t routed : fleet.routed()) {
    EXPECT_GE(routed, share);
    EXPECT_LE(routed, share + 1);
  }
}

TEST(FailoverDeathTest, ScheduleFailureValidatesInstanceRange) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(4);
  AegaeonCluster cluster(SmallCell(), registry, GpuSpec::H800());
  // SmallCell has 1 prefill + 2 decode instances.
  EXPECT_DEATH(cluster.ScheduleFailure(true, 1, 10.0, 5.0), "invalid plan");
  EXPECT_DEATH(cluster.ScheduleFailure(false, 2, 10.0, 5.0), "invalid plan");
  EXPECT_DEATH(cluster.ScheduleFailure(true, -1, 10.0, 5.0), "invalid plan");
  EXPECT_DEATH(cluster.ScheduleFailure(true, 0, -1.0, 5.0), "invalid plan");
  EXPECT_DEATH(cluster.ScheduleFailure(true, 0, 10.0, 0.0), "invalid plan");
}

TEST(FailoverDeathTest, FleetKillSwitchesValidateTargets) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(4);
  ShardedFleet fleet(SmallFleet(2, 1), registry, GpuSpec::H800());
  EXPECT_DEATH(fleet.ScheduleCellFailure(2, true, 0, 10.0, 5.0), "outside the fleet");
  EXPECT_DEATH(fleet.ScheduleCellFailure(-1, true, 0, 10.0, 5.0), "outside the fleet");
  EXPECT_DEATH(fleet.ScheduleCellFailure(0, false, 7, 10.0, 5.0), "invalid plan");
  EXPECT_DEATH(fleet.ScheduleDispatcherCrash(10.0, -1.0), "invalid plan");

  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultSpec("cell/5/decode:0@10+5", 1, &plan, &error)) << error;
  EXPECT_DEATH(plan.ApplyTo(fleet), "outside the fleet");

  AegaeonCluster cluster(SmallCell(), registry, GpuSpec::H800());
  FaultPlan dispatcher_plan;
  ASSERT_TRUE(ParseFaultSpec("dispatcher@10", 1, &dispatcher_plan, &error)) << error;
  EXPECT_DEATH(dispatcher_plan.ApplyTo(cluster), "no dispatcher");
}

}  // namespace
}  // namespace aegaeon
