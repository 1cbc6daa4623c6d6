// perfbench_run: one repetition of one benchmark workload, in its own
// process (so getrusage's peak RSS belongs to that workload alone).
//
//   perfbench_run --workload NAME --seed N [--trace] [--horizon S]
//                 [--spans PATH]
//   perfbench_run --reference
//
// The program sets up the cluster or fleet, generates the seeded trace,
// serves it, folds the metrics and writes the metrics JSON, timing each
// stage from outside the library. It then checks the outputs and prints one
// JSON line: the checks, the operations attempted (offered requests) and
// failed, a digest of the simulated results, the end-to-end metrics, and,
// with --trace, the per-layer metrics. --trace records spans around the
// calls into each layer and installs a timing dispatcher; it must not
// change any simulated result, which perfbench/run.py checks by comparing
// digests. --horizon overrides the workload's simulated arrival horizon
// (the smoke test uses it). --reference instead times one pass of the
// reference kernel (reference_kernel.h) and prints {"reference_s": ...}.
// perfbench/README.md explains the workloads and the layer-to-metric map.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/report.h"
#include "core/cluster.h"
#include "core/fleet.h"
#include "ctrl/dispatcher.h"
#include "hw/gpu_spec.h"
#include "model/registry.h"
#include "reference_kernel.h"
#include "spans.h"
#include "workload/dataset.h"
#include "workload/generator.h"

using namespace aegaeon;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::SecondsSince;
using perfbench::SpanLog;

namespace {

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kFleet1024, kCellMarket, kStormOverload };

struct Workload {
  const char* name;
  Kind kind;
  // Fleet shards (0 for the single cell) and host threads the run uses.
  // fleet-1024 keeps 2 shards on 1 thread: a 2-thread shard gang swung
  // between 1.0 and 4.0 s per run on a shared 4-core VM, far beyond any
  // usable bound (see README.md).
  int shards;
  int threads;
  // Simulated seconds of arrivals.
  double horizon;
};

constexpr Workload kWorkloads[] = {
    {"fleet-1024", Kind::kFleet1024, 2, 1, 600.0},
    {"cell-market", Kind::kCellMarket, 0, 1, 8.0 * 3600.0},
    {"storm-overload", Kind::kStormOverload, 1, 1, 1.5 * 3600.0},
};

// cell-market advances in this many equal simulated windows; the first and
// last give core.ns_per_event_first/last.
constexpr int kCellWindows = 8;

// Set-up is repeated at least kSetupMinRepeats times and until it has taken
// kSetupMinSeconds in total (at most kSetupMaxRepeats times); the median
// is reported, so one page-fault storm cannot move setup_s.
constexpr int kSetupMinRepeats = 5;
constexpr int kSetupMaxRepeats = 200;
constexpr double kSetupMinSeconds = 0.1;

// storm-overload fault cadence (simulated seconds). Every fault ends at
// least kFaultMargin before the arrival horizon, so faults never stretch
// the makespan.
constexpr double kLeaderCrashFirst = 150.0;
constexpr double kLeaderCrashPeriod = 300.0;
constexpr double kLeaderDowntime = 10.0;
constexpr double kDecodeFailFirst = 60.0;
constexpr double kDecodeFailPeriod = 120.0;
constexpr double kDecodeDowntime = 30.0;
constexpr double kFaultMargin = 30.0;

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value;
  std::string unit;
  // A host-time measurement (as opposed to a count or a simulated value);
  // perfbench/run.py normalizes these by the reference kernel.
  bool host = false;
};

struct Result {
  std::vector<std::string> failures;  // output checks that did not hold
  uint64_t offered = 0;
  uint64_t unfinished = 0;
  std::string digest;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  }
};

double PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return CPU_COUNT(&set);
}

// Nearest-rank percentile of a sorted sample; 0 on an empty one.
double NearestRank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) {
    return 0.0;
  }
  size_t rank = static_cast<size_t>(pct / 100.0 * static_cast<double>(sorted.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string HexDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// Timings the traced run takes around the library calls.
struct LayerTimes {
  double gen_s = 0.0;
  double run_s = 0.0;  // fleet Run() wall
  double json_s = 0.0;
  double inject_s = 0.0;
  double advance_s = 0.0;
  double finish_s = 0.0;
  double ns_per_event_first = 0.0;
  double ns_per_event_last = 0.0;
  double rss_after_setup_kb = 0.0;
};

// Routes through LeastOutstandingDispatcher and times every call; installed
// only in the traced run.
class TimedDispatcher : public Dispatcher {
 public:
  void BeginRun(int cells) override { inner_.BeginRun(cells); }
  int Route(const ArrivalEvent& event, const CellLoadFn& load, int cells) override {
    const Clock::time_point start = Clock::now();
    const int target = inner_.Route(event, load, cells);
    seconds_ += SecondsSince(start);
    ++calls_;
    return target;
  }
  uint64_t calls() const { return calls_; }
  double seconds() const { return seconds_; }

 private:
  LeastOutstandingDispatcher inner_;
  uint64_t calls_ = 0;
  double seconds_ = 0.0;
};

// Builds the system under test repeatedly (see kSetupMinRepeats), timing
// each build, and keeps the last one; *setup_s is the median build time.
// Earlier builds are destroyed untimed.
template <typename T, typename Make>
std::unique_ptr<T> RepeatedSetup(SpanLog& log, double* setup_s, const Make& make) {
  std::vector<double> times;
  double total = 0.0;
  std::unique_ptr<T> made;
  while (times.size() < kSetupMaxRepeats &&
         (times.size() < kSetupMinRepeats || total < kSetupMinSeconds)) {
    made.reset();
    ScopedSpan span(log, "setup");
    const Clock::time_point start = Clock::now();
    made = make();
    times.push_back(SecondsSince(start));
    total += times.back();
  }
  std::sort(times.begin(), times.end());
  *setup_s = times[times.size() / 2];
  return made;
}

// ---------------------------------------------------------------------------
// Output checks and metrics shared by every workload

// Classifies every offered request into exactly one final outcome, checks
// the classification against RunMetrics, and emits the simulated
// end-to-end metrics and the digest.
void CheckAndFold(const RunMetrics& m, const std::vector<const AegaeonCluster*>& cells,
                  size_t trace_size, Result* result) {
  uint64_t completed = 0, rejected = 0, shed = 0, timed_out = 0, unfinished = 0;
  uint64_t seen = 0, both = 0, bad_completion = 0;
  std::vector<double> ttft;
  for (const AegaeonCluster* cell : cells) {
    for (const Request& r : cell->requests()) {
      ++seen;
      const bool refused = r.proxy_outcome != ProxyOutcome::kNone;
      const bool done = r.finished();
      if (refused && done) {
        ++both;
      }
      if (refused) {
        switch (r.proxy_outcome) {
          case ProxyOutcome::kRejected: ++rejected; break;
          case ProxyOutcome::kShed: ++shed; break;
          case ProxyOutcome::kTimedOut: ++timed_out; break;
          case ProxyOutcome::kNone: break;
        }
      } else if (done) {
        ++completed;
        if (r.phase != RequestPhase::kDone || r.generated != r.output_tokens ||
            r.first_token_time < r.arrival || r.completion < r.first_token_time) {
          ++bad_completion;
        }
        ttft.push_back(r.first_token_time - r.arrival);
      } else {
        ++unfinished;
      }
    }
  }
  result->offered = trace_size;
  result->unfinished = unfinished;
  result->Expect(seen == trace_size, "requests held by the cells != trace size");
  result->Expect(both == 0, "a request is both completed and refused");
  result->Expect(completed + rejected + shed + timed_out + unfinished == trace_size,
                 "outcomes do not partition the offered requests");
  result->Expect(bad_completion == 0, "a completed request has an inconsistent record");
  result->Expect(m.total_requests == trace_size, "RunMetrics::total_requests != trace size");
  result->Expect(m.completed_requests == completed, "RunMetrics::completed_requests mismatch");
  result->Expect(m.rejected_requests == rejected, "RunMetrics::rejected_requests mismatch");
  result->Expect(m.shed_requests == shed, "RunMetrics::shed_requests mismatch");
  result->Expect(m.timed_out_requests == timed_out, "RunMetrics::timed_out_requests mismatch");
  result->Expect(m.tokens_generated <= m.tokens_total, "tokens_generated > tokens_total");
  result->Expect(m.tokens_met <= m.tokens_generated, "tokens_met > tokens_generated");
  result->Expect(m.horizon > 0.0, "empty makespan");

  std::sort(ttft.begin(), ttft.end());
  result->e2e.push_back({"slo_attainment", m.SloAttainment(), "ratio"});
  result->e2e.push_back({"goodput_rps", m.Goodput(), "req/s"});
  result->e2e.push_back({"ttft_p50_s", NearestRank(ttft, 50.0), "s"});
  result->e2e.push_back({"ttft_p99_s", NearestRank(ttft, 99.0), "s"});

  std::ostringstream digest;
  digest << "completed=" << m.completed_requests << " tokens_met=" << m.tokens_met
         << " tokens_generated=" << m.tokens_generated << " horizon=" << HexDouble(m.horizon)
         << " events=" << m.sim.events_processed << " epochs=" << m.sync_epochs
         << " epochs_skipped=" << m.sync_epochs_skipped << " rejected=" << rejected
         << " shed=" << shed << " timed_out=" << timed_out
         << " elections=" << m.ctrl.elections << " failovers=" << m.ctrl.failovers
         << " redispatched=" << m.ctrl.redispatched_requests
         << " frontdoor_replays=" << m.ctrl.frontdoor_replays
         << " leader_downtime=" << HexDouble(m.ctrl.leader_downtime);
  result->digest = digest.str();
}

void EmitEndToEnd(const RunMetrics& m, double setup_s, double run_s, Result* result) {
  result->e2e.insert(result->e2e.begin(),
                     {{"run_s", run_s, "s", /*host=*/true},
                      {"sim_h_per_wall_h", Ratio(m.horizon, run_s), "h/h", /*host=*/true},
                      {"setup_s", setup_s, "s", /*host=*/true},
                      {"peak_rss_mb", PeakRssKb() / 1024.0, "MB"}});
}

// Per-layer counters the cells expose, summed (or maxed) over cells.
void EmitCellLayers(const RunMetrics& m, const std::vector<const AegaeonCluster*>& cells,
                    const LayerTimes& t, Result* result) {
  uint64_t switches = 0, decode_switches = 0, prefetch_hits = 0, prefetch_issued = 0;
  double decode_switch_sum = 0.0;
  uint64_t mc_hits = 0, mc_misses = 0, mc_evictions = 0, mc_ssd_hits = 0;
  uint64_t swap_outs = 0, swap_ins = 0, deferred_frees = 0;
  double bytes_moved = 0.0;
  size_t move_list_peak = 0;
  ProxyStats serve;
  for (const AegaeonCluster* cell : cells) {
    const AegaeonCluster::ScalingStats s = cell->GetScalingStats();
    switches += s.prefill_switches + s.decode_switches;
    decode_switches += s.decode_switches;
    decode_switch_sum += s.decode_switch_mean * static_cast<double>(s.decode_switches);
    prefetch_hits += s.prefetch_hits;
    prefetch_issued += s.prefetch_issued;
    const ModelCache& mc = cell->model_cache();
    mc_hits += mc.hits();
    mc_misses += mc.misses();
    mc_evictions += mc.evictions();
    mc_ssd_hits += mc.ssd_hits();
    const TransferEngine::Stats& x = cell->transfer_engine().stats();
    swap_outs += x.swap_outs;
    swap_ins += x.swap_ins;
    bytes_moved += x.bytes_out + x.bytes_in;
    move_list_peak = std::max(move_list_peak, cell->cpu_kv_cache().move_list_peak());
    deferred_frees += cell->cpu_kv_cache().deferred_frees();
    if (const ServingProxy* proxy = cell->proxy()) {
      serve.dispatched += proxy->stats().dispatched;
      serve.rejected += proxy->stats().rejected;
      serve.shed += proxy->stats().shed;
      serve.timed_out += proxy->stats().timed_out;
      serve.retries += proxy->stats().retries;
    }
  }
  const double done = static_cast<double>(m.completed_requests);
  const double peak_kb = PeakRssKb();
  auto add = [result](const char* name, double value, const char* unit) {
    result->layer.push_back({name, value, unit});
  };
  auto add_host = [result](const char* name, double value, const char* unit) {
    result->layer.push_back({name, value, unit, /*host=*/true});
  };
  add_host("core.inject_s", t.inject_s, "s");
  add_host("core.advance_s", t.advance_s, "s");
  add_host("core.finish_s", t.finish_s, "s");
  add_host("core.ns_per_event_first", t.ns_per_event_first, "ns");
  add_host("core.ns_per_event_last", t.ns_per_event_last, "ns");
  add("core.prefill_wait_mean_s", Ratio(m.breakdown.prefill_wait, done), "s");
  add("core.decode_wait_mean_s", Ratio(m.breakdown.decode_wait, done), "s");
  add("core.control_overhead_mean_s", Ratio(m.breakdown.control_overhead, done), "s");
  add("core.data_overhead_mean_s", Ratio(m.breakdown.data_overhead, done), "s");
  add("engine.switches", static_cast<double>(switches), "count");
  add("engine.prefetch_hit_ratio",
      Ratio(static_cast<double>(prefetch_hits), static_cast<double>(prefetch_issued)), "ratio");
  add("engine.decode_switch_mean_s", Ratio(decode_switch_sum, static_cast<double>(decode_switches)),
      "s");
  add("mem.model_cache_hits", static_cast<double>(mc_hits), "count");
  add("mem.model_cache_misses", static_cast<double>(mc_misses), "count");
  add("mem.model_cache_evictions", static_cast<double>(mc_evictions), "count");
  add("mem.model_cache_ssd_hits", static_cast<double>(mc_ssd_hits), "count");
  add("mem.rss_after_setup_mb", t.rss_after_setup_kb / 1024.0, "MB");
  add("mem.bytes_per_request",
      Ratio((peak_kb - t.rss_after_setup_kb) * 1024.0, static_cast<double>(m.total_requests)),
      "B");
  add("kv.swap_outs", static_cast<double>(swap_outs), "count");
  add("kv.swap_ins", static_cast<double>(swap_ins), "count");
  add("kv.gb_moved", bytes_moved / 1e9, "GB");
  add("kv.move_list_peak", static_cast<double>(move_list_peak), "count");
  add("kv.deferred_frees", static_cast<double>(deferred_frees), "count");
  add("serve.dispatched", static_cast<double>(serve.dispatched), "count");
  add("serve.rejected", static_cast<double>(serve.rejected), "count");
  add("serve.shed", static_cast<double>(serve.shed), "count");
  add("serve.timed_out", static_cast<double>(serve.timed_out), "count");
  add("serve.retries", static_cast<double>(serve.retries), "count");
  add_host("workload.gen_s", t.gen_s, "s");
  add("workload.requests", static_cast<double>(m.total_requests), "count");
  add_host("analysis.json_s", t.json_s, "s");
  add("ctrl.elections", static_cast<double>(m.ctrl.elections), "count");
  add("ctrl.redispatched", static_cast<double>(m.ctrl.redispatched_requests), "count");
  add("ctrl.leader_downtime_s", m.ctrl.leader_downtime, "s");
}

// Fleet epoch-loop layer (zeros for the single-cell workload).
void EmitSimLayers(const RunMetrics& m, const LayerTimes& t, double advance_s,
                   const TimedDispatcher* router, Result* result) {
  uint64_t idle_skips = 0, max_events = 0;
  double barrier_wait = 0.0;
  for (const SimPerfCounters& shard : m.shard_sim) {
    idle_skips += shard.idle_shard_skips;
    barrier_wait += shard.barrier_wait_seconds;
    max_events = std::max(max_events, shard.events_processed);
  }
  double serial = 0.0, imbalance = 0.0;
  if (!m.shard_sim.empty()) {
    serial = t.run_s - m.shard_sim[0].wall_seconds - m.shard_sim[0].barrier_wait_seconds;
    const double mean = static_cast<double>(m.sim.events_processed) /
                        static_cast<double>(m.shard_sim.size());
    imbalance = Ratio(static_cast<double>(max_events), mean);
  }
  const double calls = router != nullptr ? static_cast<double>(router->calls()) : 0.0;
  const double route_s = router != nullptr ? router->seconds() : 0.0;
  auto add = [result](const char* name, double value, const char* unit) {
    result->layer.push_back({name, value, unit});
  };
  auto add_host = [result](const char* name, double value, const char* unit) {
    result->layer.push_back({name, value, unit, /*host=*/true});
  };
  add("ctrl.route_calls", calls, "count");
  add_host("ctrl.route_s", route_s, "s");
  add_host("ctrl.route_ns_per_call", Ratio(route_s * 1e9, calls), "ns");
  add("sim.epochs", static_cast<double>(m.sync_epochs), "count");
  add("sim.epochs_skipped", static_cast<double>(m.sync_epochs_skipped), "count");
  add("sim.idle_shard_skips", static_cast<double>(idle_skips), "count");
  add_host("sim.serial_stage_s", serial, "s");
  add_host("sim.barrier_wait_s", barrier_wait, "s");
  add("sim.shard_event_imbalance", imbalance, "ratio");
  add("sim.events", static_cast<double>(m.sim.events_processed), "count");
  add_host("sim.ns_per_event", Ratio(advance_s * 1e9, static_cast<double>(m.sim.events_processed)),
      "ns");
}

// ---------------------------------------------------------------------------
// Fleet workloads: fleet-1024 and storm-overload

Result RunFleet(const Workload& w, uint64_t seed, SpanLog& log) {
  const bool storm = w.kind == Kind::kStormOverload;
  const int models = storm ? 32 : 512;
  ModelRegistry registry = ModelRegistry::MidSizeMarket(models);
  FleetConfig config;
  config.cells = storm ? 16 : 256;
  config.shards = w.shards;
  // Explicit, so AEGAEON_SWEEP_THREADS cannot change the run.
  config.threads = w.threads;
  config.cell.prefill_instances = 2;
  config.cell.decode_instances = 2;
  if (storm) {
    config.cell.proxy.enabled = true;
    config.ctrl.replicas = 3;
  }

  LayerTimes t;
  TimedDispatcher* router = nullptr;
  double setup_s = 0.0;
  std::unique_ptr<ShardedFleet> fleet = RepeatedSetup<ShardedFleet>(log, &setup_s, [&] {
    auto made = std::make_unique<ShardedFleet>(config, registry, GpuSpec::H800());
    if (log.enabled()) {
      auto timed = std::make_unique<TimedDispatcher>();
      router = timed.get();
      made->SetDispatcher(std::move(timed));
    }
    if (storm) {
      for (double at = kLeaderCrashFirst; at + kLeaderDowntime + kFaultMargin <= w.horizon;
           at += kLeaderCrashPeriod) {
        made->ScheduleDispatcherCrash(at, kLeaderDowntime);
      }
      int k = 0;
      for (double at = kDecodeFailFirst; at + kDecodeDowntime + kFaultMargin <= w.horizon;
           at += kDecodeFailPeriod, ++k) {
        made->ScheduleCellFailure((k * 5) % config.cells, /*prefill_partition=*/false, k % 2,
                                  at, kDecodeDowntime);
      }
    }
    return made;
  });
  t.rss_after_setup_kb = PeakRssKb();

  const Clock::time_point run_start = Clock::now();
  ScopedSpan run_span(log, "run");
  std::vector<ArrivalEvent> trace;
  RunMetrics m;
  std::string json;
  {
    ScopedSpan span(log, "workload.generate");
    trace = storm ? GenerateBursty(registry, /*base_rps=*/2.0 * 0.35, /*burst_multiplier=*/6.0,
                                   /*mean_calm=*/40.0, /*mean_burst=*/15.0, w.horizon,
                                   Dataset::ShareGpt(), seed)
                  : GeneratePoisson(registry, 0.2, w.horizon, Dataset::ShareGpt(), seed);
    t.gen_s = span.End();
  }
  {
    ScopedSpan span(log, "sim.fleet_run");
    m = fleet->Run(trace);
    t.run_s = span.End();
  }
  {
    ScopedSpan span(log, "analysis.json");
    std::ostringstream os;
    WriteMetricsJson(os, m);
    json = os.str();
    t.json_s = span.End();
  }
  run_span.End();
  const double run_s = SecondsSince(run_start);

  Result result;
  std::vector<const AegaeonCluster*> cells;
  uint64_t routed = 0;
  for (int c = 0; c < fleet->cells(); ++c) {
    cells.push_back(&fleet->cell(c));
    routed += fleet->routed()[static_cast<size_t>(c)];
  }
  CheckAndFold(m, cells, trace.size(), &result);
  result.Expect(routed == trace.size(), "sum of routed() != trace size");
  result.Expect(!json.empty() && json.front() == '{', "metrics JSON not written");
  if (storm) {
    result.Expect(m.ctrl.elections > 0, "storm-overload ran no election");
  }
  EmitEndToEnd(m, setup_s, run_s, &result);
  if (log.enabled()) {
    double advance_s = 0.0;
    for (const SimPerfCounters& shard : m.shard_sim) {
      advance_s += shard.wall_seconds;
    }
    EmitCellLayers(m, cells, t, &result);
    EmitSimLayers(m, t, advance_s, router, &result);
  }
  return result;
}

// ---------------------------------------------------------------------------
// cell-market: one paper-split cell driven through the step API

Result RunCellMarket(const Workload& w, uint64_t seed, SpanLog& log) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(80);
  AegaeonConfig config;  // 6 prefill + 10 decode instances (§7.2)

  LayerTimes t;
  double setup_s = 0.0;
  std::unique_ptr<AegaeonCluster> cluster = RepeatedSetup<AegaeonCluster>(log, &setup_s, [&] {
    auto made = std::make_unique<AegaeonCluster>(config, registry, GpuSpec::H800());
    made->BeginRun();
    return made;
  });
  t.rss_after_setup_kb = PeakRssKb();

  const Clock::time_point run_start = Clock::now();
  ScopedSpan run_span(log, "run");
  std::vector<ArrivalEvent> trace;
  RunMetrics m;
  std::string json;
  {
    ScopedSpan span(log, "workload.generate");
    trace = GenerateSkewed(registry, /*total_rps=*/8.0, /*zipf_s=*/1.2, w.horizon,
                           Dataset::ShareGpt(), seed);
    t.gen_s = span.End();
  }
  size_t next = 0;
  for (int window = 0; window < kCellWindows; ++window) {
    const TimePoint end = w.horizon * (window + 1) / kCellWindows;
    size_t stop = next;
    while (stop < trace.size() && (window + 1 == kCellWindows || trace[stop].time < end)) {
      ++stop;
    }
    {
      ScopedSpan span(log, "core.inject");
      cluster->InjectArrivals(trace.data() + next, stop - next, 0.0);
      t.inject_s += span.End();
    }
    next = stop;
    ScopedSpan span(log, "core.advance");
    const uint64_t events = cluster->AdvanceUntil(end);
    const double seconds = span.End();
    const double ns = Ratio(seconds * 1e9, static_cast<double>(events));
    t.advance_s += seconds;
    if (window == 0) {
      t.ns_per_event_first = ns;
    }
    if (window + 1 == kCellWindows) {
      t.ns_per_event_last = ns;
    }
  }
  {
    ScopedSpan span(log, "core.advance");
    cluster->AdvanceAll();
    t.advance_s += span.End();
  }
  {
    ScopedSpan span(log, "core.finish");
    m = cluster->FinishRun();
    t.finish_s = span.End();
  }
  {
    ScopedSpan span(log, "analysis.json");
    std::ostringstream os;
    WriteMetricsJson(os, m);
    json = os.str();
    t.json_s = span.End();
  }
  run_span.End();
  const double run_s = SecondsSince(run_start);

  Result result;
  const std::vector<const AegaeonCluster*> cells = {cluster.get()};
  CheckAndFold(m, cells, trace.size(), &result);
  result.Expect(!json.empty() && json.front() == '{', "metrics JSON not written");
  EmitEndToEnd(m, setup_s, run_s, &result);
  if (log.enabled()) {
    EmitCellLayers(m, cells, t, &result);
    EmitSimLayers(m, t, t.advance_s, nullptr, &result);
  }
  return result;
}

void PrintMetrics(const char* key, const std::vector<Metric>& metrics) {
  std::printf(", \"%s\": {", key);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"host\": %s}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str(), metrics[i].host ? "true" : "false");
  }
  std::printf("}");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload NAME --seed N [--trace] [--horizon S] "
               "[--spans PATH]\n"
               "       perfbench_run --reference\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, spans_path;
  uint64_t seed = 0;
  bool have_seed = false, trace = false;
  double horizon = 0.0;
  if (argc == 2 && std::strcmp(argv[1], "--reference") == 0) {
    perfbench::ReferenceKernel kernel;
    kernel.TimedPass();  // warm caches and TLB; the second pass is timed
    std::printf("{\"reference_s\": %.9f}\n", kernel.TimedPass());
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (arg == "--horizon" && has_value) {
      horizon = std::strtod(argv[++i], nullptr);
      if (!(horizon > 0.0)) {
        return Usage();
      }
    } else if (arg == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (arg == "--trace") {
      trace = true;
    } else {
      return Usage();
    }
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      found = &w;
    }
  }
  if (found == nullptr || !have_seed) {
    return Usage();
  }
  Workload w = *found;
  if (horizon > 0.0) {
    w.horizon = horizon;
  }
  if (w.threads > AvailableCpus()) {
    std::fprintf(stderr, "perfbench_run: %s needs %d threads but only %d CPUs are available\n",
                 w.name, w.threads, AvailableCpus());
    return 2;
  }

  SpanLog log(trace);
  const Result result =
      w.kind == Kind::kCellMarket ? RunCellMarket(w, seed, log) : RunFleet(w, seed, log);
  if (!spans_path.empty() && trace && !log.WriteJson(spans_path)) {
    std::fprintf(stderr, "perfbench_run: cannot write %s\n", spans_path.c_str());
    return 1;
  }

  const bool correct = result.failures.empty();
  // A failed check fails every request of the run; so does an unfinished
  // request (each on its own).
  const uint64_t failed = correct ? result.unfinished : result.offered;
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"traced\": %s, \"correct\": %s, "
              "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", \"checks_failed\": [",
              w.name, seed, trace ? "true" : "false", correct ? "true" : "false", result.offered,
              failed);
  for (size_t i = 0; i < result.failures.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", result.failures[i].c_str());
  }
  std::printf("], \"digest\": \"%s\"", result.digest.c_str());
  PrintMetrics("metrics", result.e2e);
  if (trace) {
    PrintMetrics("layers", result.layer);
  }
  std::printf("}\n");
  return correct ? 0 : 1;
}
