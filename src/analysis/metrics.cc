#include "analysis/metrics.h"

#include <algorithm>

namespace aegaeon {

LatencyBreakdown& LatencyBreakdown::operator+=(const LatencyBreakdown& other) {
  prefill_wait += other.prefill_wait;
  prefill_exec += other.prefill_exec;
  decode_wait += other.decode_wait;
  decode_exec += other.decode_exec;
  control_overhead += other.control_overhead;
  data_overhead += other.data_overhead;
  return *this;
}

RunMetrics& RunMetrics::MergeFrom(const RunMetrics& other) {
  total_requests += other.total_requests;
  completed_requests += other.completed_requests;
  tokens_total += other.tokens_total;
  tokens_met += other.tokens_met;
  tokens_generated += other.tokens_generated;
  horizon = std::max(horizon, other.horizon);
  // Pools merge side by side, so their rental rates add.
  pool_cost_per_hour += other.pool_cost_per_hour;
  breakdown += other.breakdown;
  rejected_requests += other.rejected_requests;
  shed_requests += other.shed_requests;
  timed_out_requests += other.timed_out_requests;
  degraded_requests += other.degraded_requests;
  retry_attempts += other.retry_attempts;
  slo_good_requests += other.slo_good_requests;
  ttft_samples.insert(ttft_samples.end(), other.ttft_samples.begin(), other.ttft_samples.end());
  request_latency_samples.insert(request_latency_samples.end(),
                                 other.request_latency_samples.begin(),
                                 other.request_latency_samples.end());
  switch_latency_samples.insert(switch_latency_samples.end(),
                                other.switch_latency_samples.begin(),
                                other.switch_latency_samples.end());
  kv_sync_samples.insert(kv_sync_samples.end(), other.kv_sync_samples.begin(),
                         other.kv_sync_samples.end());
  sim += other.sim;
  return *this;
}

void FillDecodeWaits(std::deque<Request>& requests) {
  for (Request& r : requests) {
    // LINT-ALLOW(float-equality): 0.0 is the never-filled sentinel here —
    // decode_wait is assigned exactly once, so exact-zero means "not yet"
    if (r.finished() && r.first_token_time != kTimeUnset && r.decode_wait == 0.0) {
      double wait = (r.completion - r.first_token_time) - r.decode_exec;
      r.decode_wait = wait > 0.0 ? wait : 0.0;
    }
  }
}

RunMetrics FoldRequests(const std::deque<Request>& requests, Duration horizon) {
  RunMetrics metrics;
  metrics.horizon = horizon;
  for (const Request& r : requests) {
    metrics.total_requests++;
    metrics.tokens_total += r.output_tokens;
    metrics.tokens_met += r.tokens_met;
    metrics.tokens_generated += r.generated;
    metrics.retry_attempts += r.dispatch_attempts;
    if (r.degraded) {
      metrics.degraded_requests++;
    }
    if (r.proxy_outcome != ProxyOutcome::kNone) {
      // Never dispatched: no execution record to fold, and its tokens all
      // count as missed demand (already added above with tokens_met == 0).
      switch (r.proxy_outcome) {
        case ProxyOutcome::kRejected: metrics.rejected_requests++; break;
        case ProxyOutcome::kShed: metrics.shed_requests++; break;
        case ProxyOutcome::kTimedOut: metrics.timed_out_requests++; break;
        case ProxyOutcome::kNone: break;
      }
      continue;
    }
    if (r.finished()) {
      metrics.completed_requests++;
      metrics.request_latency_samples.push_back(r.completion - r.arrival);
      if (r.tokens_met * 10 >= r.output_tokens * 9) {
        metrics.slo_good_requests++;
      }
    } else if (r.generated < r.output_tokens && r.tokens_met > r.generated) {
      // Defensive: met count can never exceed generated tokens.
      metrics.tokens_met -= (r.tokens_met - r.generated);
    }
    if (r.first_token_time != kTimeUnset) {
      metrics.ttft_samples.push_back(r.first_token_time - r.arrival);
    }
    metrics.breakdown.prefill_wait += r.prefill_wait;
    metrics.breakdown.prefill_exec += r.prefill_exec;
    metrics.breakdown.decode_wait += r.decode_wait;
    metrics.breakdown.decode_exec += r.decode_exec;
    metrics.breakdown.control_overhead += r.control_overhead;
    metrics.breakdown.data_overhead += r.data_overhead;
    metrics.kv_sync_samples.push_back(r.data_overhead + r.control_overhead);
  }
  return metrics;
}

}  // namespace aegaeon
