#include "src/simulator/metrics.h"

#include <algorithm>

#include "src/common/logging.h"

namespace sarathi {

std::string_view FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone:
      return "none";
    case FailureKind::kTimeout:
      return "timeout";
    case FailureKind::kReplicaCrash:
      return "replica_crash";
    case FailureKind::kShed:
      return "shed";
    case FailureKind::kMigrated:
      return "migrated";
    case FailureKind::kDegradedDrain:
      return "degraded_drain";
    case FailureKind::kHedgeCancelled:
      return "hedge_cancelled";
  }
  return "unknown";
}

void RequestMetrics::AppendTbtSamples(std::vector<double>* out) const {
  for (size_t i = 1; i < token_times_s.size(); ++i) {
    out->push_back(token_times_s[i] - token_times_s[i - 1]);
  }
}

std::vector<double> RequestMetrics::TbtSamples() const {
  std::vector<double> samples;
  samples.reserve(NumTbtSamples());
  AppendTbtSamples(&samples);
  return samples;
}

namespace {

// Applies `fn` to every TBT sample of every request, without materializing
// them.
template <typename Fn>
void ForEachTbt(const std::vector<RequestMetrics>& requests, Fn fn) {
  for (const RequestMetrics& r : requests) {
    const std::vector<double>& t = r.token_times_s;
    for (size_t i = 1; i < t.size(); ++i) {
      fn(t[i] - t[i - 1]);
    }
  }
}

// Median of the non-negative values of `value(r)` over all requests (the
// negative ones mark "not yet happened"); 0 when there are none.
template <typename Fn>
double MedianOfNonNegative(const std::vector<RequestMetrics>& requests, Fn value) {
  std::vector<double> samples;
  samples.reserve(requests.size());
  for (const RequestMetrics& r : requests) {
    double v = value(r);
    if (v >= 0.0) {
      samples.push_back(v);
    }
  }
  return SelectQuantile(&samples, 0.5);
}

}  // namespace

Summary SimResult::TtftSummary() const {
  Summary summary;
  for (const auto& r : requests) {
    double ttft = r.Ttft();
    if (ttft >= 0.0) {
      summary.Add(ttft);
    }
  }
  return summary;
}

Summary SimResult::TbtSummary() const {
  Summary summary;
  ForEachTbt(requests, [&](double tbt) { summary.Add(tbt); });
  return summary;
}

Summary SimResult::SchedulingDelaySummary() const {
  Summary summary;
  for (const auto& r : requests) {
    double delay = r.SchedulingDelay();
    if (delay >= 0.0) {
      summary.Add(delay);
    }
  }
  return summary;
}

Summary SimResult::LatencySummary() const {
  Summary summary;
  for (const auto& r : requests) {
    if (r.completed()) {
      summary.Add(r.completion_s - r.arrival_s);
    }
  }
  return summary;
}

double SimResult::P99Tbt() const {
  size_t count = 0;
  for (const RequestMetrics& r : requests) {
    count += r.NumTbtSamples();
  }
  std::vector<double> samples;
  samples.reserve(count);
  for (const RequestMetrics& r : requests) {
    r.AppendTbtSamples(&samples);
  }
  return SelectQuantile(&samples, 0.99);
}

double SimResult::MedianTtft() const {
  return MedianOfNonNegative(requests, [](const RequestMetrics& r) { return r.Ttft(); });
}

double SimResult::MedianSchedulingDelay() const {
  return MedianOfNonNegative(requests,
                             [](const RequestMetrics& r) { return r.SchedulingDelay(); });
}

double SimResult::BubbleFraction() const {
  if (stage_busy_s.empty() || active_window_s <= 0.0) {
    return 0.0;
  }
  double busy = 0.0;
  for (double b : stage_busy_s) {
    busy += b;
  }
  double capacity = active_window_s * static_cast<double>(stage_busy_s.size());
  return std::max(0.0, 1.0 - busy / capacity);
}

double SimResult::PeakKvUtilization() const {
  if (total_kv_blocks <= 0) {
    return 0.0;
  }
  return static_cast<double>(peak_kv_blocks) / static_cast<double>(total_kv_blocks);
}

double SimResult::OutputTokenThroughput() const {
  return makespan_s > 0.0 ? static_cast<double>(total_output_tokens) / makespan_s : 0.0;
}

double SimResult::RequestThroughput() const {
  int64_t completed = 0;
  for (const auto& r : requests) {
    completed += r.completed() ? 1 : 0;
  }
  return makespan_s > 0.0 ? static_cast<double>(completed) / makespan_s : 0.0;
}

int64_t SimResult::CountStalls(double threshold_s) const {
  int64_t stalls = 0;
  ForEachTbt(requests, [&](double tbt) { stalls += tbt > threshold_s ? 1 : 0; });
  return stalls;
}

double SimResult::Mfu() const {
  if (makespan_s <= 0.0 || peak_flops <= 0.0) {
    return 0.0;
  }
  return total_flops / (makespan_s * peak_flops);
}

double SimResult::Mbu() const {
  if (makespan_s <= 0.0 || peak_bandwidth <= 0.0) {
    return 0.0;
  }
  return total_bytes / (makespan_s * peak_bandwidth);
}

int64_t SimResult::CountGood() const {
  int64_t good = 0;
  for (const auto& r : requests) {
    good += r.good() ? 1 : 0;
  }
  return good;
}

double SimResult::Goodput() const {
  return makespan_s > 0.0 ? static_cast<double>(CountGood()) / makespan_s : 0.0;
}

int64_t SimResult::CountFailed() const {
  int64_t failed = 0;
  for (const auto& r : requests) {
    failed += r.failed() ? 1 : 0;
  }
  return failed;
}

int64_t SimResult::CountFailed(FailureKind kind) const {
  int64_t failed = 0;
  for (const auto& r : requests) {
    failed += (r.failed() && r.failure == kind) ? 1 : 0;
  }
  return failed;
}

int64_t SimResult::TotalRetries() const {
  int64_t retries = 0;
  for (const auto& r : requests) {
    retries += r.retries;
  }
  return retries;
}

int64_t SimResult::WastedRecomputeTokens() const {
  int64_t wasted = 0;
  for (const auto& r : requests) {
    wasted += r.wasted_tokens;
  }
  return wasted;
}

double SimResult::SloAttainment(double ttft_slo_s, double tbt_slo_s) const {
  if (requests.empty()) {
    return 0.0;
  }
  int64_t attained = 0;
  int64_t completed = 0;
  for (const auto& r : requests) {
    if (!r.completed()) {
      continue;
    }
    ++completed;
    if (r.Ttft() > ttft_slo_s) {
      continue;
    }
    bool ok = true;
    for (size_t i = 1; ok && i < r.token_times_s.size(); ++i) {
      ok = !(r.token_times_s[i] - r.token_times_s[i - 1] > tbt_slo_s);
    }
    attained += ok ? 1 : 0;
  }
  return completed == 0 ? 0.0 : static_cast<double>(attained) / static_cast<double>(completed);
}

double SimResult::MaxTbt() const {
  double max_tbt = 0.0;
  ForEachTbt(requests, [&](double tbt) { max_tbt = std::max(max_tbt, tbt); });
  return max_tbt;
}

}  // namespace sarathi
