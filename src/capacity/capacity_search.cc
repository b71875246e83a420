#include "src/capacity/capacity_search.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/workload/trace.h"

namespace sarathi {
namespace {

// One probe's verdict. The latency fields are filled only when `ok`: only
// passing probes can become the result.
struct ProbeOutcome {
  double qps = 0.0;
  bool ok = false;
  double p99_tbt_s = 0.0;
  double median_ttft_s = 0.0;
  double median_scheduling_delay_s = 0.0;
};

// Judges `result` against the SLOs, computing each statistic at most once.
ProbeOutcome Judge(double qps, const SimResult& result, const CapacityOptions& options) {
  ProbeOutcome outcome;
  outcome.qps = qps;
  double p99_tbt_s = result.P99Tbt();
  if (p99_tbt_s > options.tbt_slo_s) {
    return outcome;
  }
  double median_scheduling_delay_s = result.MedianSchedulingDelay();
  // Negated so that a NaN delay fails, as a plain `<=` test would.
  if (!(median_scheduling_delay_s <= options.max_median_scheduling_delay_s)) {
    return outcome;
  }
  outcome.ok = true;
  outcome.p99_tbt_s = p99_tbt_s;
  outcome.median_scheduling_delay_s = median_scheduling_delay_s;
  outcome.median_ttft_s = result.MedianTtft();
  return outcome;
}

}  // namespace

bool MeetsSlo(const SimResult& result, const CapacityOptions& options) {
  return Judge(0.0, result, options).ok;
}

CapacityResult FindCapacity(const SimulatorOptions& sim_options,
                            const CapacityOptions& options) {
  if (options.jobs > 1) {
    // Each probe builds its own simulator (and cost model): the memo caches
    // are not thread-safe, so concurrent probes must not share one.
    SimulatorOptions per_probe = sim_options;
    per_probe.cost_model = nullptr;
    return FindCapacity(
        [per_probe](const Trace& trace) { return ReplicaSimulator(per_probe).Run(trace); },
        options);
  }
  // Serial search: one simulator (and one warm cost-model cache) serves every
  // probe.
  auto simulator = std::make_shared<ReplicaSimulator>(sim_options);
  return FindCapacity([simulator](const Trace& trace) { return simulator->Run(trace); },
                      options);
}

CapacityResult FindCapacity(const TraceRunner& runner, const CapacityOptions& options) {
  CHECK_GT(options.tbt_slo_s, 0.0);
  CapacityResult best;
  const int batch = std::max(1, options.jobs);

  // Probes every load in `points` (concurrently when jobs > 1) and folds the
  // outcomes into `best` in ascending-load order, so the result is identical
  // for any worker count.
  auto probe_many = [&](const std::vector<double>& points) -> std::vector<ProbeOutcome> {
    std::vector<ProbeOutcome> outcomes =
        RunMany(options.jobs, static_cast<int64_t>(points.size()), [&](int64_t i) {
          TraceOptions trace_options;
          trace_options.num_requests = options.num_requests;
          trace_options.qps = points[static_cast<size_t>(i)];
          trace_options.seed = options.seed;
          Trace trace = GenerateTrace(options.dataset, trace_options);
          return Judge(trace_options.qps, runner(trace), options);
        });
    best.probes += static_cast<int>(points.size());
    for (const ProbeOutcome& outcome : outcomes) {
      if (outcome.ok && outcome.qps > best.capacity_qps) {
        best.capacity_qps = outcome.qps;
        best.p99_tbt_s = outcome.p99_tbt_s;
        best.median_ttft_s = outcome.median_ttft_s;
        best.median_scheduling_delay_s = outcome.median_scheduling_delay_s;
      }
    }
    return outcomes;
  };

  // Exponential bracketing from the floor, `batch` doublings per round. With
  // jobs = 1 this probes exactly the serial sequence.
  if (!probe_many({options.qps_floor})[0].ok) {
    // Even minimal load violates the SLO; capacity is effectively zero.
    best.capacity_qps = 0.0;
    return best;
  }
  double lo = options.qps_floor;
  double hi = 0.0;  // First violating load; 0 = not found yet.
  while (hi == 0.0 && lo < options.qps_ceiling) {
    std::vector<double> points;
    double q = lo;
    for (int j = 0; j < batch && q < options.qps_ceiling; ++j) {
      q *= 2.0;
      points.push_back(q);
    }
    for (const ProbeOutcome& outcome : probe_many(points)) {
      if (outcome.ok) {
        lo = outcome.qps;
      } else {
        hi = outcome.qps;
        break;
      }
    }
  }
  if (hi == 0.0) {
    return best;  // Saturated the search range.
  }

  // Refinement between the last compliant and first violating load: each
  // round probes `batch` evenly spaced interior points, shrinking the
  // interval by at least (batch + 1)x. The round count matches the precision
  // of `bisection_steps` serial halvings; with jobs = 1 it IS serial
  // bisection.
  double per_round = std::log2(static_cast<double>(batch + 1));
  int rounds = static_cast<int>(
      std::ceil(static_cast<double>(options.bisection_steps) / per_round));
  for (int round = 0; round < rounds; ++round) {
    std::vector<double> points;
    points.reserve(static_cast<size_t>(batch));
    for (int j = 1; j <= batch; ++j) {
      points.push_back(lo + (hi - lo) * static_cast<double>(j) /
                                static_cast<double>(batch + 1));
    }
    for (const ProbeOutcome& outcome : probe_many(points)) {
      if (outcome.ok) {
        lo = outcome.qps;
      } else {
        hi = outcome.qps;
        break;
      }
    }
  }
  return best;
}

}  // namespace sarathi
