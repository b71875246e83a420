#include "src/simulator/fault_injector.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace sarathi {
namespace {

// SplitMix64: decorrelates the per-replica / per-request stream seeds so that
// adjacent identities do not produce adjacent mt19937 states.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Top 53 bits of a mixed word as a double in [0, 1).
double MixToUnit(uint64_t x) {
  return static_cast<double>(Mix(x) >> 11) * (1.0 / 9007199254740992.0);
}

double ClampProbability(double p) { return std::min(1.0, std::max(0.0, p)); }

}  // namespace

FaultInjector::FaultInjector(const FaultOptions& options) : options_(options) {
  // Clamp pathological configurations into their documented domains instead
  // of crashing: fault options often arrive straight from CLI flags or fuzzer
  // draws, and a zero/negative repair time should degenerate to the floor
  // value, not abort the run.
  options_.request_timeout_probability = ClampProbability(options_.request_timeout_probability);
  if (options_.min_outage_s <= 0.0) {
    options_.min_outage_s = 1e-3;
  }
  if (options_.mtbf_s > 0.0 && options_.mttr_s <= 0.0) {
    options_.mttr_s = options_.min_outage_s;
  }
  if (options_.min_degrade_s <= 0.0) {
    options_.min_degrade_s = 1e-3;
  }
  if (options_.degrade_mtbf_s > 0.0 && options_.degrade_mttr_s <= 0.0) {
    options_.degrade_mttr_s = options_.min_degrade_s;
  }
  options_.degrade_min_factor = std::max(1.0, options_.degrade_min_factor);
  options_.degrade_max_factor =
      std::max(options_.degrade_min_factor, options_.degrade_max_factor);
  options_.jitter_probability = ClampProbability(options_.jitter_probability);
  options_.jitter_max_extra = std::max(0.0, options_.jitter_max_extra);
  options_.num_domains = std::max(0, options_.num_domains);
  if (options_.min_domain_outage_s <= 0.0) {
    options_.min_domain_outage_s = 1e-3;
  }
  if (options_.domain_mtbf_s > 0.0 && options_.domain_mttr_s <= 0.0) {
    options_.domain_mttr_s = options_.min_domain_outage_s;
  }
  options_.domain_partition_fraction = ClampProbability(options_.domain_partition_fraction);
}

std::vector<ReplicaOutage> FaultInjector::OutagesFor(int replica_id, double horizon_s) const {
  std::vector<ReplicaOutage> outages;
  if (options_.mtbf_s <= 0.0 || horizon_s <= 0.0) {
    return outages;
  }
  Rng rng(Mix(options_.seed ^ Mix(0x5e11ull + static_cast<uint64_t>(replica_id))));
  double now = 0.0;
  while (true) {
    double up_for = rng.Exponential(1.0 / options_.mtbf_s);
    double down = now + up_for;
    if (down >= horizon_s) {
      return outages;
    }
    double repair = std::max(options_.min_outage_s, rng.Exponential(1.0 / options_.mttr_s));
    outages.push_back(ReplicaOutage{down, down + repair});
    now = down + repair;
  }
}

std::vector<DomainFault> FaultInjector::DomainFaultsFor(int domain_id,
                                                        double horizon_s) const {
  std::vector<DomainFault> faults;
  if (!options_.any_domain_faults() || horizon_s <= 0.0) {
    return faults;
  }
  // Distinct stream key from every per-replica process: domain faults are an
  // independent overlay, so enabling them never reshuffles existing
  // per-replica crash/slowdown/timeout schedules.
  Rng rng(Mix(options_.seed ^ Mix(0xd03a12ull + static_cast<uint64_t>(domain_id))));
  double now = 0.0;
  while (true) {
    double up_for = rng.Exponential(1.0 / options_.domain_mtbf_s);
    double down = now + up_for;
    // The kind draw happens even for the fault that falls past the horizon so
    // the stream position stays a pure function of how many faults were drawn.
    double kind_draw = rng.Uniform(0.0, 1.0);
    if (down >= horizon_s) {
      return faults;
    }
    double repair =
        std::max(options_.min_domain_outage_s, rng.Exponential(1.0 / options_.domain_mttr_s));
    DomainFaultKind kind = kind_draw < options_.domain_partition_fraction
                               ? DomainFaultKind::kPartition
                               : DomainFaultKind::kCrash;
    faults.push_back(DomainFault{down, down + repair, kind});
    now = down + repair;
  }
}

std::vector<SlowdownEpisode> FaultInjector::SlowdownsFor(int replica_id,
                                                         double horizon_s) const {
  std::vector<SlowdownEpisode> episodes;
  if (options_.degrade_mtbf_s <= 0.0 || horizon_s <= 0.0) {
    return episodes;
  }
  // Distinct stream key from OutagesFor: crash and degradation processes of
  // the same replica are independent.
  Rng rng(Mix(options_.seed ^ Mix(0x94adeull + static_cast<uint64_t>(replica_id))));
  double now = 0.0;
  while (true) {
    double healthy_for = rng.Exponential(1.0 / options_.degrade_mtbf_s);
    double begin = now + healthy_for;
    if (begin >= horizon_s) {
      return episodes;
    }
    double duration =
        std::max(options_.min_degrade_s, rng.Exponential(1.0 / options_.degrade_mttr_s));
    // A collapsed factor range (possible after clamping) has nothing to draw.
    double factor = options_.degrade_max_factor > options_.degrade_min_factor
                        ? rng.Uniform(options_.degrade_min_factor, options_.degrade_max_factor)
                        : options_.degrade_min_factor;
    episodes.push_back(SlowdownEpisode{begin, begin + duration, std::max(1.0, factor)});
    now = begin + duration;
  }
}

double FaultInjector::TimeoutFor(const Request& request) const {
  if (options_.request_timeout_probability <= 0.0 || options_.request_timeout_s <= 0.0) {
    return 0.0;
  }
  Rng rng(Mix(options_.seed ^ Mix(0xdeadull + static_cast<uint64_t>(request.id))));
  if (rng.Uniform(0.0, 1.0) >= options_.request_timeout_probability) {
    return 0.0;
  }
  return options_.request_timeout_s * rng.Uniform(0.5, 1.5);
}

void FaultInjector::ApplyTimeouts(Trace* trace) const {
  CHECK(trace != nullptr);
  for (Request& request : trace->requests) {
    if (request.deadline_s <= 0.0) {
      request.deadline_s = TimeoutFor(request);
    }
  }
}

bool FaultInjector::ChangesDeadlines(const Trace& trace) const {
  if (options_.request_timeout_probability > 0.0 && options_.request_timeout_s > 0.0) {
    return true;
  }
  // TimeoutFor is 0 here, which changes only a negative deadline.
  return std::any_of(trace.requests.begin(), trace.requests.end(),
                     [](const Request& request) { return request.deadline_s < 0.0; });
}

double IterationJitterFactor(uint64_t seed, int replica_id, int64_t iteration,
                             double probability, double max_extra) {
  if (probability <= 0.0 || max_extra <= 0.0) {
    return 1.0;
  }
  uint64_t key = Mix(seed ^ Mix(0x177e4ull + static_cast<uint64_t>(replica_id) * 0x100000001b3ull +
                                static_cast<uint64_t>(iteration)));
  if (MixToUnit(key) >= std::min(1.0, probability)) {
    return 1.0;
  }
  return 1.0 + std::max(0.0, max_extra) * MixToUnit(key ^ 0x9e3779b97f4a7c15ull);
}

}  // namespace sarathi
