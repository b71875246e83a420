// Deterministic fault injection for the simulators.
//
// Production clusters lose replicas and clients abandon slow requests; the
// paper's capacity numbers (Table 3) assume neither. This module generates
// the fault processes the failure-aware cluster simulator replays: per-replica
// crash/recovery schedules (exponential MTBF/MTTR), per-replica gray-failure
// slowdown episodes (iteration-time multipliers with exponential onset and
// duration), per-iteration transient jitter, and per-request client timeouts.
// Every draw derives from an explicit seed plus the replica or request
// identity, so a fault schedule is a pure function of the options — two runs
// with the same seed see byte-identical failures regardless of call order.

#ifndef SRC_SIMULATOR_FAULT_INJECTOR_H_
#define SRC_SIMULATOR_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/workload/trace.h"

namespace sarathi {

// One replica crash/recovery cycle: the replica executes nothing in
// [down_s, up_s); all KV state is lost at down_s.
struct ReplicaOutage {
  double down_s = 0.0;
  double up_s = 0.0;

  double duration() const { return up_s - down_s; }
};

// How a correlated domain fault manifests for every replica in the domain.
enum class DomainFaultKind {
  // Power/host loss: every member crashes (KV lost, execution stops), exactly
  // as an independent ReplicaOutage would.
  kCrash,
  // Router<->domain network partition: members keep executing and keep all
  // state, but are unreachable from the router for the fault's duration.
  kPartition,
};

// One correlated failure-domain event: every replica assigned to the domain
// is affected in [down_s, up_s).
struct DomainFault {
  double down_s = 0.0;
  double up_s = 0.0;
  DomainFaultKind kind = DomainFaultKind::kCrash;

  double duration() const { return up_s - down_s; }
};

// One gray-failure episode: the replica stays up and keeps all state, but
// every iteration started in [start_s, end_s) runs `factor` times slower
// (thermal throttling, interconnect congestion, memory pressure, ...).
struct SlowdownEpisode {
  double start_s = 0.0;
  double end_s = 0.0;
  double factor = 1.0;

  double duration() const { return end_s - start_s; }
};

struct FaultOptions {
  uint64_t seed = 42;

  // Replica crash process: exponential time-between-failures with this mean,
  // per replica; <= 0 disables crashes entirely.
  double mtbf_s = 0.0;
  // Exponential repair time with this mean (floored at min_outage_s so an
  // outage is never instantaneous).
  double mttr_s = 30.0;
  double min_outage_s = 1.0;

  // Degradation (gray-failure) process: exponential healthy time between
  // slowdown onsets with this mean, per replica; <= 0 disables slowdowns.
  double degrade_mtbf_s = 0.0;
  // Exponential episode duration with this mean (floored at min_degrade_s).
  double degrade_mttr_s = 20.0;
  double min_degrade_s = 1.0;
  // Each episode's iteration-time multiplier is drawn uniform in
  // [degrade_min_factor, degrade_max_factor); values are clamped to >= 1.
  double degrade_min_factor = 1.5;
  double degrade_max_factor = 4.0;

  // Transient jitter: each iteration is independently stretched, with this
  // probability, by a factor uniform in (1, 1 + jitter_max_extra]. Models
  // one-off stalls too short for a prober to act on; both must be > 0.
  double jitter_probability = 0.0;
  double jitter_max_extra = 0.0;

  // Correlated failure domains: replicas are grouped into `num_domains`
  // contiguous, balanced racks/zones (replica r belongs to domain
  // r % num_domains when num_domains <= num_replicas; the cluster owns the
  // actual assignment). Each domain independently draws a fault process with
  // exponential time-between-faults `domain_mtbf_s` (<= 0 disables) and
  // exponential repair `domain_mttr_s` floored at `min_domain_outage_s`.
  // Each fault is a partition with probability `domain_partition_fraction`,
  // a whole-domain crash otherwise.
  int num_domains = 0;
  double domain_mtbf_s = 0.0;
  double domain_mttr_s = 30.0;
  double min_domain_outage_s = 1.0;
  double domain_partition_fraction = 0.0;

  // Client-timeout process: each request independently carries a deadline
  // with this probability; <= 0 disables timeouts.
  double request_timeout_probability = 0.0;
  // Timeout drawn uniform in [0.5, 1.5) * request_timeout_s, relative to the
  // request's arrival. Requests not finished by then are aborted client-side.
  double request_timeout_s = 0.0;

  bool any_degradation() const {
    return degrade_mtbf_s > 0.0 || (jitter_probability > 0.0 && jitter_max_extra > 0.0);
  }

  bool any_domain_faults() const { return num_domains > 0 && domain_mtbf_s > 0.0; }

  bool any_faults() const {
    return mtbf_s > 0.0 || any_degradation() || any_domain_faults() ||
           (request_timeout_probability > 0.0 && request_timeout_s > 0.0);
  }
};

class FaultInjector {
 public:
  // Pathological option values are clamped into their documented domains
  // instead of crashing (negative MTTR, zero outage floor, out-of-range
  // probabilities, inverted factor range); see the constructor for the rules.
  explicit FaultInjector(const FaultOptions& options);

  // The crash/recovery schedule of `replica_id` up to `horizon_s`: sorted,
  // non-overlapping outages. Deterministic in (seed, replica_id) alone.
  // Every outage starts before the horizon; the last one may end after it.
  std::vector<ReplicaOutage> OutagesFor(int replica_id, double horizon_s) const;

  // The correlated fault schedule of failure domain `domain_id` up to
  // `horizon_s`: sorted, non-overlapping faults, each tagged crash or
  // partition. Deterministic in (seed, domain_id) alone, from a stream
  // independent of the per-replica processes — adding domains never perturbs
  // existing per-replica schedules. Every fault starts before the horizon;
  // the last one may end after it.
  std::vector<DomainFault> DomainFaultsFor(int domain_id, double horizon_s) const;

  // The gray-failure schedule of `replica_id` up to `horizon_s`: sorted,
  // non-overlapping slowdown episodes. Deterministic in (seed, replica_id);
  // drawn from a stream independent of OutagesFor. Every episode starts
  // before the horizon; the last one may end after it.
  std::vector<SlowdownEpisode> SlowdownsFor(int replica_id, double horizon_s) const;

  // Client timeout for `request`, in seconds after its arrival; 0 means the
  // client waits forever. Deterministic in (seed, request.id) — works with or
  // without a crash/slowdown process configured.
  double TimeoutFor(const Request& request) const;

  // Stamps TimeoutFor into Request::deadline_s for every request that does
  // not already carry a deadline.
  void ApplyTimeouts(Trace* trace) const;
  // False when ApplyTimeouts would leave every deadline of `trace` as it is.
  bool ChangesDeadlines(const Trace& trace) const;

  const FaultOptions& options() const { return options_; }

 private:
  FaultOptions options_;
};

// Per-iteration transient jitter multiplier: 1.0 for most iterations; with
// `probability`, the iteration is stretched by a factor uniform in
// (1, 1 + max_extra]. A pure function of (seed, replica_id, iteration) — no
// generator state, so re-simulating a replica on a grown sub-trace replays
// identical jitter for identical iteration indices.
double IterationJitterFactor(uint64_t seed, int replica_id, int64_t iteration,
                             double probability, double max_extra);

}  // namespace sarathi

#endif  // SRC_SIMULATOR_FAULT_INJECTOR_H_
