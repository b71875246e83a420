// Tests for the cascade-resilience subsystem: correlated failure domains and
// network partitions (FaultInjector + ClusterSimulator), the prober's
// unreachable verdict and EWMA wind-up regressions (HealthProber), partition
// redispatch and rejoin reconciliation, the cascade breaker and slow-start
// re-admission (src/robustness/cascade), and the client timeout-retry loop
// that makes unmitigated overload metastable.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/serving_system.h"
#include "src/robustness/cascade.h"
#include "src/scheduler/scheduler_factory.h"
#include "src/simulator/cluster_simulator.h"
#include "src/simulator/fault_injector.h"
#include "src/simulator/health_prober.h"
#include "src/simulator/replica_simulator.h"
#include "src/verify/invariant_checker.h"
#include "src/workload/trace.h"

namespace sarathi {
namespace {

SimulatorOptions BaseOptions(const SchedulerConfig& scheduler) {
  Deployment deployment = MistralOnA100();
  SimulatorOptions options;
  options.model = deployment.model;
  options.cluster = deployment.cluster;
  options.parallel = deployment.parallel;
  options.scheduler = scheduler;
  return options;
}

ClusterOptions SmallCluster(int replicas, const SchedulerConfig& scheduler) {
  ClusterOptions options;
  options.replica = BaseOptions(scheduler);
  options.num_replicas = replicas;
  options.routing = RoutingPolicy::kLeastOutstandingWork;
  return options;
}

// ---------- FaultInjector: correlated failure domains ----------

TEST(DomainFaultTest, DomainFaultsAreSeededSortedDisjointAndTagged) {
  FaultOptions options;
  options.seed = 11;
  options.num_domains = 4;
  options.domain_mtbf_s = 20.0;
  options.domain_mttr_s = 5.0;
  options.min_domain_outage_s = 1.0;
  options.domain_partition_fraction = 0.5;
  FaultInjector injector(options);

  std::vector<DomainFault> a = injector.DomainFaultsFor(0, 500.0);
  std::vector<DomainFault> b = injector.DomainFaultsFor(0, 500.0);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].down_s, b[i].down_s);  // Bitwise reproducible.
    EXPECT_EQ(a[i].up_s, b[i].up_s);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_GE(a[i].duration(), options.min_domain_outage_s);
    EXPECT_LT(a[i].down_s, 500.0);
    if (i > 0) {
      EXPECT_GT(a[i].down_s, a[i - 1].up_s);  // Sorted, non-overlapping.
    }
  }
  // Domains draw independent streams from the same seed.
  std::vector<DomainFault> other = injector.DomainFaultsFor(1, 500.0);
  bool differs = other.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = other[i].down_s != a[i].down_s;
  }
  EXPECT_TRUE(differs);
}

TEST(DomainFaultTest, PartitionFractionSelectsTheFaultKind) {
  FaultOptions options;
  options.seed = 11;
  options.num_domains = 2;
  options.domain_mtbf_s = 10.0;
  options.domain_mttr_s = 2.0;
  options.min_domain_outage_s = 0.5;

  options.domain_partition_fraction = 0.0;
  for (const DomainFault& fault : FaultInjector(options).DomainFaultsFor(0, 500.0)) {
    EXPECT_EQ(fault.kind, DomainFaultKind::kCrash);
  }
  options.domain_partition_fraction = 1.0;
  for (const DomainFault& fault : FaultInjector(options).DomainFaultsFor(0, 500.0)) {
    EXPECT_EQ(fault.kind, DomainFaultKind::kPartition);
  }
}

TEST(DomainFaultTest, DomainStreamIsIndependentOfReplicaStreams) {
  FaultOptions base;
  base.seed = 7;
  base.mtbf_s = 20.0;
  base.mttr_s = 5.0;
  std::vector<ReplicaOutage> before = FaultInjector(base).OutagesFor(0, 500.0);

  FaultOptions with_domains = base;
  with_domains.num_domains = 3;
  with_domains.domain_mtbf_s = 15.0;
  std::vector<ReplicaOutage> after = FaultInjector(with_domains).OutagesFor(0, 500.0);

  // Adding a domain process never perturbs the per-replica crash schedules.
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].down_s, after[i].down_s);
    EXPECT_EQ(before[i].up_s, after[i].up_s);
  }
}

TEST(DomainFaultTest, DisabledDomainsProduceNothing) {
  FaultOptions options;
  options.num_domains = 4;  // No domain_mtbf_s: the process is off.
  FaultInjector injector(options);
  EXPECT_FALSE(injector.options().any_domain_faults());
  EXPECT_TRUE(injector.DomainFaultsFor(0, 1e6).empty());
}

// ---------- CascadeBreaker ----------

// Constant offered load as one arrival sample per 0.1 s.
std::vector<RateSample> ConstantOffered(double tokens_per_s, double horizon_s) {
  std::vector<RateSample> arrivals;
  for (double t = 0.0; t < horizon_s; t += 0.1) {
    arrivals.push_back({t, tokens_per_s * 0.1});
  }
  return arrivals;
}

TEST(CascadeBreakerTest, EngagesExactlyWhileCapacityIsBelowOfferedLoad) {
  CascadeBreakerOptions options;
  options.enabled = true;
  options.headroom = 0.85;
  options.window_s = 1.0;
  CascadeBreaker breaker(options);
  // 800 tok/s offered against 1000 tok/s of capacity, except a 500 tok/s dip
  // over [10, 20): the breaker must engage for the dip and only the dip.
  breaker.Build(ConstantOffered(800.0, 60.0),
                {{0.0, 1000.0}, {10.0, 500.0}, {20.0, 1000.0}}, 60.0);

  ASSERT_EQ(breaker.engaged().size(), 1u);
  EXPECT_FALSE(breaker.EngagedAt(5.0));
  EXPECT_TRUE(breaker.EngagedAt(15.0));
  EXPECT_FALSE(breaker.EngagedAt(25.0));
  EXPECT_GE(breaker.engaged().front().begin_s, 9.0);
  EXPECT_LE(breaker.engaged().front().begin_s, 11.0);
  // Clears within a window or two of capacity returning (admission stayed
  // under headroom x capacity, so no backlog accumulated while engaged).
  EXPECT_GE(breaker.engaged().front().end_s, 20.0);
  EXPECT_LE(breaker.engaged().front().end_s, 22.0);
  EXPECT_NEAR(breaker.engaged_duration_s(),
              breaker.engaged().front().end_s - breaker.engaged().front().begin_s, 1e-9);
}

TEST(CascadeBreakerTest, AdmissionTracksHeadroomTimesSurvivingCapacity) {
  CascadeBreakerOptions options;
  options.enabled = true;
  options.headroom = 0.85;
  options.window_s = 1.0;
  options.burst_s = 1.0;
  CascadeBreaker breaker(options);
  // 900 tok/s offered (a margin under the healthy 1000, so float noise in the
  // window bucketing cannot trip the breaker outside the dip).
  breaker.Build(ConstantOffered(900.0, 60.0),
                {{0.0, 1000.0}, {10.0, 500.0}, {20.0, 1000.0}}, 60.0);

  // Outside the engaged interval everything is admitted.
  ASSERT_FALSE(breaker.EngagedAt(5.0));
  EXPECT_TRUE(breaker.AdmitArrival(5.0, 100000));
  EXPECT_EQ(breaker.sheds(), 0);

  // Inside: 900 tok/s offered against 0.85 * 500 = 425 tok/s of admission.
  int64_t admitted = 0;
  int64_t offered = 0;
  for (double t = 10.0; t < 20.0; t += 0.1) {
    ++offered;
    if (breaker.AdmitArrival(t, 90)) {
      ++admitted;
    }
  }
  EXPECT_GT(breaker.sheds(), 0);
  EXPECT_LT(admitted, offered);
  // Long-run admitted tokens stay within burst + rate * duration (plus one
  // request of debt-model slop) and above 80% of the headroom budget.
  const double budget = 425.0 * 1.0 + 425.0 * 9.9;
  EXPECT_LE(static_cast<double>(admitted) * 90.0, budget + 90.0);
  EXPECT_GE(static_cast<double>(admitted) * 90.0, 0.8 * 425.0 * 9.9);
}

TEST(CascadeBreakerTest, DisabledBreakerNeverEngagesOrSheds) {
  CascadeBreaker breaker(CascadeBreakerOptions{});
  breaker.Build(ConstantOffered(1000.0, 30.0), {{0.0, 1.0}}, 30.0);
  EXPECT_TRUE(breaker.engaged().empty());
  EXPECT_TRUE(breaker.AdmitArrival(1.0, 1 << 20));
  EXPECT_EQ(breaker.sheds(), 0);
  EXPECT_EQ(breaker.engaged_duration_s(), 0.0);
}

// ---------- Slow-start re-admission ramp ----------

TEST(SlowStartTest, FractionFollowsGateStaggerAndRamp) {
  SlowStartOptions options;
  EXPECT_EQ(SlowStartFraction(options, 10.0, 0, 0.0), 1.0);  // Disabled.

  options.enabled = true;
  options.ramp_s = 4.0;
  options.stagger_s = 1.0;
  options.initial_fraction = 0.25;
  // Member 2 of the rejoining domain: gate opens at 10 + 2 * 1 = 12.
  EXPECT_EQ(SlowStartFraction(options, 10.0, 2, 11.9), 0.0);
  EXPECT_DOUBLE_EQ(SlowStartFraction(options, 10.0, 2, 12.0), 0.25);
  EXPECT_DOUBLE_EQ(SlowStartFraction(options, 10.0, 2, 14.0), 0.25 + 0.75 * 0.5);
  EXPECT_EQ(SlowStartFraction(options, 10.0, 2, 16.0), 1.0);
  EXPECT_EQ(SlowStartFraction(options, 10.0, 2, 100.0), 1.0);

  // Zero ramp snaps open at the gate.
  options.ramp_s = 0.0;
  EXPECT_EQ(SlowStartFraction(options, 10.0, 0, 9.0), 0.0);
  EXPECT_EQ(SlowStartFraction(options, 10.0, 0, 10.0), 1.0);
}

// ---------- HealthProber: unreachable verdict + EWMA wind-up ----------

TEST(UnreachableProberTest, SilenceNeedsHysteresisAndRecoveryReseedsEwma) {
  ProberOptions options;
  options.hysteresis_samples = 3;
  options.unreachable_after_samples = 3;
  HealthProber prober(1, options);

  // Wind the EWMA up into degraded territory first.
  double t = 0.0;
  for (int i = 0; i < 3; ++i) {
    prober.Observe(0, t += 0.25, 3.0);
  }
  ASSERT_EQ(prober.state(0), ReplicaHealth::kDegraded);
  ASSERT_GT(prober.ewma(0), 2.0);

  // Silence: one or two missed probes are not a verdict...
  prober.ObserveSilence(0, t += 0.25);
  prober.ObserveSilence(0, t += 0.25);
  EXPECT_NE(prober.state(0), ReplicaHealth::kUnreachable);
  // ...the third consecutive one is.
  prober.ObserveSilence(0, t += 0.25);
  EXPECT_EQ(prober.state(0), ReplicaHealth::kUnreachable);
  EXPECT_TRUE(prober.UnreachableAt(0, t));
  ASSERT_EQ(prober.UnreachableIntervals(0).size(), 1u);

  // The EWMA wind-up regression: the first answered probe after the partition
  // heals must re-seed the estimate, not blend into the stale pre-partition
  // 3.0 — otherwise the replica rejoins pre-tripped as degraded.
  prober.Observe(0, t += 0.25, 1.0);
  EXPECT_EQ(prober.state(0), ReplicaHealth::kHealthy);
  EXPECT_EQ(prober.ewma(0), 1.0);
  EXPECT_FALSE(prober.UnreachableAt(0, t + 0.01));
  EXPECT_EQ(prober.UnreachableIntervals(0).size(), 1u);
  EXPECT_EQ(prober.UnreachableIntervals(0)[0].end_s, t);
}

TEST(UnreachableProberTest, SilenceWhileMarkedDownIsIgnored) {
  ProberOptions options;
  options.unreachable_after_samples = 2;
  HealthProber prober(1, options);
  prober.MarkDown(0, 1.0);
  ASSERT_EQ(prober.state(0), ReplicaHealth::kDown);
  prober.ObserveSilence(0, 1.25);
  prober.ObserveSilence(0, 1.5);
  prober.ObserveSilence(0, 1.75);
  // A dead replica answers nothing; silence must not flip kDown (connection
  // refused, state lost) into kUnreachable (state intact).
  EXPECT_EQ(prober.state(0), ReplicaHealth::kDown);
  EXPECT_TRUE(prober.UnreachableIntervals(0).empty());
}

TEST(UnreachableProberTest, StalenessGuardReseedsAfterALongGap) {
  ProberOptions options;
  options.ewma_staleness_s = 5.0;
  HealthProber prober(1, options);
  prober.Observe(0, 0.25, 3.0);
  ASSERT_EQ(prober.ewma(0), 3.0);  // First sample seeds directly.
  // 9.75 s of no samples: the old estimate describes a dead regime. Without
  // the guard this would blend to 0.3 * 1.0 + 0.7 * 3.0 = 2.4.
  prober.Observe(0, 10.0, 1.0);
  EXPECT_EQ(prober.ewma(0), 1.0);

  // With the guard disabled the same gap blends.
  HealthProber blending(1, ProberOptions{});
  blending.Observe(0, 0.25, 3.0);
  blending.Observe(0, 10.0, 1.0);
  EXPECT_GT(blending.ewma(0), 1.0);
}

// ---------- Cluster: correlated domain crashes ----------

TEST(ClusterDomainTest, DomainCrashTakesDownEveryMemberTogether) {
  ClusterOptions options = SmallCluster(4, SarathiConfig(512));
  options.faults.seed = 3;
  options.faults.num_domains = 2;
  options.faults.domain_mtbf_s = 4.0;
  options.faults.domain_mttr_s = 1.5;
  options.faults.min_domain_outage_s = 0.5;
  options.faults.domain_partition_fraction = 0.0;  // Crashes only.
  options.fault_horizon_s = 40.0;
  ClusterSimulator simulator(options);
  SimResult result = simulator.Run(UniformTrace(48, 160, 16, 0.05));

  // Contiguous balanced assignment: replicas 0,1 -> domain 0; 2,3 -> domain 1.
  ASSERT_EQ(simulator.domain_assignment(), (std::vector<int>{0, 0, 1, 1}));
  // Members of the same domain share the domain's outage windows exactly;
  // no per-replica crash process is configured, so the schedules are the
  // domain faults and nothing else.
  const auto& outages = simulator.outage_schedules();
  ASSERT_EQ(outages.size(), 4u);
  ASSERT_FALSE(outages[0].empty());
  ASSERT_EQ(outages[0].size(), outages[1].size());
  for (size_t i = 0; i < outages[0].size(); ++i) {
    EXPECT_EQ(outages[0][i].down_s, outages[1][i].down_s);
    EXPECT_EQ(outages[0][i].up_s, outages[1][i].up_s);
  }
  FaultInjector injector(options.faults);
  std::vector<DomainFault> faults = injector.DomainFaultsFor(0, 40.0);
  ASSERT_EQ(outages[0].size(), faults.size());
  for (size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(outages[0][i].down_s, faults[i].down_s);
    EXPECT_EQ(outages[0][i].up_s, faults[i].up_s);
  }

  EXPECT_GT(result.num_domain_faults, 0);
  EXPECT_EQ(result.num_partitions, 0);
  EXPECT_EQ(result.partitioned_s, 0.0);
  ASSERT_EQ(result.domains.size(), 2u);
  int64_t crashes = 0;
  for (const DomainStatus& d : result.domains) {
    EXPECT_EQ(d.num_replicas, 2);
    EXPECT_EQ(d.partitions, 0);
    crashes += d.crashes;
  }
  EXPECT_EQ(crashes, result.num_domain_faults);
}

// ---------- Cluster: partitions, redispatch, reconciliation ----------

TEST(ClusterPartitionTest, PartitionedReplicaKeepsStateAndRunsStayClean) {
  InvariantChecker checker;
  ClusterOptions options = SmallCluster(2, SarathiConfig(256, 8));
  options.replica.kv_capacity_tokens = 4096;
  options.replica.kv_max_seq_len = 1024;
  options.replica.checker = &checker;
  options.faults.seed = 9;
  options.faults.num_domains = 2;
  options.faults.domain_mtbf_s = 2.0;
  options.faults.domain_mttr_s = 3.0;
  options.faults.min_domain_outage_s = 1.0;
  options.faults.domain_partition_fraction = 1.0;  // Partitions only.
  ClusterSimulator simulator(options);
  SimResult result = simulator.Run(UniformTrace(24, 256, 64, 0.05));

  EXPECT_GT(result.num_partitions, 0);
  EXPECT_GT(result.partitioned_s, 0.0);
  bool any_window = false;
  for (const auto& windows : simulator.partition_schedules()) {
    any_window |= !windows.empty();
  }
  EXPECT_TRUE(any_window);
  // A partition is not a crash: no state is lost and nothing fails as a
  // crash. With no deadlines, every request completes in full — except an
  // arrival while EVERY replica sits behind a partition, which the router
  // correctly rejects (shed, not a service failure) because nothing is
  // reachable. Any shed must coincide with such a total-unreachability
  // window; everything else delivers its full output exactly once.
  EXPECT_EQ(result.CountFailed(FailureKind::kReplicaCrash), 0);
  EXPECT_EQ(result.CountFailed(FailureKind::kTimeout), 0);
  auto all_partitioned_at = [&](double t) {
    for (const auto& windows : simulator.partition_schedules()) {
      bool inside = false;
      for (const ReplicaOutage& w : windows) {
        inside |= t >= w.down_s && t < w.up_s;
      }
      if (!inside) {
        return false;
      }
    }
    return true;
  };
  for (const RequestMetrics& r : result.requests) {
    if (r.failure == FailureKind::kShed) {
      EXPECT_TRUE(all_partitioned_at(r.arrival_s)) << "request " << r.id;
      continue;
    }
    EXPECT_TRUE(r.completed()) << "request " << r.id;
    EXPECT_EQ(r.token_times_s.size(), 64u) << "request " << r.id;
  }
  // The checker rode through every replica round plus the reconciliation
  // records the router fed it: KV intact, duplicate suppression clean.
  EXPECT_TRUE(checker.ok()) << checker.Report();
  EXPECT_GE(result.partition_redispatches, result.partition_reconciled);
}

TEST(ClusterPartitionTest, RejoinReconciliationSuppressesDuplicates) {
  InvariantChecker checker;
  ClusterOptions options = SmallCluster(2, SarathiConfig(256, 8));
  options.replica.kv_capacity_tokens = 4096;
  options.replica.kv_max_seq_len = 1024;
  options.replica.checker = &checker;
  options.faults.num_domains = 2;
  options.faults.domain_mtbf_s = 1.5;
  options.faults.domain_mttr_s = 4.0;
  options.faults.min_domain_outage_s = 2.0;
  options.faults.domain_partition_fraction = 1.0;
  // Seed chosen (deterministically, see the loop) so that at least one
  // request is in flight on a replica when its domain partitions: the router
  // redispatches a near-side duplicate and must reconcile the two attempts
  // at rejoin.
  SimResult result;
  Trace trace = UniformTrace(24, 256, 64, 0.05);
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    options.faults.seed = seed;
    result = ClusterSimulator(options).Run(trace);
    if (result.partition_reconciled > 0) {
      break;
    }
  }
  ASSERT_GT(result.partition_reconciled, 0);
  EXPECT_GE(result.partition_redispatches, result.partition_reconciled);
  // Exactly one attempt's stream reached each client, token for token: the
  // checker's partition_conservation invariant verified every reconciliation.
  EXPECT_TRUE(checker.ok()) << checker.Report();
  for (const RequestMetrics& r : result.requests) {
    EXPECT_TRUE(r.completed()) << "request " << r.id;
    EXPECT_EQ(r.token_times_s.size(), 64u) << "request " << r.id;
  }
}

// ---------- Cluster: hedging never targets partitioned replicas ----------

TEST(ClusterPartitionTest, PartitionedReplicaIsNeverAHedgeTarget) {
  // Replica 0 runs 4x slow for the whole run, so every request stuck on it
  // becomes a hedge candidate once the prober trips. The only alternative,
  // replica 1, sits behind a partition: hedging must issue nothing (a
  // duplicate to an unreachable replica is pure added load), where the same
  // setup without the partition hedges freely.
  ClusterOptions options = SmallCluster(2, SarathiConfig(512));
  options.slowdown_overrides = {{{1.0, 120.0, 4.0}}, {}};
  options.hedge_after_s = 0.5;
  Trace trace = UniformTrace(6, 512, 300, 0.25);

  SimResult control = ClusterSimulator(options).Run(trace);
  ASSERT_GE(control.hedges_issued, 1);

  // Find a fault seed whose domain 1 (replica 1) partitions from the start
  // of the run to past its end while domain 0 (replica 0) stays clear.
  options.faults.num_domains = 2;
  options.faults.domain_mtbf_s = 40.0;
  options.faults.domain_mttr_s = 80.0;
  options.faults.min_domain_outage_s = 60.0;
  options.faults.domain_partition_fraction = 1.0;
  options.fault_horizon_s = 80.0;
  uint64_t found = 0;
  for (uint64_t seed = 1; seed <= 50000 && found == 0; ++seed) {
    options.faults.seed = seed;
    FaultInjector injector(options.faults);
    std::vector<DomainFault> far = injector.DomainFaultsFor(1, 80.0);
    if (far.empty() || far.front().down_s > 0.5 || far.front().up_s < 60.0) {
      continue;
    }
    std::vector<DomainFault> near = injector.DomainFaultsFor(0, 80.0);
    if (near.empty() || near.front().down_s > 70.0) {
      found = seed;
    }
  }
  ASSERT_NE(found, 0u) << "no pinning fault seed in the search range";
  options.faults.seed = found;
  SimResult partitioned = ClusterSimulator(options).Run(trace);
  EXPECT_GT(partitioned.num_partitions, 0);
  EXPECT_EQ(partitioned.hedges_issued, 0);
  for (const RequestMetrics& r : partitioned.requests) {
    EXPECT_EQ(r.hedges, 0);
  }
}

// ---------- Cluster: timeout-retries, breaker, slow-start ----------

// Overload fixture: arrivals far above two replicas' capacity, every request
// on a tight deadline — the preconditions for a client-retry storm.
ClusterOptions OverloadCluster() {
  ClusterOptions options = SmallCluster(2, SarathiConfig(512));
  options.replica.kv_capacity_tokens = 8192;
  options.replica.kv_max_seq_len = 1024;
  return options;
}

Trace DeadlineTrace() {
  // ~2.2x the two replicas' token throughput for 0.8 s: deep enough a queue
  // that the tail of the burst blows its 1 s deadline.
  Trace trace = UniformTrace(160, 256, 32, 0.005);
  for (Request& r : trace.requests) {
    r.deadline_s = 1.0;
  }
  return trace;
}

TEST(TimeoutRetryTest, ExpiredRequestsAreReofferedWithBoundedAmplification) {
  ClusterOptions options = OverloadCluster();
  Trace trace = DeadlineTrace();

  SimResult no_retries = ClusterSimulator(options).Run(trace);
  ASSERT_GT(no_retries.CountFailed(FailureKind::kTimeout), 0);
  EXPECT_EQ(no_retries.timeout_retries, 0);

  options.timeout_retry_max = 3;
  options.timeout_retry_backoff_s = 0.5;
  SimResult with_retries = ClusterSimulator(options).Run(trace);
  EXPECT_GT(with_retries.timeout_retries, 0);
  // Amplification is bounded by the per-request cap.
  EXPECT_LE(with_retries.timeout_retries,
            3 * static_cast<int64_t>(trace.size()));
  // A re-offer gets a fresh full deadline, so once the transient burst
  // drains, retried requests complete in time: terminal timeout failures
  // can only shrink. (Under SUSTAINED overload the same loop is the
  // metastable amplifier — bench_ext_cascade demonstrates that regime.)
  EXPECT_LT(with_retries.CountFailed(FailureKind::kTimeout),
            no_retries.CountFailed(FailureKind::kTimeout));
}

TEST(TimeoutRetryTest, RetryStormRunsAreDeterministic) {
  ClusterOptions options = OverloadCluster();
  options.timeout_retry_max = 2;
  Trace trace = DeadlineTrace();
  SimResult a = ClusterSimulator(options).Run(trace);
  SimResult b = ClusterSimulator(options).Run(trace);
  EXPECT_EQ(a.timeout_retries, b.timeout_retries);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].completion_s, b.requests[i].completion_s);
    EXPECT_EQ(a.requests[i].failed_s, b.requests[i].failed_s);
  }
}

TEST(CascadeClusterTest, BreakerShedsToSurvivableLoadAndDampsRetries) {
  ClusterOptions options = OverloadCluster();
  options.timeout_retry_max = 3;
  options.timeout_retry_backoff_s = 0.5;
  Trace trace = DeadlineTrace();
  SimResult undamped = ClusterSimulator(options).Run(trace);
  ASSERT_GT(undamped.timeout_retries, 0);

  options.cascade.enabled = true;
  options.cascade.headroom = 0.8;
  ClusterSimulator simulator(options);
  SimResult damped = simulator.Run(trace);
  // The offered burst exceeds the cost-model capacity estimate, so the
  // breaker engages, sheds past-headroom arrivals, and denies re-offers.
  EXPECT_GT(damped.cascade_sheds, 0);
  EXPECT_GT(damped.cascade_engaged_s, 0.0);
  EXPECT_FALSE(simulator.cascade_engaged().empty());
  EXPECT_LE(damped.timeout_retries, undamped.timeout_retries);
  // Shed requests are router-level rejections, never service failures.
  EXPECT_GT(damped.CountFailed(FailureKind::kShed), 0);
}

TEST(CascadeClusterTest, SlowStartGatesRejoiningReplicas) {
  ClusterOptions options = SmallCluster(2, SarathiConfig(512));
  options.faults.num_domains = 2;
  options.faults.domain_mtbf_s = 2.0;
  options.faults.domain_mttr_s = 1.0;
  options.faults.min_domain_outage_s = 0.5;
  options.faults.domain_partition_fraction = 0.0;
  options.slow_start.enabled = true;
  options.slow_start.ramp_s = 2.0;
  options.slow_start.stagger_s = 0.25;
  // Arrivals spread over ~5 s so routing decisions land inside a ramp; seed
  // chosen deterministically by the same search the reconciliation test uses.
  Trace trace = UniformTrace(96, 160, 16, 0.05);
  SimResult result;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    options.faults.seed = seed;
    result = ClusterSimulator(options).Run(trace);
    if (result.slow_start_admits > 0) {
      break;
    }
  }
  EXPECT_GT(result.slow_start_admits, 0);
  EXPECT_GT(result.num_domain_faults, 0);
}

TEST(CascadeClusterTest, AllKnobsOnIsDeterministic) {
  ClusterOptions options = SmallCluster(3, SarathiConfig(256, 8));
  options.replica.kv_capacity_tokens = 4096;
  options.replica.kv_max_seq_len = 1024;
  options.faults.seed = 5;
  options.faults.num_domains = 3;
  options.faults.domain_mtbf_s = 3.0;
  options.faults.domain_mttr_s = 1.5;
  options.faults.min_domain_outage_s = 0.5;
  options.faults.domain_partition_fraction = 0.5;
  options.faults.request_timeout_probability = 0.3;
  options.faults.request_timeout_s = 4.0;
  options.timeout_retry_max = 2;
  options.cascade.enabled = true;
  options.cascade.headroom = 0.8;
  options.slow_start.enabled = true;
  options.slow_start.ramp_s = 2.0;
  options.slow_start.stagger_s = 0.5;
  Trace trace = UniformTrace(48, 160, 16, 0.05);

  SimResult a = ClusterSimulator(options).Run(trace);
  SimResult b = ClusterSimulator(options).Run(trace);
  EXPECT_EQ(a.num_domain_faults, b.num_domain_faults);
  EXPECT_EQ(a.num_partitions, b.num_partitions);
  EXPECT_EQ(a.partition_redispatches, b.partition_redispatches);
  EXPECT_EQ(a.partition_reconciled, b.partition_reconciled);
  EXPECT_EQ(a.cascade_sheds, b.cascade_sheds);
  EXPECT_EQ(a.cascade_engaged_s, b.cascade_engaged_s);
  EXPECT_EQ(a.slow_start_admits, b.slow_start_admits);
  EXPECT_EQ(a.timeout_retries, b.timeout_retries);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].completion_s, b.requests[i].completion_s);
    EXPECT_EQ(a.requests[i].failed_s, b.requests[i].failed_s);
    EXPECT_EQ(a.requests[i].token_times_s, b.requests[i].token_times_s);
  }
}

TEST(CascadeClusterTest, KnobsOffMatchesPlainClusterExactly) {
  // All cascade options at their defaults must be byte-identical to a run
  // that predates the subsystem: no schedule or metric may shift.
  ClusterOptions options = SmallCluster(2, SarathiConfig(512));
  options.faults.seed = 7;
  options.faults.mtbf_s = 5.0;
  options.faults.mttr_s = 1.0;
  options.faults.min_outage_s = 0.25;
  Trace trace = UniformTrace(32, 160, 16, 0.05);
  SimResult plain = ClusterSimulator(options).Run(trace);

  SimResult knobs_off = ClusterSimulator(options).Run(trace);
  EXPECT_EQ(plain.num_domain_faults, 0);
  EXPECT_EQ(plain.num_partitions, 0);
  EXPECT_EQ(plain.cascade_sheds, 0);
  EXPECT_EQ(plain.slow_start_admits, 0);
  EXPECT_EQ(plain.timeout_retries, 0);
  EXPECT_TRUE(plain.domains.empty());
  ASSERT_EQ(plain.requests.size(), knobs_off.requests.size());
  for (size_t i = 0; i < plain.requests.size(); ++i) {
    EXPECT_EQ(plain.requests[i].completion_s, knobs_off.requests[i].completion_s);
    EXPECT_EQ(plain.requests[i].token_times_s, knobs_off.requests[i].token_times_s);
  }
}


// Regression for the router abort of fuzzer seeds 646, 6256 and 7846 (and 901
// and 1036 with --force-cascade). With backpressure and slow-start both on,
// an unpressured replica still inside its rejoin gate and an open replica
// over the queue bound shunned each other, so Route found no target while
// replicas were up and the initial routing pass failed CHECK_GE(pick, 0).
// Modeled on seed 646's determinism run (least-work routing over four
// replicas, a 1 s queue bound, a 3 s ramp staggered 0.5 s, three failure
// domains); fault seed 5 is the first that aborted before the fix.
TEST(CascadeClusterTest, RampingAndPressuredReplicasStillRoute) {
  ClusterOptions options = SmallCluster(4, SarathiConfig(192, 12));
  options.backpressure_queue_s = 1.0;
  options.slow_start.enabled = true;
  options.slow_start.ramp_s = 3.0;
  options.slow_start.stagger_s = 0.5;
  options.faults.seed = 5;
  options.faults.num_domains = 3;
  options.faults.domain_mtbf_s = 2.0;
  options.faults.domain_mttr_s = 1.0;
  options.faults.min_domain_outage_s = 0.5;
  options.faults.domain_partition_fraction = 0.2;
  InvariantChecker checker;
  options.replica.checker = &checker;
  Trace trace = UniformTrace(64, 1024, 16, 0.02);
  SimResult result = ClusterSimulator(options).Run(trace);
  EXPECT_TRUE(checker.ok()) << checker.Report();
  EXPECT_GT(result.slow_start_admits, 0);
  EXPECT_GT(result.num_backpressure_skips, 0);
  // No arrival found the whole cluster down, and none may be refused while
  // a replica is up.
  EXPECT_EQ(result.num_shed, 0);
  EXPECT_EQ(result.requests.size(), trace.requests.size());
}

}  // namespace
}  // namespace sarathi
