// Cross-commit golden telemetry: pins the byte length and FNV-1a 64 hash of
// every telemetry CSV for six fixed runs. Two runs of one build agreeing
// (determinism_test.cc) cannot catch a change that shifts every run the same
// way; these stored values can. A refactor of the simulator, the statistics
// or the CSV writers must leave every entry below unchanged. A change that
// alters results on purpose updates the values in the same commit and says
// why.

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/core/serving_system.h"
#include "src/simulator/cluster_simulator.h"
#include "src/simulator/replica_simulator.h"
#include "src/simulator/telemetry.h"
#include "src/verify/invariant_checker.h"
#include "src/workload/diurnal.h"
#include "src/workload/session_trace.h"
#include "src/workload/trace.h"

namespace sarathi {
namespace {

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

struct Golden {
  const char* csv;
  size_t bytes;
  uint64_t fnv1a;
};

// Writes all five telemetry CSVs of `result` and compares each against its
// pinned length and hash. The failure message prints the observed values.
void ExpectGolden(const SimResult& result, const Golden (&expected)[5]) {
  void (*const writers[5])(const SimResult&, std::ostream&) = {
      &WriteIterationLogCsv, &WriteRequestMetricsCsv, &WriteTbtSamplesCsv,
      &WriteAggregateCsv, &WriteDomainStatusCsv};
  for (int i = 0; i < 5; ++i) {
    std::ostringstream out;
    writers[i](result, out);
    const std::string bytes = out.str();
    char observed[64];
    std::snprintf(observed, sizeof(observed), "%zu, 0x%016llxull", bytes.size(),
                  static_cast<unsigned long long>(Fnv1a64(bytes)));
    EXPECT_EQ(bytes.size(), expected[i].bytes) << expected[i].csv << ": " << observed;
    EXPECT_EQ(Fnv1a64(bytes), expected[i].fnv1a) << expected[i].csv << ": " << observed;
  }
}

SimulatorOptions MistralSarathi() {
  Deployment deployment = MistralOnA100();
  SimulatorOptions options;
  options.model = deployment.model;
  options.cluster = deployment.cluster;
  options.parallel = deployment.parallel;
  options.scheduler = SarathiConfig(512);
  return options;
}

TEST(GoldenTelemetryTest, ShareGpt4ReplicaRun) {
  TraceOptions trace_options;
  trace_options.num_requests = 192;
  trace_options.qps = 2.0;
  trace_options.seed = 21;
  Trace trace = GenerateTrace(OpenChatShareGpt4(), trace_options);
  SimulatorOptions options = MistralSarathi();
  options.record_iterations = true;
  SimResult result = ReplicaSimulator(options).Run(trace);
  ASSERT_FALSE(result.iterations.empty());
  const Golden expected[5] = {
      {"iterations", 286802, 0x8451670442920194ull},
      {"requests", 17926, 0x5b3b2ecff46c0718ull},
      {"tbt", 1538072, 0x5d45fea0aa03f14bull},
      {"aggregate", 1186, 0xe26797be6f11b605ull},
      {"domains", 60, 0x082af2d94786519cull},
  };
  ExpectGolden(result, expected);
}

TEST(GoldenTelemetryTest, FourReplicaClusterWithFaultsAndDomains) {
  ClusterOptions options;
  options.replica = MistralSarathi();
  options.replica.scheduler = SarathiConfig(256, 8);
  options.replica.kv_capacity_tokens = 8192;
  options.replica.kv_max_seq_len = 4096;
  options.num_replicas = 4;
  options.routing = RoutingPolicy::kLeastOutstandingWork;
  options.faults.seed = 7;
  options.faults.mtbf_s = 8.0;
  options.faults.mttr_s = 1.0;
  options.faults.min_outage_s = 0.25;
  options.faults.request_timeout_probability = 0.2;
  options.faults.request_timeout_s = 3.0;
  options.faults.num_domains = 2;
  options.faults.domain_mtbf_s = 6.0;
  options.faults.domain_mttr_s = 1.5;
  options.faults.min_domain_outage_s = 0.5;
  options.faults.domain_partition_fraction = 0.5;
  options.fault_horizon_s = 60.0;
  TraceOptions trace_options;
  trace_options.num_requests = 96;
  trace_options.qps = 6.0;
  trace_options.seed = 5;
  Trace trace = GenerateTrace(OpenChatShareGpt4(), trace_options);
  for (Request& r : trace.requests) {
    // Keep crash-recompute re-admission within kv_max_seq_len.
    r.prompt_tokens = std::min<int64_t>(r.prompt_tokens, 1024);
    r.output_tokens = std::min<int64_t>(r.output_tokens, 256);
  }
  SimResult result = ClusterSimulator(options).Run(trace);
  ASSERT_EQ(result.domains.size(), 2u);
  ASSERT_GT(result.num_domain_faults, 0);
  ASSERT_GT(result.num_partitions, 0);
  ASSERT_GT(result.num_outages, 0);
  ASSERT_GT(result.CountFailed(FailureKind::kTimeout), 0);
  const Golden expected[5] = {
      {"iterations", 85, 0xd257bb300148d19dull},
      {"requests", 8876, 0x29803d9201621ea2ull},
      {"tbt", 336107, 0x013fb1026fb4217dull},
      {"aggregate", 1240, 0x24a3082772d955e9ull},
      {"domains", 108, 0xdccd89cb76d0e26bull},
  };
  ExpectGolden(result, expected);
}

TEST(GoldenTelemetryTest, PagedCachedSessionRun) {
  MultiTurnChatOptions chat;
  chat.num_sessions = 16;
  chat.start_qps = 1.0;
  chat.max_context = 3072;
  Trace trace = GenerateMultiTurnChatTrace(chat);
  Deployment deployment = YiOnA100Tp2();
  SimulatorOptions options;
  options.model = deployment.model;
  options.cluster = deployment.cluster;
  options.parallel = deployment.parallel;
  options.scheduler = SarathiConfig(256, 8);
  options.allocator_kind = AllocatorKind::kPagedCached;
  options.kv_capacity_tokens = 8192;
  options.kv_max_seq_len = 4096;
  options.record_iterations = true;
  SimResult result = ReplicaSimulator(options).Run(trace);
  ASSERT_GT(result.prefix_hits, 0);
  const Golden expected[5] = {
      {"iterations", 248188, 0x09c8695d47bb2498ull},
      {"requests", 3726, 0x06fb922474dcdba9ull},
      {"tbt", 301652, 0x3f6194b4e767e27full},
      {"aggregate", 1202, 0x1066bf6ccbc7eccbull},
      {"domains", 60, 0x082af2d94786519cull},
  };
  ExpectGolden(result, expected);
}

// The two shapes perfbench's `fleet` and `cluster` workloads run, scaled
// down: mostly one or two decodes per step, so most steps are steady. No
// iteration log is recorded, so the replicas run as those workloads do.
TEST(GoldenTelemetryTest, AutoscaledDiurnalClusterOnTheSerialEngine) {
  ClusterOptions options;
  options.replica = MistralSarathi();
  options.num_replicas = 4;
  options.routing = RoutingPolicy::kRoundRobin;
  options.jobs = 1;
  options.autoscale.min_replicas = 1;
  options.autoscale.scale_out_queue_s = 0.25;
  options.autoscale.scale_in_queue_s = 0.05;
  options.autoscale.provisioning_lag_s = 10.0;
  options.autoscale.eval_interval_s = 5.0;
  options.autoscale.cooldown_s = 10.0;
  DiurnalOptions day;
  day.mean_qps = 24.0;
  day.duration_s = 240.0;
  day.period_s = day.duration_s;
  day.peak_at_s = day.duration_s / 2.0;
  day.peak_to_trough = 6.0;
  day.seed = 3;
  SimResult result = ClusterSimulator(options).Run(UniformDiurnalTrace(day, 512, 64));
  ASSERT_GT(result.autoscale_out, 0);
  const Golden expected[5] = {
      {"iterations", 85, 0xd257bb300148d19dull},
      {"requests", 557334, 0x7b055dfaf8ef67bfull},
      {"tbt", 6522169, 0x95d3eedfd895d40eull},
      {"aggregate", 1360, 0x7cdff4fed83f3104ull},
      {"domains", 60, 0x082af2d94786519cull},
  };
  ExpectGolden(result, expected);
}

TEST(GoldenTelemetryTest, RoundRobinClusterRound) {
  ClusterOptions options;
  options.replica = MistralSarathi();
  options.num_replicas = 8;
  options.routing = RoutingPolicy::kRoundRobin;
  TraceOptions trace_options;
  trace_options.num_requests = 2000;
  trace_options.qps = 40.0;
  trace_options.seed = 9;
  Trace trace = GenerateTrace(OpenChatShareGpt4(), trace_options);
  for (Request& r : trace.requests) {
    r.prompt_tokens = 256;
    r.output_tokens = 32;
  }
  SimResult result = ClusterSimulator(options).Run(trace);
  const Golden expected[5] = {
      {"iterations", 85, 0xd257bb300148d19dull},
      {"requests", 189344, 0x931ef6ed0b4c8966ull},
      {"tbt", 1117101, 0x9195914b64bd2a1aull},
      {"aggregate", 1219, 0x84cdaec4e1bb8781ull},
      {"domains", 60, 0x082af2d94786519cull},
  };
  ExpectGolden(result, expected);
}

// Attempt chains that take every branch of the cluster merge in one run:
// crash retries, client timeout re-offers, live migrations, hedges (won and
// not won), partition redispatches reconciled under the checker, and forked
// parallel-sampling siblings.
TEST(GoldenTelemetryTest, EveryMergeBranchOnOneCluster) {
  InvariantChecker checker;
  ClusterOptions options;
  options.replica = MistralSarathi();
  options.replica.scheduler = SarathiConfig(256, 8);
  options.replica.kv_capacity_tokens = 16384;
  options.replica.kv_max_seq_len = 4096;
  options.replica.checker = &checker;
  options.num_replicas = 6;
  options.routing = RoutingPolicy::kLeastOutstandingWork;
  options.faults.seed = 11;
  options.faults.mtbf_s = 10.0;
  options.faults.mttr_s = 1.0;
  options.faults.min_outage_s = 0.25;
  options.faults.request_timeout_probability = 0.2;
  options.faults.request_timeout_s = 4.0;
  options.faults.num_domains = 3;
  options.faults.domain_mtbf_s = 8.0;
  options.faults.domain_mttr_s = 2.0;
  options.faults.min_domain_outage_s = 1.5;
  options.faults.domain_partition_fraction = 1.0;
  options.fault_horizon_s = 60.0;
  options.timeout_retry_max = 2;
  options.degraded_failover = FailoverMode::kLiveMigrate;
  options.migration_delay_s = 2.5;
  options.hedge_after_s = 0.1;
  options.slowdown_overrides = {
      {{2.0, 40.0, 3.0}}, {}, {}, {{5.0, 7.0, 2.0}, {12.0, 14.0, 2.0}}, {{8.0, 10.0, 2.0}}};
  TraceOptions trace_options;
  trace_options.num_requests = 120;
  trace_options.qps = 6.0;
  trace_options.seed = 13;
  Trace trace = GenerateTrace(OpenChatShareGpt4(), trace_options);
  for (size_t i = 0; i < trace.size(); ++i) {
    Request& r = trace.requests[i];
    r.prompt_tokens = std::min<int64_t>(r.prompt_tokens, 1024);
    r.output_tokens = std::min<int64_t>(r.output_tokens, 256);
    if (i % 8 == 0) {
      r.num_samples = 2;
    }
  }
  SimResult result = ClusterSimulator(options).Run(trace);
  int64_t crash_retries = 0;
  for (const RequestMetrics& m : result.requests) {
    crash_retries += m.retries;
  }
  ASSERT_GT(crash_retries, 0);
  ASSERT_GT(result.timeout_retries, 0);
  ASSERT_GT(result.migrations, 0);
  ASSERT_GT(result.hedges_won, 0);
  ASSERT_GT(result.hedges_issued, result.hedges_won);
  ASSERT_GT(result.partition_redispatches, 0);
  ASSERT_GT(result.partition_reconciled, 0);
  ASSERT_GT(result.requests.size(), trace.size());  // Forked siblings.
  EXPECT_TRUE(checker.ok()) << checker.Report();
  const Golden expected[5] = {
      {"iterations", 85, 0xd257bb300148d19dull},
      {"requests", 13286, 0xa75a1135b88b10b1ull},
      {"tbt", 507197, 0xa59dc79919f4ec8dull},
      {"aggregate", 1264, 0x9d5be3aee30e48ddull},
      {"domains", 114, 0xb4ebb9be87860ca6ull},
  };
  ExpectGolden(result, expected);
}

}  // namespace
}  // namespace sarathi
