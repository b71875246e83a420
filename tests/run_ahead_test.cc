// Differential test of the steady-decode run-ahead (ReplicaSimulator): the
// fast path, which completes and relaunches a steady decode batch without
// re-scheduling it, and runs the steps between KV events in bulk chunks,
// must produce bit-equal results to the stepwise reference path
// (reuse_buffers = false) in every configuration. Each case also checks
// steady_decode_iterations and chunked_decode_iterations, so a case where
// the run-ahead or its chunks never engage cannot pass unnoticed: each is
// > 0 wherever it applies, and 0 on the reference path and wherever it
// stands down.

#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/core/serving_system.h"
#include "src/memory/block_manager.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/slo_monitor.h"
#include "src/obs/tracer.h"
#include "src/simulator/cluster_simulator.h"
#include "src/simulator/replica_simulator.h"
#include "src/verify/invariant_checker.h"
#include "src/workload/dataset.h"
#include "src/workload/diurnal.h"
#include "src/workload/session_trace.h"
#include "src/workload/trace.h"

namespace sarathi {
namespace {

SimulatorOptions Options(const Deployment& deployment, const SchedulerConfig& scheduler) {
  SimulatorOptions options;
  options.model = deployment.model;
  options.cluster = deployment.cluster;
  options.parallel = deployment.parallel;
  options.scheduler = scheduler;
  return options;
}

SimulatorOptions MistralSarathi() { return Options(MistralOnA100(), SarathiConfig(512)); }

// ShareGPT4 requests at a rate one replica serves with idle gaps, so the run
// mixes hybrid batches with long steady decode spans.
Trace ShareGptTrace(int64_t n, double qps, uint64_t seed) {
  return GenerateTrace(OpenChatShareGpt4(), {n, qps, seed});
}

void ExpectSameRequests(const SimResult& fast, const SimResult& reference) {
  ASSERT_EQ(fast.requests.size(), reference.requests.size());
  for (size_t i = 0; i < fast.requests.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "request slot " << i);
    const RequestMetrics& a = fast.requests[i];
    const RequestMetrics& b = reference.requests[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.arrival_s, b.arrival_s);
    EXPECT_EQ(a.qos, b.qos);
    EXPECT_EQ(a.first_scheduled_s, b.first_scheduled_s);
    EXPECT_EQ(a.token_times_s, b.token_times_s);
    EXPECT_EQ(a.completion_s, b.completion_s);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.deadline_s, b.deadline_s);
    EXPECT_EQ(a.failed_s, b.failed_s);
    EXPECT_EQ(a.failure, b.failure);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.wasted_tokens, b.wasted_tokens);
    EXPECT_EQ(a.hedges, b.hedges);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.cached_prefill_tokens, b.cached_prefill_tokens);
  }
}

void ExpectSameResult(const SimResult& fast, const SimResult& reference) {
  ExpectSameRequests(fast, reference);
  EXPECT_EQ(fast.num_iterations, reference.num_iterations);
  EXPECT_EQ(fast.num_preemptions, reference.num_preemptions);
  EXPECT_EQ(fast.makespan_s, reference.makespan_s);
  EXPECT_EQ(fast.active_window_s, reference.active_window_s);
  EXPECT_EQ(fast.stage_busy_s, reference.stage_busy_s);
  EXPECT_EQ(fast.total_output_tokens, reference.total_output_tokens);
  EXPECT_EQ(fast.total_prefill_tokens, reference.total_prefill_tokens);
  EXPECT_EQ(fast.total_flops, reference.total_flops);
  EXPECT_EQ(fast.total_bytes, reference.total_bytes);
  EXPECT_EQ(fast.peak_kv_blocks, reference.peak_kv_blocks);
  EXPECT_EQ(fast.total_kv_blocks, reference.total_kv_blocks);
  EXPECT_EQ(fast.degraded_iterations, reference.degraded_iterations);
  EXPECT_EQ(fast.num_outages, reference.num_outages);
  EXPECT_EQ(fast.prefix_hits, reference.prefix_hits);
  EXPECT_EQ(fast.cached_prefill_tokens, reference.cached_prefill_tokens);
  EXPECT_EQ(fast.prefix_evictions, reference.prefix_evictions);
  EXPECT_EQ(fast.num_browned_out, reference.num_browned_out);
  EXPECT_EQ(fast.hedges_issued, reference.hedges_issued);
  EXPECT_EQ(fast.migrations, reference.migrations);
  EXPECT_EQ(reference.steady_decode_iterations, 0);
  EXPECT_EQ(reference.chunked_decode_iterations, 0);
  EXPECT_LE(fast.steady_decode_iterations, fast.num_iterations);
  EXPECT_LE(fast.chunked_decode_iterations, fast.steady_decode_iterations);
}

// kApplies: spans run, and so do chunks. kNoChunks: spans run, chunks stand
// down. kStandsDown: neither runs.
enum class RunAhead { kApplies, kNoChunks, kStandsDown };

void ExpectRunAhead(const SimResult& fast, RunAhead expect) {
  if (expect == RunAhead::kStandsDown) {
    EXPECT_EQ(fast.steady_decode_iterations, 0);
  } else {
    EXPECT_GT(fast.steady_decode_iterations, 0);
  }
  if (expect == RunAhead::kApplies) {
    EXPECT_GT(fast.chunked_decode_iterations, 0);
  } else {
    EXPECT_EQ(fast.chunked_decode_iterations, 0);
  }
}

// Runs `trace` on the fast and the reference path and compares them.
// Returns the fast result.
SimResult RunBoth(SimulatorOptions options, const Trace& trace, RunAhead expect) {
  options.reuse_buffers = true;
  SimResult fast = ReplicaSimulator(options).Run(trace);
  options.reuse_buffers = false;
  SimResult reference = ReplicaSimulator(options).Run(trace);
  ExpectSameResult(fast, reference);
  ExpectRunAhead(fast, expect);
  return fast;
}

// The same for a cluster run.
SimResult RunClusterBoth(ClusterOptions options, const Trace& trace, RunAhead expect) {
  options.replica.reuse_buffers = true;
  SimResult fast = ClusterSimulator(options).Run(trace);
  options.replica.reuse_buffers = false;
  SimResult reference = ClusterSimulator(options).Run(trace);
  ExpectSameResult(fast, reference);
  ExpectRunAhead(fast, expect);
  return fast;
}

TEST(RunAheadTest, PagedAllocator) {
  SimResult fast = RunBoth(MistralSarathi(), ShareGptTrace(48, 1.5, 1), RunAhead::kApplies);
  // Most decode steps are steady at this load.
  EXPECT_GT(fast.steady_decode_iterations * 2, fast.num_iterations);
}

TEST(RunAheadTest, OneItemFixedShapeTrace) {
  // 256/32 requests far enough apart that each decodes alone: 29 of each
  // request's 32 iterations run in chunks. The others are its prefill, its
  // first decode (scheduled) and the step that crosses into its 18th block.
  SimResult fast =
      RunBoth(MistralSarathi(), UniformTrace(12, 256, 32, 1.0), RunAhead::kApplies);
  EXPECT_GT(fast.chunked_decode_iterations * 10, fast.num_iterations * 8);
}

TEST(RunAheadTest, AutoscaledDiurnalCluster) {
  ClusterOptions options;
  options.replica = MistralSarathi();
  options.num_replicas = 4;
  options.routing = RoutingPolicy::kRoundRobin;
  options.autoscale.min_replicas = 1;
  options.autoscale.scale_out_queue_s = 0.25;
  options.autoscale.scale_in_queue_s = 0.05;
  options.autoscale.provisioning_lag_s = 10.0;
  options.autoscale.eval_interval_s = 5.0;
  options.autoscale.cooldown_s = 10.0;
  DiurnalOptions day;
  day.mean_qps = 24.0;
  day.duration_s = 120.0;
  day.period_s = day.duration_s;
  day.peak_at_s = day.duration_s / 2.0;
  day.peak_to_trough = 6.0;
  day.seed = 4;
  SimResult fast =
      RunClusterBoth(options, UniformDiurnalTrace(day, 512, 64), RunAhead::kApplies);
  EXPECT_GT(fast.autoscale_out, 0);
}

TEST(RunAheadTest, DecodeStartsAtEveryBlockOffset) {
  // Prompts of 256..271 tokens put the first decode's KV write at every
  // offset within a 16-token block: alone, and beside a second request at
  // a fixed offset, so chunks end on either item's block boundary.
  for (int64_t offset = 0; offset < 16; ++offset) {
    SCOPED_TRACE(testing::Message() << "offset " << offset);
    RunBoth(MistralSarathi(), UniformTrace(1, 256 + offset, 40, 0.0), RunAhead::kApplies);
    Trace pair = UniformTrace(2, 263, 48, 0.0);
    pair.requests[0].prompt_tokens = 256 + offset;
    RunBoth(MistralSarathi(), pair, RunAhead::kApplies);
  }
}

TEST(RunAheadTest, ArrivalExactlyOnAChunkExit) {
  // A step that would start exactly at an arrival must go through the
  // stepwise loop, which admits the arrival first.
  SimulatorOptions options = MistralSarathi();
  options.reuse_buffers = false;
  SimResult alone = ReplicaSimulator(options).Run(UniformTrace(1, 256, 64, 0.0));
  ASSERT_GT(alone.requests[0].token_times_s.size(), 30u);
  for (size_t token : {5u, 12u, 20u, 29u}) {
    SCOPED_TRACE(testing::Message() << "arrival at token " << token << "'s exit");
    Trace trace = UniformTrace(2, 256, 64, 0.0);
    trace.requests[1].arrival_time_s = alone.requests[0].token_times_s[token];
    SimResult fast = RunBoth(MistralSarathi(), trace, RunAhead::kApplies);
    EXPECT_EQ(fast.requests[0].token_times_s[token], trace.requests[1].arrival_time_s);
  }
}

TEST(RunAheadTest, LastTokenEndsAChunk) {
  // A 250-token prompt leaves 6 free slots in its tail block, so these
  // output lengths end a request inside, on and just past a chunk that the
  // block boundary would otherwise end; also beside a longer request whose
  // chunks the short one's finish cuts. (With 2 output tokens the only
  // decode is the scheduled one.)
  for (int64_t output = 2; output <= 26; ++output) {
    SCOPED_TRACE(testing::Message() << "output " << output);
    RunBoth(MistralSarathi(), UniformTrace(1, 250, output, 0.0),
            output > 2 ? RunAhead::kApplies : RunAhead::kStandsDown);
    Trace pair = UniformTrace(2, 250, 40, 0.0);
    pair.requests[1].output_tokens = output;
    RunBoth(MistralSarathi(), pair, RunAhead::kApplies);
  }
}

TEST(RunAheadTest, ContextsPastTheSlidingWindow) {
  // Mistral attends over a 4096-token window: the attention span stops
  // growing there, and the paged manager recycles the table's slots in
  // place once a sequence passes the window plus a block.
  SimulatorOptions options = MistralSarathi();
  ASSERT_EQ(options.model.sliding_window, 4096);
  Trace trace = UniformTrace(3, 4000, 300, 0.5);
  trace.requests[1].prompt_tokens = 4107;
  trace.requests[2].prompt_tokens = 4200;
  SimResult fast = RunBoth(options, trace, RunAhead::kApplies);
  EXPECT_GT(fast.chunked_decode_iterations * 2, fast.num_iterations);
}

TEST(RunAheadTest, VtcPolicy) {
  SchedulerConfig config = SarathiConfig(512);
  config.policy = SchedulerPolicy::kVtc;
  Trace trace = ShareGptTrace(40, 1.5, 2);
  for (size_t i = 0; i < trace.size(); ++i) {
    trace.requests[i].client_id = static_cast<int64_t>(i % 3);
  }
  RunBoth(Options(MistralOnA100(), config), trace, RunAhead::kApplies);
}

TEST(RunAheadTest, VtcWithUnequalClientWeights) {
  // A chunk adds each client's 1/w share once per step; with weights whose
  // shares are inexact in binary, only the stepwise order of those
  // additions keeps the counters, and so the admission order, the same.
  SchedulerConfig config = SarathiConfig(512);
  config.policy = SchedulerPolicy::kVtc;
  config.client_weights = {{0, 1.0}, {1, 3.0}, {2, 0.7}};
  Trace trace = ShareGptTrace(48, 3.0, 17);
  for (size_t i = 0; i < trace.size(); ++i) {
    trace.requests[i].client_id = static_cast<int64_t>(i % 3);
  }
  RunBoth(Options(MistralOnA100(), config), trace, RunAhead::kApplies);
}

TEST(RunAheadTest, ReservationAllocator) {
  SimulatorOptions options = MistralSarathi();
  options.allocator_kind = AllocatorKind::kReservation;
  RunBoth(options, ShareGptTrace(40, 1.5, 3), RunAhead::kApplies);
}

TEST(RunAheadTest, PrefixCachedAllocatorUnderPressure) {
  // Yi-34B has no sliding window, so kPagedCached sticks.
  MultiTurnChatOptions chat;
  chat.num_sessions = 8;
  chat.start_qps = 1.0;
  chat.max_context = 3072;
  Trace trace = GenerateMultiTurnChatTrace(chat);
  SimulatorOptions options = Options(YiOnA100Tp2(), SarathiConfig(256, 8));
  options.allocator_kind = AllocatorKind::kPagedCached;
  options.kv_capacity_tokens = 8192;
  options.kv_max_seq_len = 4096;
  // The prefix-caching allocator promises no tail room, so chunks stand down.
  SimResult fast = RunBoth(options, trace, RunAhead::kNoChunks);
  EXPECT_GT(fast.prefix_hits, 0);
}

TEST(RunAheadTest, OutagesWithCrashRecompute) {
  SimulatorOptions options = MistralSarathi();
  options.outages = {{3.0, 5.5}, {12.0, 13.0}};
  SimResult fast = RunBoth(options, ShareGptTrace(40, 2.0, 4), RunAhead::kApplies);
  EXPECT_EQ(fast.num_outages, 2);
  EXPECT_GT(fast.num_preemptions, 0);
}

TEST(RunAheadTest, ClientDeadlines) {
  Trace trace = ShareGptTrace(40, 2.0, 5);
  for (size_t i = 0; i < trace.size(); i += 2) {
    trace.requests[i].deadline_s = 2.0 + 0.25 * static_cast<double>(i % 7);
  }
  SimResult fast = RunBoth(MistralSarathi(), trace, RunAhead::kApplies);
  int64_t timeouts = 0;
  for (const RequestMetrics& r : fast.requests) {
    timeouts += r.failure == FailureKind::kTimeout ? 1 : 0;
  }
  EXPECT_GT(timeouts, 0);
}

TEST(RunAheadTest, SlowdownsAndJitter) {
  SimulatorOptions options = MistralSarathi();
  options.slowdowns = {{1.0, 4.0, 2.0}, {8.0, 8.5, 3.0}};
  options.jitter_probability = 0.05;
  options.jitter_max_extra = 0.5;
  options.jitter_seed = 9;
  // Jitter may stretch any step, so chunks stand down.
  SimResult fast = RunBoth(options, ShareGptTrace(40, 2.0, 6), RunAhead::kNoChunks);
  EXPECT_GT(fast.degraded_iterations, 0);
}

TEST(RunAheadTest, SlowdownsEndChunks) {
  SimulatorOptions options = MistralSarathi();
  options.slowdowns = {{1.0, 4.0, 2.0}, {8.0, 8.5, 3.0}, {8.75, 12.0, 1.5}};
  SimResult fast = RunBoth(options, ShareGptTrace(40, 2.0, 6), RunAhead::kApplies);
  EXPECT_GT(fast.degraded_iterations, 0);
}

TEST(RunAheadTest, ParallelSamplingForks) {
  Trace trace = ShareGptTrace(24, 1.0, 7);
  for (size_t i = 0; i < trace.size(); i += 3) {
    trace.requests[i].num_samples = 3;
  }
  SimResult fast = RunBoth(MistralSarathi(), trace, RunAhead::kApplies);
  EXPECT_GT(fast.requests.size(), trace.size());
}

TEST(RunAheadTest, ForksCopyOnWriteTheirSharedTailBlocks) {
  // Siblings forked from a 250-token prompt share its partial tail block,
  // so each one's first append copies it (TailRoom 0) before chunks resume.
  Trace trace = UniformTrace(6, 250, 40, 2.0);
  for (Request& r : trace.requests) {
    r.num_samples = 3;
  }
  SimResult fast = RunBoth(MistralSarathi(), trace, RunAhead::kApplies);
  EXPECT_EQ(fast.requests.size(), 3 * trace.size());
}

TEST(RunAheadTest, KvPressureWithPreemption) {
  SimulatorOptions options = MistralSarathi();
  options.kv_capacity_tokens = 6144;
  options.kv_max_seq_len = 4096;
  SimResult fast = RunBoth(options, ShareGptTrace(40, 3.0, 8), RunAhead::kApplies);
  EXPECT_GT(fast.num_preemptions, 0);
}

TEST(RunAheadTest, BindingMaxBatchSize) {
  SchedulerConfig config = SarathiConfig(512);
  config.max_batch_size = 3;
  RunBoth(Options(MistralOnA100(), config), ShareGptTrace(40, 2.0, 10), RunAhead::kApplies);
}

TEST(RunAheadTest, CheckerSeesEveryStep) {
  SimulatorOptions options = MistralSarathi();
  options.kv_capacity_tokens = 6144;
  options.kv_max_seq_len = 4096;
  InvariantChecker checker;
  options.checker = &checker;
  Trace trace = ShareGptTrace(32, 3.0, 11);
  SimResult fast = RunBoth(options, trace, RunAhead::kNoChunks);
  EXPECT_TRUE(checker.ok()) << checker.Report();
  // Two runs, each checked iteration by iteration.
  EXPECT_EQ(checker.iterations_checked(), 2 * fast.num_iterations);
}

TEST(RunAheadTest, AttachedSinksRecordTheSameEvents) {
  // The tracer and the metrics registry ride along: every per-step call
  // that reaches them is in the shared launch and completion halves or in
  // the allocator's append, which the run-ahead makes in the same order.
  auto run = [](bool reuse_buffers, std::string* trace_json, std::string* series_csv) {
    SimulatorOptions options = MistralSarathi();
    options.reuse_buffers = reuse_buffers;
    options.record_iterations = true;
    Tracer tracer;
    MetricsRegistry metrics(1.0);
    options.tracer = &tracer;
    options.metrics = &metrics;
    SimResult result = ReplicaSimulator(options).Run(ShareGptTrace(16, 1.5, 12));
    std::ostringstream json;
    tracer.WriteChromeTraceJson(json);
    *trace_json = json.str();
    std::ostringstream csv;
    metrics.WriteTimeSeriesCsv(csv);
    *series_csv = csv.str();
    return result;
  };
  std::string fast_json, fast_csv, reference_json, reference_csv;
  SimResult fast = run(true, &fast_json, &fast_csv);
  SimResult reference = run(false, &reference_json, &reference_csv);
  ExpectSameResult(fast, reference);
  ExpectRunAhead(fast, RunAhead::kNoChunks);
  ASSERT_EQ(fast.iterations.size(), reference.iterations.size());
  for (size_t i = 0; i < fast.iterations.size(); ++i) {
    EXPECT_EQ(fast.iterations[i].start_s, reference.iterations[i].start_s);
    EXPECT_EQ(fast.iterations[i].exit_s, reference.iterations[i].exit_s);
    EXPECT_EQ(fast.iterations[i].description, reference.iterations[i].description);
  }
  EXPECT_EQ(fast_json, reference_json);
  EXPECT_EQ(fast_csv, reference_csv);
}

TEST(RunAheadTest, EachObserverStandsChunksDown) {
  // Anything that watches a run step by step gets the stepwise span.
  Trace trace = ShareGptTrace(16, 1.5, 18);
  {
    SCOPED_TRACE("iteration log");
    SimulatorOptions options = MistralSarathi();
    options.record_iterations = true;
    RunBoth(options, trace, RunAhead::kNoChunks);
  }
  {
    SCOPED_TRACE("flight recorder");
    FlightRecorder recorder(FlightRecorder::Options{});
    SimulatorOptions options = MistralSarathi();
    options.flight = &recorder;
    RunBoth(options, trace, RunAhead::kNoChunks);
  }
  {
    SCOPED_TRACE("SLO monitor");
    SloMonitor monitor;
    SimulatorOptions options = MistralSarathi();
    options.slo = &monitor;
    RunBoth(options, trace, RunAhead::kNoChunks);
  }
}

TEST(RunAheadTest, IterationLimitInsideAWouldBeChunk) {
  // One 256/64 request runs 64 iterations: its prefill, one decode, then
  // spans whose chunks cover iterations 3 to 17, 19 to 33 and so on.
  Trace trace = UniformTrace(1, 256, 64, 0.0);
  SimulatorOptions options = MistralSarathi();
  options.max_iterations = 64;
  SimResult fast = RunBoth(options, trace, RunAhead::kApplies);
  EXPECT_EQ(fast.num_iterations, 64);
  for (bool reuse_buffers : {true, false}) {
    options.reuse_buffers = reuse_buffers;
    options.max_iterations = 10;
    EXPECT_DEATH(ReplicaSimulator(options).Run(trace), "runaway scheduling loop");
  }
}

// ---- The allocator side of a chunk ----

TEST(RunAheadTest, TailRoomAppendsNeedNoAllocation) {
  // Every append TailRoom promises leaves the free list alone, with or
  // without a sliding window, and AdvanceTokens makes them as AppendToken
  // would. Each manager holds a sequence and, from its fifth prompt length
  // on, a fork of it, whose shared tail block zeroes both tail rooms until
  // one of them copies it.
  for (int64_t window : {0, 40}) {
    for (int64_t prompt = 1; prompt <= 40; ++prompt) {
      SCOPED_TRACE(testing::Message() << "window " << window << ", prompt " << prompt);
      PagedBlockManager::Options options;
      options.num_blocks = 64;
      options.sliding_window = window;
      PagedBlockManager bulk(options);
      PagedBlockManager stepwise(options);
      for (PagedBlockManager* manager : {&bulk, &stepwise}) {
        manager->Admit(1, prompt, prompt + 200);
        if (prompt > 4) {
          manager->Fork(1, 2);
        }
      }
      if (prompt > 4) {
        EXPECT_EQ(bulk.TailRoom(1), 0);
        EXPECT_EQ(bulk.TailRoom(2), 0);
      }
      for (int round = 0; round < 12; ++round) {
        for (SeqId id : {SeqId{1}, SeqId{2}}) {
          if (!bulk.HasSequence(id)) {
            continue;
          }
          int64_t room = bulk.TailRoom(id);
          ASSERT_EQ(room, stepwise.TailRoom(id));
          int64_t free = stepwise.free_blocks();
          for (int64_t i = 0; i < room; ++i) {
            ASSERT_TRUE(stepwise.CanAppendToken(id));
            stepwise.AppendToken(id);
            ASSERT_EQ(stepwise.free_blocks(), free);
          }
          bulk.AdvanceTokens(id, room);
          ASSERT_EQ(bulk.SequenceTokens(id), stepwise.SequenceTokens(id));
          ASSERT_EQ(bulk.BlockTable(id), stepwise.BlockTable(id));
          // The next append may take a block.
          bulk.AppendToken(id);
          stepwise.AppendToken(id);
        }
        ASSERT_EQ(bulk.AuditChanges(), "");
        ASSERT_EQ(bulk.free_blocks(), stepwise.free_blocks());
      }
    }
  }
}

// ---- Where the run-ahead stands down ----

TEST(RunAheadTest, DynamicBudgetStandsDown) {
  SchedulerConfig config = SarathiConfig(512);
  config.dynamic_budget_tbt_slo_s = 0.05;
  RunBoth(Options(MistralOnA100(), config), ShareGptTrace(32, 2.0, 13),
          RunAhead::kStandsDown);
}

TEST(RunAheadTest, BrownoutStandsDown) {
  SimulatorOptions options = MistralSarathi();
  options.overload.brownout = true;
  options.overload.brownout_output_cap = 16;
  options.overload.controller.queue_delay_throughput_s = 0.05;
  options.overload.controller.queue_delay_brownout_s = 0.1;
  options.overload.controller.queue_delay_shed_s = 100.0;
  Trace trace = ShareGptTrace(48, 8.0, 14);
  for (size_t i = 0; i < trace.size(); i += 2) {
    trace.requests[i].qos = QosClass::kBatch;
  }
  SimResult fast = RunBoth(options, trace, RunAhead::kStandsDown);
  EXPECT_GT(fast.num_browned_out, 0);
}

TEST(RunAheadTest, PipelineParallelStandsDown) {
  RunBoth(Options(LlamaOnA40Tp4Pp2(), SarathiConfig(512)), ShareGptTrace(24, 1.0, 15),
          RunAhead::kStandsDown);
}

// ---- Cluster ----

TEST(RunAheadTest, ClusterWithFaultsHedgingAndMigration) {
  // Live migration quarantines a degraded replica, and hedging skips
  // quarantined replicas, so each gets its own run; both have crashes.
  for (bool migrate : {false, true}) {
    SCOPED_TRACE(migrate ? "live migration" : "hedging");
    ClusterOptions options;
    options.replica = MistralSarathi();
    options.num_replicas = 4;
    options.routing = RoutingPolicy::kLeastOutstandingWork;
    options.faults.seed = 3;
    options.faults.mtbf_s = 8.0;
    options.faults.mttr_s = 2.0;
    options.faults.jitter_probability = 0.02;
    options.faults.jitter_max_extra = 0.3;
    options.slowdown_overrides = {{{1.0, 30.0, 3.0}}, {}, {{2.0, 30.0, 4.0}}, {}};
    if (migrate) {
      options.degraded_failover = FailoverMode::kLiveMigrate;
    } else {
      options.hedge_after_s = 0.25;
    }
    // The fault schedule's jitter stands the chunks down.
    SimResult fast = RunClusterBoth(options, ShareGptTrace(64, 3.0, 16), RunAhead::kNoChunks);
    EXPECT_GT(fast.num_outages, 0);
    EXPECT_GT(migrate ? fast.migrations : fast.hedges_issued, 0);
  }
}

}  // namespace
}  // namespace sarathi
