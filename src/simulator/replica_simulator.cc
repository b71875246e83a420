#include "src/simulator/replica_simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>

#include "src/common/logging.h"
#include "src/memory/block_manager.h"
#include "src/memory/prefix_cache.h"
#include "src/obs/metrics_registry.h"
#include "src/robustness/admission.h"
#include "src/robustness/bounded_queue.h"
#include "src/scheduler/scheduler_factory.h"
#include "src/verify/invariant_checker.h"

namespace sarathi {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

struct InFlightBatch {
  ScheduledBatch batch;
  double start_s = 0.0;
  double exit_s = 0.0;
};

}  // namespace

ReplicaSimulator::ReplicaSimulator(const SimulatorOptions& options) : options_(options) {
  std::shared_ptr<IterationCostModel> cost_model = options_.cost_model;
  if (cost_model == nullptr) {
    cost_model = std::make_shared<IterationCostModel>(options_.model, options_.cluster,
                                                      options_.parallel);
  }
  engine_ = std::make_unique<SimulatedEngine>(std::move(cost_model), options_.reuse_buffers);
}

SimResult ReplicaSimulator::Run(const Trace& trace) {
  const int num_stages = engine_->num_stages();

  AllocatorOptions allocator_options;
  allocator_options.capacity_tokens = options_.kv_capacity_tokens > 0
                                          ? options_.kv_capacity_tokens
                                          : engine_->cost_model().MaxKvTokens();
  allocator_options.block_size = options_.block_size;
  allocator_options.watermark = options_.watermark;
  allocator_options.sliding_window = options_.model.sliding_window;
  allocator_options.max_seq_len =
      options_.kv_max_seq_len > 0 ? options_.kv_max_seq_len : options_.model.max_seq_len;
  // Prefix caching requires stable position->block identity, which a sliding
  // window destroys (blocks are recycled in place as the window advances).
  // Windowed models therefore degrade kPagedCached to the plain paged
  // manager instead of failing the run.
  AllocatorKind allocator_kind = options_.allocator_kind;
  if (allocator_kind == AllocatorKind::kPagedCached && options_.model.sliding_window > 0) {
    allocator_kind = AllocatorKind::kPaged;
  }
  std::unique_ptr<KvAllocator> allocator =
      MakeAllocator(allocator_kind, options_.scheduler.policy, allocator_options);
  std::unique_ptr<Scheduler> scheduler = MakeScheduler(options_.scheduler, allocator.get());

  // Parallel sampling (num_samples > 1) forks siblings at prefill completion
  // and requires paged memory for the zero-copy prompt sharing.
  bool any_forking = false;
  for (const auto& r : trace.requests) {
    CHECK_GE(r.num_samples, 1);
    any_forking |= r.num_samples > 1;
  }
  auto* paged = dynamic_cast<PagedBlockManager*>(allocator.get());
  CHECK(!any_forking || paged != nullptr)
      << "num_samples > 1 requires a paged-memory policy (sarathi/vllm/fastserve/vtc)";
  // Non-null iff the run uses the radix prefix cache (kPagedCached, not
  // downgraded above); drives admission-time lookups and end-of-run audit.
  auto* prefix_cache = dynamic_cast<PrefixCachingAllocator*>(allocator.get());

  // Observability hooks: the simulator owns the clock; schedulers and the
  // allocator emit against it. Null hooks cost one branch per emission site.
  ObsHooks obs;
  obs.tracer = options_.tracer;
  obs.metrics = options_.metrics;
  obs.verify = options_.checker;
  obs.flight = options_.flight;
  if (obs.active()) {
    allocator->set_obs(&obs);
    scheduler->set_obs(&obs);
  }
  InvariantChecker* checker = options_.checker;
  if (checker != nullptr) {
    if (options_.flight != nullptr) {
      checker->set_flight(options_.flight);
    }
    checker->BeginRun(scheduler.get(), allocator.get(),
                      scheduler->name() + "/replica" + std::to_string(options_.trace_pid));
  }
  Tracer* tracer = obs.ActiveTracer();
  MetricsRegistry* metrics = obs.metrics;
  FlightRecorder* flight = options_.flight;
  SloMonitor* slo_monitor = options_.slo;
  const int fpid = options_.trace_pid;
  if (tracer != nullptr) {
    tracer->set_default_pid(options_.trace_pid);
    tracer->SetProcessName(options_.trace_pid, "replica " + std::to_string(options_.trace_pid));
    for (int s = 0; s < num_stages; ++s) {
      tracer->SetThreadName(s, "stage " + std::to_string(s));
    }
    if (!options_.outages.empty() || !options_.slowdowns.empty()) {
      tracer->SetThreadName(num_stages, "faults");
    }
  }

  SimResult result;
  result.scheduler_name = scheduler->name();
  result.stage_busy_s.assign(static_cast<size_t>(num_stages), 0.0);

  std::vector<std::unique_ptr<RequestState>> states;
  states.reserve(trace.size());
  result.requests.resize(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    states.push_back(std::make_unique<RequestState>(trace.requests[i]));
    if (trace.requests[i].restored_generated > 0) {
      states.back()->RestoreFromMigration(trace.requests[i].restored_generated);
    }
    result.requests[i].id = trace.requests[i].id;
    result.requests[i].arrival_s = trace.requests[i].arrival_time_s;
    result.requests[i].deadline_s = trace.requests[i].deadline_s;
    result.requests[i].qos = trace.requests[i].qos;
    if (options_.reuse_buffers) {
      // One emission per output token; reserving up front keeps steady-state
      // iterations free of telemetry-buffer growth.
      result.requests[i].token_times_s.reserve(
          static_cast<size_t>(std::max<int64_t>(0, trace.requests[i].output_tokens)));
    }
  }
  // Each request carries its metrics slot so the hot loop resolves
  // request -> RequestMetrics without hashing.
  for (size_t i = 0; i < states.size(); ++i) {
    states[i]->set_slot(static_cast<int64_t>(i));
  }

  // Request lifecycle spans: one async "request" span per request (keyed by
  // request id), with a nested child span naming the current phase. The
  // phases a request moves through: queued -> prefill -> decode -> closed,
  // with crash recomputes looping back to queued. Chrome async events with
  // the same (category, id) but distinct names render nested in Perfetto.
  enum SpanPhase : uint8_t { kSpanNone = 0, kSpanQueued, kSpanPrefill, kSpanDecode, kSpanClosed };
  std::vector<uint8_t> span_phase(trace.size(), kSpanNone);
  // Async spans are keyed by (pid, category, id), but cluster retry rounds
  // re-dispatch the same request id — two attempts on one replica would
  // cross-match begins/ends. Each attempt's span id therefore folds in its
  // retry round; round 0 keeps the raw id (byte-identical traces when no
  // retries happen). Forked siblings are always round 0.
  std::vector<int64_t> span_round(trace.size(), 0);
  for (size_t i = 0; i < trace.size(); ++i) {
    span_round[i] = trace.requests[i].retry_round;
  }
  auto span_name = [](uint8_t phase) -> const char* {
    switch (phase) {
      case kSpanQueued:
        return "queued";
      case kSpanPrefill:
        return "prefill";
      case kSpanDecode:
        return "decode";
      default:
        return "";
    }
  };
  // Moves request `idx`'s lifecycle span to `phase` at time `t`, closing the
  // open child span (and, on kSpanClosed, the request span itself).
  auto span_transition = [&](size_t idx, uint8_t phase, double t) {
    if (tracer == nullptr) {
      return;
    }
    uint8_t current = span_phase[idx];
    if (current == phase || current == kSpanClosed) {
      return;
    }
    int64_t request_id = result.requests[idx].id;
    int64_t round = span_round[idx];
    int64_t id = SpanIdForAttempt(request_id, round);
    if (current == kSpanNone) {
      if (round > 0) {
        tracer->AsyncBegin("request", "request", id, t,
                           {Arg("request", request_id), Arg("round", round)});
      } else {
        tracer->AsyncBegin("request", "request", id, t, {Arg("request", request_id)});
      }
    } else {
      tracer->AsyncEnd("request", span_name(current), id, t);
    }
    if (phase == kSpanClosed) {
      tracer->AsyncEnd("request", "request", id, t);
    } else {
      tracer->AsyncBegin("request", span_name(phase), id, t);
    }
    span_phase[idx] = phase;
  };

  // Parallel-sampling plans: parent -> siblings still to fork.
  std::unordered_map<const RequestState*, int64_t> pending_forks;
  for (size_t i = 0; i < states.size(); ++i) {
    if (trace.requests[i].num_samples > 1) {
      pending_forks.emplace(states[i].get(), trace.requests[i].num_samples - 1);
    }
  }
  int64_t next_fork_id = 1000000000;

  std::vector<double> stage_free(static_cast<size_t>(num_stages), 0.0);
  std::vector<InFlightBatch> in_flight;
  in_flight.reserve(static_cast<size_t>(num_stages) + 1);
  // Reused per-iteration shape scratch: MFU/MBU accounting on the reference
  // path, a chunk's advancing batch shape on the fast path.
  BatchWork work_scratch;
  size_t next_arrival = 0;
  double now = 0.0;
  double first_start = -1.0;
  double last_exit = 0.0;

  // Client deadlines, sorted by absolute expiry. Only original trace requests
  // carry deadlines; forked siblings never do.
  std::vector<std::pair<double, size_t>> deadline_queue;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace.requests[i].deadline_s > 0.0) {
      deadline_queue.emplace_back(
          trace.requests[i].arrival_time_s + trace.requests[i].deadline_s, i);
    }
  }
  std::sort(deadline_queue.begin(), deadline_queue.end());
  size_t deadline_cursor = 0;
  // Expired requests that were locked in an in-flight batch when their
  // deadline passed; aborted as soon as the batch exits.
  std::vector<std::pair<double, size_t>> expired_locked;

  size_t next_outage = 0;
  size_t slowdown_cursor = 0;
  // Crash-induced recomputes (standalone mode); counted into num_preemptions
  // alongside the scheduler's own memory-pressure preemptions.
  int64_t crash_recomputes = 0;

  // Cluster-planned extractions (migration checkpoints, degraded drains,
  // hedge-race cancellations), sorted by absolute fire time. Locked requests
  // are parked like expired deadlines and extracted when their batch exits.
  std::vector<std::pair<double, size_t>> planned_queue;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace.requests[i].planned_abort != PlannedAbort::kNone &&
        trace.requests[i].planned_abort_s > 0.0) {
      planned_queue.emplace_back(trace.requests[i].planned_abort_s, i);
    }
  }
  std::sort(planned_queue.begin(), planned_queue.end());
  size_t planned_cursor = 0;
  std::vector<std::pair<double, size_t>> planned_locked;

  // ---- Overload control (src/robustness) ----
  // All three mechanisms are off by default; this block allocates nothing and
  // the hot loop pays one branch when OverloadOptions is default-constructed.
  const OverloadOptions& overload = options_.overload;
  const bool overload_active = overload.enabled();
  std::unique_ptr<AdmissionPredictor> admission;
  if (overload.admission_ttft_slo_s > 0.0) {
    admission = std::make_unique<AdmissionPredictor>(
        &engine_->cost_model(), std::max<int64_t>(1, options_.scheduler.token_budget));
  }
  std::unique_ptr<CoDelQueue> codel;
  if (overload.queue_limit_s > 0.0) {
    codel = std::make_unique<CoDelQueue>(
        CoDelOptions{overload.queue_limit_s, overload.codel_interval_s});
    if (obs.active()) {
      codel->set_obs(&obs);
    }
  }
  std::unique_ptr<OverloadController> controller;
  if (overload.brownout) {
    controller = std::make_unique<OverloadController>(overload.controller);
    if (obs.active()) {
      controller->set_obs(&obs);
    }
  }
  // Windowed P99 TBT signal: samples accumulate per elapsed second of
  // simulation time; the controller reads the last completed window.
  constexpr double kTbtWindowS = 1.0;
  LogHistogram tbt_window;
  double tbt_window_start = 0.0;
  double tbt_window_p99 = 0.0;

  // Overload mitigations only touch "plain" trace requests. Planned-abort
  // carriers, parallel-sampling parents and migrated-in arrivals have
  // cluster-coordinated lifecycles (extraction plans, forks, adopted KV) that
  // a unilateral shed or truncation would corrupt; forked siblings
  // (slot >= trace.size()) are born running and never shed.
  auto overload_eligible = [&](size_t idx) {
    if (idx >= trace.size()) {
      return false;
    }
    const Request& r = trace.requests[idx];
    return r.planned_abort == PlannedAbort::kNone && r.num_samples <= 1 &&
           r.restored_generated <= 0;
  };

  // Permanent-shed bookkeeping shared by admission sheds, CoDel queue drops
  // and batch-lane brownout sheds. The request must already be out of the
  // scheduler (never enqueued, or just aborted); `what` is both the tracer
  // instant name and the metrics counter.
  auto mark_shed = [&](size_t idx, double t, const char* what, double retry_after_s,
                       double predicted_ttft_s) {
    RequestState* state = states[idx].get();
    state->set_phase(RequestPhase::kFailed);
    RequestMetrics& request_metrics = result.requests[idx];
    request_metrics.failed_s = t;
    request_metrics.failure = FailureKind::kShed;
    request_metrics.preemptions = state->preemptions();
    request_metrics.wasted_tokens =
        state->wasted_tokens() + state->prefill_done() + state->generated();
    if (tracer != nullptr) {
      if (predicted_ttft_s > 0.0) {
        tracer->Instant("overload", what, t,
                        {Arg("request", request_metrics.id),
                         Arg("retry_after_s", retry_after_s),
                         Arg("predicted_ttft_s", predicted_ttft_s)});
      } else {
        tracer->Instant("overload", what, t,
                        {Arg("request", request_metrics.id),
                         Arg("retry_after_s", retry_after_s)});
      }
    }
    span_transition(idx, kSpanClosed, t);
    if (metrics != nullptr) {
      metrics->AddCount(what, t);
      if (retry_after_s > 0.0) {
        metrics->Observe("retry_after_s", t, retry_after_s);
      }
      if (predicted_ttft_s > 0.0) {
        metrics->Observe("shed_predicted_ttft_s", t, predicted_ttft_s);
      }
    }
    if (flight != nullptr) {
      flight->RecordInstant("overload", what, t, fpid,
                            {{"request", static_cast<double>(request_metrics.id)},
                             {"retry_after_s", retry_after_s},
                             {"predicted_ttft_s", predicted_ttft_s}});
    }
    if (slo_monitor != nullptr) {
      slo_monitor->RecordOutcome(request_metrics.qos, /*good=*/false, t);
    }
  };

  auto deliver_arrivals = [&](double upto) {
    while (next_arrival < trace.size() &&
           trace.requests[next_arrival].arrival_time_s <= upto) {
      double arrival = trace.requests[next_arrival].arrival_time_s;
      obs.SetNow(arrival);
      RequestState* state = states[next_arrival].get();
      if (trace.requests[next_arrival].restored_generated > 0) {
        // Live-migrated arrival: adopt with the transferred KV, resuming the
        // decode with zero recompute. When the allocator cannot hold the
        // restored context, fall back to the recompute path — the request
        // queues like a preempted one and rebuilds its KV (counted as waste).
        if (scheduler->AdoptMigrated(state)) {
          span_transition(next_arrival, kSpanDecode, arrival);
          result.peak_kv_blocks = std::max(result.peak_kv_blocks, allocator->used_units());
          if (tracer != nullptr) {
            tracer->Instant("migration", "adopt", arrival,
                            {Arg("request", trace.requests[next_arrival].id)});
          }
          if (metrics != nullptr) {
            metrics->AddCount("migrations_in", arrival);
          }
        } else {
          state->ResetForRecompute();
          scheduler->Enqueue(state);
          span_transition(next_arrival, kSpanQueued, arrival);
          if (metrics != nullptr) {
            metrics->AddCount("migration_fallbacks", arrival);
          }
        }
      } else {
        bool shed = false;
        const char* shed_what = nullptr;
        double retry_after = 0.0;
        double predicted_ttft = 0.0;
        if (overload_active && overload_eligible(next_arrival)) {
          OverloadLevel level =
              controller != nullptr ? controller->level() : OverloadLevel::kNormal;
          if (level >= OverloadLevel::kShed && state->qos() == QosClass::kBatch) {
            // Shed rung: batch-lane arrivals are rejected outright so the
            // interactive lane keeps its SLO through the overload.
            shed = true;
            shed_what = "shed_brownout";
            ++result.num_shed_admission;
          } else if (admission != nullptr) {
            // SLO-aware admission: shed when the modeled TTFT cannot meet
            // min(admission SLO, the client's own deadline), with a modeled
            // retry-after for the client's backoff.
            double slo = overload.admission_ttft_slo_s;
            if (trace.requests[next_arrival].deadline_s > 0.0) {
              slo = std::min(slo, trace.requests[next_arrival].deadline_s);
            }
            int64_t backlog = scheduler->QueuedPrefillTokens();
            int64_t decodes = static_cast<int64_t>(scheduler->running().size());
            double predicted = admission->PredictTtftS(backlog, decodes, state->prompt_tokens());
            if (predicted > slo) {
              shed = true;
              shed_what = "shed_admission";
              predicted_ttft = predicted;
              retry_after =
                  admission->RetryAfterS(backlog, decodes, state->prompt_tokens(), slo);
              ++result.num_shed_admission;
            }
          }
        }
        if (shed) {
          mark_shed(next_arrival, arrival, shed_what, retry_after, predicted_ttft);
        } else {
          if (prefix_cache != nullptr && state->token_ids() != nullptr) {
            // Radix-cache lookup before enqueue: matched full blocks are
            // refcount-pinned so eviction cannot race the admission, and the
            // request's prefill starts at the matched boundary. Admission
            // later transplants the pinned chain into the block table.
            int64_t cached = prefix_cache->PinPrefix(state->id(), state->token_ids(),
                                                     state->prompt_tokens());
            if (cached > 0) {
              state->ApplyCachedPrefix(cached);
              result.requests[next_arrival].cached_prefill_tokens = cached;
              if (tracer != nullptr) {
                tracer->Instant("kv", "prefix_hit", arrival,
                                {Arg("request", state->id()), Arg("cached_tokens", cached)});
              }
              if (metrics != nullptr) {
                metrics->AddCount("prefix_hits", arrival);
                metrics->AddCount("cached_prefill_tokens", arrival,
                                  static_cast<double>(cached));
              }
              if (flight != nullptr) {
                flight->RecordInstant("kv", "prefix_hit", arrival, fpid,
                                      {{"request", static_cast<double>(state->id())},
                                       {"cached_tokens", static_cast<double>(cached)}});
              }
            }
          }
          if (controller != nullptr && controller->level() >= OverloadLevel::kBrownout &&
              state->qos() == QosClass::kBatch && overload.brownout_output_cap > 0 &&
              overload_eligible(next_arrival)) {
            // Brownout: batch-lane work is admitted but degraded (capped
            // generation) to free budget for the interactive lane.
            state->TruncateOutputAt(overload.brownout_output_cap);
            ++result.num_browned_out;
            if (metrics != nullptr) {
              metrics->AddCount("browned_out", arrival);
            }
          }
          scheduler->Enqueue(state);
          span_transition(next_arrival, kSpanQueued, arrival);
        }
      }
      if (metrics != nullptr) {
        metrics->AddCount("arrivals", arrival);
      }
      if (flight != nullptr) {
        flight->RecordInstant("request", "arrival", arrival, fpid,
                              {{"request", static_cast<double>(trace.requests[next_arrival].id)}});
      }
      ++next_arrival;
    }
  };

  // ---- One iteration, in two halves ----
  // The stepwise loop and the steady-decode run-ahead below both book an
  // iteration through these two, so both make the same operations in the
  // same order.

  // Launch half: times `batch` from `start` through every pipeline stage,
  // books its work and locks its requests. Returns its exit time.
  // `prefill_tokens` is batch.NumPrefillTokens(), which a run-ahead span
  // knows to be 0 without a pass over the items.
  auto launch_batch = [&](const ScheduledBatch& batch, int64_t prefill_tokens,
                          double start) -> double {
    ++result.num_iterations;
    CHECK_LE(result.num_iterations, options_.max_iterations) << "runaway scheduling loop";
    if (checker != nullptr) {
      checker->OnBatchScheduled(batch, start);
    }

    double iter_flops = 0.0;
    double iter_bytes = 0.0;
    double stage_time;
    if (options_.reuse_buffers) {
      // Fast path: one pass over the batch shape yields the stage time and
      // the MFU/MBU accounting totals together (one KvSpan per sequence).
      stage_time = engine_->StageTimeAndTotals(batch, &iter_flops, &iter_bytes);
    } else {
      stage_time = engine_->StageTime(batch);
    }
    // Gray-failure degradation: an iteration whose batch starts inside a
    // slowdown episode runs slower on every pipeline stage; transient jitter
    // stretches isolated iterations on top. (Monotonic cursor — batch starts
    // never move backwards within a run.)
    while (slowdown_cursor < options_.slowdowns.size() &&
           options_.slowdowns[slowdown_cursor].end_s <= start) {
      ++slowdown_cursor;
    }
    double stretch = 1.0;
    if (slowdown_cursor < options_.slowdowns.size() &&
        start >= options_.slowdowns[slowdown_cursor].start_s) {
      stretch = options_.slowdowns[slowdown_cursor].factor;
    }
    stretch *= IterationJitterFactor(options_.jitter_seed, options_.trace_pid,
                                     result.num_iterations, options_.jitter_probability,
                                     options_.jitter_max_extra);
    if (stretch > 1.0) {
      stage_time *= stretch;
      ++result.degraded_iterations;
      if (metrics != nullptr) {
        metrics->AddCount("degraded_iterations", start);
      }
    }
    double enter = start;
    std::string slice_name;
    if (tracer != nullptr) {
      slice_name = batch.Describe();
    }
    for (int s = 0; s < num_stages; ++s) {
      double stage_start = std::max(stage_free[static_cast<size_t>(s)], enter);
      result.stage_busy_s[static_cast<size_t>(s)] += stage_time;
      if (tracer != nullptr) {
        tracer->Complete("iteration", slice_name, stage_start, stage_time, s,
                         {Arg("tokens", batch.TotalTokens()), Arg("decodes", batch.NumDecodes()),
                          Arg("prefill_tokens", prefill_tokens)});
      }
      if (flight != nullptr) {
        // Literal name (not batch.Describe()): the flight path must not
        // allocate in steady state; the shape args carry the batch identity.
        flight->RecordComplete("iteration", "iteration", stage_start, stage_time, fpid, s,
                               {{"tokens", static_cast<double>(batch.TotalTokens())},
                                {"decodes", static_cast<double>(batch.NumDecodes())},
                                {"prefill_tokens", static_cast<double>(prefill_tokens)}});
      }
      enter = stage_start + stage_time;
      stage_free[static_cast<size_t>(s)] = enter;
    }
    double exit = enter;
    if (first_start < 0.0) {
      first_start = start;
    }
    last_exit = std::max(last_exit, exit);

    result.total_prefill_tokens += prefill_tokens;
    if (options_.reuse_buffers) {
      // Totals were computed alongside the stage time above.
      result.total_flops += iter_flops;
      result.total_bytes += iter_bytes;
    } else {
      work_scratch = batch.ToBatchWork();
      result.total_flops += engine_->cost_model().BatchFlops(work_scratch);
      result.total_bytes += engine_->cost_model().BatchMemoryBytes(work_scratch);
    }
    if (options_.record_iterations) {
      IterationRecord record;
      record.start_s = start;
      record.stage_time_s = stage_time;
      record.exit_s = exit;
      record.description = batch.Describe();
      record.total_tokens = batch.TotalTokens();
      record.num_decodes = batch.NumDecodes();
      record.prefill_tokens = prefill_tokens;
      result.iterations.push_back(std::move(record));
    }

    if (metrics != nullptr) {
      metrics->AddCount("iterations", start);
      if (prefill_tokens > 0) {
        metrics->AddCount("prefill_tokens", start, static_cast<double>(prefill_tokens));
      }
    }
    for (const auto& item : batch.items) {
      item.request->set_locked(true);
      size_t idx = static_cast<size_t>(item.request->slot());
      RequestMetrics& request_metrics = result.requests[idx];
      if (request_metrics.first_scheduled_s < 0.0) {
        request_metrics.first_scheduled_s = start;
      }
      span_transition(idx, item.is_decode ? kSpanDecode : kSpanPrefill, start);
    }
    return exit;
  };

  // Completion half: emits the tokens of a batch that exited, forks
  // parallel-sampling siblings and applies the batch to the scheduler.
  auto complete_batch = [&](const InFlightBatch& done) {
    obs.SetNow(done.exit_s);

    // Token emissions happen at pipeline exit, before state advances.
    for (const auto& item : done.batch.items) {
      RequestMetrics& request_metrics = result.requests[static_cast<size_t>(item.request->slot())];
      bool emits = item.is_decode ||
                   item.request->prefill_done() + item.num_tokens ==
                       item.request->prefill_target();
      if (emits) {
        if (metrics != nullptr) {
          metrics->AddCount("output_tokens", done.exit_s);
          if (request_metrics.token_times_s.empty()) {
            metrics->Observe("ttft_s", done.exit_s, done.exit_s - request_metrics.arrival_s);
          } else {
            metrics->Observe("tbt_s", done.exit_s,
                             done.exit_s - request_metrics.token_times_s.back());
          }
        }
        if (slo_monitor != nullptr) {
          if (request_metrics.token_times_s.empty()) {
            slo_monitor->RecordLatency(SloSignal::kTtft, request_metrics.qos,
                                       done.exit_s - request_metrics.arrival_s, done.exit_s);
          } else {
            slo_monitor->RecordLatency(SloSignal::kTbt, request_metrics.qos,
                                       done.exit_s - request_metrics.token_times_s.back(),
                                       done.exit_s);
          }
        }
        if (controller != nullptr && !request_metrics.token_times_s.empty()) {
          // Feed the controller's windowed P99 TBT signal.
          tbt_window.Record(done.exit_s - request_metrics.token_times_s.back());
        }
        request_metrics.token_times_s.push_back(done.exit_s);
        ++result.total_output_tokens;
      }
      item.request->set_locked(false);
    }
    // Materialize parallel-sampling siblings for parents whose prefill just
    // completed — before OnBatchComplete, while the parent's block table is
    // guaranteed alive. Each sibling's first token is its fork-point draw,
    // emitted at this batch's exit.
    for (const auto& item : done.batch.items) {
      if (item.is_decode || item.request->prefill_done() + item.num_tokens !=
                                item.request->prefill_target()) {
        continue;
      }
      auto plan = pending_forks.find(item.request);
      if (plan == pending_forks.end()) {
        continue;
      }
      double parent_first_scheduled = result.requests[static_cast<size_t>(item.request->slot())].first_scheduled_s;
      for (int64_t s = 0; s < plan->second; ++s) {
        int64_t child_id = next_fork_id++;
        RequestState child_state = RequestState::ForkedFrom(*item.request, child_id);
        child_state.AdvancePrefill(child_state.remaining_prefill());
        states.push_back(std::make_unique<RequestState>(child_state));
        RequestState* child = states.back().get();
        paged->Fork(item.request->id(), child_id);

        RequestMetrics child_metrics;
        child_metrics.id = child_id;
        child_metrics.qos = item.request->qos();
        child_metrics.arrival_s = item.request->arrival_time_s();
        child_metrics.first_scheduled_s = parent_first_scheduled;
        child_metrics.token_times_s.push_back(done.exit_s);
        ++result.total_output_tokens;
        if (metrics != nullptr) {
          metrics->AddCount("output_tokens", done.exit_s);
        }
        bool child_done = child->finished();
        if (child_done) {
          paged->Release(child_id);
          child->set_phase(RequestPhase::kFinished);
          child_metrics.completion_s = done.exit_s;
        } else {
          scheduler->AdoptRunning(child);
        }
        result.requests.push_back(std::move(child_metrics));
        child->set_slot(static_cast<int64_t>(result.requests.size() - 1));
        // Sibling spans begin at the fork point, already decoding (or
        // instantly closed for single-token samples).
        span_phase.push_back(kSpanNone);
        span_round.push_back(0);
        span_transition(result.requests.size() - 1, kSpanDecode, done.exit_s);
        if (child_done) {
          span_transition(result.requests.size() - 1, kSpanClosed, done.exit_s);
        }
      }
      pending_forks.erase(plan);
    }
    scheduler->ObserveIterationTime(done.batch, done.exit_s - done.start_s);
    scheduler->OnBatchComplete(done.batch);
    if (checker != nullptr) {
      checker->OnBatchApplied(done.batch, done.exit_s);
    }
    if (paged != nullptr) {
      // Time domain carries no KV values; discard CoW data-copy records.
      (void)paged->TakePendingCows();
    }
    // Forked siblings may have just taken block references.
    result.peak_kv_blocks = std::max(result.peak_kv_blocks, allocator->used_units());
    for (const auto& item : done.batch.items) {
      if (item.request->finished()) {
        size_t idx = static_cast<size_t>(item.request->slot());
        RequestMetrics& request_metrics = result.requests[idx];
        request_metrics.completion_s = done.exit_s;
        request_metrics.preemptions = item.request->preemptions();
        request_metrics.wasted_tokens = item.request->wasted_tokens();
        span_transition(idx, kSpanClosed, done.exit_s);
        if (metrics != nullptr) {
          metrics->AddCount("completions", done.exit_s);
        }
        if (flight != nullptr) {
          flight->RecordInstant("request", "completion", done.exit_s, fpid,
                                {{"request", static_cast<double>(request_metrics.id)}});
        }
        if (slo_monitor != nullptr) {
          slo_monitor->RecordOutcome(request_metrics.qos, request_metrics.good(),
                                     done.exit_s);
        }
      }
    }
  };

  auto deliver_completions = [&](double upto) {
    while (true) {
      // Earliest in-flight exit not after `upto`.
      size_t best = in_flight.size();
      for (size_t i = 0; i < in_flight.size(); ++i) {
        if (in_flight[i].exit_s <= upto &&
            (best == in_flight.size() || in_flight[i].exit_s < in_flight[best].exit_s)) {
          best = i;
        }
      }
      if (best == in_flight.size()) {
        return;
      }
      InFlightBatch done = std::move(in_flight[best]);
      in_flight.erase(in_flight.begin() + static_cast<long>(best));
      complete_batch(done);
      if (options_.reuse_buffers) {
        scheduler->RecycleBatch(std::move(done.batch));
      }
    }
  };

  // Aborts every request whose client deadline expired by `upto`. A locked
  // request (inside an in-flight batch) cannot be aborted yet; it is parked
  // and retried after the batch exits. failed_s records the deadline itself,
  // not the (possibly later) moment the abort executes.
  auto abort_expired = [&](double upto) {
    auto expire = [&](double deadline_abs, size_t idx) -> bool {
      RequestState* state = states[idx].get();
      if (state->phase() == RequestPhase::kFinished ||
          state->phase() == RequestPhase::kFailed) {
        return true;  // Finished (or already failed) before the client gave up.
      }
      if (state->locked()) {
        return false;
      }
      obs.SetNow(deadline_abs);
      CHECK(scheduler->Abort(state));
      RequestMetrics& request_metrics = result.requests[idx];
      request_metrics.failed_s = deadline_abs;
      request_metrics.failure = FailureKind::kTimeout;
      request_metrics.preemptions = state->preemptions();
      // The abandoned attempt's entire progress is wasted service.
      request_metrics.wasted_tokens =
          state->wasted_tokens() + state->prefill_done() + state->generated();
      if (tracer != nullptr) {
        tracer->Instant("fault", "timeout", deadline_abs, {Arg("request", request_metrics.id)});
      }
      span_transition(idx, kSpanClosed, deadline_abs);
      if (metrics != nullptr) {
        metrics->AddCount("timeouts", deadline_abs);
      }
      if (flight != nullptr) {
        flight->RecordInstant("fault", "timeout", deadline_abs, fpid,
                              {{"request", static_cast<double>(request_metrics.id)}});
      }
      if (slo_monitor != nullptr) {
        slo_monitor->RecordOutcome(request_metrics.qos, /*good=*/false, deadline_abs);
      }
      return true;
    };
    std::vector<std::pair<double, size_t>> still_locked;
    for (const auto& [deadline_abs, idx] : expired_locked) {
      if (!expire(deadline_abs, idx)) {
        still_locked.emplace_back(deadline_abs, idx);
      }
    }
    expired_locked.swap(still_locked);
    while (deadline_cursor < deadline_queue.size() &&
           deadline_queue[deadline_cursor].first <= upto) {
      const auto& [deadline_abs, idx] = deadline_queue[deadline_cursor++];
      if (!expire(deadline_abs, idx)) {
        expired_locked.emplace_back(deadline_abs, idx);
      }
    }
  };

  // Fires cluster-planned extractions due by `upto`. Migration checkpoints
  // and drains only extract decoding requests — a queued or still-prefilling
  // request holds little worth moving and is covered by hedging instead —
  // while hedge-race cancellations fire in any phase. The attempt keeps its
  // emitted tokens; for a migration they are exactly the progress the
  // destination resumes from. failed_s records when the extraction actually
  // executed (deferred past in-flight batches and any token emitted
  // meanwhile), which is what the cluster uses as the KV transfer start.
  auto apply_planned = [&](double upto) {
    auto fire = [&](double abort_abs, size_t idx) -> bool {
      RequestState* state = states[idx].get();
      const Request& request = trace.requests[idx];
      if (idx >= next_arrival || state->phase() == RequestPhase::kFinished ||
          state->phase() == RequestPhase::kFailed) {
        return true;  // Never arrived, finished, or failed first: nothing to extract.
      }
      if (request.planned_abort != PlannedAbort::kHedgeCancel &&
          !(state->prefill_complete() && state->generated() > 0)) {
        return true;  // Not decoding: leave it in place.
      }
      if (state->locked()) {
        return false;
      }
      RequestMetrics& request_metrics = result.requests[idx];
      double t_fire = abort_abs;
      if (!request_metrics.token_times_s.empty()) {
        t_fire = std::max(t_fire, request_metrics.token_times_s.back());
      }
      obs.SetNow(t_fire);
      CHECK(scheduler->Abort(state));
      request_metrics.failed_s = t_fire;
      const char* what = "hedge_cancel";
      switch (request.planned_abort) {
        case PlannedAbort::kMigrateOut:
          request_metrics.failure = FailureKind::kMigrated;
          what = "migrate_out";
          break;
        case PlannedAbort::kDrain:
          request_metrics.failure = FailureKind::kDegradedDrain;
          what = "drain";
          break;
        default:
          request_metrics.failure = FailureKind::kHedgeCancelled;
          break;
      }
      request_metrics.preemptions = state->preemptions();
      // Everything a drained or hedge-cancelled attempt computed is redone
      // elsewhere; a migration checkpoint wastes nothing beyond recompute the
      // attempt already paid.
      request_metrics.wasted_tokens = state->wasted_tokens();
      if (request.planned_abort != PlannedAbort::kMigrateOut) {
        request_metrics.wasted_tokens += state->prefill_done() + state->generated();
      }
      if (tracer != nullptr) {
        tracer->Instant("migration", what, t_fire, {Arg("request", request_metrics.id)});
      }
      if (metrics != nullptr) {
        metrics->AddCount(what, t_fire);
      }
      span_transition(idx, kSpanClosed, t_fire);
      return true;
    };
    std::vector<std::pair<double, size_t>> still_locked;
    for (const auto& [abort_abs, idx] : planned_locked) {
      if (!fire(abort_abs, idx)) {
        still_locked.emplace_back(abort_abs, idx);
      }
    }
    planned_locked.swap(still_locked);
    while (planned_cursor < planned_queue.size() &&
           planned_queue[planned_cursor].first <= upto) {
      const auto& [abort_abs, idx] = planned_queue[planned_cursor++];
      if (!fire(abort_abs, idx)) {
        planned_locked.emplace_back(abort_abs, idx);
      }
    }
  };

  // Replica crash at outage.down_s: in-flight batches are discarded (their
  // tokens were never emitted), every admitted request loses its KV, and the
  // stages stay idle until outage.up_s.
  auto apply_crash = [&](const ReplicaOutage& outage) {
    obs.SetNow(outage.down_s);
    for (auto& f : in_flight) {
      for (const auto& item : f.batch.items) {
        item.request->set_locked(false);
      }
      if (checker != nullptr) {
        checker->OnBatchDiscarded(f.batch);
      }
    }
    in_flight.clear();
    if (options_.fail_interrupted_on_crash) {
      for (RequestState* state : scheduler->DrainAll()) {
        size_t idx = static_cast<size_t>(state->slot());
        RequestMetrics& request_metrics = result.requests[idx];
        request_metrics.failed_s = outage.down_s;
        request_metrics.failure = FailureKind::kReplicaCrash;
        request_metrics.preemptions = state->preemptions();
        request_metrics.wasted_tokens =
            state->wasted_tokens() + state->prefill_done() + state->generated();
        span_transition(idx, kSpanClosed, outage.down_s);
      }
    } else {
      // Standalone replica: running requests recompute after recovery; the
      // wait queue survives the crash untouched (it holds no KV).
      std::vector<RequestState*> running = scheduler->running();
      for (RequestState* state : running) {
        CHECK(scheduler->Abort(state));
        state->ResetForRecompute();
        scheduler->Enqueue(state);
        span_transition(static_cast<size_t>(state->slot()), kSpanQueued, outage.down_s);
        ++crash_recomputes;
      }
    }
    if (tracer != nullptr) {
      // A slice on the fault track spanning the outage, plus instants at the
      // crash and recovery edges.
      tracer->Complete("fault", "outage", outage.down_s, outage.duration(), num_stages,
                       {Arg("duration_s", outage.duration())});
      tracer->Instant("fault", "crash", outage.down_s);
      tracer->Instant("fault", "recovered", outage.up_s);
    }
    if (metrics != nullptr) {
      metrics->AddCount("outages", outage.down_s);
    }
    if (flight != nullptr) {
      // The trigger instant itself carries the reason; the recovery edge is
      // recorded so a post-crash dump shows the outage extent.
      flight->Trigger("replica_crash", outage.down_s, fpid);
      flight->RecordInstant("fault", "recovered", outage.up_s, fpid);
    }
    for (double& f : stage_free) {
      f = std::max(f, outage.up_s);
    }
    ++result.num_outages;
    result.downtime_s += outage.duration();
  };

  // ---- Steady-decode run-ahead ----
  // Most iterations decode one token for every running request while nothing
  // else happens. Once the scheduler calls a launched batch steady
  // (Scheduler::IsSteadyDecodeBatch), the stepwise loop would poll, find no
  // event, and schedule the same batch again. The span below skips that:
  // it completes the batch and relaunches the same items, making the KV
  // appends Schedule() would, for as long as the stepwise loop provably
  // forms the same batch. It stops before a step whose start reaches an
  // arrival, deadline, planned extraction or outage, before a step that
  // would follow some item's last token, and before a step whose appends
  // could run out of KV (Schedule() would then preempt). It needs a single
  // pipeline stage (a deeper pipeline keeps disjoint micro-batches in
  // flight) and no overload control (whose controller samples every poll).
  // The fast-path switch gates it, so reuse_buffers=false stays the
  // stepwise reference. docs/performance.md has the exactness argument.
  const bool run_ahead = options_.reuse_buffers && num_stages == 1 && !overload_active;
  // Chunks: within a span, steps in which no item needs a new KV block, a
  // copy-on-write or its last token differ only in each item's context,
  // the clock and the run's totals. A chunk computes those per step and
  // applies the per-item effects (token times, decode progress, KV token
  // counts) once at its end, which is exact because nothing reads them in
  // between. That needs a run nobody watches step by step: no checker or
  // sink, no iteration log and no jitter. Slowdown episodes end a chunk.
  const bool chunks = run_ahead && !obs.active() && slo_monitor == nullptr &&
                      !options_.record_iterations &&
                      (options_.jitter_probability <= 0.0 || options_.jitter_max_extra <= 0.0);
  // Runs up to `max_steps` steps of the span's batch, each starting before
  // `horizon`, as one chunk; returns how many it ran. Every item must have
  // room for `max_steps` appends and more than `max_steps` tokens to go.
  auto run_chunk = [&](InFlightBatch& span, int64_t max_steps, double horizon) -> int64_t {
    const ScheduledBatch& batch = span.batch;
    const auto size = static_cast<int64_t>(batch.size());
    // A step inside a slowdown episode would be stretched.
    while (slowdown_cursor < options_.slowdowns.size() &&
           options_.slowdowns[slowdown_cursor].end_s <= span.exit_s) {
      ++slowdown_cursor;
    }
    if (slowdown_cursor < options_.slowdowns.size()) {
      horizon = std::min(horizon, options_.slowdowns[slowdown_cursor].start_s);
    }
    // launch_batch's CHECK stops the step past the limit.
    max_steps = std::min(max_steps, options_.max_iterations - result.num_iterations);
    // Each step's decodes read one more KV token each than the step
    // before; the first step's, one more than the in-flight batch's.
    batch.FillBatchWork(&work_scratch);
    for (SequenceWork& seq : work_scratch.sequences) {
      ++seq.context_len;
    }
    const IterationCostModel& cost_model = engine_->cost_model();
    const IterationCostModel::ShapeTerms shape = cost_model.StageShapeTerms(size, size);
    // The first item's token times, reserved for its whole output, collect
    // the exits at which the chunk's completions emit.
    std::vector<double>& exits =
        result.requests[static_cast<size_t>(batch.items[0].request->slot())].token_times_s;
    const size_t first_exit = exits.size();
    // With one stage, each step starts as the previous one exits.
    double exit = span.exit_s;
    int64_t k = 0;
    for (; k < max_steps && exit < horizon; ++k) {
      exits.push_back(exit);
      double flops = 0.0;
      double bytes = 0.0;
      double stage_time = cost_model.StageCostAndTotals(work_scratch, shape, &flops, &bytes).Total();
      result.stage_busy_s[0] += stage_time;
      exit += stage_time;
      result.total_flops += flops;
      result.total_bytes += bytes;
      for (SequenceWork& seq : work_scratch.sequences) {
        ++seq.context_len;
      }
    }
    if (k == 0) {
      return 0;
    }
    stage_free[0] = exit;
    last_exit = std::max(last_exit, exit);
    for (size_t i = 1; i < batch.items.size(); ++i) {
      std::vector<double>& times =
          result.requests[static_cast<size_t>(batch.items[i].request->slot())].token_times_s;
      times.insert(times.end(), exits.begin() + static_cast<long>(first_exit), exits.end());
    }
    for (const BatchItem& item : batch.items) {
      allocator->AdvanceTokens(item.request->id(), k);
    }
    scheduler->OnDecodeSteps(batch, k);
    result.total_output_tokens += k * size;
    result.num_iterations += k;
    result.steady_decode_iterations += k;
    result.chunked_decode_iterations += k;
    span.start_s = exits.back();
    span.exit_s = exit;
    obs.SetNow(span.start_s);
    return k;
  };
  // Each item's TailRoom, kept across a span's steps so that a step asks
  // the allocator again only about the items that just took a fresh unit.
  std::vector<int64_t> rooms;
  auto run_steady_span = [&](InFlightBatch& span) {
    ScheduledBatch& batch = span.batch;
    // Step k completes the batch for the k-th time since its launch; the
    // completion that emits an item's last token finishes it.
    int64_t steps = std::numeric_limits<int64_t>::max();
    for (const BatchItem& item : batch.items) {
      steps = std::min(steps, item.request->output_tokens() - item.request->generated() - 1);
    }
    // The earliest time a poll would act on. No cursor moves within the
    // span, so it holds for the whole span. Nothing is parked in
    // expired_locked or planned_locked: with one stage, the poll before a
    // launch completes the only in-flight batch before it fires aborts and
    // extractions.
    double horizon = kInfinity;
    if (next_arrival < trace.size()) {
      horizon = std::min(horizon, trace.requests[next_arrival].arrival_time_s);
    }
    if (deadline_cursor < deadline_queue.size()) {
      horizon = std::min(horizon, deadline_queue[deadline_cursor].first);
    }
    if (planned_cursor < planned_queue.size()) {
      horizon = std::min(horizon, planned_queue[planned_cursor].first);
    }
    if (next_outage < options_.outages.size()) {
      horizon = std::min(horizon, options_.outages[next_outage].down_s);
    }
    // With one stage the next step starts when this one exits.
    if (steps <= 0 || span.exit_s >= horizon) {
      return;
    }
    rooms.clear();
    for (const BatchItem& item : batch.items) {
      rooms.push_back(allocator->TailRoom(item.request->id()));
    }
    while (steps > 0 && span.exit_s < horizon) {
      // The fewest appends any item has room for, and whether the items
      // with none can each get a fresh unit. Completing a batch that
      // finishes nothing changes no KV, so this can come before it.
      int64_t room = std::numeric_limits<int64_t>::max();
      int64_t needing = 0;
      for (int64_t item_room : rooms) {
        room = std::min(room, item_room);
        needing += item_room == 0 ? 1 : 0;
      }
      if (needing > allocator->free_append_units()) {
        break;
      }
      if (chunks && room > 0) {
        int64_t k = run_chunk(span, std::min(steps, room), horizon);
        if (k > 0) {
          for (int64_t& item_room : rooms) {
            item_room -= k;
          }
          steps -= k;
          continue;
        }
      }
      // The completion half leaves the shared clock at the exit, which is
      // the next step's start.
      complete_batch(span);
      double start = span.exit_s;
      // An append within an item's room takes one from it. An item with no
      // room asks again after its append, which may have taken a fresh
      // unit; later items' appends only take fresh units or drop
      // references, which never shrinks the answer.
      for (size_t i = 0; i < batch.items.size(); ++i) {
        SeqId id = batch.items[i].request->id();
        allocator->AppendToken(id);
        rooms[i] = rooms[i] > 0 ? rooms[i] - 1 : allocator->TailRoom(id);
      }
      result.peak_kv_blocks = std::max(result.peak_kv_blocks, allocator->used_units());
      span.start_s = start;
      span.exit_s = launch_batch(batch, /*prefill_tokens=*/0, start);
      ++result.steady_decode_iterations;
      --steps;
    }
  };

  while (true) {
    double target = std::max(now, stage_free[0]);
    while (next_outage < options_.outages.size() &&
           options_.outages[next_outage].down_s <= target) {
      const ReplicaOutage outage = options_.outages[next_outage++];
      double t_down = std::max(now, outage.down_s);
      deliver_completions(t_down);
      deliver_arrivals(t_down);
      abort_expired(t_down);
      apply_planned(t_down);
      apply_crash(outage);
      target = std::max(target, stage_free[0]);
    }
    now = target;
    deliver_completions(now);
    deliver_arrivals(now);
    abort_expired(now);
    apply_planned(now);

    obs.SetNow(now);
    if (overload_active) {
      if (controller != nullptr) {
        // Roll the TBT window forward; an idle gap spanning several windows
        // resets the signal (no samples -> no pressure).
        if (now >= tbt_window_start + kTbtWindowS) {
          tbt_window_p99 = tbt_window.empty() ? 0.0 : tbt_window.Quantile(0.99);
          double windows = std::floor((now - tbt_window_start) / kTbtWindowS);
          tbt_window_start += windows * kTbtWindowS;
          if (windows > 1.0) {
            tbt_window_p99 = 0.0;
          }
          tbt_window = LogHistogram();
        }
        OverloadSignals signals;
        RequestState* oldest = scheduler->OldestQueued();
        signals.queue_delay_s = oldest != nullptr ? now - oldest->arrival_time_s() : 0.0;
        signals.p99_tbt_s = tbt_window_p99;
        signals.kv_utilization = allocator->Utilization();
        OverloadLevel prev = controller->level();
        OverloadLevel level = controller->Update(now, signals);
        // Every sample, not only on change: the scheduler's budget recovery
        // ramps down across repeated SetOverloadLevel calls.
        scheduler->SetOverloadLevel(level);
        if (level != prev) {
          if (tracer != nullptr) {
            tracer->Instant("overload", "overload_level", now,
                            {Arg("level", std::string(OverloadLevelName(level))),
                             Arg("queue_delay_s", signals.queue_delay_s),
                             Arg("p99_tbt_s", signals.p99_tbt_s),
                             Arg("kv_utilization", signals.kv_utilization)});
          }
          if (metrics != nullptr) {
            metrics->SetGauge("overload_level", now,
                              static_cast<double>(static_cast<int>(level)));
          }
          if (flight != nullptr) {
            flight->RecordCounter("overload", "overload_level", now, fpid,
                                  static_cast<double>(static_cast<int>(level)));
            if (level > prev && level >= OverloadLevel::kBrownout) {
              flight->Trigger(level >= OverloadLevel::kShed ? "overload_shed"
                                                            : "overload_brownout",
                              now, fpid);
            }
          }
        }
      }
      if (codel != nullptr) {
        // CoDel bounded queue: drop from the head while the controller says
        // the standing delay warrants it. An ineligible head (planned abort,
        // sampling parent) pauses dropping entirely — conservative, and those
        // requests are rare and cluster-managed.
        while (true) {
          RequestState* oldest = scheduler->OldestQueued();
          if (oldest == nullptr || oldest->slot() < 0 ||
              !overload_eligible(static_cast<size_t>(oldest->slot()))) {
            break;
          }
          if (!codel->ShouldDrop(now - oldest->arrival_time_s(), now)) {
            break;
          }
          size_t idx = static_cast<size_t>(oldest->slot());
          CHECK(scheduler->Abort(oldest));
          ++result.num_shed_queue;
          mark_shed(idx, now, "shed_queue", 0.0, 0.0);
        }
      }
    }
    ScheduledBatch batch = scheduler->Schedule();
    result.peak_kv_blocks = std::max(result.peak_kv_blocks, allocator->used_units());
    if (batch.empty()) {
      double next_event = kInfinity;
      if (next_arrival < trace.size()) {
        next_event = std::min(next_event, trace.requests[next_arrival].arrival_time_s);
      }
      for (const auto& f : in_flight) {
        next_event = std::min(next_event, f.exit_s);
      }
      bool pending_work = scheduler->HasWork() || !in_flight.empty() ||
                          next_arrival < trace.size();
      if (pending_work && next_outage < options_.outages.size()) {
        next_event = std::min(next_event, options_.outages[next_outage].down_s);
      }
      if (deadline_cursor < deadline_queue.size() && pending_work) {
        next_event = std::min(next_event, deadline_queue[deadline_cursor].first);
      }
      if (planned_cursor < planned_queue.size() && pending_work) {
        next_event = std::min(next_event, planned_queue[planned_cursor].first);
      }
      if (codel != nullptr && scheduler->queue_size() > 0) {
        // A standing queue with an empty batch (KV-blocked) still needs the
        // CoDel clock to advance so drops can relieve the pressure.
        RequestState* oldest = scheduler->OldestQueued();
        if (oldest != nullptr && oldest->slot() >= 0 &&
            overload_eligible(static_cast<size_t>(oldest->slot()))) {
          next_event = std::min(next_event, now + overload.codel_interval_s);
        }
      }
      if (next_event == kInfinity) {
        CHECK(!scheduler->HasWork())
            << scheduler->name() << " deadlocked: " << scheduler->queue_size()
            << " requests waiting, " << scheduler->running().size()
            << " running, nothing schedulable";
        break;  // All requests drained.
      }
      now = std::max(now, next_event);
      continue;
    }

    double exit = launch_batch(batch, batch.NumPrefillTokens(), now);
    in_flight.push_back(InFlightBatch{std::move(batch), now, exit});
    if (run_ahead && scheduler->IsSteadyDecodeBatch(in_flight.back().batch)) {
      run_steady_span(in_flight.back());
    }
  }

  if (prefix_cache != nullptr) {
    const PrefixCachingAllocator::CacheStats& cache_stats = prefix_cache->stats();
    result.prefix_lookups = cache_stats.lookups;
    result.prefix_hits = cache_stats.hits;
    result.cached_prefill_tokens = cache_stats.cached_tokens;
    result.prefix_evictions = cache_stats.evictions;
    result.peak_cached_blocks = cache_stats.peak_cached_blocks;
    // Drain retained blocks before the end-of-run audit: with the cache
    // empty, a leak-free run must account for every block exactly like the
    // plain paged manager does.
    prefix_cache->DrainCache();
  }
  if (checker != nullptr) {
    checker->EndRun();
  }
  // Slowdown episodes that overlapped the run, clipped to the last exit so
  // degraded_s measures wall-clock the workload actually spent degraded.
  for (const SlowdownEpisode& episode : options_.slowdowns) {
    if (episode.start_s > last_exit) {
      break;
    }
    double clipped_end = std::min(episode.end_s, last_exit);
    ++result.num_slowdown_episodes;
    result.degraded_s += clipped_end - episode.start_s;
    if (tracer != nullptr) {
      tracer->Complete("fault", "slowdown", episode.start_s, clipped_end - episode.start_s,
                       num_stages, {Arg("factor", episode.factor)});
      tracer->Instant("fault", "degrade_begin", episode.start_s, {Arg("factor", episode.factor)});
      tracer->Instant("fault", "degrade_end", clipped_end);
    }
    if (metrics != nullptr) {
      metrics->AddCount("slowdown_episodes", episode.start_s);
    }
  }
  if (controller != nullptr) {
    result.overload_transitions = controller->transitions();
  }
  result.num_preemptions = scheduler->preemption_count() + crash_recomputes;
  result.peak_flops = engine_->cost_model().PeakFlops();
  result.peak_bandwidth = engine_->cost_model().PeakBandwidth();
  result.makespan_s = last_exit;
  result.active_window_s = first_start < 0.0 ? 0.0 : last_exit - first_start;
  result.total_kv_blocks = allocator->total_units();
  if (metrics != nullptr) {
    metrics->Finalize(result.makespan_s);
  }
  if (slo_monitor != nullptr) {
    // Close out the burn-rate windows so trailing badness still alerts.
    slo_monitor->AdvanceTo(result.makespan_s);
  }
  return result;
}

}  // namespace sarathi
