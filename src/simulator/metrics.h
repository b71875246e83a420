// Metric records produced by simulation runs.
//
// The paper's two latency metrics (§2.4): TTFT — arrival to first output
// token — and TBT — gap between consecutive output tokens of one request.
// Evaluation uses median TTFT and P99 TBT plus a sustainability check on
// median scheduling delay (§5.1).

#ifndef SRC_SIMULATOR_METRICS_H_
#define SRC_SIMULATOR_METRICS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/stats.h"
#include "src/workload/trace.h"

namespace sarathi {

// Why a request permanently failed (fault-injection runs only).
enum class FailureKind {
  kNone = 0,
  kTimeout,        // Client deadline expired before completion.
  kReplicaCrash,   // Interrupted by a replica failure; retries (if any) exhausted.
  kShed,           // Rejected by cluster admission control before any service.
  kMigrated,       // Attempt checkpointed for live KV migration (not a client failure).
  kDegradedDrain,  // Attempt drained off a degraded replica for recompute failover.
  kHedgeCancelled, // Attempt lost a hedged-dispatch race and was cancelled.
};

std::string_view FailureKindName(FailureKind kind);

struct RequestMetrics {
  int64_t id = 0;
  double arrival_s = 0.0;
  // Overload-control lane the request ran in; SLO policies filter on it.
  QosClass qos = QosClass::kInteractive;
  // First time any chunk of the request was scheduled (-1 until then).
  double first_scheduled_s = -1.0;
  // Emission time of each output token (index 0 is the TTFT point).
  std::vector<double> token_times_s;
  double completion_s = -1.0;
  int64_t preemptions = 0;

  // ---- Fault accounting ----
  // Client deadline relative to arrival (0 = none). Used for goodput.
  double deadline_s = 0.0;
  // Time the request permanently failed (-1 = did not fail).
  double failed_s = -1.0;
  FailureKind failure = FailureKind::kNone;
  // Times the cluster re-routed the request to another replica after a crash.
  int64_t retries = 0;

  // ---- Gray-failure accounting ----
  // Token positions computed more than once on the request's behalf:
  // preemption/crash recompute plus duplicated service from drained or
  // hedge-cancelled attempts.
  int64_t wasted_tokens = 0;
  // Speculative duplicate dispatches issued for this request.
  int64_t hedges = 0;
  // Live KV migrations this request went through.
  int64_t migrations = 0;

  // ---- Prefix-cache accounting ----
  // Prompt tokens served from the radix prefix cache at admission (KV mapped
  // from retained blocks; prefill skipped them entirely).
  int64_t cached_prefill_tokens = 0;

  bool completed() const { return completion_s >= 0.0; }
  bool failed() const { return failed_s >= 0.0; }
  // Completed in time: within the deadline when one exists.
  bool good() const {
    return completed() && (deadline_s <= 0.0 || completion_s - arrival_s <= deadline_s);
  }
  double Ttft() const { return token_times_s.empty() ? -1.0 : token_times_s.front() - arrival_s; }
  double SchedulingDelay() const {
    return first_scheduled_s < 0.0 ? -1.0 : first_scheduled_s - arrival_s;
  }
  // Gaps between consecutive output tokens.
  std::vector<double> TbtSamples() const;
  size_t NumTbtSamples() const {
    return token_times_s.empty() ? 0 : token_times_s.size() - 1;
  }
  // Appends the gaps to `out` (no allocation when it has the capacity).
  void AppendTbtSamples(std::vector<double>* out) const;
};

// One scheduled iteration, for schedule traces and bubble analyses.
struct IterationRecord {
  double start_s = 0.0;       // Entry into the first pipeline stage.
  double stage_time_s = 0.0;  // Per-stage execution time.
  double exit_s = 0.0;        // Exit from the last stage.
  std::string description;    // ScheduledBatch::Describe().
  int64_t total_tokens = 0;
  int64_t num_decodes = 0;
  int64_t prefill_tokens = 0;
};

// One correlated failure domain's status row (cluster runs with failure
// domains configured; empty otherwise).
struct DomainStatus {
  int domain = 0;
  int num_replicas = 0;     // Members assigned to the domain.
  int64_t crashes = 0;      // Whole-domain crash faults.
  int64_t partitions = 0;   // Whole-domain partition faults.
  double down_s = 0.0;         // Summed member wall-clock lost to crashes.
  double partitioned_s = 0.0;  // Summed member wall-clock spent unreachable.
};

struct SimResult {
  std::string scheduler_name;

  std::vector<RequestMetrics> requests;
  // Populated only when SimulatorOptions::record_iterations is set.
  std::vector<IterationRecord> iterations;

  int64_t num_iterations = 0;
  // Of num_iterations, those the replica loop ran ahead as steady decode
  // steps without re-scheduling (ReplicaSimulator). A cost counter, not a
  // result: it differs between the fast and the reference paths, and no
  // telemetry file writes it.
  int64_t steady_decode_iterations = 0;
  // Of those, the steps run in bulk chunks between KV events (the same kind
  // of counter).
  int64_t chunked_decode_iterations = 0;
  int64_t num_preemptions = 0;
  double makespan_s = 0.0;  // Last completion time.

  // Pipeline accounting over the active window (first batch start to last
  // batch exit).
  std::vector<double> stage_busy_s;
  double active_window_s = 0.0;

  int64_t total_output_tokens = 0;
  int64_t total_prefill_tokens = 0;

  // ---- Fault accounting ----
  // Tokens emitted by attempts that later failed (streamed, then the replica
  // crashed or the client timed out); never silently dropped from totals.
  int64_t lost_output_tokens = 0;
  // Requests rejected by cluster admission control.
  int64_t num_shed = 0;
  // Replica crash/recovery cycles observed during the run, and the summed
  // wall-clock the replicas spent down. Per-replica breakdown in
  // replica_downtime_s (cluster runs concatenate one entry per replica).
  int64_t num_outages = 0;
  double downtime_s = 0.0;
  std::vector<double> replica_downtime_s;

  // KV-cache high-water mark: peak allocation units in use over the run and
  // the allocator's capacity (physical blocks for paged policies, reserved
  // token slots for the Orca-style reservation allocator). Cluster runs sum
  // both across replicas.
  int64_t peak_kv_blocks = 0;
  int64_t total_kv_blocks = 0;

  // ---- Prefix-cache accounting (kPagedCached runs; zero otherwise) ----
  // Admission-time lookups against the radix index, how many matched at
  // least one full block, the prompt tokens those matches covered (work the
  // prefill never performed), LRU evictions forced by allocation pressure,
  // and the high-water mark of blocks retained by the cache. Cluster runs
  // sum all five across replicas.
  int64_t prefix_lookups = 0;
  int64_t prefix_hits = 0;
  int64_t cached_prefill_tokens = 0;
  int64_t prefix_evictions = 0;
  int64_t peak_cached_blocks = 0;

  // ---- Gray-failure accounting ----
  // Slowdown episodes that affected the run, the wall-clock spent degraded,
  // and the iterations actually stretched (episodes plus transient jitter).
  int64_t num_slowdown_episodes = 0;
  double degraded_s = 0.0;
  int64_t degraded_iterations = 0;
  // Health-prober state transitions (healthy<->degraded<->down).
  int64_t probe_transitions = 0;
  // Hedged dispatch: duplicates issued, races the hedge won, loser attempts
  // cancelled mid-service (the rest lost the race after finishing).
  int64_t hedges_issued = 0;
  int64_t hedges_won = 0;
  int64_t hedges_cancelled = 0;
  // Live KV migrations: completed transfers, planned checkpoints that never
  // fired (the request finished first), recompute-failover drains, and bytes
  // moved over the migration link.
  int64_t migrations = 0;
  int64_t migrations_cancelled = 0;
  int64_t drain_failovers = 0;
  int64_t migrated_kv_bytes = 0;

  // ---- Overload-control accounting ----
  // Replica-level mitigations: arrivals shed at the door (TTFT-infeasible
  // under SLO-aware admission, or batch-lane at the shed rung), queued
  // requests dropped by the CoDel bounded queue, batch-lane arrivals whose
  // output was capped by a brownout, and ladder level changes. Cluster-level
  // storm damping: retries denied by the token-bucket retry budget, hedges
  // suppressed under backpressure, and routing decisions that skipped a
  // backpressured replica. (num_shed above stays the router-level count.)
  int64_t num_shed_admission = 0;
  int64_t num_shed_queue = 0;
  int64_t num_browned_out = 0;
  int64_t overload_transitions = 0;
  int64_t num_retries_denied = 0;
  int64_t num_hedges_suppressed = 0;
  int64_t num_backpressure_skips = 0;

  // ---- Cascade-resilience accounting ----
  // Correlated failure-domain events observed during the run (crash +
  // partition), and the summed wall-clock replicas spent partitioned
  // (unreachable but executing). Per-domain breakdown in `domains`.
  int64_t num_domain_faults = 0;
  int64_t num_partitions = 0;
  double partitioned_s = 0.0;
  // Requests whose in-flight far-side attempt was redispatched when the
  // router declared its replica unreachable, and how many of those were
  // reconciled at rejoin (duplicate-completion suppression applied).
  int64_t partition_redispatches = 0;
  int64_t partition_reconciled = 0;
  // Cascade breaker: arrivals/retries shed while engaged, and total time the
  // breaker spent engaged.
  int64_t cascade_sheds = 0;
  double cascade_engaged_s = 0.0;
  // Slow-start: routing decisions deferred or admitted under a rejoining
  // replica's ramp.
  int64_t slow_start_admits = 0;
  // Client timeout-retries re-offered to the cluster (the metastable
  // amplification source; 0 unless ClusterOptions::timeout_retry_max > 0).
  int64_t timeout_retries = 0;
  // Per-domain breakdown; empty when no failure domains are configured.
  std::vector<DomainStatus> domains;

  // ---- Autoscaling accounting ----
  // Scale decisions (out = opened launches, in = closed or cancelled), the
  // peak number of concurrently provisioned replicas, replica-seconds
  // provisioned over the run, and the GPU-seconds cost proxy (replica-
  // seconds x GPUs per replica — what the fleet bill tracks). All zero when
  // autoscaling is off; peak_provisioned_replicas > 0 marks an autoscaled
  // run, which is what gates the extra telemetry aggregate rows.
  int64_t autoscale_events = 0;
  int64_t autoscale_out = 0;
  int64_t autoscale_in = 0;
  int64_t peak_provisioned_replicas = 0;
  double replica_seconds_provisioned = 0.0;
  double autoscale_cost_gpu_s = 0.0;

  // FLOPs / bytes accounting for Model FLOPs & Bandwidth Utilization (§3.1).
  double total_flops = 0.0;
  double peak_flops = 0.0;  // Aggregate device peak (all GPUs).
  double total_bytes = 0.0;
  double peak_bandwidth = 0.0;  // Aggregate HBM bandwidth (all GPUs).

  // ---- Aggregations ----
  Summary TtftSummary() const;
  Summary TbtSummary() const;
  Summary SchedulingDelaySummary() const;
  Summary LatencySummary() const;  // End-to-end per-request latency.

  double P99Tbt() const;
  double MedianTtft() const;
  double MedianSchedulingDelay() const;

  // Fraction of stage-seconds idle during the active window (the pipeline
  // bubble measure of §3.3/§5.3). Zero when PP=1 and the engine never idles.
  double BubbleFraction() const;

  // Output tokens per second over the makespan.
  double OutputTokenThroughput() const;
  // Completed requests per second over the makespan.
  double RequestThroughput() const;

  // KV-cache high-water mark as a fraction of capacity (0 when unknown).
  double PeakKvUtilization() const;

  // Count of TBT samples exceeding `threshold_s` (generation stalls, Fig 1a).
  int64_t CountStalls(double threshold_s) const;
  // Largest observed TBT.
  double MaxTbt() const;

  // Model FLOPs Utilization over the makespan: achieved FLOPs / peak FLOPs.
  double Mfu() const;
  // Model Bandwidth Utilization over the makespan: bytes moved / peak HBM
  // bandwidth. Decode-heavy serving runs near its bandwidth roof while MFU
  // stays low — the §3.1 asymmetry Sarathi's hybrid batches exploit.
  double Mbu() const;

  // ---- Fault aggregations ----
  // Requests that completed within their deadline (no-deadline requests count
  // when completed at all), and the same per second over the makespan — the
  // cluster-level goodput measure.
  int64_t CountGood() const;
  double Goodput() const;
  // Permanently failed requests, optionally filtered by kind.
  int64_t CountFailed() const;
  int64_t CountFailed(FailureKind kind) const;
  // Total crash-triggered re-routes across all requests.
  int64_t TotalRetries() const;
  // Total token positions computed more than once (sum of per-request
  // wasted_tokens) — the cost a live migration avoids.
  int64_t WastedRecomputeTokens() const;

  // DistServe-style SLO attainment: the fraction of completed requests whose
  // TTFT meets `ttft_slo_s` AND whose every inter-token gap meets
  // `tbt_slo_s`. Pass infinity to ignore a dimension.
  double SloAttainment(double ttft_slo_s, double tbt_slo_s) const;
};

}  // namespace sarathi

#endif  // SRC_SIMULATOR_METRICS_H_
