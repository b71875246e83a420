// Scheduler interface and shared machinery for all batching policies.
//
// A driver (the replica simulator or the reference server) owns the request
// objects and calls:
//   Enqueue(r)            when a request arrives,
//   Schedule()            whenever execution capacity frees up,
//   OnBatchComplete(b)    when a previously scheduled batch finishes.
// Requests inside an in-flight (pipelined) micro-batch are `locked` by the
// driver and invisible to Schedule() until completion, which is what makes
// iteration-level scheduling compose with pipeline parallelism.

#ifndef SRC_SCHEDULER_SCHEDULER_H_
#define SRC_SCHEDULER_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/memory/kv_allocator.h"
#include "src/obs/obs_hooks.h"
#include "src/scheduler/batch.h"
#include "src/scheduler/request_state.h"

namespace sarathi {

// Which batching policy to instantiate (see scheduler_factory.h).
enum class SchedulerPolicy {
  kSarathi,            // Chunked prefills + stall-free batching (Algorithm 3).
  kVllm,               // Iteration-level, prefill-prioritizing, no hybrid batches (Algorithm 2).
  kOrca,               // Iteration-level, prefill-prioritizing, hybrid batches with full prefills.
  kFasterTransformer,  // Request-level, decode-prioritizing (Algorithm 1).
  kFastServe,          // Skip-join MLFQ, preemptive, JCT-optimizing (§6 related work).
  kVtc,                // Virtual-token-counter fairness over Sarathi batching (§6).
};

std::string_view SchedulerPolicyName(SchedulerPolicy policy);

// Degradation ladder driven by the overload controller (src/robustness),
// mildest to harshest. Each level keeps the mitigations of the ones below:
//  kNormal:     no intervention.
//  kThroughput: grow the Sarathi token budget toward throughput mode; the
//               cluster suspends hedged dispatch.
//  kBrownout:   additionally cap batch-lane output tokens.
//  kShed:       additionally shed batch-lane arrivals outright.
enum class OverloadLevel { kNormal = 0, kThroughput = 1, kBrownout = 2, kShed = 3 };

std::string_view OverloadLevelName(OverloadLevel level);

struct SchedulerConfig {
  SchedulerPolicy policy = SchedulerPolicy::kSarathi;

  // Maximum sequences per batch.
  int64_t max_batch_size = 128;

  // Sarathi-Serve: per-iteration token budget (tau in Algorithm 3). Derive
  // from the TBT SLO with ComputeTokenBudget() or set to the paper's fixed
  // values (512 strict / 2048 relaxed).
  int64_t token_budget = 512;

  // vLLM/Orca: cap on prefill tokens coalesced into one iteration. The head
  // request is always admitted even if it alone exceeds the cap.
  int64_t max_prefill_tokens = 16384;

  // Sarathi ablations (§5.4.2, Table 4):
  //  enable_chunking=false  -> "hybrid-batching-only": full prompts join the
  //                            decode batch (Orca-style hybrid on paged memory).
  //  enable_hybrid=false    -> "chunked-prefills-only": chunks respect the
  //                            token budget but never share an iteration with
  //                            decodes (prefill-prioritizing).
  bool enable_chunking = true;
  bool enable_hybrid = true;

  // Shave prefill chunks so the batch's *total* token count lands on a
  // multiple of `budget_tile` (§4.3's tile-quantization guidance: GEMM row
  // counts that straddle a tile boundary waste a whole tile of compute —
  // "chunk size 257 can cost 32% more than 256"). With a tile-multiple token
  // budget the exact fill is already aligned; this knob additionally aligns
  // batches that end with a prompt's small final chunk, and rescues
  // deployments configured with an off-tile budget. Shaved tokens simply
  // move to the next iteration.
  bool align_chunks_to_tile = false;

  // FastServe (kFastServe): skip-join MLFQ parameters. Quanta are measured in
  // decode-token equivalents (one prefill token costs 1/prefill_decode_equiv
  // of a decode token's service — the paper's Fig. 4 equivalence). Queue
  // level L grants a quantum of mlfq_base_quantum << L; exhausting it demotes
  // the request one level. Skip-join places arriving requests directly at the
  // first level whose quantum covers their prefill's service demand, so long
  // prompts never hog the top queue.
  int num_mlfq_levels = 4;
  int64_t mlfq_base_quantum = 16;
  int64_t prefill_decode_equiv = 128;

  // VTC (kVtc): per-client weights for fair sharing; clients absent from the
  // map get weight 1.0. Admission order follows the smallest weighted
  // virtual token counter (Sheng et al., §6).
  std::map<int64_t, double> client_weights;

  // Dynamic token budget — the exploration the paper leaves as future work
  // (§5.1: "dynamically varying the token budget based on workload
  // characteristics"). When > 0, the Sarathi scheduler adapts its budget at
  // run time from observed iteration latency: multiplicative decrease when an
  // iteration overshoots this TBT target, additive (one tile) increase when
  // iterations run comfortably below it with the budget binding. The static
  // `token_budget` seeds the controller.
  double dynamic_budget_tbt_slo_s = 0.0;
  int64_t min_token_budget = 128;
  int64_t max_token_budget = 8192;
  int64_t budget_tile = 128;  // Adjustment granularity (tile-aligned, §4.3).

  // QoS lanes (overload control): when true, Enqueue keeps an arriving
  // interactive request ahead of queued batch-lane requests — but never jumps
  // a batch request that has already waited longer than batch_aging_s (the
  // no-starvation promise, judged against the arriving request's arrival
  // time). Off by default; with it off (or with all-interactive traffic)
  // queue order is plain FCFS, exactly as before.
  bool qos_lanes = false;
  double batch_aging_s = 2.0;
};

// The machine-checkable promises a policy makes about the batches it forms.
// Policies declare their own (guarantees()); the invariant checker
// (src/verify) enforces exactly what is declared, so baselines that
// legitimately violate a property (vLLM's unbounded prefill iterations, the
// chunked-prefills-only ablation's decode-free prefill batches) are not
// flagged.
struct SchedulerGuarantees {
  // Per-iteration token ceiling honored whenever the batch contains prefill
  // work (running decodes alone may exceed it — Algorithm 3 packs them
  // unconditionally). -1 = no promise.
  int64_t token_budget = -1;
  // Stall-free batching (§4.2): no unlocked running decode-ready request is
  // ever left out of a batch that carries prefill tokens while batch slots
  // and KV memory remain.
  bool stall_free = false;
  // QoS-lane no-starvation: a batch-lane request is never bypassed at
  // admission by an interactive request that arrived more than this many
  // seconds after it (preemption-driven requeues excepted — they legitimately
  // re-admit at the queue front). Declared only by policies whose admission
  // follows Enqueue's queue order; MLFQ and fairness policies reorder and
  // promise nothing. -1 = no promise.
  double batch_aging_s = -1.0;
};

class Scheduler {
 public:
  Scheduler(const SchedulerConfig& config, KvAllocator* allocator);
  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  virtual std::string name() const = 0;

  // The properties this policy promises to maintain; the default promises
  // nothing. See SchedulerGuarantees.
  virtual SchedulerGuarantees guarantees() const { return {}; }

  // Observability hook shared with the driver (which keeps the clock
  // current). All six policies inherit the base-class emission points
  // (enqueue/admit/preempt/abort/finish + queue-depth gauges); policies with
  // extra state (e.g. Sarathi's dynamic token budget) emit their own series.
  void set_obs(ObsHooks* obs) { obs_ = obs; }

  // Adds an arrived request to the wait queue: FCFS, except that with
  // config().qos_lanes an interactive arrival is inserted ahead of not-yet
  // aged batch-lane requests (see SchedulerConfig::batch_aging_s).
  void Enqueue(RequestState* request);

  // Overload-controller feedback (default: record only). The Sarathi policy
  // additionally grows its token budget toward throughput mode at
  // kThroughput+ and eases it back down on recovery. Called by the driver at
  // every controller update, so overrides must be cheap and idempotent.
  virtual void SetOverloadLevel(OverloadLevel level) { overload_level_ = level; }
  OverloadLevel overload_level() const { return overload_level_; }

  // Adopts an already-admitted sequence directly into the running set —
  // used for forked siblings (parallel sampling) whose KV memory was
  // reserved via PagedBlockManager::Fork rather than Admit.
  void AdoptRunning(RequestState* request);

  // Adopts a live-migrated request: its prefill is complete and it already
  // generated tokens elsewhere (RequestState::RestoreFromMigration), so this
  // replica admits KV for the transferred prompt+generated context and the
  // request resumes decoding with zero recompute. Returns false — leaving the
  // request untouched — when the allocator cannot hold the restored context;
  // the caller then falls back to ResetForRecompute + Enqueue.
  bool AdoptMigrated(RequestState* request);

  // Forms the next batch from unlocked work. An empty batch means nothing is
  // currently schedulable (queue empty or blocked, running set locked).
  virtual ScheduledBatch Schedule() = 0;

  // Applies the effects of a completed batch: prefill progress, decode token
  // emission, KV growth, and release of finished requests.
  virtual void OnBatchComplete(const ScheduledBatch& batch);

  // Cancels a request wherever it lives: removed from the wait queue, or
  // evicted from the running set with all its KV blocks released. The request
  // transitions to kFailed; callers re-routing it elsewhere reset it via
  // ResetForRecompute. Locked requests (inside an in-flight micro-batch)
  // cannot be aborted — the driver must wait for the batch to exit. Returns
  // false if the request is unknown to this scheduler (already finished, or
  // never enqueued).
  virtual bool Abort(RequestState* request);

  // Aborts every waiting and unlocked running request (replica teardown on a
  // crash). Returns the aborted requests, wait-queue members first.
  std::vector<RequestState*> DrainAll();

  // Latency feedback from the driver: end-to-end execution time of a batch
  // this scheduler produced. Default no-op; the dynamic-budget controller
  // hooks in here.
  virtual void ObserveIterationTime(const ScheduledBatch& batch, double latency_s) {
    (void)batch;
    (void)latency_s;
  }

  // Returns a finished batch's storage to the scheduler so the next
  // Schedule() call can reuse its capacity instead of reallocating. Optional:
  // drivers that skip it only lose the allocation-free hot loop.
  void RecycleBatch(ScheduledBatch&& batch);

  // Steady-decode run-ahead hook. True when `batch`, just scheduled, is
  // steady: if it completes with no request finishing, no request arriving,
  // aborting or changing level, and every item able to append its next KV
  // token without preemption, the next Schedule() forms the same batch again
  // and changes nothing but those appends. A driver may then complete and
  // relaunch `batch` itself, making each item's AppendToken in item order,
  // instead of calling Schedule(), and may apply several completions at
  // once through OnDecodeSteps without ObserveIterationTime, which must
  // ignore a steady batch. Off by default.
  virtual bool IsSteadyDecodeBatch(const ScheduledBatch& batch) const {
    (void)batch;
    return false;
  }

  // Applies `steps` back-to-back completions of a steady decode batch, with
  // the effects of that many OnBatchComplete calls. No request may finish
  // before the last of them. The default makes the calls.
  virtual void OnDecodeSteps(const ScheduledBatch& batch, int64_t steps) {
    for (int64_t s = 0; s < steps; ++s) {
      OnBatchComplete(batch);
    }
  }

  // True if any request is waiting or running.
  bool HasWork() const { return !queue_.empty() || !running_.empty(); }

  size_t queue_size() const { return queue_.size(); }
  // Oldest-arrival waiting request (nullptr when the queue is empty) and the
  // total prefill work still queued — the overload controller's queue-delay
  // signal and the admission predictor's backlog term. O(queue) scans.
  RequestState* OldestQueued() const;
  int64_t QueuedPrefillTokens() const;
  const std::vector<RequestState*>& running() const { return running_; }
  const SchedulerConfig& config() const { return config_; }
  int64_t preemption_count() const { return preemption_count_; }
  int64_t abort_count() const { return abort_count_; }

 protected:
  // An empty batch backed by recycled storage when available (see
  // RecycleBatch). Policies build every batch through this.
  ScheduledBatch NewBatch();

  // Copies running_ into a reused member buffer and returns it — for
  // iteration orders that must survive mid-loop preemption without a fresh
  // heap snapshot per call. Invalidated by the next RunningSnapshot call.
  const std::vector<RequestState*>& RunningSnapshot();

  // Admits the queue head into the running set, reserving its KV. The caller
  // must have checked CanAdmit.
  RequestState* AdmitHead();

  // Whether the queue head can be admitted right now.
  bool CanAdmitHead() const;

  // Reserves the KV slot for `request`'s next decode token *now* (so block
  // accounting within one batch is exact even when many decodes cross block
  // boundaries together), preempting the latest-admitted unlocked running
  // request if memory is exhausted (vLLM recompute-style). Requests already
  // packed into `batch` are never chosen as victims. Returns false if space
  // could not be made without touching `request` itself, locked requests, or
  // batch members; no slot is consumed in that case.
  bool PrepareDecodeSlot(RequestState* request, const ScheduledBatch& batch);

  // Releases a finished request's memory and removes it from running_.
  void FinishRequest(RequestState* request);

  // Removes `request` from running_, releases KV, resets it for
  // recomputation and reinserts it at the front of the wait queue.
  void Preempt(RequestState* request);

  // Emits a scheduler-category instant for `request` plus refreshed
  // queue-depth/running gauges. No-op without obs hooks.
  void EmitSchedulerObs(const char* event, const RequestState* request);

  // Notifies an attached invariant checker of a state transition. No-op
  // without a verify hook (one branch).
  void NotifyVerify(SchedVerifyEvent event, const RequestState* request);

  SchedulerConfig config_;
  KvAllocator* allocator_;
  ObsHooks* obs_ = nullptr;
  std::deque<RequestState*> queue_;     // Waiting, FCFS.
  std::vector<RequestState*> running_;  // Admitted, in admission order.
  int64_t preemption_count_ = 0;
  int64_t abort_count_ = 0;
  OverloadLevel overload_level_ = OverloadLevel::kNormal;

 private:
  std::vector<std::vector<BatchItem>> spare_batch_items_;  // Recycled capacity.
  std::vector<RequestState*> running_snapshot_;
};

}  // namespace sarathi

#endif  // SRC_SCHEDULER_SCHEDULER_H_
