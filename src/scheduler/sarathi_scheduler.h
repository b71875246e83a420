// Sarathi-Serve: stall-free batching with chunked prefills (paper §4,
// Algorithm 3).
//
// Every iteration first packs all running decodes, then at most the leftover
// token budget's worth of prefill chunks — first from partially-prefilled
// running requests, then from newly admitted ones. Decodes therefore never
// wait behind a prefill (stall-freedom), and iteration compute stays close to
// the budget (uniform batches, which is what kills pipeline bubbles in §5.3).
//
// The two ablation switches in SchedulerConfig degrade this policy into the
// paper's Table 4 baselines.

#ifndef SRC_SCHEDULER_SARATHI_SCHEDULER_H_
#define SRC_SCHEDULER_SARATHI_SCHEDULER_H_

#include "src/scheduler/scheduler.h"

namespace sarathi {

class SarathiScheduler : public Scheduler {
 public:
  SarathiScheduler(const SchedulerConfig& config, KvAllocator* allocator);

  std::string name() const override;

  // Full Sarathi promises both the token budget and stall-freedom; the
  // Table 4 ablations each forfeit the property they disable (whole prompts
  // ignore the budget; chunked-prefills-only batches exclude decodes). VTC
  // inherits these through its Sarathi packing.
  SchedulerGuarantees guarantees() const override {
    SchedulerGuarantees g;
    g.token_budget = config_.enable_chunking ? current_budget_ : -1;
    g.stall_free = config_.enable_hybrid;
    // Admission follows Enqueue's lane-ordered queue, so the QoS
    // no-starvation bound holds whenever lanes are on. (VTC overrides this
    // away: virtual-counter priority legitimately reorders across lanes.)
    g.batch_aging_s = config_.qos_lanes ? config_.batch_aging_s : -1.0;
    return g;
  }

  // Overload-controller feedback: at kThroughput and above the working budget
  // grows toward max_token_budget (throughput mode — §5.1's budget knob traded
  // against TBT); on recovery it eases back toward the configured budget one
  // halving step per update rather than snapping, so TBT improves without a
  // latency cliff in reverse.
  void SetOverloadLevel(OverloadLevel level) override;

  ScheduledBatch Schedule() override;

  // Hybrid batching packs every running decode first, so with an empty queue
  // an all-decode batch of the whole running set, in running_ order,
  // repeats. A static budget is required: the dynamic controller moves the
  // budget after every iteration. (VTC inherits this: its queue reordering
  // is a no-op on an empty queue, and its counters advance in
  // OnBatchComplete, which the driver still calls per step.)
  bool IsSteadyDecodeBatch(const ScheduledBatch& batch) const override;

  // Dynamic-budget controller (active when
  // config.dynamic_budget_tbt_slo_s > 0): AIMD adjustment of the working
  // budget from observed iteration latency.
  void ObserveIterationTime(const ScheduledBatch& batch, double latency_s) override;

  // The working token budget (== config token_budget unless dynamic).
  int64_t current_budget() const { return current_budget_; }

 private:
  // Chunk size for a request given tokens already claimed this iteration
  // (`get_next_chunk_size` in Algorithm 3). Zero when the budget is spent.
  int64_t NextChunkSize(const RequestState* request, int64_t batch_tokens) const;

  // Appends decode items for every unlocked running decode-ready request.
  void PackDecodes(ScheduledBatch* batch, int64_t* batch_tokens);

  // Appends chunks of partially-prefilled running requests.
  void PackOngoingPrefills(ScheduledBatch* batch, int64_t* batch_tokens);

  // Admits and chunks new requests while budget, batch slots and memory last.
  void PackNewRequests(ScheduledBatch* batch, int64_t* batch_tokens);

  // Chunked-prefills-only ablation state: alternates decode-only and
  // chunk-only iterations so decodes still interleave between chunks (TBT
  // stays bounded) while prefills lose their piggyback ride (TTFT grows) —
  // the behaviour Table 4 isolates.
  bool last_batch_was_prefill_ = false;

  // Working budget; equals config_.token_budget unless the dynamic
  // controller is active.
  int64_t current_budget_;
};

}  // namespace sarathi

#endif  // SRC_SCHEDULER_SARATHI_SCHEDULER_H_
