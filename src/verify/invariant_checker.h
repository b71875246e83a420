// Runtime invariant checker: machine-checks the paper's load-bearing
// scheduling and memory guarantees on every iteration of a simulation run.
//
// The checker attaches to a driver through two channels:
//  - ObsHooks::verify (the VerifyHook interface) delivers semantic scheduler
//    and allocator transitions (enqueue/admit/preempt/abort/finish,
//    kv admit/append/fork/cow/release), from which the checker maintains
//    per-request shadow state and a shadow set of live KV sequences.
//  - The driver calls OnBatchScheduled / OnBatchApplied / OnBatchDiscarded /
//    BeginRun / EndRun directly at the corresponding points of its event
//    loop (ReplicaSimulator does this when SimulatorOptions::checker is set).
//
// Invariants checked (paper references in docs/verification.md):
//  - token budget (§4.3):      a batch carrying prefill tokens never exceeds
//                              the budget a policy declares via
//                              Scheduler::guarantees().
//  - stall-free batching (§4.2): no unlocked decode-ready running request is
//                              left out of a prefill-carrying batch while
//                              batch slots and KV memory remain.
//  - token conservation:       scheduled prefill/decode tokens equal each
//                              request's observed progress, across
//                              preemption-recompute and crash-recompute.
//  - KV conservation:          allocator self-audit (refcounts, free list,
//                              used + free == total) plus a live-sequence
//                              cross-check; zero sequences and zero used
//                              units at end of run. Per batch the audit is
//                              KvAllocator::AuditChanges, which costs what
//                              the batch changed and gives the full audit's
//                              verdict.
//  - clock monotonicity:       schedule times and batch exits never move
//                              backwards within a run.
//  - batch sanity:             no duplicate or locked-in-flight requests in
//                              a batch, decode items are prefill-complete,
//                              prefill chunks fit the remaining prompt.
//  - migration conservation:   a live-migrated request is adopted with its
//                              prompt KV complete, its generated tokens
//                              intact (> 0, < output), and a prefill target
//                              equal to the prompt — i.e. the migration
//                              itself never recomputes or loses tokens.
//  - prefix-cache conservation: the radix index's structural self-audit
//                              (PrefixCachingAllocator::AuditCache) — every
//                              cached block holds the index's reference, a
//                              chain reference always covers its ancestors,
//                              and eviction never frees a block a live
//                              sequence or pin still maps. Runs alongside
//                              the KV audit on every batch; trivially clean
//                              for non-caching allocators.
//  - no starvation (QoS lanes): when a policy declares a batch_aging_s bound,
//                              no batch-lane request is bypassed at admission
//                              by an interactive request that was enqueued
//                              after it and arrived more than the bound
//                              later. Preemption-driven re-admissions are
//                              exempt (they legitimately rejoin at the queue
//                              front). Additionally, kAbort cross-checks that
//                              the aborted request holds no live KV — the
//                              per-request form of the end-of-run zero-leak
//                              gate, which is what makes overload shedding
//                              provably clean.
//
// Violations carry the run label, iteration, request id and an expected-vs-
// observed message. By default they accumulate (ok()/Report()); with
// Options::fatal they abort immediately — the mode tests and the fuzzer use.
// A disabled checker (null pointer) costs one branch per notification site,
// mirroring the Tracer pattern.

#ifndef SRC_VERIFY_INVARIANT_CHECKER_H_
#define SRC_VERIFY_INVARIANT_CHECKER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/memory/kv_allocator.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/verify_hook.h"
#include "src/scheduler/batch.h"
#include "src/scheduler/scheduler.h"

namespace sarathi {

enum class Invariant {
  kTokenBudget,
  kStallFree,
  kTokenConservation,
  kKvConservation,
  kClockMonotonic,
  kBatchSanity,
  kMigrationConservation,
  kNoStarvation,
  kPrefixCache,
  kPartitionConservation,
};

std::string_view InvariantName(Invariant invariant);

// Everything the router reconciled for one request caught on the far side of
// a network partition: the far (partitioned) attempt kept executing while a
// duplicate was redispatched near-side, and at rejoin exactly one of them may
// reach the client. The cluster simulator feeds this record into
// InvariantChecker::CheckPartitionReconcile after every reconciliation.
struct PartitionReconcile {
  int64_t request_id = -1;
  // The ground-truth partition window of the far replica.
  double partition_begin_s = 0.0;
  double partition_end_s = 0.0;
  // True when the far-side attempt won (its completion reached the client
  // first, counting delivery deferral); false when the duplicate won.
  bool winner_far = false;
  // The winning attempt's client-visible token stream and completion, after
  // delivery deferral (far-side emissions inside the window deliver at
  // partition_end_s).
  std::vector<double> winner_token_times_s;
  double winner_completion_s = 0.0;
  // The merged stream actually delivered to the client.
  std::vector<double> delivered_token_times_s;
  double delivered_completion_s = 0.0;
  // True when the losing attempt's completion was suppressed (it must be
  // whenever both attempts ran to completion).
  bool loser_suppressed = false;
  bool loser_completed = false;
  // The request's requested output length: an upper bound on delivery.
  int64_t output_tokens = 0;
};

struct Violation {
  Invariant invariant = Invariant::kBatchSanity;
  std::string run;          // Label passed to BeginRun.
  int64_t iteration = 0;    // Iterations scheduled in the run so far.
  int64_t request_id = -1;  // -1 when not tied to one request.

  // Expected-vs-observed explanation, e.g. "batch carries 513 tokens with
  // prefill work but the declared token budget is 512".
  std::string message;

  // One-line human-readable rendering of all of the above.
  std::string Render() const;
};

class InvariantChecker final : public VerifyHook {
 public:
  struct Options {
    // Abort (LOG(Fatal)) on the first violation instead of accumulating.
    bool fatal = false;
    // Cap on accumulated violations; further ones are counted but dropped.
    int64_t max_violations = 64;
  };

  InvariantChecker();  // Default options: accumulate, cap at 64.
  explicit InvariantChecker(Options options);

  // Binds the checker to one simulation run and resets per-run shadow state.
  // Violations accumulate across runs (each tagged with its run label), so
  // one checker can ride through a whole cluster simulation or fuzz matrix.
  // The scheduler and allocator must outlive the run.
  void BeginRun(const Scheduler* scheduler, const KvAllocator* allocator,
                std::string label);

  // Driver callbacks, in event-loop order:
  //  OnBatchScheduled — right after Schedule() returned a non-empty batch,
  //                     before the driver locks the items.
  //  OnBatchApplied   — right after OnBatchComplete applied the batch.
  //  OnBatchDiscarded — a crash destroyed the in-flight batch instead.
  void OnBatchScheduled(const ScheduledBatch& batch, double now_s);
  void OnBatchApplied(const ScheduledBatch& batch, double exit_s);
  void OnBatchDiscarded(const ScheduledBatch& batch);

  // Closes the run: no live KV sequences, no used memory, no in-flight
  // batches, every tracked request finished or aborted.
  void EndRun();

  // Partition-reconciliation conservation (the partition_conservation
  // invariant): exactly one attempt's stream reaches the client, token for
  // token, with far-side emissions deferred past the partition window and the
  // losing completion suppressed. Called by the cluster simulator once per
  // reconciled request; standalone replica runs never see it. Safe to call
  // outside BeginRun/EndRun (violations are tagged with the current or last
  // run label).
  void CheckPartitionReconcile(const PartitionReconcile& reconcile);

  // VerifyHook:
  void OnSchedulerEvent(SchedVerifyEvent event, const RequestState* request) override;
  void OnKvEvent(KvVerifyEvent event, int64_t seq_id) override;

  // Flight recorder to fire on the first violation (may be null). Fired
  // before a fatal abort, so the dump survives even in fatal mode.
  void set_flight(FlightRecorder* flight) { flight_ = flight; }

  bool ok() const { return total_violations_ == 0; }
  const std::vector<Violation>& violations() const { return violations_; }
  int64_t total_violations() const { return total_violations_; }
  int64_t iterations_checked() const { return total_iterations_; }
  int64_t runs_checked() const { return runs_; }
  const Options& options() const { return options_; }

  // Folds another checker's accumulated results into this one: retained
  // violations append in the other checker's order (subject to this checker's
  // max_violations cap), and the violation/iteration/run totals add. The
  // sharded cluster engine gives every shard its own checker with the same
  // cap, then merges them back in replica-index order — because each shard
  // appends its violations in replica order and caps at the destination's
  // limit, the merged retained list is byte-identical to what one shared
  // checker would have accumulated serially. Per-run shadow state is not
  // merged (the other checker must have closed its runs via EndRun).
  void MergeFrom(const InvariantChecker& other);

  // Multi-line report: per-invariant counts plus every retained violation.
  std::string Report() const;

 private:
  // Per-request progress mirror, advanced from scheduled batches only.
  // Keyed by RequestState pointer, not id: a cluster retry round re-simulates
  // a replica on a grown sub-trace, so one run can legitimately contain two
  // attempts of the same request id as distinct RequestState objects.
  struct Shadow {
    int64_t id = -1;
    int64_t prompt_tokens = 0;
    int64_t prefill_target = 0;
    int64_t prefill_done = 0;
    int64_t generated = 0;
    bool in_flight = false;    // Inside a scheduled, not-yet-applied batch.
    bool closed = false;       // Finished or aborted.
    bool migrated_in = false;  // Adopted via live migration, no recompute since.
    // QoS no-starvation bookkeeping: lane, arrival, whether the request is
    // currently waiting in the queue, and a monotone enqueue order stamp
    // (retry attempts can be enqueued late with an early arrival time, so
    // arrival alone cannot order admissions).
    bool batch_lane = false;
    double arrival_s = 0.0;
    bool waiting = false;
    int64_t enqueue_seq = -1;
  };

  void AddViolation(Invariant invariant, int64_t request_id, std::string message);
  // Runs the allocator self-audit and the live-sequence cross-check. The
  // self-audit is the allocator's incremental one unless `full` is set or an
  // earlier audit of this run failed.
  void AuditKv(const char* where, bool full);
  // QoS-lane admission-order check (see the no-starvation invariant above);
  // called on every kAdmit with the admitted request's shadow.
  void CheckNoStarvation(const RequestState* request, const Shadow& shadow);
  void CheckBatchSanity(const ScheduledBatch& batch);
  void CheckTokenBudget(const ScheduledBatch& batch);
  void CheckStallFree(const ScheduledBatch& batch);

  Options options_;
  FlightRecorder* flight_ = nullptr;
  std::vector<Violation> violations_;
  int64_t total_violations_ = 0;
  int64_t total_iterations_ = 0;
  int64_t runs_ = 0;

  // ---- Per-run state (reset by BeginRun) ----
  const Scheduler* scheduler_ = nullptr;
  const KvAllocator* allocator_ = nullptr;
  std::string run_label_;
  int64_t iteration_ = 0;
  double last_schedule_s_ = 0.0;
  double last_apply_s_ = 0.0;
  bool any_scheduled_ = false;
  bool any_applied_ = false;
  std::unordered_map<const RequestState*, Shadow> shadows_;
  std::unordered_set<int64_t> live_kv_;
  int64_t enqueue_counter_ = 0;
  // Set by the run's first failed KV self-audit: later ones run in full.
  bool full_kv_audits_ = false;

  // Per-batch scratch of CheckBatchSanity and CheckStallFree, reused so that
  // the checks allocate nothing in steady state.
  std::vector<std::pair<const RequestState*, size_t>> batch_items_scratch_;
  std::vector<const RequestState*> batch_requests_scratch_;
};

}  // namespace sarathi

#endif  // SRC_VERIFY_INVARIANT_CHECKER_H_
