#include "src/verify/invariant_checker.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/scheduler/request_state.h"

namespace sarathi {

std::string_view InvariantName(Invariant invariant) {
  switch (invariant) {
    case Invariant::kTokenBudget:
      return "token_budget";
    case Invariant::kStallFree:
      return "stall_free";
    case Invariant::kTokenConservation:
      return "token_conservation";
    case Invariant::kKvConservation:
      return "kv_conservation";
    case Invariant::kClockMonotonic:
      return "clock_monotonic";
    case Invariant::kBatchSanity:
      return "batch_sanity";
    case Invariant::kMigrationConservation:
      return "migration_conservation";
    case Invariant::kNoStarvation:
      return "no_starvation";
    case Invariant::kPrefixCache:
      return "prefix_cache";
    case Invariant::kPartitionConservation:
      return "partition_conservation";
  }
  return "unknown";
}

std::string Violation::Render() const {
  std::ostringstream out;
  out << "[" << InvariantName(invariant) << "] run=" << run << " iteration=" << iteration;
  if (request_id >= 0) {
    out << " request=" << request_id;
  }
  out << ": " << message;
  return out.str();
}

InvariantChecker::InvariantChecker() : InvariantChecker(Options()) {}

InvariantChecker::InvariantChecker(Options options) : options_(options) {
  CHECK_GE(options_.max_violations, 0);
}

void InvariantChecker::AddViolation(Invariant invariant, int64_t request_id,
                                    std::string message) {
  Violation violation;
  violation.invariant = invariant;
  violation.run = run_label_;
  violation.iteration = iteration_;
  violation.request_id = request_id;
  violation.message = std::move(message);
  ++total_violations_;
  if (flight_ != nullptr) {
    // Dump the flight ring before a fatal abort can tear the process down;
    // the events preceding the violation are the record worth keeping.
    flight_->Trigger("invariant_violation",
                     std::max(last_schedule_s_, last_apply_s_));
  }
  if (options_.fatal) {
    LOG(Fatal) << "invariant violation: " << violation.Render();
  }
  if (static_cast<int64_t>(violations_.size()) < options_.max_violations) {
    violations_.push_back(std::move(violation));
  }
}

void InvariantChecker::MergeFrom(const InvariantChecker& other) {
  for (const Violation& violation : other.violations_) {
    if (static_cast<int64_t>(violations_.size()) < options_.max_violations) {
      violations_.push_back(violation);
    }
  }
  total_violations_ += other.total_violations_;
  total_iterations_ += other.total_iterations_;
  runs_ += other.runs_;
  if (!other.run_label_.empty()) {
    // Adopt the last run label so violations recorded after the merge (e.g.
    // partition-reconcile checks driven from the router) are tagged exactly
    // as a serial run would have tagged them.
    run_label_ = other.run_label_;
  }
}

void InvariantChecker::CheckPartitionReconcile(const PartitionReconcile& reconcile) {
  const int64_t id = reconcile.request_id;
  // Exactly one completion: whenever both attempts ran to completion, the
  // losing one's completion must have been suppressed before delivery.
  if (reconcile.loser_completed && !reconcile.loser_suppressed) {
    AddViolation(Invariant::kPartitionConservation, id,
                 "duplicate completion: losing attempt finished but was not suppressed");
  }
  // Delivery deferral: a far-side winner's output cannot reach the client
  // strictly inside the partition window — the link was down.
  if (reconcile.winner_far) {
    for (double t : reconcile.delivered_token_times_s) {
      if (t > reconcile.partition_begin_s && t < reconcile.partition_end_s) {
        std::ostringstream out;
        out << "token delivered at " << t << " inside partition window ["
            << reconcile.partition_begin_s << ", " << reconcile.partition_end_s << ")";
        AddViolation(Invariant::kPartitionConservation, id, out.str());
        break;
      }
    }
  }
  // Conservation: the client sees the winning attempt's stream, token for
  // token — nothing lost, nothing double-delivered from merging the two
  // attempts.
  if (reconcile.delivered_token_times_s.size() != reconcile.winner_token_times_s.size()) {
    std::ostringstream out;
    out << "delivered " << reconcile.delivered_token_times_s.size()
        << " tokens but the winning attempt produced "
        << reconcile.winner_token_times_s.size();
    AddViolation(Invariant::kPartitionConservation, id, out.str());
  } else {
    for (size_t i = 0; i < reconcile.delivered_token_times_s.size(); ++i) {
      if (reconcile.delivered_token_times_s[i] != reconcile.winner_token_times_s[i]) {
        std::ostringstream out;
        out << "delivered token " << i << " at " << reconcile.delivered_token_times_s[i]
            << " but the winner emitted it at " << reconcile.winner_token_times_s[i];
        AddViolation(Invariant::kPartitionConservation, id, out.str());
        break;
      }
    }
  }
  if (reconcile.output_tokens > 0 &&
      static_cast<int64_t>(reconcile.delivered_token_times_s.size()) >
          reconcile.output_tokens) {
    std::ostringstream out;
    out << "delivered " << reconcile.delivered_token_times_s.size()
        << " tokens for a request of " << reconcile.output_tokens;
    AddViolation(Invariant::kPartitionConservation, id, out.str());
  }
  for (size_t i = 1; i < reconcile.delivered_token_times_s.size(); ++i) {
    if (reconcile.delivered_token_times_s[i] < reconcile.delivered_token_times_s[i - 1]) {
      std::ostringstream out;
      out << "delivered stream not monotone: token " << i << " at "
          << reconcile.delivered_token_times_s[i] << " precedes token " << i - 1 << " at "
          << reconcile.delivered_token_times_s[i - 1];
      AddViolation(Invariant::kPartitionConservation, id, out.str());
      break;
    }
  }
  if (reconcile.delivered_completion_s > 0.0 &&
      !reconcile.delivered_token_times_s.empty() &&
      reconcile.delivered_completion_s < reconcile.delivered_token_times_s.back()) {
    std::ostringstream out;
    out << "completion delivered at " << reconcile.delivered_completion_s
        << " before the last token at " << reconcile.delivered_token_times_s.back();
    AddViolation(Invariant::kPartitionConservation, id, out.str());
  }
}

void InvariantChecker::BeginRun(const Scheduler* scheduler, const KvAllocator* allocator,
                                std::string label) {
  CHECK(scheduler != nullptr);
  CHECK(allocator != nullptr);
  scheduler_ = scheduler;
  allocator_ = allocator;
  run_label_ = std::move(label);
  iteration_ = 0;
  last_schedule_s_ = 0.0;
  last_apply_s_ = 0.0;
  any_scheduled_ = false;
  any_applied_ = false;
  shadows_.clear();
  live_kv_.clear();
  enqueue_counter_ = 0;
  full_kv_audits_ = false;
  ++runs_;
}

void InvariantChecker::AuditKv(const char* where, bool full) {
  // The incremental audit gives the full audit's verdict at every call (see
  // KvAllocator::AuditChanges); its first failure is re-run in full for the
  // message, and the rest of the run audits in full, so violation counts and
  // messages are those of full audits throughout.
  std::string audit;
  if (!full && !full_kv_audits_) {
    audit = allocator_->AuditChanges();
    full_kv_audits_ = !audit.empty();
  }
  if (full || full_kv_audits_) {
    audit = allocator_->AuditInvariants();
  }
  if (!audit.empty()) {
    AddViolation(Invariant::kKvConservation, -1,
                 std::string("allocator audit failed after ") + where + ": " + audit);
  }
  // Structural self-audit of the radix prefix cache (empty string for
  // allocators without one): retained chains intact, no block cached twice,
  // no eviction of a block a live sequence or pin still maps.
  std::string cache_audit = allocator_->AuditCache();
  if (!cache_audit.empty()) {
    AddViolation(Invariant::kPrefixCache, -1,
                 std::string("prefix-cache audit failed after ") + where + ": " + cache_audit);
  }
  int64_t observed = allocator_->num_sequences();
  auto expected = static_cast<int64_t>(live_kv_.size());
  if (observed != expected) {
    std::ostringstream out;
    out << "after " << where << ": allocator holds " << observed << " sequences but "
        << expected << " were admitted/forked and not released";
    AddViolation(Invariant::kKvConservation, -1, out.str());
  }
}

void InvariantChecker::CheckBatchSanity(const ScheduledBatch& batch) {
  // Items sorted by (request, position): an item repeats its request exactly
  // when its sorted predecessor carries the same request.
  std::vector<std::pair<const RequestState*, size_t>>& by_request = batch_items_scratch_;
  by_request.clear();
  for (size_t i = 0; i < batch.items.size(); ++i) {
    by_request.emplace_back(batch.items[i].request, i);
  }
  std::sort(by_request.begin(), by_request.end());
  for (size_t i = 0; i < batch.items.size(); ++i) {
    const auto& item = batch.items[i];
    if (item.request == nullptr) {
      AddViolation(Invariant::kBatchSanity, -1, "batch item with null request");
      continue;
    }
    const RequestState* request = item.request;
    auto self = std::lower_bound(by_request.begin(), by_request.end(),
                                 std::make_pair(request, i));
    if (self != by_request.begin() && std::prev(self)->first == request) {
      AddViolation(Invariant::kBatchSanity, request->id(),
                   "request appears twice in one batch");
      continue;
    }
    auto it = shadows_.find(request);
    if (it == shadows_.end()) {
      AddViolation(Invariant::kBatchSanity, request->id(),
                   "scheduled without ever being enqueued or adopted");
      continue;
    }
    Shadow& shadow = it->second;
    if (shadow.closed) {
      AddViolation(Invariant::kBatchSanity, request->id(),
                   "scheduled after finishing or aborting");
    }
    if (shadow.in_flight) {
      AddViolation(Invariant::kBatchSanity, request->id(),
                   "scheduled while still inside an in-flight batch");
    }
    if (item.is_decode) {
      if (item.num_tokens != 1) {
        std::ostringstream out;
        out << "decode item carries " << item.num_tokens << " tokens, expected 1";
        AddViolation(Invariant::kBatchSanity, request->id(), out.str());
      }
      if (!request->prefill_complete()) {
        std::ostringstream out;
        out << "decode scheduled with prefill incomplete (" << request->prefill_done()
            << "/" << request->prefill_target() << " tokens)";
        AddViolation(Invariant::kBatchSanity, request->id(), out.str());
      }
    } else {
      if (item.num_tokens <= 0 || item.num_tokens > request->remaining_prefill()) {
        std::ostringstream out;
        out << "prefill chunk of " << item.num_tokens << " tokens, expected 1.."
            << request->remaining_prefill();
        AddViolation(Invariant::kBatchSanity, request->id(), out.str());
      }
    }
    shadow.in_flight = true;
  }
}

void InvariantChecker::CheckTokenBudget(const ScheduledBatch& batch) {
  SchedulerGuarantees guarantees = scheduler_->guarantees();
  if (guarantees.token_budget < 0 || batch.NumPrefillTokens() == 0) {
    return;  // No promise, or a decode-only batch (decodes pack unconditionally).
  }
  if (batch.TotalTokens() > guarantees.token_budget) {
    std::ostringstream out;
    out << "batch carries " << batch.TotalTokens() << " tokens ("
        << batch.NumPrefillTokens() << " prefill + " << batch.NumDecodes()
        << " decode) with prefill work, but the declared token budget is "
        << guarantees.token_budget;
    AddViolation(Invariant::kTokenBudget, -1, out.str());
  }
}

void InvariantChecker::CheckStallFree(const ScheduledBatch& batch) {
  SchedulerGuarantees guarantees = scheduler_->guarantees();
  if (!guarantees.stall_free || batch.NumPrefillTokens() == 0) {
    return;
  }
  // A decode may legitimately be skipped when batch slots or KV memory ran
  // out; only flag skips with slots and memory to spare.
  if (static_cast<int64_t>(batch.items.size()) >= scheduler_->config().max_batch_size) {
    return;
  }
  if (allocator_->total_units() - allocator_->used_units() <= 0) {
    return;
  }
  std::vector<const RequestState*>& in_batch = batch_requests_scratch_;
  in_batch.clear();
  for (const auto& item : batch.items) {
    in_batch.push_back(item.request);
  }
  std::sort(in_batch.begin(), in_batch.end());
  for (const RequestState* request : scheduler_->running()) {
    if (request->locked() || !request->prefill_complete() || request->finished()) {
      continue;
    }
    if (!std::binary_search(in_batch.begin(), in_batch.end(), request)) {
      std::ostringstream out;
      out << "running decode-ready request skipped while the batch carries "
          << batch.NumPrefillTokens() << " prefill tokens, "
          << batch.items.size() << "/" << scheduler_->config().max_batch_size
          << " batch slots used and " << allocator_->total_units() - allocator_->used_units()
          << " KV units free (generation stall, §4.2)";
      AddViolation(Invariant::kStallFree, request->id(), out.str());
    }
  }
}

void InvariantChecker::OnBatchScheduled(const ScheduledBatch& batch, double now_s) {
  CHECK(scheduler_ != nullptr) << "OnBatchScheduled before BeginRun";
  ++iteration_;
  ++total_iterations_;
  if (any_scheduled_ && now_s < last_schedule_s_) {
    std::ostringstream out;
    out << "schedule time moved backwards: " << now_s << "s after " << last_schedule_s_
        << "s";
    AddViolation(Invariant::kClockMonotonic, -1, out.str());
  }
  last_schedule_s_ = now_s;
  any_scheduled_ = true;
  CheckBatchSanity(batch);
  CheckTokenBudget(batch);
  CheckStallFree(batch);
  AuditKv("schedule", /*full=*/false);
}

void InvariantChecker::OnBatchApplied(const ScheduledBatch& batch, double exit_s) {
  CHECK(scheduler_ != nullptr) << "OnBatchApplied before BeginRun";
  if (any_applied_ && exit_s < last_apply_s_) {
    std::ostringstream out;
    out << "batch exit time moved backwards: " << exit_s << "s after " << last_apply_s_
        << "s";
    AddViolation(Invariant::kClockMonotonic, -1, out.str());
  }
  last_apply_s_ = exit_s;
  any_applied_ = true;
  for (const auto& item : batch.items) {
    const RequestState* request = item.request;
    auto it = shadows_.find(request);
    if (it == shadows_.end()) {
      AddViolation(Invariant::kTokenConservation, request->id(),
                   "batch applied for an untracked request");
      continue;
    }
    Shadow& shadow = it->second;
    if (!shadow.in_flight) {
      AddViolation(Invariant::kBatchSanity, request->id(),
                   "batch applied but was never scheduled (or applied twice)");
    }
    shadow.in_flight = false;
    if (item.is_decode) {
      ++shadow.generated;
    } else {
      shadow.prefill_done += item.num_tokens;
      if (shadow.prefill_done > shadow.prefill_target) {
        std::ostringstream out;
        out << "prefill progressed to " << shadow.prefill_done << " of a "
            << shadow.prefill_target << "-token target";
        AddViolation(Invariant::kTokenConservation, request->id(), out.str());
      }
      if (shadow.prefill_done == shadow.prefill_target) {
        ++shadow.generated;  // The final chunk's iteration emits token one.
      }
    }
    if (request->prefill_done() != shadow.prefill_done ||
        request->generated() != shadow.generated) {
      std::ostringstream out;
      out << "progress diverged from scheduled work: expected prefill "
          << shadow.prefill_done << "/" << shadow.prefill_target << " and "
          << shadow.generated << " generated, observed prefill " << request->prefill_done()
          << "/" << request->prefill_target() << " and " << request->generated()
          << " generated";
      AddViolation(Invariant::kTokenConservation, request->id(), out.str());
      // Re-sync so one divergence doesn't cascade into a violation per batch.
      shadow.prefill_target = request->prefill_target();
      shadow.prefill_done = request->prefill_done();
      shadow.generated = request->generated();
    }
  }
  AuditKv("apply", /*full=*/false);
}

void InvariantChecker::OnBatchDiscarded(const ScheduledBatch& batch) {
  CHECK(scheduler_ != nullptr) << "OnBatchDiscarded before BeginRun";
  for (const auto& item : batch.items) {
    auto it = shadows_.find(item.request);
    if (it == shadows_.end()) {
      continue;
    }
    if (!it->second.in_flight) {
      AddViolation(Invariant::kBatchSanity, item.request->id(),
                   "discarded batch was never scheduled");
    }
    it->second.in_flight = false;
  }
}

void InvariantChecker::OnSchedulerEvent(SchedVerifyEvent event, const RequestState* request) {
  CHECK(request != nullptr);
  int64_t id = request->id();
  switch (event) {
    case SchedVerifyEvent::kEnqueue: {
      auto [it, inserted] = shadows_.try_emplace(request);
      Shadow& shadow = it->second;
      // A prefix-cache hit legitimately starts prefill at the matched
      // boundary; anything beyond cached_prefill() is unexplained progress.
      if (request->prefill_done() != request->cached_prefill()) {
        std::ostringstream out;
        out << "enqueued with prefill already at " << request->prefill_done()
            << " tokens, of which only " << request->cached_prefill()
            << " are prefix-cache served";
        AddViolation(Invariant::kTokenConservation, id, out.str());
      }
      if (request->prefill_target() != request->prompt_tokens() + request->generated()) {
        std::ostringstream out;
        out << "enqueued with prefill target " << request->prefill_target()
            << ", expected prompt " << request->prompt_tokens() << " + generated "
            << request->generated() << " (recompute must rebuild generated context)";
        AddViolation(Invariant::kTokenConservation, id, out.str());
      }
      if (!inserted) {
        // Crash-recompute re-enqueue: generation must have been preserved.
        if (shadow.in_flight) {
          AddViolation(Invariant::kBatchSanity, id, "re-enqueued while inside an in-flight batch");
        }
        if (request->generated() != shadow.generated) {
          std::ostringstream out;
          out << "re-enqueued with " << request->generated() << " generated tokens, "
              << shadow.generated << " were emitted";
          AddViolation(Invariant::kTokenConservation, id, out.str());
        }
      }
      shadow.id = id;
      shadow.prompt_tokens = request->prompt_tokens();
      shadow.prefill_target = request->prefill_target();
      shadow.prefill_done = request->prefill_done();
      shadow.generated = request->generated();
      shadow.in_flight = false;
      shadow.closed = false;
      shadow.batch_lane = request->qos() == QosClass::kBatch;
      shadow.arrival_s = request->arrival_time_s();
      shadow.waiting = true;
      shadow.enqueue_seq = ++enqueue_counter_;
      break;
    }
    case SchedVerifyEvent::kAdmit: {
      auto it = shadows_.find(request);
      if (it == shadows_.end()) {
        AddViolation(Invariant::kBatchSanity, id, "admitted without being enqueued");
        break;
      }
      Shadow& shadow = it->second;
      if (shadow.closed) {
        AddViolation(Invariant::kBatchSanity, id, "admitted after finishing or aborting");
      }
      shadow.waiting = false;
      CheckNoStarvation(request, shadow);
      break;
    }
    case SchedVerifyEvent::kAdopt: {
      // Forked sibling: joins post-prefill with the parent's progress.
      Shadow& shadow = shadows_[request];
      shadow.id = id;
      shadow.prompt_tokens = request->prompt_tokens();
      shadow.prefill_target = request->prefill_target();
      shadow.prefill_done = request->prefill_done();
      shadow.generated = request->generated();
      shadow.in_flight = false;
      shadow.closed = false;
      shadow.batch_lane = request->qos() == QosClass::kBatch;
      shadow.arrival_s = request->arrival_time_s();
      shadow.waiting = false;
      if (!request->prefill_complete()) {
        AddViolation(Invariant::kBatchSanity, id, "adopted with prefill incomplete");
      }
      break;
    }
    case SchedVerifyEvent::kAdoptMigrated: {
      // Live-migrated request: the transferred KV must cover the whole prompt
      // and every generated token, and adoption must not schedule recompute.
      Shadow& shadow = shadows_[request];
      shadow.id = id;
      shadow.prompt_tokens = request->prompt_tokens();
      shadow.prefill_target = request->prefill_target();
      shadow.prefill_done = request->prefill_done();
      shadow.generated = request->generated();
      shadow.in_flight = false;
      shadow.closed = false;
      shadow.migrated_in = true;
      shadow.batch_lane = request->qos() == QosClass::kBatch;
      shadow.arrival_s = request->arrival_time_s();
      shadow.waiting = false;
      if (!request->prefill_complete()) {
        AddViolation(Invariant::kMigrationConservation, id,
                     "migrated request adopted with prefill incomplete — the transfer "
                     "must carry the whole prompt KV");
      }
      if (request->generated() <= 0) {
        AddViolation(Invariant::kMigrationConservation, id,
                     "migrated request adopted with zero generated tokens — only "
                     "decoding requests are migrated");
      }
      if (request->generated() >= request->output_tokens()) {
        std::ostringstream out;
        out << "migrated request adopted with generation already complete ("
            << request->generated() << "/" << request->output_tokens() << ")";
        AddViolation(Invariant::kMigrationConservation, id, out.str());
      }
      if (request->prefill_target() != request->prompt_tokens()) {
        std::ostringstream out;
        out << "migrated request adopted with prefill target " << request->prefill_target()
            << " != prompt " << request->prompt_tokens()
            << " — a live migration must not recompute generated context";
        AddViolation(Invariant::kMigrationConservation, id, out.str());
      }
      break;
    }
    case SchedVerifyEvent::kPreempt: {
      auto it = shadows_.find(request);
      if (it == shadows_.end()) {
        AddViolation(Invariant::kBatchSanity, id, "preempted untracked request");
        break;
      }
      Shadow& shadow = it->second;
      if (shadow.in_flight) {
        AddViolation(Invariant::kBatchSanity, id, "preempted while inside an in-flight batch");
      }
      if (request->prefill_done() != 0 ||
          request->prefill_target() != shadow.prompt_tokens + shadow.generated) {
        std::ostringstream out;
        out << "preemption-recompute state wrong: prefill " << request->prefill_done()
            << "/" << request->prefill_target() << ", expected 0/"
            << shadow.prompt_tokens + shadow.generated << " (prompt "
            << shadow.prompt_tokens << " + " << shadow.generated << " generated)";
        AddViolation(Invariant::kTokenConservation, id, out.str());
      }
      shadow.prefill_target = request->prefill_target();
      shadow.prefill_done = 0;
      // A memory-pressure preemption of a migrated-in request is a legitimate
      // recompute; it just forfeits the no-recompute property going forward.
      shadow.migrated_in = false;
      shadow.waiting = true;  // Back at the queue front for re-admission.
      break;
    }
    case SchedVerifyEvent::kAbort: {
      auto it = shadows_.find(request);
      if (it == shadows_.end()) {
        AddViolation(Invariant::kBatchSanity, id, "aborted untracked request");
        break;
      }
      if (it->second.in_flight) {
        AddViolation(Invariant::kBatchSanity, id, "aborted while inside an in-flight batch");
      }
      it->second.closed = true;
      it->second.waiting = false;
      // KV-clean abort: by the time the scheduler reports an abort (overload
      // shed, CoDel drop, timeout, drain), the request's KV must already be
      // released — the per-request form of the end-of-run zero-leak gate.
      if (live_kv_.contains(id)) {
        AddViolation(Invariant::kKvConservation, id,
                     "aborted request still holds a live KV sequence (shed leak)");
      }
      break;
    }
    case SchedVerifyEvent::kFinish: {
      auto it = shadows_.find(request);
      if (it == shadows_.end()) {
        AddViolation(Invariant::kBatchSanity, id, "finished untracked request");
        break;
      }
      if (!request->finished()) {
        std::ostringstream out;
        out << "finish with output incomplete: " << request->generated() << "/"
            << request->output_tokens() << " tokens generated, prefill "
            << request->prefill_done() << "/" << request->prefill_target();
        AddViolation(Invariant::kTokenConservation, id, out.str());
      }
      it->second.closed = true;
      it->second.waiting = false;
      break;
    }
  }
}

void InvariantChecker::CheckNoStarvation(const RequestState* request, const Shadow& shadow) {
  double aging_s = scheduler_->guarantees().batch_aging_s;
  if (aging_s < 0.0 || shadow.batch_lane) {
    return;  // No promise declared, or a batch-lane admission (never a jump).
  }
  if (request->preemptions() > 0) {
    return;  // Preemption re-queues at the front; re-admission is exempt.
  }
  for (const auto& [other, s] : shadows_) {
    if (other == request || !s.waiting || s.closed || !s.batch_lane) {
      continue;
    }
    // Only requests enqueued before this one can be "jumped"; retry attempts
    // enqueue late with their original arrival stamp and don't count.
    if (s.enqueue_seq < shadow.enqueue_seq &&
        request->arrival_time_s() - s.arrival_s > aging_s) {
      std::ostringstream out;
      out << "interactive request admitted past batch-lane request " << s.id
          << " that had already waited " << request->arrival_time_s() - s.arrival_s
          << "s at this request's arrival, beyond the declared " << aging_s
          << "s aging bound";
      AddViolation(Invariant::kNoStarvation, request->id(), out.str());
    }
  }
}

void InvariantChecker::OnKvEvent(KvVerifyEvent event, int64_t seq_id) {
  switch (event) {
    case KvVerifyEvent::kAdmit:
    case KvVerifyEvent::kFork: {
      if (!live_kv_.insert(seq_id).second) {
        AddViolation(Invariant::kKvConservation, seq_id,
                     std::string(KvVerifyEventName(event)) +
                         " of a sequence that is already live");
      }
      break;
    }
    case KvVerifyEvent::kRelease: {
      if (live_kv_.erase(seq_id) == 0) {
        AddViolation(Invariant::kKvConservation, seq_id,
                     "release of a sequence that was never admitted (double free?)");
      }
      break;
    }
    case KvVerifyEvent::kAppend:
    case KvVerifyEvent::kCow: {
      if (!live_kv_.contains(seq_id)) {
        AddViolation(Invariant::kKvConservation, seq_id,
                     std::string(KvVerifyEventName(event)) + " on a dead sequence");
      }
      break;
    }
  }
}

void InvariantChecker::EndRun() {
  CHECK(scheduler_ != nullptr) << "EndRun before BeginRun";
  AuditKv("end of run", /*full=*/true);
  if (allocator_->num_sequences() != 0 || allocator_->used_units() != 0) {
    std::ostringstream out;
    out << "end of run with " << allocator_->num_sequences() << " sequences and "
        << allocator_->used_units() << "/" << allocator_->total_units()
        << " KV units still held (leak)";
    AddViolation(Invariant::kKvConservation, -1, out.str());
  }
  // Reported by (request id, slot), not in the hash order of the states'
  // addresses, so identical runs give identical reports, and keep the same
  // violations under the cap.
  std::vector<std::pair<std::pair<int64_t, int64_t>, const Shadow*>> open;
  for (const auto& [request, shadow] : shadows_) {
    if (shadow.in_flight || !shadow.closed) {
      open.push_back({{shadow.id, request->slot()}, &shadow});
    }
  }
  std::sort(open.begin(), open.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, shadow] : open) {
    if (shadow->in_flight) {
      AddViolation(Invariant::kBatchSanity, shadow->id,
                   "still inside an in-flight batch at end of run");
    }
    if (!shadow->closed) {
      std::ostringstream out;
      out << "neither finished nor aborted at end of run (prefill " << shadow->prefill_done
          << "/" << shadow->prefill_target << ", " << shadow->generated << " generated)";
      AddViolation(Invariant::kTokenConservation, shadow->id, out.str());
    }
  }
}

std::string InvariantChecker::Report() const {
  std::ostringstream out;
  out << "InvariantChecker: " << total_violations_ << " violation(s) across " << runs_
      << " run(s), " << total_iterations_ << " iteration(s) checked\n";
  if (total_violations_ == 0) {
    return out.str();
  }
  constexpr int kNumInvariants = 10;
  int64_t counts[kNumInvariants] = {};
  for (const Violation& violation : violations_) {
    ++counts[static_cast<int>(violation.invariant)];
  }
  for (int i = 0; i < kNumInvariants; ++i) {
    if (counts[i] > 0) {
      out << "  " << InvariantName(static_cast<Invariant>(i)) << ": " << counts[i] << "\n";
    }
  }
  if (total_violations_ > static_cast<int64_t>(violations_.size())) {
    out << "  (" << total_violations_ - static_cast<int64_t>(violations_.size())
        << " further violation(s) dropped past the cap)\n";
  }
  for (const Violation& violation : violations_) {
    out << violation.Render() << "\n";
  }
  return out.str();
}

}  // namespace sarathi
