#include "src/scheduler/sarathi_scheduler.h"

#include <algorithm>

#include "src/common/logging.h"

namespace sarathi {

SarathiScheduler::SarathiScheduler(const SchedulerConfig& config, KvAllocator* allocator)
    : Scheduler(config, allocator), current_budget_(config.token_budget) {
  CHECK_GT(config_.token_budget, 0);
  if (config_.dynamic_budget_tbt_slo_s > 0.0) {
    CHECK_GT(config_.budget_tile, 0);
    CHECK_GE(config_.min_token_budget, config_.budget_tile);
    CHECK_GE(config_.max_token_budget, config_.min_token_budget);
    current_budget_ = std::clamp(current_budget_, config_.min_token_budget,
                                 config_.max_token_budget);
  }
}

void SarathiScheduler::ObserveIterationTime(const ScheduledBatch& batch, double latency_s) {
  if (config_.dynamic_budget_tbt_slo_s <= 0.0) {
    return;
  }
  double target = config_.dynamic_budget_tbt_slo_s;
  int64_t tile = config_.budget_tile;
  int64_t previous_budget = current_budget_;
  if (latency_s > target) {
    // Multiplicative decrease, tile-aligned: back off fast when an iteration
    // endangers the TBT SLO.
    int64_t reduced = static_cast<int64_t>(static_cast<double>(current_budget_) * 0.75);
    reduced = reduced / tile * tile;
    current_budget_ = std::max(config_.min_token_budget, reduced);
  } else if (latency_s < 0.85 * target &&
             batch.TotalTokens() >= current_budget_ - tile / 2) {
    // Additive increase only when the budget was actually binding — an
    // under-full batch finishing early says nothing about a larger budget.
    current_budget_ = std::min(config_.max_token_budget, current_budget_ + tile);
  }
  if (current_budget_ != previous_budget && obs_ != nullptr) {
    if (Tracer* tracer = obs_->ActiveTracer()) {
      tracer->Counter("scheduler", "token_budget", obs_->now_s,
                      static_cast<double>(current_budget_));
    }
    if (obs_->metrics != nullptr) {
      obs_->metrics->SetGauge("token_budget", obs_->now_s,
                              static_cast<double>(current_budget_));
    }
  }
}

void SarathiScheduler::SetOverloadLevel(OverloadLevel level) {
  Scheduler::SetOverloadLevel(level);
  if (!config_.enable_chunking) {
    return;  // The no-chunking ablation has no budget to grow.
  }
  int64_t base = config_.token_budget;
  if (config_.dynamic_budget_tbt_slo_s > 0.0) {
    base = std::clamp(base, config_.min_token_budget, config_.max_token_budget);
  }
  int64_t ceiling = std::max(config_.max_token_budget, base);
  int64_t previous_budget = current_budget_;
  if (level >= OverloadLevel::kThroughput) {
    // Throughput mode: larger chunks drain the prefill backlog faster at the
    // cost of TBT. Doubling per update reaches the ceiling in a few control
    // periods without a single-iteration latency spike.
    current_budget_ = std::min(ceiling, std::max(current_budget_ * 2,
                                                 current_budget_ + config_.budget_tile));
  } else if (current_budget_ > base) {
    // Smooth recovery: halve the excess each update, snapping once the gap
    // falls under a tile.
    int64_t excess = current_budget_ - base;
    current_budget_ = excess <= config_.budget_tile ? base : current_budget_ - excess / 2;
  }
  if (current_budget_ != previous_budget && obs_ != nullptr) {
    if (Tracer* tracer = obs_->ActiveTracer()) {
      tracer->Counter("scheduler", "token_budget", obs_->now_s,
                      static_cast<double>(current_budget_));
    }
    if (obs_->metrics != nullptr) {
      obs_->metrics->SetGauge("token_budget", obs_->now_s,
                              static_cast<double>(current_budget_));
    }
  }
}

std::string SarathiScheduler::name() const {
  if (!config_.enable_chunking) {
    return "sarathi/hybrid-batching-only";
  }
  if (!config_.enable_hybrid) {
    return "sarathi/chunked-prefills-only";
  }
  return "sarathi";
}

int64_t SarathiScheduler::NextChunkSize(const RequestState* request,
                                        int64_t batch_tokens) const {
  if (!config_.enable_chunking) {
    // Hybrid-batching-only ablation: the whole remaining prompt in one go,
    // regardless of budget — exactly the unbounded-iteration behaviour the
    // token budget exists to prevent.
    return request->remaining_prefill();
  }
  int64_t leftover = current_budget_ - batch_tokens;
  if (leftover <= 0) {
    return 0;
  }
  int64_t chunk = std::min(leftover, request->remaining_prefill());
  if (config_.align_chunks_to_tile) {
    // Shave the chunk so batch_tokens + chunk fills whole GEMM tiles; the
    // remainder runs next iteration. Keep the original chunk when alignment
    // would schedule nothing (sub-tile leftovers are better than stalling).
    int64_t tile = config_.budget_tile;
    int64_t aligned_total = (batch_tokens + chunk) / tile * tile;
    int64_t aligned_chunk = aligned_total - batch_tokens;
    if (aligned_chunk > 0) {
      chunk = aligned_chunk;
    }
  }
  return chunk;
}

void SarathiScheduler::PackDecodes(ScheduledBatch* batch, int64_t* batch_tokens) {
  // Iterate a snapshot: PrepareDecodeSlot may preempt (erase) later entries.
  for (RequestState* request : RunningSnapshot()) {
    if (request->phase() != RequestPhase::kRunning || request->locked() ||
        !request->prefill_complete() || request->finished()) {
      continue;
    }
    if (static_cast<int64_t>(batch->size()) >= config_.max_batch_size) {
      break;
    }
    if (!PrepareDecodeSlot(request, *batch)) {
      continue;  // Could not make room; skip this decode for one iteration.
    }
    batch->items.push_back(BatchItem{request, 1, /*is_decode=*/true});
    ++(*batch_tokens);
  }
}

void SarathiScheduler::PackOngoingPrefills(ScheduledBatch* batch, int64_t* batch_tokens) {
  for (RequestState* request : running_) {
    if (request->locked() || request->prefill_complete()) {
      continue;
    }
    if (static_cast<int64_t>(batch->size()) >= config_.max_batch_size) {
      break;
    }
    int64_t chunk = NextChunkSize(request, *batch_tokens);
    if (chunk <= 0) {
      break;
    }
    batch->items.push_back(BatchItem{request, chunk, /*is_decode=*/false});
    *batch_tokens += chunk;
  }
}

void SarathiScheduler::PackNewRequests(ScheduledBatch* batch, int64_t* batch_tokens) {
  while (static_cast<int64_t>(batch->size()) < config_.max_batch_size) {
    if (config_.enable_chunking && *batch_tokens >= current_budget_) {
      break;
    }
    if (!CanAdmitHead()) {
      break;  // Queue empty or head blocked on memory (FCFS: no skipping).
    }
    RequestState* head = queue_.front();
    int64_t chunk = NextChunkSize(head, *batch_tokens);
    if (chunk <= 0) {
      break;
    }
    AdmitHead();
    batch->items.push_back(BatchItem{head, chunk, /*is_decode=*/false});
    *batch_tokens += chunk;
  }
}

ScheduledBatch SarathiScheduler::Schedule() {
  ScheduledBatch batch = NewBatch();
  int64_t batch_tokens = 0;

  if (config_.enable_hybrid) {
    // Algorithm 3: decodes first (lines 6-8), then ongoing prefills (9-12),
    // then new admissions (13-20).
    PackDecodes(&batch, &batch_tokens);
    PackOngoingPrefills(&batch, &batch_tokens);
    PackNewRequests(&batch, &batch_tokens);
    return batch;
  }

  // Chunked-prefills-only ablation: iterations are either all-decode or
  // all-chunk, strictly alternating when both kinds of work exist. Decodes
  // never wait more than one budget-bounded chunk iteration (low TBT), but
  // prefills advance only every other iteration and without coalescing
  // (higher TTFT) — Table 4's isolation of the chunking technique.
  if (last_batch_was_prefill_) {
    PackDecodes(&batch, &batch_tokens);
    if (!batch.empty()) {
      last_batch_was_prefill_ = false;
      return batch;
    }
  }
  PackOngoingPrefills(&batch, &batch_tokens);
  PackNewRequests(&batch, &batch_tokens);
  if (!batch.empty()) {
    last_batch_was_prefill_ = true;
    return batch;
  }
  PackDecodes(&batch, &batch_tokens);
  last_batch_was_prefill_ = false;
  return batch;
}

bool SarathiScheduler::IsSteadyDecodeBatch(const ScheduledBatch& batch) const {
  if (!config_.enable_hybrid || config_.dynamic_budget_tbt_slo_s > 0.0 || !queue_.empty() ||
      batch.items.size() != running_.size()) {
    return false;
  }
  for (size_t i = 0; i < running_.size(); ++i) {
    if (batch.items[i].request != running_[i] || !batch.items[i].is_decode) {
      return false;
    }
  }
  return true;
}

}  // namespace sarathi
