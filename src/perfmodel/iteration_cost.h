// Per-iteration latency prediction for a batch of prefill chunks and decodes.
//
// This is the execution-time oracle behind the SimulatedEngine: given the
// composition of a batch (how many query tokens each sequence contributes and
// how much KV context each has), it predicts the iteration latency and its
// breakdown into linear, attention, communication and other components —
// reproducing the analysis of §3.1 (Figs. 3-6) and the chunking overheads of
// §4.3 (Fig. 14).

#ifndef SRC_PERFMODEL_ITERATION_COST_H_
#define SRC_PERFMODEL_ITERATION_COST_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/perfmodel/comm_model.h"
#include "src/perfmodel/gpu_spec.h"
#include "src/perfmodel/model_spec.h"
#include "src/perfmodel/parallel_config.h"

namespace sarathi {

// One sequence's contribution to an iteration.
struct SequenceWork {
  // Tokens already resident in the KV cache before this iteration.
  int64_t context_len = 0;
  // Query tokens processed this iteration: chunk size for a prefill chunk,
  // 1 for a decode step.
  int64_t num_tokens = 0;
  // True for a decode step (single autoregressive token).
  bool is_decode = false;

  static SequenceWork Decode(int64_t context_len) { return {context_len, 1, true}; }
  static SequenceWork PrefillChunk(int64_t prior_tokens, int64_t chunk) {
    return {prior_tokens, chunk, false};
  }
};

// A scheduled iteration: the coalesced set of sequence work items.
struct BatchWork {
  std::vector<SequenceWork> sequences;

  int64_t TotalTokens() const;
  int64_t NumDecodes() const;
  int64_t NumPrefillChunks() const;
};

// Iteration latency split by component ("others" covers layernorms,
// residuals, rotary embeddings, embedding lookup and sampling-side work).
struct CostBreakdown {
  double linear_s = 0.0;
  double attention_s = 0.0;
  double comm_s = 0.0;
  double other_s = 0.0;

  double Total() const { return linear_s + attention_s + comm_s + other_s; }
  CostBreakdown& operator+=(const CostBreakdown& rhs);
  CostBreakdown operator*(double scale) const;
};

// Hit/miss counters for the cost-model memo caches (see docs/performance.md).
struct CostCacheStats {
  int64_t linear_hits = 0;
  int64_t linear_misses = 0;
  int64_t shape_hits = 0;
  int64_t shape_misses = 0;

  int64_t Hits() const { return linear_hits + shape_hits; }
  int64_t Misses() const { return linear_misses + shape_misses; }
};

// The model, cluster and parallel specs are immutable after construction, so
// the memo caches below never need implicit invalidation; ClearCache() exists
// to reclaim memory or reset stats between measurement phases. Instances are
// NOT thread-safe (the caches mutate under const methods): each concurrently
// running simulation must own its own model.
class IterationCostModel {
 public:
  IterationCostModel(ModelSpec model, ClusterSpec cluster, ParallelConfig parallel);

  const ModelSpec& model() const { return model_; }
  const ClusterSpec& cluster() const { return cluster_; }
  const ParallelConfig& parallel() const { return parallel_; }

  // End-to-end latency of one iteration through the whole model (all pipeline
  // stages traversed once, including inter-stage sends).
  CostBreakdown IterationCost(const BatchWork& batch) const;

  // Latency of one pipeline stage (layers/pp transformer layers plus the
  // outbound activation send). With PP=1 this equals IterationCost.
  CostBreakdown StageCost(const BatchWork& batch) const;
  double StageTime(const BatchWork& batch) const { return StageCost(batch).Total(); }

  // Cost of a single transformer layer for this batch, including TP
  // all-reduces. Exposed for breakdown-style analyses (Fig. 4).
  CostBreakdown LayerCost(const BatchWork& batch) const;

  // Time spent in the linear operators of the whole model for a batch with
  // `tokens` total query tokens (Fig. 6).
  double LinearOpsTime(int64_t tokens) const;

  // Weight-GEMM arithmetic intensity at `tokens` rows, per GPU shard (Fig. 5).
  double LinearArithmeticIntensity(int64_t tokens) const;

  // KV-cache capacity of one replica, in tokens, after subtracting weights
  // from usable HBM (drives the block manager size).
  int64_t MaxKvTokens() const;

  // Latency of a decode-only iteration at the paper's reference point
  // (batch 32, each sequence holding a 4k context) — the basis of the SLO
  // thresholds in Table 3.
  double ReferenceDecodeIterationTime() const;

  // Per-GPU weight bytes under this parallel config.
  int64_t WeightBytesPerGpu() const;

  // Total forward-pass FLOPs of one iteration across all GPUs (linear
  // operators + attention + LM head), for MFU accounting.
  double BatchFlops(const BatchWork& batch) const;

  // Total HBM bytes one iteration moves across all GPUs (weights fetched
  // once, KV reads, activation traffic), for MBU accounting (§3.1).
  double BatchMemoryBytes(const BatchWork& batch) const;

  // Both accountings in one pass over the batch (one KvSpan evaluation per
  // sequence instead of two); bit-identical to calling the two separately.
  void BatchFlopsAndBytes(const BatchWork& batch, double* flops, double* bytes) const;

  // StageCost plus BatchFlopsAndBytes in one pass over the batch: each
  // sequence's KV span is evaluated once and feeds both the attention
  // roofline and the FLOP/byte totals. Every accumulator sums its terms in
  // the same order as the separate methods, so all three results are
  // bit-identical to calling StageCost and BatchFlopsAndBytes individually.
  CostBreakdown StageCostAndTotals(const BatchWork& batch, double* flops, double* bytes) const;

  // The terms of StageCostAndTotals that depend only on the batch shape
  // (total tokens, sequence count): the memoized token-shape cost, the
  // opening FLOP and byte sums, and the closing head and activation terms.
  struct ShapeTerms {
    CostBreakdown cost;
    double flops = 0.0;
    double bytes = 0.0;
    double head_flops = 0.0;
    double activation_bytes = 0.0;
  };
  ShapeTerms StageShapeTerms(int64_t total_tokens, int64_t num_sequences) const;

  // StageCostAndTotals of a non-empty batch whose shape terms are `shape`:
  // adds each sequence's attention, FLOP and byte terms in order. The form
  // above looks the shape up and calls this one, so a caller that keeps the
  // shape across calls (the replica loop's steady-decode chunks) gets
  // bit-identical results.
  CostBreakdown StageCostAndTotals(const BatchWork& batch, const ShapeTerms& shape,
                                   double* flops, double* bytes) const;

  // Aggregate peak FLOP/s of the deployment (all GPUs).
  double PeakFlops() const {
    return cluster_.gpu.peak_fp16_flops * static_cast<double>(parallel_.num_gpus());
  }

  // Aggregate peak HBM bandwidth of the deployment (bytes/s, all GPUs).
  double PeakBandwidth() const {
    return cluster_.gpu.hbm_bandwidth * static_cast<double>(parallel_.num_gpus());
  }

  // Memoization controls. Cached results are bit-identical to uncached ones:
  // the cache key (total tokens, sequence count) exactly determines every
  // component it covers, and attention — which depends on each sequence's KV
  // context — is always recomputed. Disabling the cache drops all entries.
  void set_cache_enabled(bool enabled);
  bool cache_enabled() const { return cache_enabled_; }
  // Explicit invalidation: drops every memoized entry (stats are kept).
  void ClearCache();
  const CostCacheStats& cache_stats() const { return stats_; }

 private:
  // Average and maximum KV span for a chunk of `num_tokens` starting after
  // `context_len` tokens, honoring the model's sliding window.
  void KvSpan(const SequenceWork& seq, double* avg_kv, int64_t* kv_read) const;

  // Attention component for the batch on one GPU shard, per layer.
  CostBreakdown AttentionCost(const BatchWork& batch) const;

  // Linear components for `tokens` query tokens on one GPU shard, per layer.
  // Memoized by token count when the cache is enabled.
  CostBreakdown LinearCost(int64_t tokens) const;
  CostBreakdown ComputeLinearCost(int64_t tokens) const;

  // Everything in StageCost except attention: linear + elementwise + TP
  // all-reduce per layer, scaled to the stage, plus the head share and the
  // pipeline send. A pure function of (total tokens, sequence count) — the
  // quantized batch shape — and therefore memoizable by that key.
  CostBreakdown TokenShapeCost(int64_t tokens, int64_t num_sequences) const;
  CostBreakdown ComputeTokenShapeCost(int64_t tokens, int64_t num_sequences) const;

  // LM head + sampling-side cost (computed once per iteration for the
  // `sampled` sequences that emit a token).
  CostBreakdown HeadCost(int64_t sampled, int64_t total_tokens) const;

  ModelSpec model_;
  ClusterSpec cluster_;
  ParallelConfig parallel_;
  CommModel comm_;
  int64_t layers_per_stage_;

  bool cache_enabled_ = true;
  mutable std::unordered_map<int64_t, CostBreakdown> linear_cache_;
  mutable std::unordered_map<uint64_t, CostBreakdown> shape_cache_;
  mutable CostCacheStats stats_;
};

}  // namespace sarathi

#endif  // SRC_PERFMODEL_ITERATION_COST_H_
