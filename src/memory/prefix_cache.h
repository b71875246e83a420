// Radix prefix cache layered over the paged block manager.
//
// SGLang-style shared-prefix KV reuse: when a sequence finishes, the full
// blocks of its token chain are retained in a radix index (one node per
// block-sized token chunk, keyed by the chunk's token ids) instead of being
// freed outright; each retained block carries one extra reference owned by
// the index. A new request resolves its longest full-block prefix match
// *before* it is enqueued (PinPrefix): matched blocks are refcount-pinned so
// eviction cannot free them while the request waits, and at admission the
// pinned chain is transplanted into the sequence's block table — prefill
// starts at the matched boundary with zero recompute, exactly as a Fork()
// shares prompt KV between parallel samples.
//
// Matches are capped one token short of the prompt (largest block multiple
// <= prompt_len - 1) so every request keeps at least one prefill token: the
// engine still needs a forward pass to produce the first output token, and a
// block-aligned boundary means a hit never triggers copy-on-write (writes
// land strictly past the shared blocks).
//
// Eviction is LRU over unreferenced leaves: a node whose block refcount is 1
// (only the index holds it) and that has no children may be evicted; because
// any sequence or pin that references a node also references all of its
// ancestors, refcount-1 subtrees are exactly the reclaimable ones and
// leaf-first eviction never breaks a chain a live sequence still maps. The
// allocator evicts on demand — admission and decode append treat evictable
// blocks as free-after-eviction, so decode allocation never starves behind
// retained cache (the watermark check applies to the post-eviction pool).
//
// Sliding-window attention recycles block contents in place, which destroys
// the position->block identity the index depends on; construction therefore
// requires sliding_window == 0 (the simulator falls back to the plain paged
// manager for windowed models).

#ifndef SRC_MEMORY_PREFIX_CACHE_H_
#define SRC_MEMORY_PREFIX_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/memory/block_manager.h"

namespace sarathi {

class PrefixCachingAllocator final : public PagedBlockManager {
 public:
  struct CacheStats {
    int64_t lookups = 0;          // PinPrefix calls.
    int64_t hits = 0;             // Lookups that matched >= 1 block.
    int64_t cached_tokens = 0;    // Prefill tokens served from the cache.
    int64_t retained_blocks = 0;  // Nodes inserted by finish-time retention.
    int64_t evictions = 0;        // Nodes evicted under allocation pressure.
    int64_t peak_cached_blocks = 0;
  };

  explicit PrefixCachingAllocator(const Options& options);

  // ---- Prefix resolution (the driver calls this right before Enqueue) ----
  //
  // Registers the request's token ids (prompt followed by output; may be
  // null/short — then only retention below the covered length happens) and
  // walks the radix index for the longest full-block prefix match, capped at
  // prompt_len - 1 tokens. Matched blocks are pinned (one extra reference
  // each) until Admit(id) consumes the pin or OnRequestDropped(id) releases
  // it. Returns the matched token count (a multiple of block_size, possibly
  // 0). Must be called at most once per sequence id, before Admit.
  int64_t PinPrefix(SeqId id, std::shared_ptr<const std::vector<int32_t>> tokens,
                    int64_t prompt_len);

  // Matched tokens a pending pin holds for `id` (0 when none) — what Admit
  // will transplant. The driver uses this to pre-set the request's prefill
  // progress.
  int64_t PinnedTokens(SeqId id) const;

  // KvAllocator / PagedBlockManager:
  bool CanAdmit(int64_t prompt_len, int64_t max_total_len) const override;
  bool CanAdmitSeq(SeqId id, int64_t prompt_len, int64_t max_total_len) const override;
  void Admit(SeqId id, int64_t prompt_len, int64_t max_total_len) override;
  bool CanAppendToken(SeqId id) const override;
  void AppendToken(SeqId id) override;
  // Promises nothing: every append here goes through AppendToken, which
  // also reclaims retained cache blocks when the free list runs dry.
  int64_t TailRoom(SeqId /*id*/) const override { return 0; }
  void ReleaseFinished(SeqId id) override;
  void OnRequestDropped(SeqId id) override;
  int64_t cached_units() const override { return cached_count_; }
  std::string AuditInvariants() const override;
  // Stays the full audit: the index and pin references would need ledgers of
  // their own, and AuditCache walks the whole index after every batch anyway.
  std::string AuditChanges() const override { return AuditInvariants(); }
  std::string AuditCache() const override;

  // Evicts every reclaimable node until the index only holds blocks live
  // sequences still share (normally: until empty). The end-of-run zero-leak
  // audit calls this after the last request is terminal — snapshot stats()
  // first, drained evictions are not counted in CacheStats::evictions.
  // Returns the number of blocks released.
  int64_t DrainCache();

  const CacheStats& stats() const { return stats_; }
  int64_t cached_blocks() const { return cached_count_; }
  // Reclaimable right now: cached nodes no sequence or pin references.
  int64_t evictable_blocks() const;

 private:
  struct Node {
    Node* parent = nullptr;
    uint64_t key = 0;     // Hash key in parent->children.
    int64_t block = -1;   // Physical block held (one index reference).
    std::vector<int32_t> chunk;  // The block_size token ids this node covers.
    uint64_t stamp = 0;   // LRU: last touch tick (unique per touch).
    // Ordered by hash for deterministic traversal/eviction.
    std::map<uint64_t, std::unique_ptr<Node>> children;
  };

  struct Pin {
    std::vector<Node*> nodes;  // Matched chain, root-adjacent first.
  };

  // True when at least `want` blocks are reclaimable (early-exit count).
  bool HasEvictable(int64_t want) const;
  // Evicts the least-recently-touched reclaimable leaf; false if none.
  bool EvictOne();
  void Touch(Node* node) { node->stamp = ++stamp_counter_; }
  int64_t WatermarkBlocks() const;

  Node root_;
  int64_t cached_count_ = 0;
  uint64_t stamp_counter_ = 0;
  CacheStats stats_;
  std::unordered_map<SeqId, Pin> pins_;
  // Token ids per known sequence, kept until the sequence is terminal so
  // finish-time retention can key the chain (survives preempt/recompute).
  std::unordered_map<SeqId, std::shared_ptr<const std::vector<int32_t>>> seq_tokens_;
  // Depth-first walk stack of the audits, reused across calls.
  mutable std::vector<const Node*> audit_stack_;
};

}  // namespace sarathi

#endif  // SRC_MEMORY_PREFIX_CACHE_H_
