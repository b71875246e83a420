// PagedAttention-style KV-cache block manager.
//
// KV memory is carved into fixed-size blocks of `block_size` tokens. Each
// sequence owns a block table mapping its logical token positions to physical
// blocks; blocks are allocated on admission (covering the prompt) and one at
// a time as decodes cross block boundaries. A watermark keeps a sliver of
// blocks free so running decodes aren't starved the moment a prefill fills
// memory. Models with sliding-window attention (Mistral-7B) retain only the
// window's worth of blocks; older blocks are recycled in place.
//
// Blocks are reference-counted, which enables PagedAttention's hallmark
// sharing: Fork() gives a child sequence the parent's table without copying
// any KV (parallel sampling / beam-search style divergence); writes to a
// shared block first go through copy-on-write (MakeWritable / the CowOps
// returned by AppendToken), with the actual data copy performed by the
// engine that owns the KV values.

#ifndef SRC_MEMORY_BLOCK_MANAGER_H_
#define SRC_MEMORY_BLOCK_MANAGER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/memory/kv_allocator.h"

namespace sarathi {

class PagedBlockManager : public KvAllocator {
 public:
  struct Options {
    int64_t num_blocks = 0;
    int64_t block_size = 16;  // Tokens per block (vLLM's default).
    // Fraction of blocks kept free when admitting new sequences.
    double watermark = 0.01;
    // Sliding-window span in tokens (0 = retain everything).
    int64_t sliding_window = 0;
  };

  explicit PagedBlockManager(const Options& options);

  // A copy-on-write event: the sequence's `block_index`-th table entry moved
  // from `old_block` to a fresh `new_block`; the engine must copy the KV
  // values before writing new entries into it.
  struct CowOp {
    int64_t block_index = 0;
    int64_t old_block = 0;
    int64_t new_block = 0;
  };

  // KvAllocator:
  bool CanAdmit(int64_t prompt_len, int64_t max_total_len) const override;
  void Admit(SeqId id, int64_t prompt_len, int64_t max_total_len) override;
  bool CanAppendToken(SeqId id) const override;
  void AppendToken(SeqId id) override;
  // The tokens left in the sequence's tail block, or 0 when the next token
  // needs a new block or the tail block is shared (copy-on-write). An
  // append that does need one takes a single free block.
  int64_t TailRoom(SeqId id) const override;
  int64_t free_append_units() const override { return free_blocks(); }
  void AdvanceTokens(SeqId id, int64_t tokens) override;
  void Release(SeqId id) override;
  double Utilization() const override;
  int64_t used_units() const override { return used_blocks(); }
  int64_t total_units() const override { return options_.num_blocks; }
  int64_t num_sequences() const override { return static_cast<int64_t>(tables_.size()); }
  std::string AuditInvariants() const override;
  // Audits only the sequences and blocks the mutators marked since the
  // previous call, with the verdict AuditInvariants() would give. A subclass
  // that adds reference sources of its own must override it.
  std::string AuditChanges() const override;

  // ---- Sharing / copy-on-write ----

  // Whether a fork of `id` can be admitted (forking consumes no blocks, but
  // the child must be a new sequence).
  bool CanFork(SeqId id) const;
  // Creates `child` sharing every block of `parent` (refcounts bumped).
  void Fork(SeqId parent, SeqId child);
  // Ensures the block holding logical token `pos` is exclusively owned,
  // copy-on-writing it if shared. Returns the CoW op performed, if any.
  // Requires a free block when a copy is needed.
  std::optional<CowOp> MakeWritable(SeqId id, int64_t pos);
  // Like AppendToken, but also guarantees the written-to block is exclusive;
  // returns any CoW performed.
  std::optional<CowOp> AppendTokenCow(SeqId id);
  // CoW events performed implicitly by AppendToken() on forked sequences
  // since the last drain, in order. The engine that owns KV values must
  // apply the corresponding data copies before writing. Only ever non-empty
  // after Fork() has been used.
  std::vector<std::pair<SeqId, CowOp>> TakePendingCows();
  // Reference count of a physical block (diagnostics/tests).
  int32_t BlockRefCount(int64_t block) const;

  // Blocks needed to hold `tokens` tokens (after window clamping).
  int64_t BlocksForTokens(int64_t tokens) const;

  int64_t num_blocks() const { return options_.num_blocks; }
  int64_t block_size() const { return options_.block_size; }
  int64_t free_blocks() const { return static_cast<int64_t>(free_list_.size()); }
  int64_t used_blocks() const { return options_.num_blocks - free_blocks(); }
  bool HasSequence(SeqId id) const { return tables_.contains(id); }

  // The sequence's physical block table, in logical order.
  const std::vector<int64_t>& BlockTable(SeqId id) const;
  // Logical token count of the sequence.
  int64_t SequenceTokens(SeqId id) const;

 protected:
  // The pool state (refcounts, free list, block tables) is private; a
  // subclass such as PrefixCachingAllocator reads it through the const
  // accessors and writes it only through the mutators below. Every mutator
  // marks the blocks and sequences it touches, which is what lets
  // AuditChanges() audit only those (see there).
  struct SequenceState {
    std::vector<int64_t> blocks;
    int64_t num_tokens = 0;
  };

  // Looks up a sequence's state, memoizing the last (id -> state) pair: the
  // scheduler's per-token hot path probes CanAppendToken and then AppendToken
  // for the same sequence back to back, so the memo removes most hash
  // lookups. unordered_map element addresses survive rehashing, so the memo
  // only needs invalidation when an entry can disappear (EraseTable). The
  // memo hit is inline, so a mutator that looks up again the state its
  // caller just found pays two compares.
  const SequenceState& FindState(SeqId id) const {
    return hot_state_ != nullptr && hot_id_ == id ? *hot_state_ : FindStateSlow(id);
  }
  // BlockRefCount without the range check, for the prefix index's walks.
  int32_t refcount(int64_t block) const { return refcount_[static_cast<size_t>(block)]; }

  // ---- Refcount mutators ----
  // Pops a free block and gives it one reference.
  int64_t AllocateBlock();
  // Pops n free blocks in one range, in the order n AllocateBlock calls
  // would, appending them to `blocks` with one reference each.
  void AllocateBlocks(int64_t n, std::vector<int64_t>* blocks);
  // Adds one reference to a block (a fork, a prefix pin, the cache index).
  void AddBlockRef(int64_t block);
  // Drops one reference; the block returns to the free list at zero.
  void ReleaseBlockRef(int64_t block);
  // ReleaseBlockRef for each block of a table EraseTable returned, in table
  // order, in one pass.
  void ReleaseTableRefs(const std::vector<int64_t>& blocks);

  // ---- Block-table mutators ----
  // These change table slots and token counts, never a refcount: the caller
  // pairs each slot change with the refcount operation it implies, and the
  // incremental audit checks that the two sides agree.
  // Creates `id`'s table holding `blocks`, which must already carry the
  // table's references.
  void AdmitTable(SeqId id, std::vector<int64_t> blocks, int64_t num_tokens);
  // Appends `block` to `id`'s table.
  void PushTableBlock(SeqId id, int64_t block);
  // Points slot `index` of `id`'s table at `block`; returns the old block.
  int64_t ReplaceTableBlock(SeqId id, int64_t index, int64_t block);
  // Gives `child` a copy of `parent`'s table.
  void ForkTable(SeqId parent, SeqId child);
  // Removes `id`'s table and returns its blocks, whose references the caller
  // still holds.
  std::vector<int64_t> EraseTable(SeqId id);
  // Counts `tokens` more tokens in `id`'s table.
  void BumpTokens(SeqId id, int64_t tokens = 1);

  // Logical token position -> index into the sequence's block table.
  int64_t BlockIndexFor(int64_t pos) const;
  // Emits the blocks-in-use counter (when it changed) and an optional named
  // instant for this sequence. No-op without obs hooks.
  void EmitKvObs(const char* event, SeqId id);

  // The two halves of the full refcount audit. AuditTables checks each block
  // table and recounts its references into audit_expected_; a subclass adds
  // its own reference sources there. AuditRefcounts then checks the free
  // list, and each block's refcount against audit_expected_ (`sources` names
  // them in the message). Both return an error, or "" when the pool is
  // consistent.
  std::string AuditTables() const;
  std::string AuditRefcounts(const char* sources) const;

  Options options_;
  // Audit scratch, reused so that a passing audit allocates nothing.
  mutable std::vector<int32_t> audit_expected_;
  mutable std::vector<uint8_t> audit_marks_;

 private:
  const SequenceState& FindStateSlow(SeqId id) const;
  SequenceState& MutableState(SeqId id) { return const_cast<SequenceState&>(FindState(id)); }
  // MakeWritable body for a state already in hand (AppendToken has it).
  std::optional<CowOp> MakeWritableAt(SeqId id, const SequenceState& state, int64_t pos);

  // Incremental audit bookkeeping. MarkSequence and CountSlot are no-ops
  // until tracking starts; MarkBlock is only called while tracking.
  void MarkSequence(SeqId id) {
    if (tracking_) dirty_seqs_.push_back(id);
  }
  void MarkBlock(int64_t block);
  // A table slot started (+1) or stopped (-1) referencing `block`.
  void CountSlot(int64_t block, int32_t delta);
  // Starts tracking from a passing full audit's recount.
  void StartTracking() const;
  // The incremental audit's checks of the marked items.
  std::string AuditMarked() const;

  // Slots a windowed sequence's positions cycle through (whole blocks
  // covering sliding_window + block_size tokens); 0 without a window.
  int64_t window_slots_ = 0;
  mutable SeqId hot_id_ = 0;
  mutable SequenceState* hot_state_ = nullptr;
  int64_t last_emitted_used_ = -1;
  std::vector<int64_t> free_list_;
  std::vector<int32_t> refcount_;
  std::unordered_map<SeqId, SequenceState> tables_;
  std::vector<std::pair<SeqId, CowOp>> pending_cows_;

  // ---- Incremental audit state (AuditChanges) ----
  // Off until the first AuditChanges() call, which seeds it from a full
  // audit; dropped again when an incremental audit fails.
  mutable bool tracking_ = false;
  // Per block: table slots referencing it, kept from slot changes only (never
  // from refcount operations), and copies of it on the free list.
  mutable std::vector<int32_t> slot_refs_;
  mutable std::vector<int32_t> free_copies_;
  // Table slots holding an id outside [0, num_blocks).
  mutable int64_t bad_slots_ = 0;
  // What changed since the last audit. A sequence may be listed more than
  // once, or after its table is gone.
  mutable std::vector<uint8_t> block_dirty_;
  mutable std::vector<int64_t> dirty_blocks_;
  mutable std::vector<SeqId> dirty_seqs_;
};

// Orca-style allocator: without paged memory, every admitted request reserves
// KV space for the model's maximum sequence length up front, so concurrency
// is capped at total_tokens / max_seq_len regardless of actual lengths.
class ReservationAllocator : public KvAllocator {
 public:
  ReservationAllocator(int64_t capacity_tokens, int64_t max_seq_len);

  bool CanAdmit(int64_t prompt_len, int64_t max_total_len) const override;
  void Admit(SeqId id, int64_t prompt_len, int64_t max_total_len) override;
  bool CanAppendToken(SeqId id) const override;
  void AppendToken(SeqId id) override;
  // Appends never take a fresh unit here: a sequence can grow to
  // max_seq_len, which CanAdmit already bounds its prompt plus outputs by.
  int64_t TailRoom(SeqId id) const override;
  void Release(SeqId id) override;
  double Utilization() const override;
  // Units are reserved token slots: every admission pins max_seq_len worth.
  int64_t used_units() const override { return num_admitted() * max_seq_len_; }
  int64_t total_units() const override { return max_concurrent_ * max_seq_len_; }
  int64_t num_sequences() const override { return num_admitted(); }
  std::string AuditInvariants() const override;

  int64_t max_concurrent() const { return max_concurrent_; }
  int64_t num_admitted() const { return static_cast<int64_t>(admitted_.size()); }

 private:
  int64_t max_seq_len_;
  int64_t max_concurrent_;
  std::unordered_map<SeqId, int64_t> admitted_;  // id -> current tokens.
};

}  // namespace sarathi

#endif  // SRC_MEMORY_BLOCK_MANAGER_H_
