#include "src/memory/block_manager.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/logging.h"
#include "src/obs/obs_hooks.h"

namespace sarathi {

namespace {

constexpr char kKvCategory[] = "kv";

// Verify-hook notification shared by both allocators; one branch when no
// checker is attached.
void NotifyKv(ObsHooks* obs, KvVerifyEvent event, SeqId id) {
  if (obs != nullptr && obs->verify != nullptr) {
    obs->verify->OnKvEvent(event, id);
  }
}

}  // namespace

void PagedBlockManager::EmitKvObs(const char* event, SeqId id) {
  if (obs_ == nullptr) {
    return;
  }
  if (Tracer* tracer = obs_->ActiveTracer()) {
    if (used_blocks() != last_emitted_used_) {
      tracer->Counter(kKvCategory, "kv_blocks_in_use", obs_->now_s,
                      static_cast<double>(used_blocks()));
    }
    if (event != nullptr) {
      tracer->InstantNow(kKvCategory, event, {Arg("seq", id), Arg("used_blocks", used_blocks())});
    }
  }
  if (obs_->metrics != nullptr && used_blocks() != last_emitted_used_) {
    obs_->metrics->SetGauge("kv_blocks_in_use", obs_->now_s,
                            static_cast<double>(used_blocks()));
  }
  last_emitted_used_ = used_blocks();
}

PagedBlockManager::PagedBlockManager(const Options& options) : options_(options) {
  CHECK_GT(options_.num_blocks, 0);
  CHECK_GT(options_.block_size, 0);
  CHECK_GE(options_.watermark, 0.0);
  CHECK_LT(options_.watermark, 1.0);
  free_list_.reserve(static_cast<size_t>(options_.num_blocks));
  // Hand out low block ids first: push high ids so pop_back yields low ones.
  for (int64_t b = options_.num_blocks - 1; b >= 0; --b) {
    free_list_.push_back(b);
  }
  refcount_.assign(static_cast<size_t>(options_.num_blocks), 0);
  if (options_.sliding_window > 0) {
    // A windowed sequence's positions cycle through the slots of the blocks
    // BlocksForTokens grants it.
    int64_t cap_tokens = options_.sliding_window + options_.block_size;
    int64_t cap_blocks = (cap_tokens + options_.block_size - 1) / options_.block_size;
    window_slots_ = cap_blocks * options_.block_size;
  }
}

int64_t PagedBlockManager::BlocksForTokens(int64_t tokens) const {
  if (options_.sliding_window > 0) {
    // A windowed sequence cycles within window-covering blocks; one extra
    // block absorbs the partially-overwritten boundary.
    int64_t cap = options_.sliding_window + options_.block_size;
    tokens = std::min(tokens, cap);
  }
  return (tokens + options_.block_size - 1) / options_.block_size;
}

int64_t PagedBlockManager::BlockIndexFor(int64_t pos) const {
  CHECK_GE(pos, 0);
  if (window_slots_ > 0) {
    pos %= window_slots_;
  }
  return pos / options_.block_size;
}

bool PagedBlockManager::CanAdmit(int64_t prompt_len, int64_t /*max_total_len*/) const {
  int64_t needed = BlocksForTokens(prompt_len);
  auto watermark_blocks =
      static_cast<int64_t>(std::ceil(options_.watermark * static_cast<double>(options_.num_blocks)));
  return free_blocks() - needed >= watermark_blocks;
}

void PagedBlockManager::Admit(SeqId id, int64_t prompt_len, int64_t max_total_len) {
  CHECK(!tables_.contains(id)) << "sequence " << id << " already admitted";
  CHECK(CanAdmit(prompt_len, max_total_len));
  int64_t needed = BlocksForTokens(prompt_len);
  // Reserve table capacity for the sequence's full lifetime so decode-time
  // AppendToken block growth never reallocates the table.
  std::vector<int64_t> blocks;
  blocks.reserve(static_cast<size_t>(std::max(needed, BlocksForTokens(max_total_len))));
  AllocateBlocks(needed, &blocks);
  AdmitTable(id, std::move(blocks), prompt_len);
  NotifyKv(obs_, KvVerifyEvent::kAdmit, id);
  EmitKvObs("kv_admit", id);
}

const PagedBlockManager::SequenceState& PagedBlockManager::FindStateSlow(SeqId id) const {
  auto it = tables_.find(id);
  CHECK(it != tables_.end()) << "unknown sequence " << id;
  hot_id_ = id;
  hot_state_ = const_cast<SequenceState*>(&it->second);
  return *hot_state_;
}

bool PagedBlockManager::CanAppendToken(SeqId id) const {
  const SequenceState& state = FindState(id);
  int64_t needed = BlocksForTokens(state.num_tokens + 1);
  if (needed > static_cast<int64_t>(state.blocks.size())) {
    return free_blocks() > 0;
  }
  // The token lands in an existing block — but if that block is shared with
  // a forked sibling, the write copy-on-writes it and needs a free block.
  int64_t block = state.blocks[static_cast<size_t>(BlockIndexFor(state.num_tokens))];
  return refcount_[static_cast<size_t>(block)] == 1 || free_blocks() > 0;
}

void PagedBlockManager::AppendToken(SeqId id) {
  const SequenceState& state = FindState(id);
  int64_t needed = BlocksForTokens(state.num_tokens + 1);
  if (needed > static_cast<int64_t>(state.blocks.size())) {
    CHECK_GT(free_blocks(), 0) << "AppendToken without a free block";
    PushTableBlock(id, AllocateBlock());
  } else {
    // Writing into an existing block requires exclusive ownership; forked
    // sequences copy-on-write here, and the event is queued for the engine
    // to apply the data copy (TakePendingCows).
    std::optional<CowOp> cow = MakeWritableAt(id, state, state.num_tokens);
    if (cow.has_value()) {
      pending_cows_.emplace_back(id, *cow);
    }
  }
  BumpTokens(id);
  NotifyKv(obs_, KvVerifyEvent::kAppend, id);
  EmitKvObs(nullptr, id);  // Counter only; per-token instants would flood.
}

int64_t PagedBlockManager::TailRoom(SeqId id) const {
  const SequenceState& state = FindState(id);
  if (BlocksForTokens(state.num_tokens + 1) > static_cast<int64_t>(state.blocks.size())) {
    return 0;
  }
  // Positions from here to the end of the block land in the same table slot
  // (window_slots_ is whole blocks), which the table already covers: a
  // windowed table past its cap holds every slot, and otherwise the slot's
  // end is at most one block past this position's.
  int64_t slot = window_slots_ > 0 ? state.num_tokens % window_slots_ : state.num_tokens;
  int64_t block = state.blocks[static_cast<size_t>(slot / options_.block_size)];
  // Appends to other sequences only take fresh blocks or drop references,
  // so an exclusive block stays exclusive.
  if (refcount_[static_cast<size_t>(block)] != 1) {
    return 0;
  }
  return options_.block_size - slot % options_.block_size;
}

void PagedBlockManager::AdvanceTokens(SeqId id, int64_t tokens) {
  CHECK_LE(tokens, TailRoom(id)) << "AdvanceTokens past the tail block";
  BumpTokens(id, tokens);
  for (int64_t i = 0; i < tokens; ++i) {
    NotifyKv(obs_, KvVerifyEvent::kAppend, id);
  }
  EmitKvObs(nullptr, id);
}

std::vector<std::pair<SeqId, PagedBlockManager::CowOp>> PagedBlockManager::TakePendingCows() {
  std::vector<std::pair<SeqId, CowOp>> taken;
  taken.swap(pending_cows_);
  return taken;
}

std::optional<PagedBlockManager::CowOp> PagedBlockManager::AppendTokenCow(SeqId id) {
  const SequenceState& state = FindState(id);
  int64_t needed = BlocksForTokens(state.num_tokens + 1);
  std::optional<CowOp> cow;
  if (needed > static_cast<int64_t>(state.blocks.size())) {
    CHECK_GT(free_blocks(), 0) << "AppendTokenCow without a free block";
    PushTableBlock(id, AllocateBlock());
  } else {
    cow = MakeWritableAt(id, state, state.num_tokens);
  }
  BumpTokens(id);
  NotifyKv(obs_, KvVerifyEvent::kAppend, id);
  return cow;
}

std::optional<PagedBlockManager::CowOp> PagedBlockManager::MakeWritable(SeqId id, int64_t pos) {
  return MakeWritableAt(id, FindState(id), pos);
}

std::optional<PagedBlockManager::CowOp> PagedBlockManager::MakeWritableAt(
    SeqId id, const SequenceState& state, int64_t pos) {
  int64_t index = BlockIndexFor(pos);
  CHECK_LT(index, static_cast<int64_t>(state.blocks.size()))
      << "position " << pos << " not covered";
  int64_t block = state.blocks[static_cast<size_t>(index)];
  if (refcount_[static_cast<size_t>(block)] == 1) {
    return std::nullopt;
  }
  CHECK_GT(free_blocks(), 0) << "copy-on-write without a free block";
  int64_t fresh = AllocateBlock();
  ReleaseBlockRef(block);
  ReplaceTableBlock(id, index, fresh);
  NotifyKv(obs_, KvVerifyEvent::kCow, id);
  return CowOp{index, block, fresh};
}

bool PagedBlockManager::CanFork(SeqId id) const {
  return tables_.contains(id);
}

void PagedBlockManager::Fork(SeqId parent, SeqId child) {
  ForkTable(parent, child);
  for (int64_t block : FindState(child).blocks) {
    AddBlockRef(block);
  }
  NotifyKv(obs_, KvVerifyEvent::kFork, child);
  EmitKvObs("kv_fork", child);
}

void PagedBlockManager::Release(SeqId id) {
  ReleaseTableRefs(EraseTable(id));
  NotifyKv(obs_, KvVerifyEvent::kRelease, id);
  EmitKvObs("kv_release", id);
}

double PagedBlockManager::Utilization() const {
  return static_cast<double>(used_blocks()) / static_cast<double>(options_.num_blocks);
}

const std::vector<int64_t>& PagedBlockManager::BlockTable(SeqId id) const {
  return FindState(id).blocks;
}

int64_t PagedBlockManager::SequenceTokens(SeqId id) const {
  return FindState(id).num_tokens;
}

std::string PagedBlockManager::AuditInvariants() const {
  std::string error = AuditTables();
  return error.empty() ? AuditRefcounts(" table references") : error;
}

std::string PagedBlockManager::AuditTables() const {
  audit_expected_.assign(refcount_.size(), 0);
  for (const auto& [id, state] : tables_) {
    int64_t needed = BlocksForTokens(state.num_tokens);
    if (static_cast<int64_t>(state.blocks.size()) != needed) {
      std::ostringstream out;
      out << "seq " << id << ": " << state.num_tokens << " tokens need " << needed
          << " blocks but the table holds " << state.blocks.size();
      return out.str();
    }
    for (int64_t block : state.blocks) {
      if (block < 0 || block >= options_.num_blocks) {
        std::ostringstream out;
        out << "seq " << id << ": block id " << block << " out of range [0, "
            << options_.num_blocks << ")";
        return out.str();
      }
      ++audit_expected_[static_cast<size_t>(block)];
    }
  }
  return "";
}

std::string PagedBlockManager::AuditRefcounts(const char* sources) const {
  std::vector<uint8_t>& on_free_list = audit_marks_;
  on_free_list.assign(refcount_.size(), 0);
  for (int64_t block : free_list_) {
    if (block < 0 || block >= options_.num_blocks) {
      std::ostringstream out;
      out << "free list holds out-of-range block id " << block;
      return out.str();
    }
    if (on_free_list[static_cast<size_t>(block)]) {
      std::ostringstream out;
      out << "block " << block << " appears twice on the free list";
      return out.str();
    }
    on_free_list[static_cast<size_t>(block)] = 1;
  }
  const std::vector<int32_t>& expected = audit_expected_;
  for (int64_t b = 0; b < options_.num_blocks; ++b) {
    auto i = static_cast<size_t>(b);
    if (refcount_[i] != expected[i]) {
      std::ostringstream out;
      out << "block " << b << ": refcount " << refcount_[i] << " but " << expected[i]
          << sources << (expected[i] == 0 ? " (leaked block)" : "");
      return out.str();
    }
    if ((refcount_[i] == 0) != (on_free_list[i] != 0)) {
      std::ostringstream out;
      out << "block " << b << ": refcount " << refcount_[i]
          << (on_free_list[i] ? " yet on the free list" : " yet missing from the free list");
      return out.str();
    }
  }
  // used + free == total is implied by the per-block check above: every block
  // is either referenced (used) or on the free list, never both.
  return "";
}

int32_t PagedBlockManager::BlockRefCount(int64_t block) const {
  CHECK_GE(block, 0);
  CHECK_LT(block, options_.num_blocks);
  return refcount_[static_cast<size_t>(block)];
}

int64_t PagedBlockManager::AllocateBlock() {
  CHECK(!free_list_.empty()) << "out of KV blocks";
  int64_t block = free_list_.back();
  free_list_.pop_back();
  CHECK_EQ(refcount_[static_cast<size_t>(block)], 0);
  refcount_[static_cast<size_t>(block)] = 1;
  if (tracking_) {
    --free_copies_[static_cast<size_t>(block)];
    MarkBlock(block);
  }
  return block;
}

void PagedBlockManager::AllocateBlocks(int64_t n, std::vector<int64_t>* blocks) {
  CHECK_LE(n, free_blocks()) << "out of KV blocks";
  // The last n free-list entries, last first, as n pop_backs would take them.
  const auto first = free_list_.end() - n;
  blocks->insert(blocks->end(), free_list_.rbegin(), free_list_.rbegin() + n);
  free_list_.erase(first, free_list_.end());
  for (auto it = blocks->end() - n; it != blocks->end(); ++it) {
    auto block = static_cast<size_t>(*it);
    CHECK_EQ(refcount_[block], 0);
    refcount_[block] = 1;
    if (tracking_) {
      --free_copies_[block];
      MarkBlock(*it);
    }
  }
}

void PagedBlockManager::AddBlockRef(int64_t block) {
  CHECK_GE(block, 0);
  CHECK_LT(block, options_.num_blocks);
  ++refcount_[static_cast<size_t>(block)];
  if (tracking_) MarkBlock(block);
}

void PagedBlockManager::ReleaseBlockRef(int64_t block) {
  CHECK_GE(block, 0);
  CHECK_LT(block, options_.num_blocks);
  int32_t& count = refcount_[static_cast<size_t>(block)];
  CHECK_GT(count, 0);
  if (--count == 0) {
    free_list_.push_back(block);
    if (tracking_) ++free_copies_[static_cast<size_t>(block)];
  }
  if (tracking_) MarkBlock(block);
}

void PagedBlockManager::ReleaseTableRefs(const std::vector<int64_t>& blocks) {
  // A table's blocks are in range and each holds the table's reference, as
  // the audit's per-sequence and per-block checks certify.
  for (int64_t block : blocks) {
    auto b = static_cast<size_t>(block);
    if (--refcount_[b] == 0) {
      free_list_.push_back(block);
      if (tracking_) ++free_copies_[b];
    }
    if (tracking_) MarkBlock(block);
  }
}

void PagedBlockManager::AdmitTable(SeqId id, std::vector<int64_t> blocks, int64_t num_tokens) {
  CHECK(!tables_.contains(id)) << "sequence " << id << " already admitted";
  for (int64_t block : blocks) {
    CountSlot(block, +1);
  }
  tables_.emplace(id, SequenceState{std::move(blocks), num_tokens});
  MarkSequence(id);
}

void PagedBlockManager::PushTableBlock(SeqId id, int64_t block) {
  MutableState(id).blocks.push_back(block);
  CountSlot(block, +1);
  MarkSequence(id);
}

int64_t PagedBlockManager::ReplaceTableBlock(SeqId id, int64_t index, int64_t block) {
  std::vector<int64_t>& blocks = MutableState(id).blocks;
  CHECK_GE(index, 0);
  CHECK_LT(index, static_cast<int64_t>(blocks.size()));
  int64_t& slot = blocks[static_cast<size_t>(index)];
  int64_t old = slot;
  slot = block;
  CountSlot(old, -1);
  CountSlot(block, +1);
  return old;  // The table's length, all its audit checks, is unchanged.
}

void PagedBlockManager::ForkTable(SeqId parent, SeqId child) {
  auto it = tables_.find(parent);
  CHECK(it != tables_.end()) << "unknown sequence " << parent;
  AdmitTable(child, it->second.blocks, it->second.num_tokens);
}

std::vector<int64_t> PagedBlockManager::EraseTable(SeqId id) {
  auto it = tables_.find(id);
  CHECK(it != tables_.end()) << "unknown sequence " << id;
  std::vector<int64_t> blocks = std::move(it->second.blocks);
  tables_.erase(it);
  // The erased entry may be the memoized one; drop it unconditionally.
  hot_state_ = nullptr;
  for (int64_t block : blocks) {
    CountSlot(block, -1);
  }
  return blocks;
}

void PagedBlockManager::BumpTokens(SeqId id, int64_t tokens) {
  MutableState(id).num_tokens += tokens;
  MarkSequence(id);
}

void PagedBlockManager::MarkBlock(int64_t block) {
  uint8_t& dirty = block_dirty_[static_cast<size_t>(block)];
  if (!dirty) {
    dirty = 1;
    dirty_blocks_.push_back(block);
  }
}

void PagedBlockManager::CountSlot(int64_t block, int32_t delta) {
  if (!tracking_) {
    return;
  }
  if (block < 0 || block >= options_.num_blocks) {
    bad_slots_ += delta;
    return;
  }
  slot_refs_[static_cast<size_t>(block)] += delta;
  MarkBlock(block);
}

void PagedBlockManager::StartTracking() const {
  // A passing full audit left the table recount in audit_expected_ and the
  // free-list membership (no duplicates) in audit_marks_.
  slot_refs_ = audit_expected_;
  free_copies_.assign(audit_marks_.begin(), audit_marks_.end());
  bad_slots_ = 0;
  block_dirty_.assign(refcount_.size(), 0);
  dirty_blocks_.clear();
  dirty_seqs_.clear();
  tracking_ = true;
}

// Exactness. The full audit is a conjunction of per-sequence predicates
// (table length matches the token count, block ids in range) and per-block
// predicates (refcount equals the table slots referencing the block, at most
// one free-list copy, refcount zero iff on the free list). The previous
// audit certified all of them. Since then only the mutators have written the
// pool state, since it is private, and each marked the sequences and blocks
// whose predicates it could change, keeping slot_refs_, free_copies_ and
// bad_slots_ equal to what a recount would find. Unmarked items therefore
// still pass, so checking the marked ones gives the full audit's verdict. A
// failure drops tracking: the broken item stays unmarked, so later calls
// fall back to full audits until one passes and re-seeds the ledger.
std::string PagedBlockManager::AuditChanges() const {
  if (!tracking_) {
    std::string error = PagedBlockManager::AuditInvariants();
    if (error.empty()) {
      StartTracking();
    }
    return error;
  }
  std::string error = AuditMarked();
  for (int64_t block : dirty_blocks_) {
    block_dirty_[static_cast<size_t>(block)] = 0;
  }
  dirty_blocks_.clear();
  dirty_seqs_.clear();
  if (!error.empty()) {
    tracking_ = false;
  }
  return error;
}

std::string PagedBlockManager::AuditMarked() const {
  if (bad_slots_ != 0) {
    std::ostringstream out;
    out << bad_slots_ << " table slots hold block ids outside [0, " << options_.num_blocks
        << ")";
    return out.str();
  }
  for (SeqId id : dirty_seqs_) {
    auto it = tables_.find(id);
    if (it == tables_.end()) {
      continue;  // Released since it was marked.
    }
    const SequenceState& state = it->second;
    int64_t needed = BlocksForTokens(state.num_tokens);
    if (static_cast<int64_t>(state.blocks.size()) != needed) {
      std::ostringstream out;
      out << "seq " << id << ": " << state.num_tokens << " tokens need " << needed
          << " blocks but the table holds " << state.blocks.size();
      return out.str();
    }
  }
  for (int64_t block : dirty_blocks_) {
    auto b = static_cast<size_t>(block);
    // Referenced exactly by its table slots, and on the free list exactly
    // once when free and never when used.
    if (refcount_[b] != slot_refs_[b] || free_copies_[b] != (refcount_[b] == 0 ? 1 : 0)) {
      std::ostringstream out;
      out << "block " << block << ": refcount " << refcount_[b] << ", " << slot_refs_[b]
          << " table references, " << free_copies_[b] << " free-list copies";
      return out.str();
    }
  }
  return "";
}

ReservationAllocator::ReservationAllocator(int64_t capacity_tokens, int64_t max_seq_len)
    : max_seq_len_(max_seq_len), max_concurrent_(capacity_tokens / max_seq_len) {
  CHECK_GT(max_seq_len_, 0);
  CHECK_GT(max_concurrent_, 0) << "KV capacity below one max-length sequence";
}

bool ReservationAllocator::CanAdmit(int64_t prompt_len, int64_t max_total_len) const {
  if (prompt_len > max_seq_len_ || max_total_len > max_seq_len_) {
    return false;
  }
  return num_admitted() < max_concurrent_;
}

void ReservationAllocator::Admit(SeqId id, int64_t prompt_len, int64_t max_total_len) {
  CHECK(CanAdmit(prompt_len, max_total_len));
  CHECK(!admitted_.contains(id)) << "sequence " << id << " already admitted";
  admitted_.emplace(id, prompt_len);
  NotifyKv(obs_, KvVerifyEvent::kAdmit, id);
  if (obs_ != nullptr && obs_->metrics != nullptr) {
    obs_->metrics->SetGauge("kv_blocks_in_use", obs_->now_s, static_cast<double>(used_units()));
  }
}

bool ReservationAllocator::CanAppendToken(SeqId id) const {
  auto it = admitted_.find(id);
  CHECK(it != admitted_.end()) << "unknown sequence " << id;
  return it->second < max_seq_len_;
}

void ReservationAllocator::AppendToken(SeqId id) {
  auto it = admitted_.find(id);
  CHECK(it != admitted_.end()) << "unknown sequence " << id;
  CHECK_LT(it->second, max_seq_len_);
  ++it->second;
  NotifyKv(obs_, KvVerifyEvent::kAppend, id);
}

int64_t ReservationAllocator::TailRoom(SeqId id) const {
  auto it = admitted_.find(id);
  CHECK(it != admitted_.end()) << "unknown sequence " << id;
  return max_seq_len_ - it->second;
}

void ReservationAllocator::Release(SeqId id) {
  CHECK_EQ(admitted_.erase(id), 1u) << "unknown sequence " << id;
  NotifyKv(obs_, KvVerifyEvent::kRelease, id);
  if (obs_ != nullptr && obs_->metrics != nullptr) {
    obs_->metrics->SetGauge("kv_blocks_in_use", obs_->now_s, static_cast<double>(used_units()));
  }
}

double ReservationAllocator::Utilization() const {
  return static_cast<double>(num_admitted()) / static_cast<double>(max_concurrent_);
}

std::string ReservationAllocator::AuditInvariants() const {
  std::ostringstream out;
  if (num_admitted() > max_concurrent_) {
    out << num_admitted() << " sequences admitted but capacity reserves only "
        << max_concurrent_;
    return out.str();
  }
  for (const auto& [id, tokens] : admitted_) {
    if (tokens < 0 || tokens > max_seq_len_) {
      out << "seq " << id << ": " << tokens << " tokens outside [0, " << max_seq_len_
          << "] reservation";
      return out.str();
    }
  }
  return "";
}

}  // namespace sarathi
