#include "src/memory/prefix_cache.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/obs_hooks.h"

namespace sarathi {

namespace {

// FNV-1a over the chunk's token ids. Children are keyed by this hash and
// verified against the stored chunk on lookup, so a collision degrades to a
// miss, never to false sharing.
uint64_t HashChunk(const int32_t* tokens, int64_t count) {
  uint64_t hash = 1469598103934665603ULL;
  for (int64_t i = 0; i < count; ++i) {
    auto value = static_cast<uint32_t>(tokens[i]);
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (value >> shift) & 0xffu;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

void NotifyKv(ObsHooks* obs, KvVerifyEvent event, SeqId id) {
  if (obs != nullptr && obs->verify != nullptr) {
    obs->verify->OnKvEvent(event, id);
  }
}

}  // namespace

PrefixCachingAllocator::PrefixCachingAllocator(const Options& options)
    : PagedBlockManager(options) {
  CHECK_EQ(options.sliding_window, 0)
      << "prefix caching requires position-stable blocks; sliding-window "
         "models recycle block contents in place";
}

int64_t PrefixCachingAllocator::WatermarkBlocks() const {
  return static_cast<int64_t>(
      std::ceil(options_.watermark * static_cast<double>(options_.num_blocks)));
}

int64_t PrefixCachingAllocator::PinPrefix(
    SeqId id, std::shared_ptr<const std::vector<int32_t>> tokens, int64_t prompt_len) {
  CHECK(!pins_.contains(id)) << "sequence " << id << " already pinned";
  CHECK(!HasSequence(id)) << "sequence " << id << " already admitted";
  CHECK(!seq_tokens_.contains(id)) << "sequence " << id << " already registered";
  ++stats_.lookups;
  if (tokens == nullptr || tokens->empty()) {
    return 0;
  }
  seq_tokens_.emplace(id, tokens);
  // Match whole blocks only, and never the entire prompt: at least one
  // prefill token must remain so the request still produces its first output
  // token through a forward pass.
  int64_t covered = std::min<int64_t>(prompt_len - 1, static_cast<int64_t>(tokens->size()));
  int64_t max_blocks = covered < 0 ? 0 : covered / options_.block_size;
  Pin pin;
  Node* node = &root_;
  for (int64_t d = 0; d < max_blocks; ++d) {
    const int32_t* chunk = tokens->data() + d * options_.block_size;
    uint64_t key = HashChunk(chunk, options_.block_size);
    auto it = node->children.find(key);
    if (it == node->children.end() ||
        !std::equal(chunk, chunk + options_.block_size, it->second->chunk.begin(),
                    it->second->chunk.end())) {
      break;
    }
    node = it->second.get();
    AddBlockRef(node->block);  // Pin: eviction-proof.
    Touch(node);
    pin.nodes.push_back(node);
  }
  if (pin.nodes.empty()) {
    return 0;
  }
  ++stats_.hits;
  int64_t matched = static_cast<int64_t>(pin.nodes.size()) * options_.block_size;
  stats_.cached_tokens += matched;
  pins_.emplace(id, std::move(pin));
  return matched;
}

int64_t PrefixCachingAllocator::PinnedTokens(SeqId id) const {
  auto it = pins_.find(id);
  if (it == pins_.end()) {
    return 0;
  }
  return static_cast<int64_t>(it->second.nodes.size()) * options_.block_size;
}

bool PrefixCachingAllocator::HasEvictable(int64_t want) const {
  if (want <= 0) {
    return true;
  }
  // Reclaimable nodes are exactly those with block refcount 1 (index-only):
  // any sequence or pin referencing a node also references its ancestors, so
  // refcount-1 subtrees contain no shared blocks. DFS with early exit.
  int64_t found = 0;
  std::vector<const Node*> stack{&root_};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    for (const auto& [key, child] : node->children) {
      if (refcount(child->block) == 1 && ++found >= want) {
        return true;
      }
      stack.push_back(child.get());
    }
  }
  return false;
}

int64_t PrefixCachingAllocator::evictable_blocks() const {
  int64_t found = 0;
  std::vector<const Node*> stack{&root_};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    for (const auto& [key, child] : node->children) {
      if (refcount(child->block) == 1) {
        ++found;
      }
      stack.push_back(child.get());
    }
  }
  return found;
}

bool PrefixCachingAllocator::EvictOne() {
  // LRU over reclaimable leaves. A refcount-1 interior node only becomes a
  // leaf after its (also refcount-1) descendants go, so chains a live
  // sequence still maps are never broken.
  Node* victim = nullptr;
  std::vector<Node*> stack{&root_};
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    for (auto& [key, child] : node->children) {
      if (child->children.empty() &&
          refcount(child->block) == 1 &&
          (victim == nullptr || child->stamp < victim->stamp)) {
        victim = child.get();
      }
      stack.push_back(child.get());
    }
  }
  if (victim == nullptr) {
    return false;
  }
  ReleaseBlockRef(victim->block);  // Refcount 1 -> 0: back on the free list.
  --cached_count_;
  ++stats_.evictions;
  victim->parent->children.erase(victim->key);
  EmitKvObs("kv_prefix_evict", -1);
  return true;
}

bool PrefixCachingAllocator::CanAdmit(int64_t prompt_len, int64_t /*max_total_len*/) const {
  int64_t needed = BlocksForTokens(prompt_len);
  int64_t shortfall = needed + WatermarkBlocks() - free_blocks();
  return shortfall <= 0 || HasEvictable(shortfall);
}

bool PrefixCachingAllocator::CanAdmitSeq(SeqId id, int64_t prompt_len,
                                         int64_t /*max_total_len*/) const {
  // Pinned blocks transplant into the table without allocation; only the
  // uncached remainder needs free (or evictable) blocks.
  auto it = pins_.find(id);
  int64_t pinned = it == pins_.end() ? 0 : static_cast<int64_t>(it->second.nodes.size());
  int64_t fresh = BlocksForTokens(prompt_len) - pinned;
  int64_t shortfall = fresh + WatermarkBlocks() - free_blocks();
  return shortfall <= 0 || HasEvictable(shortfall);
}

void PrefixCachingAllocator::Admit(SeqId id, int64_t prompt_len, int64_t max_total_len) {
  CHECK(!HasSequence(id)) << "sequence " << id << " already admitted";
  CHECK(CanAdmitSeq(id, prompt_len, max_total_len));
  std::vector<Node*> matched;
  auto pin_it = pins_.find(id);
  if (pin_it != pins_.end()) {
    matched = std::move(pin_it->second.nodes);
    pins_.erase(pin_it);
  }
  int64_t needed = BlocksForTokens(prompt_len);
  int64_t fresh = needed - static_cast<int64_t>(matched.size());
  CHECK_GE(fresh, 1) << "a match must leave at least one uncached prompt block";
  while (free_blocks() < fresh + WatermarkBlocks() && EvictOne()) {
  }
  CHECK_GE(free_blocks(), fresh) << "admitted past capacity";
  std::vector<int64_t> blocks;
  blocks.reserve(static_cast<size_t>(std::max(needed, BlocksForTokens(max_total_len))));
  // The pin's extra reference becomes the table's reference: no net change.
  for (Node* node : matched) {
    blocks.push_back(node->block);
  }
  AllocateBlocks(fresh, &blocks);
  AdmitTable(id, std::move(blocks), prompt_len);
  NotifyKv(obs_, KvVerifyEvent::kAdmit, id);
  EmitKvObs("kv_admit", id);
}

bool PrefixCachingAllocator::CanAppendToken(SeqId id) const {
  // Decode allocation must never starve behind retained cache: when the base
  // answer is no (no free block for growth or copy-on-write), one eviction
  // frees one.
  return PagedBlockManager::CanAppendToken(id) || HasEvictable(1);
}

void PrefixCachingAllocator::AppendToken(SeqId id) {
  if (free_blocks() == 0) {
    const SequenceState& state = FindState(id);
    bool needs_block =
        BlocksForTokens(state.num_tokens + 1) > static_cast<int64_t>(state.blocks.size());
    if (!needs_block) {
      int64_t block = state.blocks[static_cast<size_t>(BlockIndexFor(state.num_tokens))];
      needs_block = refcount(block) > 1;  // Copy-on-write.
    }
    if (needs_block) {
      CHECK(EvictOne()) << "AppendToken without a free or evictable block";
    }
  }
  PagedBlockManager::AppendToken(id);
}

void PrefixCachingAllocator::ReleaseFinished(SeqId id) {
  auto tok_it = seq_tokens_.find(id);
  if (tok_it != seq_tokens_.end() && tok_it->second != nullptr) {
    const std::vector<int32_t>& tokens = *tok_it->second;
    const SequenceState& state = FindState(id);
    // Retain the chain of full blocks whose token ids are known. Position p's
    // KV corresponds to tokens[p] even across preemption-recompute (the
    // regenerated tokens are the same), so the chain stays content-addressed.
    int64_t covered = std::min(state.num_tokens, static_cast<int64_t>(tokens.size()));
    int64_t retain = covered / options_.block_size;
    Node* node = &root_;
    // Set once the walk dedups onto an equal-content chain held in *other*
    // physical blocks (a coincidental content match, or a recompute that
    // re-produced an already-cached prefix in fresh blocks). Inserting this
    // sequence's own blocks under such a node would break the eviction
    // ordering invariant: a fork sibling can still reference our later
    // blocks without referencing the foreign ancestor, leaving a child node
    // with a higher refcount than its parent.
    bool foreign_chain = false;
    for (int64_t d = 0; d < retain; ++d) {
      const int32_t* chunk = tokens.data() + d * options_.block_size;
      uint64_t key = HashChunk(chunk, options_.block_size);
      auto it = node->children.find(key);
      if (it != node->children.end()) {
        if (!std::equal(chunk, chunk + options_.block_size, it->second->chunk.begin(),
                        it->second->chunk.end())) {
          break;  // Hash collision: cannot chain past it, stop retaining.
        }
        node = it->second.get();  // Dedup: an equal chain already cached.
        if (node->block != state.blocks[static_cast<size_t>(d)]) foreign_chain = true;
        Touch(node);
        continue;
      }
      if (foreign_chain) {
        break;  // Only extend chains whose ancestors are our own blocks.
      }
      auto child = std::make_unique<Node>();
      child->parent = node;
      child->key = key;
      child->block = state.blocks[static_cast<size_t>(d)];
      child->chunk.assign(chunk, chunk + options_.block_size);
      AddBlockRef(child->block);  // The index's reference.
      Touch(child.get());
      ++cached_count_;
      ++stats_.retained_blocks;
      stats_.peak_cached_blocks = std::max(stats_.peak_cached_blocks, cached_count_);
      Node* inserted = child.get();
      node->children.emplace(key, std::move(child));
      node = inserted;
    }
  }
  if (tok_it != seq_tokens_.end()) {
    seq_tokens_.erase(tok_it);
  }
  Release(id);
  EmitKvObs(nullptr, id);  // Counter refresh after retention kept blocks used.
}

void PrefixCachingAllocator::OnRequestDropped(SeqId id) {
  auto it = pins_.find(id);
  if (it != pins_.end()) {
    // The index still holds its own reference, so the count never reaches 0.
    for (Node* node : it->second.nodes) {
      ReleaseBlockRef(node->block);
    }
    pins_.erase(it);
  }
  seq_tokens_.erase(id);
}

int64_t PrefixCachingAllocator::DrainCache() {
  CHECK(pins_.empty()) << pins_.size() << " prefix pins outstanding at drain";
  int64_t before_evictions = stats_.evictions;
  int64_t released = 0;
  while (EvictOne()) {
    ++released;
  }
  stats_.evictions = before_evictions;  // Drain is not allocation pressure.
  return released;
}

std::string PrefixCachingAllocator::AuditInvariants() const {
  // Expected refcount of every block: table references plus one per index
  // node plus one per pinned node. Mirrors the base audit with the two cache
  // reference sources added.
  std::string error = AuditTables();
  if (!error.empty()) {
    return error;
  }
  std::vector<int32_t>& expected = audit_expected_;
  std::vector<uint8_t>& in_index = audit_marks_;
  in_index.assign(static_cast<size_t>(options_.num_blocks), 0);
  int64_t nodes_seen = 0;
  std::vector<const Node*>& stack = audit_stack_;
  stack.assign(1, &root_);
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    for (const auto& [key, child] : node->children) {
      ++nodes_seen;
      if (child->block < 0 || child->block >= options_.num_blocks) {
        std::ostringstream out;
        out << "cached node holds out-of-range block id " << child->block;
        return out.str();
      }
      if (in_index[static_cast<size_t>(child->block)]) {
        std::ostringstream out;
        out << "block " << child->block << " cached by two index nodes";
        return out.str();
      }
      in_index[static_cast<size_t>(child->block)] = 1;
      ++expected[static_cast<size_t>(child->block)];
      stack.push_back(child.get());
    }
  }
  if (nodes_seen != cached_count_) {
    std::ostringstream out;
    out << "index holds " << nodes_seen << " nodes but cached_count_ says "
        << cached_count_;
    return out.str();
  }
  for (const auto& [id, pin] : pins_) {
    for (const Node* node : pin.nodes) {
      ++expected[static_cast<size_t>(node->block)];
    }
  }
  return AuditRefcounts(" references (tables + index + pins)");
}

std::string PrefixCachingAllocator::AuditCache() const {
  // Structure: every cached block referenced at least once beyond the free
  // list (the index's own reference), chunk arithmetic intact, and chains
  // unbroken — a child's block may never outlive its parent's, which
  // leaf-first eviction guarantees by construction and this audit re-checks.
  std::vector<const Node*>& stack = audit_stack_;
  stack.assign(1, &root_);
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    for (const auto& [key, child] : node->children) {
      if (child->parent != node || child->key != key) {
        std::ostringstream out;
        out << "cached node for block " << child->block << " has a broken parent link";
        return out.str();
      }
      if (static_cast<int64_t>(child->chunk.size()) != options_.block_size) {
        std::ostringstream out;
        out << "cached node for block " << child->block << " covers "
            << child->chunk.size() << " tokens, want " << options_.block_size;
        return out.str();
      }
      if (refcount(child->block) < 1) {
        std::ostringstream out;
        out << "cached block " << child->block << " has refcount "
            << refcount(child->block) << " (evicted while mapped)";
        return out.str();
      }
      if (node != &root_ && refcount(node->block) < refcount(child->block)) {
        std::ostringstream out;
        out << "cached block " << child->block << " (refcount "
            << refcount(child->block) << ") outranks its parent " << node->block
            << " (refcount " << refcount(node->block)
            << "): a chain reference is missing its ancestors";
        return out.str();
      }
      stack.push_back(child.get());
    }
  }
  for (const auto& [id, pin] : pins_) {
    if (pin.nodes.empty()) {
      std::ostringstream out;
      out << "seq " << id << ": empty pin registered";
      return out.str();
    }
    for (const Node* node : pin.nodes) {
      if (refcount(node->block) < 2) {
        std::ostringstream out;
        out << "seq " << id << ": pinned block " << node->block
            << " has refcount < 2 (pin reference lost)";
        return out.str();
      }
    }
  }
  return "";
}

}  // namespace sarathi
