// Differential tests of the incremental KV audit (KvAllocator::AuditChanges)
// against the full self-audit (AuditInvariants).
//
// Two angles. Random interleavings of Admit / AppendToken / Fork /
// MakeWritable / Release on a small pool (plain paged, fork/copy-on-write,
// sliding window) with an allocator bug injected at a random point: after
// every operation, or every few, both audits must agree on pass or fail, and
// each bug must fail them on the call right after it. And the invariant
// checker driven through a Sarathi scheduler with a bug injected mid-run must
// report exactly what it reports with full audits — the same violations, on
// the same audit call, with the same messages. The bugs are written the way a
// faulty allocator would write them, through the block manager's protected
// mutators: a fork that skips a reference, a release that skips a block, a
// double free-list push, a token bump without its block, a copy-on-write that
// keeps the old reference, an out-of-range table slot, a stray reference, an
// allocated block that never reaches a table, an admission with too few
// blocks, and a block appended without its token.

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/memory/block_manager.h"
#include "src/obs/obs_hooks.h"
#include "src/scheduler/scheduler_factory.h"
#include "src/verify/invariant_checker.h"

namespace sarathi {
namespace {

enum class Bug {
  kForkSkipsRef,
  kReleaseSkipsBlock,
  kDoubleFreePush,
  kBumpWithoutBlock,
  kCowKeepsOldRef,
  kOutOfRangeSlot,
  kStrayRef,
  kLostBlock,
  kShortAdmit,
  kExtraBlock,
};
constexpr Bug kAllBugs[] = {Bug::kForkSkipsRef,   Bug::kReleaseSkipsBlock, Bug::kDoubleFreePush,
                            Bug::kBumpWithoutBlock, Bug::kCowKeepsOldRef,  Bug::kOutOfRangeSlot,
                            Bug::kStrayRef,         Bug::kLostBlock,       Bug::kShortAdmit,
                            Bug::kExtraBlock};

// A paged manager with one faulty operation per Bug. Each returns false when
// the pool's current state gives it nothing to break (it then changes
// nothing).
class FaultyManager : public PagedBlockManager {
 public:
  using PagedBlockManager::PagedBlockManager;

  bool Inject(Bug bug, SeqId id, SeqId fresh_id) {
    switch (bug) {
      case Bug::kForkSkipsRef: {  // The last block misses its reference.
        ForkTable(id, fresh_id);
        const std::vector<int64_t>& blocks = FindState(fresh_id).blocks;
        for (size_t i = 0; i + 1 < blocks.size(); ++i) AddBlockRef(blocks[i]);
        Notify(KvVerifyEvent::kFork, fresh_id);
        return true;
      }
      case Bug::kReleaseSkipsBlock: {  // The first block leaks.
        std::vector<int64_t> blocks = EraseTable(id);
        for (size_t i = 1; i < blocks.size(); ++i) ReleaseBlockRef(blocks[i]);
        Notify(KvVerifyEvent::kRelease, id);
        return true;
      }
      case Bug::kDoubleFreePush: {  // Revive a free block, then free it again.
        for (int64_t b = 0; b < num_blocks(); ++b) {
          if (refcount(b) == 0) {
            AddBlockRef(b);
            ReleaseBlockRef(b);
            return true;
          }
        }
        return false;
      }
      case Bug::kBumpWithoutBlock: {  // Cross a block boundary, skip the block.
        const SequenceState& state = FindState(id);
        auto size = static_cast<int64_t>(state.blocks.size());
        if (BlocksForTokens(state.num_tokens + 1) == size) return false;
        BumpTokens(id);
        return true;
      }
      case Bug::kCowKeepsOldRef: {  // Copy a shared block, keep its reference.
        const std::vector<int64_t>& blocks = FindState(id).blocks;
        if (free_blocks() == 0 || BlockRefCount(blocks[0]) < 2) return false;
        ReplaceTableBlock(id, 0, AllocateBlock());
        return true;
      }
      case Bug::kOutOfRangeSlot: {  // A slot points past the pool.
        ReleaseBlockRef(ReplaceTableBlock(id, 0, num_blocks() + 3));
        return true;
      }
      case Bug::kStrayRef: {  // A reference no table slot accounts for.
        AddBlockRef(FindState(id).blocks.back());
        return true;
      }
      case Bug::kLostBlock: {  // An allocation that never reaches a table.
        if (free_blocks() == 0) return false;
        AllocateBlock();
        return true;
      }
      case Bug::kShortAdmit: {  // One block for a prompt that needs three.
        if (free_blocks() == 0) return false;
        AdmitTable(fresh_id, {AllocateBlock()}, 2 * block_size() + 1);
        Notify(KvVerifyEvent::kAdmit, fresh_id);
        return true;
      }
      case Bug::kExtraBlock: {  // A block appended without its token.
        if (free_blocks() == 0) return false;
        PushTableBlock(id, AllocateBlock());
        return true;
      }
    }
    return false;
  }

 private:
  void Notify(KvVerifyEvent event, SeqId seq) {
    if (obs_ != nullptr && obs_->verify != nullptr) obs_->verify->OnKvEvent(event, seq);
  }
};

// The reference: the checker's KV audit as it was before the incremental
// one, a full audit after every batch.
class FullAuditManager final : public FaultyManager {
 public:
  using FaultyManager::FaultyManager;
  std::string AuditChanges() const override { return AuditInvariants(); }
};

// ---- Allocator level: random interleavings ----

constexpr int64_t kNumBlocks = 32;
constexpr int64_t kBlockSize = 4;
constexpr int kOpsPerSeed = 600;
constexpr uint64_t kNumSeeds = 20;

enum class Mode { kPaged, kForkCow, kSlidingWindow };

void ExpectSameVerdict(const PagedBlockManager& manager, uint64_t seed, int op) {
  std::string changes = manager.AuditChanges();
  std::string full = manager.AuditInvariants();
  ASSERT_EQ(changes.empty(), full.empty())
      << "seed " << seed << " op " << op << ": incremental \"" << changes << "\" vs full \""
      << full << "\"";
}

void RunSeed(uint64_t seed, Mode mode) {
  PagedBlockManager::Options options;
  options.num_blocks = kNumBlocks;
  options.block_size = kBlockSize;
  options.watermark = 0.0;
  options.sliding_window = mode == Mode::kSlidingWindow ? 2 * kBlockSize + 1 : 0;
  FaultyManager manager(options);
  bool forks = mode != Mode::kPaged;

  Rng rng(seed * 7919 + static_cast<uint64_t>(mode));
  std::vector<SeqId> live;
  SeqId next_id = 0;
  // Two thirds of the seeds break the pool somewhere in the run.
  int bug_op =
      seed % 3 == 0 ? -1 : static_cast<int>(rng.UniformInt(kOpsPerSeed / 4, kOpsPerSeed - 1));
  // Odd seeds audit after every operation; even seeds let 1-4 operations
  // pile up between audits, so one audit sees several changes.
  int audit_gap = 0;

  for (int op = 0; op < kOpsPerSeed; ++op) {
    auto pick = [&]() {
      return live[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
    };
    bool broke = false;
    if (op >= bug_op && bug_op >= 0 && !live.empty()) {
      Bug bug = kAllBugs[static_cast<size_t>(rng.UniformInt(0, std::size(kAllBugs) - 1))];
      SeqId id = pick();
      broke = manager.Inject(bug, id, next_id);
      if (broke && (bug == Bug::kForkSkipsRef || bug == Bug::kShortAdmit)) {
        live.push_back(next_id++);
      }
      if (broke && bug == Bug::kReleaseSkipsBlock) std::erase(live, id);
    } else {
      switch (rng.UniformInt(0, 4)) {
        case 0: {
          int64_t prompt = rng.UniformInt(1, 3 * kBlockSize);
          if (manager.CanAdmit(prompt, prompt + 8)) {
            manager.Admit(next_id, prompt, prompt + 8);
            live.push_back(next_id++);
          }
          break;
        }
        case 1:
          if (!live.empty()) {
            SeqId id = pick();
            if (manager.CanAppendToken(id)) manager.AppendToken(id);
          }
          break;
        case 2:
          if (forks && !live.empty()) {
            manager.Fork(pick(), next_id);
            live.push_back(next_id++);
          }
          break;
        case 3:
          if (forks && !live.empty() && manager.free_blocks() > 0) {
            SeqId id = pick();
            manager.MakeWritable(id, rng.UniformInt(0, manager.SequenceTokens(id) - 1));
          }
          break;
        case 4:
          if (!live.empty()) {
            SeqId id = pick();
            manager.Release(id);
            std::erase(live, id);
          }
          break;
      }
      manager.TakePendingCows();
    }
    if (broke || seed % 2 == 1 || audit_gap-- <= 0) {
      ExpectSameVerdict(manager, seed, op);
      audit_gap = static_cast<int>(rng.UniformInt(0, 3));
    }
    if (broke) {
      ASSERT_NE(manager.AuditInvariants(), "") << "seed " << seed << ": the bug broke nothing";
      // A failed incremental audit keeps giving the full audit's verdict.
      ExpectSameVerdict(manager, seed, op);
      return;  // The pool is corrupt; further operations may abort.
    }
  }
  ExpectSameVerdict(manager, seed, kOpsPerSeed);
}

TEST(KvAuditDifferentialTest, PagedInterleavings) {
  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunSeed(seed, Mode::kPaged));
  }
}

TEST(KvAuditDifferentialTest, ForkCowInterleavings) {
  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunSeed(seed, Mode::kForkCow));
  }
}

TEST(KvAuditDifferentialTest, SlidingWindowInterleavings) {
  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunSeed(seed, Mode::kSlidingWindow));
  }
}

TEST(KvAuditDifferentialTest, EveryBugIsCaughtOnTheCallAfterIt) {
  PagedBlockManager::Options options;
  options.num_blocks = 16;
  options.block_size = 4;
  options.watermark = 0.0;
  for (Bug bug : kAllBugs) {
    FaultyManager manager(options);
    ASSERT_EQ(manager.AuditChanges(), "");  // Seeds the ledger.
    manager.Admit(0, 8, 16);                 // Two full blocks.
    manager.Fork(0, 1);
    ASSERT_EQ(manager.AuditChanges(), "");
    ASSERT_TRUE(manager.Inject(bug, 1, 2));
    EXPECT_NE(manager.AuditChanges(), "") << "bug " << static_cast<int>(bug);
    EXPECT_NE(manager.AuditChanges(), "") << "bug " << static_cast<int>(bug);
  }
}

// ---- Checker level: same violations as with full audits ----

// A Sarathi scheduler on `Manager`, wired to its own checker and driven by
// hand, with side sequences the scheduler does not know about for the bugs
// to corrupt.
template <typename Manager>
class Harness {
 public:
  Harness() {
    PagedBlockManager::Options options;
    options.num_blocks = 64;
    options.block_size = 16;
    options.watermark = 0.0;
    allocator_ = std::make_unique<Manager>(options);
    SchedulerConfig config;
    config.policy = SchedulerPolicy::kSarathi;
    config.token_budget = 128;
    config.max_batch_size = 4;
    scheduler_ = MakeScheduler(config, allocator_.get());
    obs_.verify = &checker_;
    scheduler_->set_obs(&obs_);
    allocator_->set_obs(&obs_);
    checker_.BeginRun(scheduler_.get(), allocator_.get(), "audit");
    for (int i = 0; i < 6; ++i) {
      Request r;
      r.id = i;
      r.prompt_tokens = 90 + 70 * i;
      r.output_tokens = 6 + 3 * i;
      states_.push_back(std::make_unique<RequestState>(r));
      scheduler_->Enqueue(states_.back().get());
    }
    allocator_->Admit(1000, 32, 80);  // Two full blocks.
    allocator_->Fork(1000, 1001);
  }

  // Runs the scheduler to completion, injecting `bug` on side sequence
  // 1001 (fresh id 1002) at iteration `at`: after Schedule() when `mid_batch`
  // is false, else after OnBatchComplete(), between the batch's two audits.
  // A double free-list push would hand the next two allocations the same
  // block, so that run stops after the batch the bug lands in.
  void Run(Bug bug, int at, bool mid_batch) {
    for (int iteration = 0;; ++iteration) {
      ScheduledBatch batch = scheduler_->Schedule();
      if (batch.empty()) break;
      bool inject = iteration == at;
      if (inject && !mid_batch) {
        ASSERT_TRUE(allocator_->Inject(bug, 1001, 1002));
      }
      checker_.OnBatchScheduled(batch, now_);
      now_ += 0.01;
      obs_.SetNow(now_);
      scheduler_->OnBatchComplete(batch);
      if (inject && mid_batch) {
        ASSERT_TRUE(allocator_->Inject(bug, 1001, 1002));
      }
      checker_.OnBatchApplied(batch, now_);
      if (inject && bug == Bug::kDoubleFreePush) break;
    }
    checker_.EndRun();
  }

  const InvariantChecker& checker() const { return checker_; }

 private:
  InvariantChecker checker_;
  ObsHooks obs_;
  std::unique_ptr<Manager> allocator_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<std::unique_ptr<RequestState>> states_;
  double now_ = 0.0;
};

// Every violation rendered, in the order the checker reported them.
std::vector<std::string> Rendered(const InvariantChecker& checker) {
  std::vector<std::string> rendered;
  for (const Violation& violation : checker.violations()) {
    rendered.push_back(violation.Render());
  }
  return rendered;
}

TEST(KvAuditCheckerTest, CleanRunMatchesFullAudits) {
  // Bug-free up to the end: inject past the last iteration.
  Harness<FaultyManager> incremental;
  incremental.Run(Bug::kForkSkipsRef, /*at=*/1 << 30, false);
  Harness<FullAuditManager> full;
  full.Run(Bug::kForkSkipsRef, /*at=*/1 << 30, false);
  ASSERT_GT(incremental.checker().iterations_checked(), 10);
  EXPECT_EQ(incremental.checker().iterations_checked(), full.checker().iterations_checked());
  // The side sequences are still held at the end: the same leak in both.
  EXPECT_EQ(Rendered(incremental.checker()), Rendered(full.checker()));
  EXPECT_EQ(incremental.checker().total_violations(), 1);
}

TEST(KvAuditCheckerTest, InjectedBugsMatchFullAudits) {
  for (Bug bug : kAllBugs) {
    for (bool mid_batch : {false, true}) {
      SCOPED_TRACE(testing::Message() << "bug " << static_cast<int>(bug) << " mid_batch "
                                      << mid_batch);
      Harness<FaultyManager> incremental;
      incremental.Run(bug, /*at=*/3, mid_batch);
      Harness<FullAuditManager> full;
      full.Run(bug, /*at=*/3, mid_batch);
      const std::vector<Violation>& got = incremental.checker().violations();
      EXPECT_EQ(Rendered(incremental.checker()), Rendered(full.checker()));
      // The first violation is the KV audit, on the call right after the bug.
      ASSERT_FALSE(got.empty());
      EXPECT_EQ(got[0].invariant, Invariant::kKvConservation);
      EXPECT_EQ(got[0].iteration, 4);
      EXPECT_NE(got[0].message.find(mid_batch ? "after apply" : "after schedule"),
                std::string::npos)
          << got[0].message;
    }
  }
}

TEST(KvAuditCheckerTest, ReportIsReproducible) {
  // Runs cut short leave requests unfinished; EndRun reports them by request
  // id, whatever addresses the two runs' states got.
  for (Bug bug : kAllBugs) {
    SCOPED_TRACE(testing::Message() << "bug " << static_cast<int>(bug));
    Harness<FaultyManager> first;
    first.Run(bug, /*at=*/3, /*mid_batch=*/true);
    Harness<FaultyManager> second;
    second.Run(bug, /*at=*/3, /*mid_batch=*/true);
    EXPECT_GT(first.checker().total_violations(), 1);
    EXPECT_EQ(first.checker().Report(), second.checker().Report());
  }
}

}  // namespace
}  // namespace sarathi
