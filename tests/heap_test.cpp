// The dynamic transactional heap: tm_alloc/tm_free across every backend,
// the typed accessor layer, and — the paper's headline use case — the
// privatization-safe deferred reclamation (freed blocks recycle only after
// a quiescence grace period).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "runtime/stripe_table.hpp"
#include "tm/factory.hpp"

namespace privstm {
namespace {

using tm::TmKind;
using tm::TxHandle;

class HeapOnTm : public ::testing::TestWithParam<TmKind> {
 protected:
  /// Magazines off, a ticket per free, one store shard: the configuration
  /// that makes recycling deterministic (a freed block whose grace period
  /// elapsed is recycled by the very next fitting alloc, with no sibling
  /// shard to steal from and a single LIFO bin order), so the tests below
  /// can pin the grace-period semantics exactly. The cached/sharded
  /// default configuration is exercised by tests/alloc_test.cpp,
  /// tests/shard_test.cpp and the churn test below.
  std::unique_ptr<tm::TransactionalMemory> make(tm::TmConfig config = {}) {
    config.alloc.magazine_size = 0;
    config.alloc.limbo_batch = 1;
    config.alloc.shards = 1;
    return tm::make_tm(GetParam(), config);
  }

  /// The shipped defaults (magazines + batched limbo on).
  std::unique_ptr<tm::TransactionalMemory> make_default() {
    return tm::make_tm(GetParam(), tm::TmConfig{});
  }
};

TEST_P(HeapOnTm, AllocGrowsPastTheStaticRegisterFile) {
  // The fixed num_registers = 64 capacity limit is gone: allocate well
  // past it and run transactions over the new locations.
  auto tmi = make();
  ASSERT_EQ(tmi->config().num_registers, 64u);
  auto session = tmi->make_thread(0, nullptr);

  std::vector<TxHandle> blocks;
  for (int b = 0; b < 100; ++b) blocks.push_back(tmi->tm_alloc(4));

  // All blocks are disjoint and beyond the static prefix.
  std::set<tm::RegId> seen;
  for (const TxHandle& h : blocks) {
    ASSERT_TRUE(h.valid());
    EXPECT_GE(h.base, 64);
    for (std::uint32_t i = 0; i < h.size; ++i) {
      EXPECT_TRUE(seen.insert(h.loc(i)).second) << "overlapping blocks";
    }
  }

  // Transactional round trip over a location far past the old limit.
  const TxHandle h = blocks.back();
  tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
    for (std::uint32_t i = 0; i < h.size; ++i) {
      tx.write(h.loc(i), 1000 + i);
    }
  });
  tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
    for (std::uint32_t i = 0; i < h.size; ++i) {
      EXPECT_EQ(tx.read(h.loc(i)), 1000 + i);
    }
  });
  for (std::uint32_t i = 0; i < h.size; ++i) {
    EXPECT_EQ(tmi->peek(h.loc(i)), 1000 + i);
  }
}

TEST_P(HeapOnTm, FreeRecyclesOnlyAfterQuiescence) {
  // A block freed while no transaction is live recycles immediately (the
  // grace period is vacuous); one freed while some transaction is live
  // stays in limbo until that transaction finishes — the delayed-commit
  // hazard can therefore never hit recycled memory.
  auto tmi = make();
  auto alloc_session = tmi->make_thread(0, nullptr);
  (void)alloc_session;

  const TxHandle h1 = tmi->tm_alloc(8);
  tmi->tm_free(h1);
  const TxHandle h2 = tmi->tm_alloc(8);
  EXPECT_EQ(h2.base, h1.base) << "vacuous grace period should recycle";

  // Now hold a transaction open in another session while freeing.
  auto worker = tmi->make_thread(1, nullptr);
  ASSERT_TRUE(worker->tx_begin());
  tm::Value v = 0;
  ASSERT_TRUE(worker->tx_read(h2.loc(0), v));

  tmi->tm_free(h2);
  EXPECT_EQ(tmi->heap().limbo_size(), 1u);
  const TxHandle h3 = tmi->tm_alloc(8);
  EXPECT_NE(h3.base, h2.base)
      << "freed block recycled while a transaction from before the free "
         "was still live";

  EXPECT_EQ(worker->tx_commit(), tm::TxResult::kCommitted);
  // With the old transaction finished the grace period can elapse; the
  // next allocator interaction drains limbo.
  const TxHandle h4 = tmi->tm_alloc(8);
  EXPECT_EQ(h4.base, h2.base) << "block not recycled after quiescence";
  EXPECT_EQ(tmi->heap().limbo_size(), 0u);
  EXPECT_EQ(tmi->heap().reclaimed_count(), 2u);
}

TEST_P(HeapOnTm, RecycledBlocksReadVInit) {
  auto tmi = make();
  auto session = tmi->make_thread(0, nullptr);
  const TxHandle h = tmi->tm_alloc(4);
  tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
    for (std::uint32_t i = 0; i < 4; ++i) tx.write(h.loc(i), 42 + i);
  });
  tmi->tm_free(h);
  const TxHandle h2 = tmi->tm_alloc(4);
  ASSERT_EQ(h2.base, h.base);
  tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_EQ(tx.read(h2.loc(i)), hist::kVInit);
    }
  });
}

TEST_P(HeapOnTm, FreedBlocksSplitAndMergeAcrossSizeClasses) {
  // The PR 3 allocator kept exact-size free lists, so a mixed-size
  // pattern never reused anything. The size-class store does the
  // opposite — and this test pins the splitting/merging mechanics:
  // adjacent freed blocks coalesce into one extent, and a smaller
  // request carves that extent up (best-fit with remainder).
  auto tmi = make();
  const TxHandle small = tmi->tm_alloc(2);   // cells [64, 66)
  const TxHandle big = tmi->tm_alloc(16);    // cells [66, 82)
  const std::size_t end_before = tmi->heap().allocated_end();
  tmi->tm_free(small);
  tmi->tm_free(big);
  // Both grace periods were vacuous, so the store now holds ONE merged
  // 18-cell extent starting at small.base.
  EXPECT_EQ(tmi->heap().free_cells(), 18u);
  // alloc(5) rounds to class 6 and splits the merged extent's front.
  const TxHandle a = tmi->tm_alloc(5);
  EXPECT_EQ(a.base, small.base);
  // The 12-cell remainder is exactly class 12: next alloc(12) gets it.
  const TxHandle b = tmi->tm_alloc(12);
  EXPECT_EQ(b.base, small.base + 6);
  // Everything was satisfied from reused memory: no bump growth.
  EXPECT_EQ(tmi->heap().allocated_end(), end_before);
  EXPECT_EQ(tmi->heap().free_cells(), 0u);
}

TEST_P(HeapOnTm, ResetRestoresThePostConstructionHeap) {
  auto tmi = make();
  {
    auto session = tmi->make_thread(0, nullptr);
    const TxHandle h = tmi->tm_alloc(4);
    tm::run_tx_retry(*session,
                     [&](tm::TxScope& tx) { tx.write(h.loc(0), 7); });
    tmi->tm_free(h);
  }
  tmi->reset();
  EXPECT_EQ(tmi->heap().allocated_end(), tmi->config().num_registers);
  EXPECT_EQ(tmi->heap().limbo_size(), 0u);
  EXPECT_EQ(tmi->heap().alloc_count(), 0u);
  const TxHandle h = tmi->tm_alloc(4);
  EXPECT_EQ(static_cast<std::size_t>(h.base), tmi->config().num_registers);
  EXPECT_EQ(tmi->peek(h.loc(0)), hist::kVInit);
}

TEST_P(HeapOnTm, ConcurrentAllocFreeChurnStaysDisjoint) {
  // Allocator stress under the SHIPPED configuration (magazines +
  // batched limbo): threads alloc, transact on their block, free, and
  // re-alloc; no two live blocks may ever overlap, and every commit must
  // see only its own tags (caught by the read-back check). A recycled
  // block handed out while any old transaction could still write it
  // would fail exactly here, and so would a hand-out path that skipped
  // the vinit restore.
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 200;
  auto tmi = make_default();
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto session = tmi->make_thread(static_cast<hist::ThreadId>(t),
                                      nullptr);
      for (int round = 0; round < kRounds; ++round) {
        const TxHandle h = tmi->tm_alloc(1 + (t % 3));
        // Before its first write a new block reads vinit in every cell,
        // whichever path (magazine, home bin, steal, bump) served it and
        // whichever thread last wrote it.
        for (std::uint32_t i = 0; i < h.size; ++i) {
          if (tmi->peek(h.loc(i)) != hist::kVInit) failed.store(true);
        }
        const tm::Value tag =
            ((static_cast<tm::Value>(t) + 1) << 32) | (round + 1);
        tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
          for (std::uint32_t i = 0; i < h.size; ++i) {
            tx.write(h.loc(i), tag + i);
          }
        });
        bool mismatch = false;
        tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
          // Reset per attempt: an aborted attempt (false stripe conflict
          // with another thread's commit — possible since the Fibonacci
          // stripe mixer, which can map two nearby locations to one
          // stripe) replays, and its reads return 0 after the abort.
          // Only a COMMITTED attempt's observations count.
          mismatch = false;
          for (std::uint32_t i = 0; i < h.size; ++i) {
            if (tx.read(h.loc(i)) != tag + i) mismatch = true;
          }
        });
        if (mismatch) failed.store(true);
        if (failed.load()) return;
        tmi->tm_free(h);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(failed.load())
      << "a live block was recycled or overlapped another, or a recycled "
         "block was handed out with stale cells";
}

TEST_P(HeapOnTm, TypedAccessorsRoundTrip) {
  auto tmi = make();
  auto session = tmi->make_thread(0, nullptr);

  const tm::TxVar<int> count(tmi->tm_alloc(1));
  const tm::TxVar<bool> flag(tmi->tm_alloc(1));
  const tm::TxVar<double> ratio(tmi->tm_alloc(1));
  auto arr = tm::tm_alloc_array<std::int64_t>(*tmi, 4);
  ASSERT_EQ(arr.size(), 4u);

  tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
    count.set(tx, -17);
    flag.set(tx, true);
    ratio.set(tx, 2.5);
    for (std::size_t i = 0; i < arr.size(); ++i) {
      arr.set(tx, i, -100 - static_cast<std::int64_t>(i));
    }
  });
  tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
    EXPECT_EQ(count.get(tx), -17);
    EXPECT_TRUE(flag.get(tx));
    EXPECT_EQ(ratio.get(tx), 2.5);
    for (std::size_t i = 0; i < arr.size(); ++i) {
      EXPECT_EQ(arr.get(tx, i), -100 - static_cast<std::int64_t>(i));
    }
  });

  // The uninstrumented accessors see the committed values (this thread
  // has quiesced: its own transaction committed; no other threads).
  session->fence();
  EXPECT_EQ(count.nt_get(*session), -17);
  EXPECT_TRUE(flag.nt_get(*session));
  EXPECT_EQ(ratio.nt_get(*session), 2.5);
  count.nt_set(*session, 5);
  EXPECT_EQ(count.nt_get(*session), 5);
}

INSTANTIATE_TEST_SUITE_P(AllTms, HeapOnTm,
                         ::testing::ValuesIn(tm::all_tm_kinds()),
                         [](const auto& info) {
                           return std::string(tm::tm_kind_name(info.param));
                         });

TEST(StripeTable, RoundsToPowerOfTwoAndCoversAllLocations) {
  rt::StripeTable table(100);
  EXPECT_EQ(table.stripe_count(), 128u);
  for (std::uint64_t loc = 0; loc < 10000; ++loc) {
    EXPECT_LT(table.index_of(loc), table.stripe_count());
  }
  // The hash must spread a dense location range over many stripes (no
  // catastrophic clustering that would serialize unrelated commits).
  std::set<std::size_t> hit;
  for (std::uint64_t loc = 0; loc < 128; ++loc) hit.insert(table.index_of(loc));
  EXPECT_GT(hit.size(), 64u);
}

TEST(StripeTable, StrideAlignedLocationsDoNotAliasOntoOneStripe) {
  // False-conflict regression for the Fibonacci mixer: the size-class
  // allocator hands out stride-aligned blocks, so "the same field of
  // every class-c node" is an arithmetic progression. Under the old
  // `loc & mask` map a stride that is a multiple of the stripe count
  // folded the WHOLE progression onto one stripe (for stride 1024 below,
  // all 256 locations → stripe 0), serializing unrelated commits. The
  // mixer must spread it like a dense range instead.
  rt::StripeTable table(1024);
  ASSERT_EQ(table.stripe_count(), 1024u);
  for (const std::uint64_t stride : {64, 256, 1024, 4096}) {
    std::set<std::size_t> hit;
    for (std::uint64_t k = 0; k < 256; ++k) {
      hit.insert(table.index_of(7 + k * stride));
    }
    // 256 draws into 1024 stripes collide a little by birthday math; what
    // matters is the progression does not collapse. Require at least half
    // the draws to land on distinct stripes (the old map gave exactly 1
    // distinct stripe for strides 1024 and 4096).
    EXPECT_GT(hit.size(), 128u) << "stride " << stride << " aliased";
  }
}

}  // namespace
}  // namespace privstm
