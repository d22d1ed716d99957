// Tl2Fused-specific tests: the fused VersionedLock word, epoch-tagged
// membership across aborts, the read-only commit fast path, per-thread
// stamp buffers, and the reset() contract — everything the fused fast path
// changed relative to the faithful Fig 9 backend.
#include <gtest/gtest.h>

#include "history/recorder.hpp"
#include "runtime/versioned_lock.hpp"
#include "tm/tl2.hpp"
#include "tm/tl2_fused.hpp"

namespace privstm {
namespace {

using rt::VersionedLock;
using tm::Tl2;
using tm::Tl2Fused;
using tm::TmConfig;
using tm::TxResult;

TmConfig config(std::size_t regs = 8) {
  TmConfig c;
  c.num_registers = regs;
  return c;
}

// ---------------------------------------------------------------------------
// VersionedLock unit behaviour.
// ---------------------------------------------------------------------------

TEST(VersionedLockTest, StartsUnlockedAtVersionZero) {
  VersionedLock vl;
  const auto w = vl.load();
  EXPECT_FALSE(VersionedLock::is_locked(w));
  EXPECT_EQ(VersionedLock::version_of(w), 0u);
}

TEST(VersionedLockTest, LockCommitPublishesVersionAndUnlocksAtomically) {
  VersionedLock vl;
  auto expected = vl.load();
  ASSERT_TRUE(vl.try_lock(expected, /*owner=*/3));
  EXPECT_TRUE(vl.held_by(3));
  EXPECT_TRUE(VersionedLock::is_locked(vl.load()));
  EXPECT_EQ(VersionedLock::owner_of(vl.load()), 3u);

  vl.unlock_with_version(17);
  const auto w = vl.load();
  EXPECT_FALSE(VersionedLock::is_locked(w));
  EXPECT_EQ(VersionedLock::version_of(w), 17u);
}

TEST(VersionedLockTest, SecondAcquirerFailsAndObservesOwner) {
  VersionedLock vl;
  vl.unlock_with_version(5);
  auto expected = vl.load();
  ASSERT_TRUE(vl.try_lock(expected, 1));

  auto expected2 = vl.load();
  EXPECT_FALSE(vl.try_lock(expected2, 2));
  EXPECT_TRUE(VersionedLock::is_locked(expected2));
  EXPECT_EQ(VersionedLock::owner_of(expected2), 1u);
  EXPECT_FALSE(vl.held_by(2));
}

TEST(VersionedLockTest, RestoreRecoversPreLockVersionOnAbort) {
  VersionedLock vl;
  vl.unlock_with_version(9);
  auto prev = vl.load();
  ASSERT_TRUE(vl.try_lock(prev, 4));  // prev still holds the pre-lock word
  vl.restore(prev);
  const auto w = vl.load();
  EXPECT_FALSE(VersionedLock::is_locked(w));
  EXPECT_EQ(VersionedLock::version_of(w), 9u);
}

// ---------------------------------------------------------------------------
// Fused-backend behaviour.
// ---------------------------------------------------------------------------

TEST(Tl2FusedTest, ReadValidationAbortsOnConcurrentCommit) {
  Tl2Fused tmi(config());
  auto s0 = tmi.make_thread(0, nullptr);
  auto s1 = tmi.make_thread(1, nullptr);

  ASSERT_TRUE(s0->tx_begin());
  hist::Value v = 0;
  ASSERT_TRUE(s0->tx_read(0, v));
  EXPECT_EQ(v, hist::kVInit);

  ASSERT_EQ(tm::run_tx(*s1, [](tm::TxScope& tx) { tx.write(1, 5); }),
            TxResult::kCommitted);

  // s0 now reads register 1: fused word carries version > rver ⇒ abort.
  EXPECT_FALSE(s0->tx_read(1, v));
  EXPECT_GE(tmi.stats().total(rt::Counter::kTxReadValidationFail), 1u);
}

TEST(Tl2FusedTest, AbortedWriteSetDoesNotLeakIntoNextTransaction) {
  // The epoch-tag membership must invalidate buffered writes of an aborted
  // transaction without any explicit clearing pass.
  Tl2Fused tmi(config());
  auto s0 = tmi.make_thread(0, nullptr);
  auto s1 = tmi.make_thread(1, nullptr);

  ASSERT_TRUE(s0->tx_begin());
  ASSERT_TRUE(s0->tx_write(0, 42));
  hist::Value v = 0;
  ASSERT_TRUE(s0->tx_read(2, v));
  ASSERT_EQ(tm::run_tx(*s1, [](tm::TxScope& tx) { tx.write(1, 5); }),
            TxResult::kCommitted);
  EXPECT_FALSE(s0->tx_read(1, v));  // concurrent commit ⇒ abort

  // Fresh transaction on the same session: register 0 must read its
  // committed value, not the aborted transaction's buffered 42.
  ASSERT_EQ(tm::run_tx(*s0,
                       [](tm::TxScope& tx) {
                         EXPECT_EQ(tx.read(0), hist::kVInit);
                       }),
            TxResult::kCommitted);
}

TEST(Tl2FusedTest, DuplicateWritesCollapseInPlace) {
  Tl2Fused tmi(config());
  auto session = tmi.make_thread(0, nullptr);
  ASSERT_EQ(tm::run_tx(*session,
                       [](tm::TxScope& tx) {
                         tx.write(3, 1);
                         tx.write(3, 2);
                         tx.write(3, 3);
                         EXPECT_EQ(tx.read(3), 3u);
                       }),
            TxResult::kCommitted);
  EXPECT_EQ(tmi.peek(3), 3u);
}

TEST(Tl2FusedTest, ReadOnlyCommitSkipsClockAdvance) {
  TmConfig c = config();
  c.collect_timestamps = true;
  Tl2Fused tmi(c);
  auto session = tmi.make_thread(0, nullptr);

  // Two read-only transactions, then one writer.
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(tm::run_tx(*session, [](tm::TxScope& tx) { (void)tx.read(0); }),
              TxResult::kCommitted);
  }
  ASSERT_EQ(tm::run_tx(*session, [](tm::TxScope& tx) { tx.write(0, 1); }),
            TxResult::kCommitted);

  EXPECT_EQ(tmi.stats().total(rt::Counter::kTxReadOnlyCommit), 2u);
  const auto log = tmi.timestamp_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_FALSE(log[0].has_wver);
  EXPECT_TRUE(log[0].committed);
  EXPECT_FALSE(log[1].has_wver);
  // The read-only commits left the clock untouched: the first writer mints
  // stamp 1 (faithful TL2 would be at 1 here too, but its kAlways-advance
  // variant exists only for writers — the observable is rver of the writer).
  EXPECT_TRUE(log[2].has_wver);
  EXPECT_EQ(log[2].wver, 1u);
  EXPECT_EQ(log[2].rver, 0u);
}

TEST(Tl2FusedTest, StampBuffersMergeAcrossSessionLifetimes) {
  TmConfig c = config();
  c.collect_timestamps = true;
  Tl2Fused tmi(c);
  {
    auto s0 = tmi.make_thread(0, nullptr);
    tm::run_tx_retry(*s0, [](tm::TxScope& tx) { tx.write(0, 1); });
  }  // session destroyed: its buffer retires into the TM
  {
    auto s1 = tmi.make_thread(1, nullptr);
    tm::run_tx_retry(*s1, [](tm::TxScope& tx) { tx.write(1, 2); });
    // One live buffer, one retired: the merged log sees both.
    const auto log = tmi.timestamp_log();
    ASSERT_EQ(log.size(), 2u);
  }
  const auto log = tmi.timestamp_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].committed);
  EXPECT_TRUE(log[1].committed);
}

template <typename TmClass>
void check_reset_restores_stats_and_ordinals() {
  TmConfig c = config();
  c.collect_timestamps = true;
  TmClass tmi(c);
  auto session = tmi.make_thread(0, nullptr);
  for (int i = 0; i < 3; ++i) {
    tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
      tx.write(0, static_cast<hist::Value>(i) + 1);
    });
  }
  ASSERT_EQ(tmi.stats().total(rt::Counter::kTxCommit), 3u);

  tmi.reset();

  // Stats and stamps are gone, registers are vinit again...
  EXPECT_EQ(tmi.stats().total(rt::Counter::kTxCommit), 0u);
  EXPECT_TRUE(tmi.timestamp_log().empty());
  EXPECT_EQ(tmi.peek(0), hist::kVInit);

  // ...and a session surviving the reset restarts its ordinals at 0, so
  // stamp ordinals keep matching per-thread history order.
  tm::run_tx_retry(*session, [](tm::TxScope& tx) { tx.write(0, 9); });
  const auto log = tmi.timestamp_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].ordinal, 0u);
  EXPECT_EQ(log[0].thread, 0u);
  EXPECT_EQ(log[0].wver, 1u) << "reset must restart the global clock";
}

TEST(Tl2FusedTest, ResetRestoresStatsAndOrdinals) {
  check_reset_restores_stats_and_ordinals<Tl2Fused>();
}

TEST(Tl2Test, ResetRestoresStatsAndOrdinals) {
  check_reset_restores_stats_and_ordinals<Tl2>();
}

TEST(Tl2FusedTest, SelfLockedReadValidatesAtCommit) {
  // A transaction that reads and writes the same register must commit (the
  // original-TL2 "own lock counts as free" rule on the fused word).
  Tl2Fused tmi(config());
  auto session = tmi.make_thread(0, nullptr);
  ASSERT_EQ(tm::run_tx(*session,
                       [](tm::TxScope& tx) {
                         const auto v = tx.read(2);
                         tx.write(2, v + 10);
                         EXPECT_EQ(tx.read(2), 10u);
                       }),
            TxResult::kCommitted);
  EXPECT_EQ(tmi.peek(2), 10u);
}

TEST(Tl2FusedTest, ManyTransactionsKeepMembershipCoherent) {
  // Epoch tags never get cleared between transactions; hammer one session
  // with alternating read/write patterns to shake out tag aliasing.
  Tl2Fused tmi(config(16));
  auto session = tmi.make_thread(0, nullptr);
  for (int i = 0; i < 2000; ++i) {
    const auto reg = static_cast<hist::RegId>(i % 16);
    ASSERT_EQ(tm::run_tx(*session,
                         [&](tm::TxScope& tx) {
                           const auto v = tx.read(reg);
                           tx.write(reg, v + 1);
                         }),
              TxResult::kCommitted);
  }
  hist::Value total = 0;
  for (int r = 0; r < 16; ++r) total += tmi.peek(static_cast<hist::RegId>(r));
  EXPECT_EQ(total, 2000u);
}

}  // namespace
}  // namespace privstm
