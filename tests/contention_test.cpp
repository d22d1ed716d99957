// The retry rule and irrevocable escalation (DESIGN.md §10).
//
// Covers:
//  * the run_tx_retry unbounded-loop regression: a body that always calls
//    TxScope::abort() must return TxRetryResult{kGaveUp, attempts} once
//    max_attempts is exhausted instead of spinning forever;
//  * the serial gate: closing it blocks rival transactions until demotion;
//  * the starvation storm: a symmetric write-write conflict storm finishes
//    within a bounded attempt budget on all four backends, retrying at
//    once with the serial gate as the only escape hatch;
//  * escalation under sustained injection: with every optimistic commit
//    fault-aborted, the retry loop must escalate (kTxEscalated > 0) and
//    the escalated attempt — injection suspended — must commit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/serial_gate.hpp"
#include "tm/factory.hpp"
#include "tm/tm.hpp"

namespace privstm {
namespace {

using tm::TmConfig;
using tm::TmKind;
using tm::TxRetryOptions;
using tm::TxRetryStatus;

// ---------------------------------------------------------------------------
// run_tx_retry: the bounded-budget regression and the serial gate.
// ---------------------------------------------------------------------------

class ContentionAllTms : public ::testing::TestWithParam<TmKind> {};

TEST_P(ContentionAllTms, PersistentlyFailingBodyGivesUp) {
  // Pre-PR-6 this spun forever: the deterministic tx_abort() body never
  // commits and the legacy loop had no exit. With a budget it must give up.
  auto tmi = tm::make_tm(GetParam(), TmConfig{});
  auto session = tmi->make_thread(0, nullptr);

  TxRetryOptions options;
  options.max_attempts = 5;
  options.escalate_after = 0;  // never escalate: pure budget exhaustion
  const tm::TxRetryResult result = tm::run_tx_retry(
      *session, [](tm::TxScope& tx) { tx.abort(); }, options);

  EXPECT_EQ(result.status, TxRetryStatus::kGaveUp);
  EXPECT_EQ(result.attempts, 5u);
  EXPECT_FALSE(result.escalated);
  EXPECT_FALSE(result.committed());
  EXPECT_EQ(tmi->stats().total(rt::Counter::kTxAbort), 5u);

  // The session must be fully usable afterwards (gave-up is not a wedge).
  EXPECT_EQ(tm::run_tx(*session, [](tm::TxScope& tx) { tx.write(0, 7); }),
            tm::TxResult::kCommitted);
  EXPECT_EQ(tmi->peek(0), 7);
}

TEST_P(ContentionAllTms, SelfAbortingBodyGivesUpEvenAfterEscalation) {
  // Escalation guarantees progress against *conflicts*, not against a body
  // that aborts itself: the budget must still end the loop, and the gate
  // must be reopened on the way out.
  auto tmi = tm::make_tm(GetParam(), TmConfig{});
  auto session = tmi->make_thread(0, nullptr);

  TxRetryOptions options;
  options.max_attempts = 6;
  options.escalate_after = 2;
  const tm::TxRetryResult result = tm::run_tx_retry(
      *session, [](tm::TxScope& tx) { tx.abort(); }, options);

  EXPECT_EQ(result.status, TxRetryStatus::kGaveUp);
  EXPECT_EQ(result.attempts, 6u);
  EXPECT_TRUE(result.escalated);
  EXPECT_EQ(tmi->stats().total(rt::Counter::kTxEscalated), 1u);
  EXPECT_FALSE(tmi->serial_gate().closed())
      << "giving up must demote (reopen the gate)";

  // Another session can run transactions again — the gate is truly open.
  auto other = tmi->make_thread(1, nullptr);
  EXPECT_EQ(tm::run_tx(*other, [](tm::TxScope& tx) { tx.write(1, 9); }),
            tm::TxResult::kCommitted);
}

TEST_P(ContentionAllTms, GiveUpBelowEscalationThresholdSkipsSerialGate) {
  // Boundary: max_attempts strictly below escalate_after must exhaust the
  // budget without ever touching the serial gate — no escalation counter,
  // no gate close/reopen cycle.
  auto tmi = tm::make_tm(GetParam(), TmConfig{});
  auto session = tmi->make_thread(0, nullptr);

  TxRetryOptions options;
  options.max_attempts = 3;
  options.escalate_after = 5;
  const tm::TxRetryResult result = tm::run_tx_retry(
      *session, [](tm::TxScope& tx) { tx.abort(); }, options);

  EXPECT_EQ(result.status, TxRetryStatus::kGaveUp);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_FALSE(result.escalated);
  EXPECT_EQ(tmi->stats().total(rt::Counter::kTxEscalated), 0u);
  EXPECT_FALSE(tmi->serial_gate().closed());
}

TEST_P(ContentionAllTms, MaxAttemptsEqualEscalateAfterNeverEscalates) {
  // Boundary: when the budget and the escalation threshold coincide, the
  // budget wins — the final failed attempt must give up, not close the
  // gate for an attempt that will never run.
  auto tmi = tm::make_tm(GetParam(), TmConfig{});
  auto session = tmi->make_thread(0, nullptr);

  TxRetryOptions options;
  options.max_attempts = 4;
  options.escalate_after = 4;
  const tm::TxRetryResult result = tm::run_tx_retry(
      *session, [](tm::TxScope& tx) { tx.abort(); }, options);

  EXPECT_EQ(result.status, TxRetryStatus::kGaveUp);
  EXPECT_EQ(result.attempts, 4u);
  EXPECT_FALSE(result.escalated);
  EXPECT_EQ(tmi->stats().total(rt::Counter::kTxEscalated), 0u);
  EXPECT_FALSE(tmi->serial_gate().closed());
}

TEST_P(ContentionAllTms, GiveUpOnFirstEscalatedAttemptStillDemotes) {
  // Boundary: escalate on the 2nd failure, then the budget ends the loop
  // on the very first escalated attempt — the gate must still be reopened
  // on the way out (give-up while escalated demotes).
  auto tmi = tm::make_tm(GetParam(), TmConfig{});
  auto session = tmi->make_thread(0, nullptr);

  TxRetryOptions options;
  options.max_attempts = 3;
  options.escalate_after = 2;
  const tm::TxRetryResult result = tm::run_tx_retry(
      *session, [](tm::TxScope& tx) { tx.abort(); }, options);

  EXPECT_EQ(result.status, TxRetryStatus::kGaveUp);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_TRUE(result.escalated);
  EXPECT_EQ(tmi->stats().total(rt::Counter::kTxEscalated), 1u);
  EXPECT_FALSE(tmi->serial_gate().closed())
      << "give-up on an escalated attempt must reopen the gate";

  // And the gate is usable by someone else immediately.
  auto other = tmi->make_thread(1, nullptr);
  EXPECT_EQ(tm::run_tx(*other, [](tm::TxScope& tx) { tx.write(4, 6); }),
            tm::TxResult::kCommitted);
  EXPECT_EQ(tmi->peek(4), 6);
}

TEST_P(ContentionAllTms, SerialGateBlocksRivalsUntilDemotion) {
  auto tmi = tm::make_tm(GetParam(), TmConfig{});
  auto session = tmi->make_thread(0, nullptr);

  // Close the gate exactly as run_tx_retry's escalation does.
  session->escalate_enter();
  ASSERT_TRUE(tmi->serial_gate().closed());

  // A rival spawned while the gate is closed cannot start a transaction:
  // its tx_begin blocks in serial_gate_wait, so its commit flag cannot be
  // set before we demote (deterministic — the rival is created after the
  // close, so it can never have passed the gate check early).
  std::atomic<bool> rival_committed{false};
  std::thread rival([&] {
    auto other = tmi->make_thread(1, nullptr);
    tm::run_tx(*other, [](tm::TxScope& tx) { tx.write(2, 5); });
    rival_committed.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(rival_committed.load(std::memory_order_acquire))
      << "a transaction slipped past a closed serial gate";

  // The owner itself still runs transactions (it passes its own gate).
  EXPECT_EQ(tm::run_tx(*session, [](tm::TxScope& tx) { tx.write(3, 8); }),
            tm::TxResult::kCommitted);

  session->escalate_exit();
  rival.join();
  EXPECT_TRUE(rival_committed.load(std::memory_order_acquire));
  EXPECT_EQ(tmi->peek(2), 5);
  EXPECT_EQ(tmi->peek(3), 8);
}

TEST_P(ContentionAllTms, EscalationFiresUnderSustainedInjection) {
  // Acceptance criterion: under sustained injection (every optimistic
  // commit entry fault-aborts) the retry loop must escalate, and the
  // escalated attempt — its slot's injection suspended by the gate — must
  // commit. Fully deterministic: permille 1000 fires on every roll.
  TmConfig config;
  config.fault.abort_permille = 1000;
  config.fault.sites = rt::fault_site_bit(rt::FaultSite::kCommit);
  auto tmi = tm::make_tm(GetParam(), config);
  auto session = tmi->make_thread(0, nullptr);

  TxRetryOptions options;
  options.escalate_after = 4;
  const tm::TxRetryResult result = tm::run_tx_retry(
      *session, [](tm::TxScope& tx) { tx.write(0, 42); }, options);

  EXPECT_TRUE(result.committed());
  EXPECT_TRUE(result.escalated);
  EXPECT_EQ(result.attempts, 5u)
      << "4 injected optimistic failures, then one irrevocable commit";
  EXPECT_EQ(tmi->stats().total(rt::Counter::kTxEscalated), 1u);
  EXPECT_GE(tmi->stats().total(rt::Counter::kFaultInjected), 4u);
  EXPECT_EQ(tmi->peek(0), 42);
  EXPECT_FALSE(tmi->serial_gate().closed()) << "commit must demote";
}

INSTANTIATE_TEST_SUITE_P(AllTms, ContentionAllTms,
                         ::testing::ValuesIn(tm::all_tm_kinds()),
                         [](const auto& info) {
                           return std::string(tm::tm_kind_name(info.param));
                         });

// ---------------------------------------------------------------------------
// The starvation storm (satellite): symmetric write-write conflicts on a
// shared TxVar set must finish within a bounded attempt budget on all four
// backends.
// ---------------------------------------------------------------------------

class StarvationStorm : public ::testing::TestWithParam<TmKind> {};

TEST_P(StarvationStorm, SymmetricIncrementStormTerminatesWithinBudget) {
  const TmKind kind = GetParam();
  constexpr int kThreads = 4;
  constexpr int kIncrementsPerThread = 25;
  constexpr std::size_t kVars = 4;
  constexpr std::size_t kBudget = 20000;

  auto tmi = tm::make_tm(kind, TmConfig{});
  std::atomic<bool> over_budget{false};
  std::atomic<std::uint64_t> total_attempts{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = tmi->make_thread(t, nullptr);
      TxRetryOptions options;
      options.max_attempts = kBudget;
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        // Every thread reads and rewrites the same registers: maximal
        // symmetric write-write conflict.
        const tm::TxRetryResult result = tm::run_tx_retry(
            *session,
            [](tm::TxScope& tx) {
              for (std::size_t r = 0; r < kVars; ++r) {
                tx.write(static_cast<tm::RegId>(r),
                         tx.read(static_cast<tm::RegId>(r)) + 1);
              }
            },
            options);
        total_attempts.fetch_add(result.attempts,
                                 std::memory_order_relaxed);
        if (!result.committed()) {
          over_budget.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_FALSE(over_budget.load())
      << tm::tm_kind_name(kind) << " blew the " << kBudget << "-attempt budget";
  for (std::size_t r = 0; r < kVars; ++r) {
    EXPECT_EQ(tmi->peek(static_cast<tm::RegId>(r)),
              kThreads * kIncrementsPerThread)
        << "lost update on register " << r;
  }
  // Every storm transaction stayed inside the budget, and the TM-level
  // escalation escape hatch (default escalate_after) kept the worst case
  // bounded; the attempt tally is a sanity ceiling, not a perf assertion.
  EXPECT_LE(total_attempts.load(),
            static_cast<std::uint64_t>(kThreads) * kIncrementsPerThread *
                kBudget);
}

TEST_P(StarvationStorm, InjectedStormEscalatesAndStaysCoherent) {
  // The acceptance-criterion storm: with commits fault-aborted at a high
  // rate and a small escalation threshold, concurrent sessions must fall
  // back to the serial mode (kTxEscalated > 0), and the escalations —
  // interleaved with surviving optimistic commits — must not lose updates.
  const TmKind kind = GetParam();
  constexpr int kThreads = 4;
  constexpr int kIncrementsPerThread = 25;

  TmConfig config;
  config.fault.seed = 0x57081;
  config.fault.abort_permille = 700;
  config.fault.sites = rt::fault_site_bit(rt::FaultSite::kCommit);
  auto tmi = tm::make_tm(kind, config);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = tmi->make_thread(t, nullptr);
      TxRetryOptions options;
      options.escalate_after = 4;
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        const tm::TxRetryResult result = tm::run_tx_retry(
            *session,
            [](tm::TxScope& tx) { tx.write(0, tx.read(0) + 1); }, options);
        ASSERT_TRUE(result.committed());
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(tmi->peek(0), kThreads * kIncrementsPerThread)
      << "an escalated commit lost or duplicated an update";
  EXPECT_GT(tmi->stats().total(rt::Counter::kTxEscalated), 0u)
      << "a 70% injected commit-abort rate must trigger escalation";
  EXPECT_GT(tmi->stats().total(rt::Counter::kFaultInjected), 0u);
  EXPECT_FALSE(tmi->serial_gate().closed());
}

INSTANTIATE_TEST_SUITE_P(AllTms, StarvationStorm,
                         ::testing::ValuesIn(tm::all_tm_kinds()),
                         [](const auto& info) {
                           return std::string(tm::tm_kind_name(info.param));
                         });

// ---------------------------------------------------------------------------
// Termination of the legacy retry under a sustained multi-site fault storm
// (acceptance criterion b): every wrapper caller in the repo inherits the
// default rule — retry at once, then the serial gate — so even continuous
// injection cannot hang the loop, with no pause between attempts. The
// test's own completion is the assertion.
// ---------------------------------------------------------------------------

class RetryUnderInjection : public ::testing::TestWithParam<TmKind> {};

TEST_P(RetryUnderInjection, LegacyRetryTerminatesUnderSustainedFaults) {
  TmConfig config;
  config.fault.seed = 20260807;
  config.fault.abort_permille = 300;
  config.fault.cas_loss_permille = 300;
  config.fault.delay_permille = 200;
  config.fault.delay_max_spins = 64;
  auto tmi = tm::make_tm(GetParam(), config);

  constexpr int kThreads = 2;
  constexpr int kTxnsPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = tmi->make_thread(t, nullptr);
      for (int i = 0; i < kTxnsPerThread; ++i) {
        tm::run_tx_retry(*session, [&](tm::TxScope& tx) {
          tx.write(static_cast<tm::RegId>(t), tx.read(0) + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_GE(tmi->stats().total(rt::Counter::kTxCommit),
            static_cast<std::uint64_t>(kThreads) * kTxnsPerThread);
  EXPECT_GT(tmi->stats().total(rt::Counter::kFaultInjected), 0u)
      << "the storm must actually have injected faults";
}

INSTANTIATE_TEST_SUITE_P(AllTms, RetryUnderInjection,
                         ::testing::ValuesIn(tm::all_tm_kinds()),
                         [](const auto& info) {
                           return std::string(tm::tm_kind_name(info.param));
                         });

}  // namespace
}  // namespace privstm
