// Backend conformance: every TM the factory can build must survive the
// paper's Fig 1 privatization litmus scenarios *with fences enabled* —
// delayed commit (1a) and doomed transaction (1b) — with zero
// strong-atomicity violations, and the recorded histories must be
// race-free and strongly opaque under the existing checker pipeline.
//
// The gate runs each scenario under every quiescence engine a fence can
// take (DESIGN.md §5): the per-fence-scan default (kEpochCounter), the
// coalesced shared-grace-period mode (kGracePeriodEpoch), and the
// asynchronous ticket path (issue + await, recorded on the shadow fence
// stream). This is what a new backend (e.g. tl2fused) — or a new fence
// engine — has to pass: it proves the privatization-safety protocol
// survived whatever fast-path representation was chosen.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "drf/race.hpp"
#include "history/wellformed.hpp"
#include "lang/litmus.hpp"
#include "tm/factory.hpp"

namespace privstm {
namespace {

using tm::FencePolicy;
using tm::TmKind;

enum class FenceVariant {
  kSyncEpoch,        ///< synchronous fences, per-fence scan (the default)
  kSyncGracePeriod,  ///< synchronous fences, coalesced grace periods
  kAsync,            ///< asynchronous fences (tickets) over grace periods
};

const char* fence_variant_name(FenceVariant v) {
  switch (v) {
    case FenceVariant::kSyncEpoch:
      return "sync_epoch";
    case FenceVariant::kSyncGracePeriod:
      return "sync_gp";
    case FenceVariant::kAsync:
      return "async";
  }
  return "?";
}

class BackendConformance
    : public ::testing::TestWithParam<std::tuple<TmKind, bool, FenceVariant>> {
};

TEST_P(BackendConformance, FencedFig1ScenariosAreSafe) {
  const auto [kind, doomed, variant] = GetParam();
  const lang::LitmusSpec spec =
      doomed ? lang::make_fig1b(true) : lang::make_fig1a(true);

  // The default variant keeps the original (largest) run counts; the two
  // new engines re-run the same scenarios slightly lighter to bound the
  // gate's wall-clock on the CI box.
  const bool default_variant = variant == FenceVariant::kSyncEpoch;

  lang::LitmusRunOptions options;
  if (variant != FenceVariant::kSyncEpoch) {
    options.fence_mode = rt::FenceMode::kGracePeriodEpoch;
  }
  options.async_fences = variant == FenceVariant::kAsync;

  // Pass 1: many runs with a widened commit window, counting postcondition
  // violations — the paper-shape result (Fig 9 with fences: zero).
  options.runs = default_variant ? 300 : 200;
  options.jitter_max_spins = 200;
  options.commit_pause_spins = 150;
  options.seed = 20260730;
  auto stats = lang::run_litmus(spec, kind, FencePolicy::kSelective, options);
  EXPECT_EQ(stats.postcondition_violations, 0u)
      << tm::tm_kind_name(kind) << " violated " << spec.name << " under "
      << fence_variant_name(variant);

  // Pass 2: fewer runs, each recorded and pushed through the DRF +
  // strong-opacity pipeline — the fence must make every conflict
  // hb-ordered (no racy histories) and every history opaque. For the
  // async variant this additionally vets the shadow-stream fbegin/fend
  // bracketing against condition 10 of the well-formedness judgment.
  options.runs = default_variant ? 40 : 25;
  options.seed = 4242;
  options.check_strong_opacity = true;
  stats = lang::run_litmus(spec, kind, FencePolicy::kSelective, options);
  EXPECT_GT(stats.histories_checked, 0u);
  EXPECT_EQ(stats.racy_histories, 0u)
      << tm::tm_kind_name(kind) << " produced a racy history on "
      << spec.name << " under " << fence_variant_name(variant);
  EXPECT_EQ(stats.opacity_violations, 0u)
      << tm::tm_kind_name(kind) << " on " << spec.name << " under "
      << fence_variant_name(variant) << ": "
      << stats.first_violation_detail;
  EXPECT_EQ(stats.postcondition_violations, 0u);
}

// Reclamation safety (the use-after-free litmus) lives in
// tests/reclamation_litmus_test.cpp: the scenarios are now expressed in
// the mini-language itself (lang/litmus.hpp's reclamation catalog),
// model-checked exhaustively by the explorer and run against every
// backend there, which replaces the hand-written C++ ReclamationLitmus
// this file used to carry.

INSTANTIATE_TEST_SUITE_P(
    AllTms, BackendConformance,
    ::testing::Combine(::testing::ValuesIn(tm::all_tm_kinds()),
                       ::testing::Bool(),
                       ::testing::Values(FenceVariant::kSyncEpoch,
                                         FenceVariant::kSyncGracePeriod,
                                         FenceVariant::kAsync)),
    [](const auto& info) {
      return std::string(tm::tm_kind_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_fig1b_doomed" : "_fig1a_delayed") +
             "_" + fence_variant_name(std::get<2>(info.param));
    });

// Every backend tallies a commit that wrote nothing as read-only
// (Counter::kTxReadOnlyCommit), so the read-only commit share means the
// same thing whichever TM a report runs on.
class BackendConformanceCounters : public ::testing::TestWithParam<TmKind> {
};

TEST_P(BackendConformanceCounters, ReadOnlyCommitsAreCountedAsReadOnly) {
  auto tmi = tm::make_tm(GetParam(), tm::TmConfig{});
  auto session = tmi->make_thread(0, nullptr);

  // Two read-only transactions, one writer, then an explicit abort.
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(tm::run_tx(*session, [](tm::TxScope& tx) { (void)tx.read(0); }),
              tm::TxResult::kCommitted);
  }
  ASSERT_EQ(tm::run_tx(*session, [](tm::TxScope& tx) { tx.write(0, 1); }),
            tm::TxResult::kCommitted);
  ASSERT_EQ(tm::run_tx(*session, [](tm::TxScope& tx) { tx.abort(); }),
            tm::TxResult::kAborted);

  EXPECT_EQ(tmi->stats().total(rt::Counter::kTxCommit), 3u);
  EXPECT_EQ(tmi->stats().total(rt::Counter::kTxReadOnlyCommit), 2u)
      << tm::tm_kind_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllTms, BackendConformanceCounters,
                         ::testing::ValuesIn(tm::all_tm_kinds()),
                         [](const auto& info) {
                           return std::string(tm::tm_kind_name(info.param));
                         });

}  // namespace
}  // namespace privstm
