// Deterministic, site-addressed fault injection for the TM backends.
//
// "Sandboxing for STM with Deferred Updates" (PAPERS.md) motivates treating
// doomed and inconsistent executions as a first-class tested regime. This
// injector makes that regime *reproducible*: every protocol step where a
// backend can lose a race or conservatively abort gets a named site
// (FaultSite), and a seeded per-thread PRNG stream decides — deterministically
// for a fixed seed, thread-slot assignment and operation sequence — whether
// the step spuriously fails this time.
//
// Three fault kinds, each with its own rate:
//   * spurious aborts   — the caller takes its existing clean-abort path
//                         (validation-failure shaped), so the recorded
//                         history stays well-formed and the opacity / DRF
//                         checkers remain applicable;
//   * lost CAS races    — the caller skips its lock CAS and behaves as if a
//                         rival won it (it must NOT perform the CAS and
//                         ignore a success — that would leak the lock);
//   * bounded delays    — a busy-wait of below(delay_max_spins) cpu_relax
//                         iterations, widening commit/fence windows the way
//                         the litmus harnesses' jitter does, but *inside*
//                         the protocol (e.g. while commit locks are held).
//
// Soundness: injection only ever exercises paths the protocol already owns
// (abort, lock-acquire failure, a slow scheduler). It can cost progress,
// never safety — which is exactly what the conformance matrix asserts by
// running the Fig 1 litmus scenarios under injection and requiring the
// opacity + DRF checkers to stay green.
//
// Per-slot suspend()/resume() exists for the irrevocable serial mode
// (runtime/serial_gate.hpp): an escalated transaction is the progress
// guarantee of last resort, so its own thread must not be fault-aborted
// while it holds the gate.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "runtime/cacheline.hpp"
#include "runtime/rng.hpp"
#include "runtime/stats.hpp"

namespace privstm::rt {

/// Where a fault may be injected. Backends pass the site of the protocol
/// step they are about to take; FaultConfig::sites can mask sites off.
enum class FaultSite : std::uint8_t {
  kLockAcquire = 0,  ///< commit-time stripe / seqlock / mutex acquisition
  kReadValidation,   ///< read-time sandwich or value re-validation
  kCommit,           ///< commit entry and the locked write-back window
  kFence,            ///< quiescence fence entry (FenceSession::do_fence)
  kAllocRefill,      ///< allocator central-lock shared-refill path
};

inline constexpr std::size_t kFaultSiteCount = 5;

const char* fault_site_name(FaultSite site) noexcept;

constexpr std::uint32_t fault_site_bit(FaultSite site) noexcept {
  return 1u << static_cast<std::uint32_t>(site);
}

inline constexpr std::uint32_t kAllFaultSites =
    (1u << kFaultSiteCount) - 1;

/// Injection plan (TmConfig::fault). Default: everything off — the injector
/// then compiles down to one pointer test on the hot paths.
struct FaultConfig {
  /// Stream seed; slot s draws from an independent stream derived from
  /// (seed, s), so runs with the same seed, slot assignment and operation
  /// order inject identically.
  std::uint64_t seed = 0x5eedfa17;
  /// Bitmask of armed sites (fault_site_bit); defaults to all.
  std::uint32_t sites = kAllFaultSites;
  /// Per-opportunity injection probabilities in permille (0 = kind off).
  std::uint32_t abort_permille = 0;     ///< spurious aborts
  std::uint32_t cas_loss_permille = 0;  ///< lost lock-acquire races
  std::uint32_t delay_permille = 0;     ///< bounded busy-wait delays
  /// Upper bound (exclusive) on one injected delay, in cpu_relax spins.
  std::uint32_t delay_max_spins = 128;
  /// Injection budget per thread slot; 0 = unlimited. A finite budget turns
  /// sustained injection into a transient burst, so termination tests can
  /// show retry loops outlive any finite fault storm.
  std::uint64_t max_per_thread = 0;

  bool enabled() const noexcept {
    return (abort_permille | cas_loss_permille | delay_permille) != 0;
  }
};

/// The injector instance, owned by a TransactionalMemory (one per TM, like
/// the stats domain). All methods are safe to call concurrently as long as
/// each slot is driven by its owning thread — the per-slot streams are
/// cache-line isolated and single-writer, mirroring StatsDomain.
class FaultInjector {
 public:
  FaultInjector(const FaultConfig& config, StatsDomain& stats);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// False when the config injects nothing; callers cache this (typically
  /// as a null pointer) so disabled runs pay a single branch.
  bool enabled() const noexcept { return enabled_; }

  /// Should the caller spuriously abort at `site`? On true the fault has
  /// been counted; the caller must take its normal clean-abort path.
  bool inject_abort(std::size_t slot, FaultSite site) noexcept {
    return enabled_ && roll(slot, site, config_.abort_permille);
  }

  /// Should the caller treat its lock CAS at `site` as lost? On true the
  /// caller must skip the CAS entirely and take its lock-failed path.
  bool inject_cas_loss(std::size_t slot, FaultSite site) noexcept {
    return enabled_ && roll(slot, site, config_.cas_loss_permille);
  }

  /// Maybe busy-wait a bounded random delay at `site`.
  void maybe_delay(std::size_t slot, FaultSite site) noexcept;

  /// Suspend / resume injection for one slot (re-entrant: a depth count).
  /// Used by the serial gate so the irrevocable thread cannot be faulted.
  void suspend(std::size_t slot) noexcept;
  void resume(std::size_t slot) noexcept;

  /// End a budgeted fault storm: mark every slot's max_per_thread budget
  /// as spent, so sessions that later reuse those registry slots run
  /// clean. Call only while no session injects. No effect without a
  /// budget (max_per_thread == 0 means unlimited).
  void exhaust_budgets() noexcept;

  /// Faults injected at `site` across all slots (tests / site-map reports).
  std::uint64_t injected(FaultSite site) const noexcept;
  std::uint64_t injected_total() const noexcept;

  /// Restore the post-construction state: streams re-derived from the
  /// seed, budgets and site counts zeroed (TransactionalMemory::reset).
  void reset() noexcept;

  const FaultConfig& config() const noexcept { return config_; }

 private:
  /// One Bernoulli draw for `slot` at `site`; counts the fault on a hit.
  bool roll(std::size_t slot, FaultSite site,
            std::uint32_t permille) noexcept;

  /// Per-slot stream: single-writer (the owning thread), line-isolated so
  /// rolling never false-shares with a neighbour's commit path.
  struct Stream {
    Xoshiro256 rng{0};
    std::uint64_t injected = 0;
    std::uint32_t suspend_depth = 0;
  };

  void seed_streams() noexcept;

  FaultConfig config_;
  bool enabled_;
  StatsDomain& stats_;
  std::array<CacheAligned<Stream>, StatsDomain::kMaxThreads> streams_{};
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> site_counts_{};
};

/// RAII suspend for one slot — exception-safe bracketing of irrevocable
/// sections. Null injector = no-op.
class FaultSuspendGuard {
 public:
  FaultSuspendGuard(FaultInjector* injector, std::size_t slot) noexcept
      : injector_(injector), slot_(slot) {
    if (injector_ != nullptr) injector_->suspend(slot_);
  }
  ~FaultSuspendGuard() {
    if (injector_ != nullptr) injector_->resume(slot_);
  }
  FaultSuspendGuard(const FaultSuspendGuard&) = delete;
  FaultSuspendGuard& operator=(const FaultSuspendGuard&) = delete;

 private:
  FaultInjector* injector_;
  std::size_t slot_;
};

}  // namespace privstm::rt
