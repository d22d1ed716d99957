#include "tm/tl2.hpp"

#include <cassert>

#include "runtime/backoff.hpp"

namespace privstm::tm {

using hist::ActionKind;
using rt::Counter;
using rt::VersionedLock;

Tl2::Tl2(TmConfig config)
    : TransactionalMemory(config),
      stripes_(config.lock_stripes, config.alloc.effective_shards()) {}

std::unique_ptr<TmThread> Tl2::make_thread(ThreadId thread,
                                           hist::Recorder* recorder) {
  return std::make_unique<Tl2Thread>(*this, thread, recorder);
}

void Tl2::reset() {
  {
    std::lock_guard<rt::SpinLock> guard(stamp_lock_);
    stamps_.clear();
  }
  clock_.reset();
  reset_base();  // stats + heap (cells, extents, limbo, per-thread magazines)
  // Sessions notice the new epoch at their next tx_begin and restart their
  // transaction ordinals, keeping stamp ordinals aligned with per-thread
  // history order across resets.
  reset_epoch_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t s = 0; s < stripes_.stripe_count(); ++s) {
    assert(!VersionedLock::is_locked(stripes_.stripe(s).load()) &&
           "reset with a stripe lock held");
  }
  stripes_.reset();
}

Tl2Thread::Tl2Thread(Tl2& tm, ThreadId thread, hist::Recorder* recorder)
    : TmThread(tm, thread, recorder),
      tm_(tm),
      heap_(tm.heap()),
      token_(static_cast<rt::OwnerToken>(slot_.slot()) + 1),
      reset_epoch_seen_(tm.reset_epoch_.load(std::memory_order_relaxed)),
      in_wset_(tm.config().num_registers, 0),
      in_rset_(tm.config().num_registers, 0) {}

Tl2Thread::~Tl2Thread() = default;

void Tl2::log_stamp(const TxnStamp& stamp) {
  std::lock_guard<rt::SpinLock> guard(stamp_lock_);
  stamps_.push_back(stamp);
}

std::vector<Tl2::TxnStamp> Tl2::timestamp_log() const {
  std::lock_guard<rt::SpinLock> guard(stamp_lock_);
  return stamps_;
}

bool Tl2Thread::tx_begin() {
  // Block while an escalated (irrevocable) transaction holds the serial
  // gate — before tx_enter, so a gated thread is quiescent and the
  // escalator's drain never waits on it (runtime/serial_gate.hpp).
  serial_gate_wait();
  // Set active[t] *before* logging txbegin: a fence whose fbegin is
  // recorded after our txbegin must then observe us active and wait,
  // keeping condition 10 of Definition A.1 true in the recorded history.
  registry_.tx_enter(slot_.slot());           // active[t] := true
  rec_.request(ActionKind::kTxBegin);
  const std::uint64_t epoch =
      tm_.reset_epoch_.load(std::memory_order_relaxed);
  if (epoch != reset_epoch_seen_) {
    reset_epoch_seen_ = epoch;
    txn_ordinal_ = 0;
  }
  rver_ = tm_.clock_.sample();  // rver[T] := clock (line 12)
  wver_minted_ = false;
  rset_.clear();
  wset_.clear();
  rec_.response(ActionKind::kOk);
  trace_tx_begin();
  return true;
}

void Tl2Thread::abort_in_flight() {
  rec_.response(ActionKind::kAborted);
  tm_.stats().add(static_cast<std::size_t>(slot_.slot()), Counter::kTxAbort);
  if (tm_.config().collect_timestamps) {
    // wver stays 0 (the paper's ⊤) unless this very transaction minted one.
    tm_.log_stamp({thread_, txn_ordinal_, rver_,
                   wver_minted_ ? wver_ : 0, wver_minted_,
                   /*committed=*/false});
  }
  ++txn_ordinal_;
  for (const auto& [r, s] : rset_) {
    (void)s;
    rmark(r) = 0;
  }
  for (const auto& [r, v] : wset_) {
    (void)v;
    wmark(r) = 0;
  }
  registry_.tx_exit(slot_.slot());            // abort handler: clear active
}

void Tl2Thread::tx_abort() {
  // No stripe is ever locked outside tx_commit, so a user abort only has
  // to drop the buffered sets.
  rec_.request(ActionKind::kTxAbort);
  note_abort(rt::AbortReason::kCmInduced);
  abort_in_flight();
}

bool Tl2Thread::tx_read(RegId reg, Value& out) {
  rec_.request(ActionKind::kReadReq, reg);

  // Write-set hit: return the buffered value (lines 15–16).
  if (in_wset(reg)) {
    for (auto it = wset_.rbegin(); it != wset_.rend(); ++it) {
      if (it->first == reg) {
        out = it->second;
        rec_.response(ActionKind::kReadRet, reg, out);
        return true;
      }
    }
  }

  // Stripe-word / value / stripe-word sandwich: both loads of the fused
  // word must agree and be unlocked with version ≤ rver. A writer CASes
  // the stripe locked before storing any value it guards, so an unchanged
  // unlocked word proves the value belongs to a version ≤ rver (possibly
  // bumped by a stripe-colliding location — a spurious but safe abort).
  const std::size_t s =
      tm_.stripes_.index_of(static_cast<std::uint64_t>(reg));
  auto& vlock = tm_.stripes_.stripe(s);
  const VersionedLock::Word w1 = vlock.load(std::memory_order_acquire);
  const Value value = heap_.cell(reg).load(std::memory_order_acquire);
  const VersionedLock::Word w2 = vlock.load(std::memory_order_acquire);
  // Injected read-validation faults ride the genuine invalid path below:
  // the abort is indistinguishable from a spurious stripe collision, so
  // the recorded history stays one the protocol could have produced.
  const bool injected =
      fault_ != nullptr &&
      fault_->inject_abort(stat_slot(), rt::FaultSite::kReadValidation);
  const bool invalid = VersionedLock::is_locked(w1) || w1 != w2 ||
                       rver_ < VersionedLock::version_of(w1) ||  // line 21
                       injected;
  if (invalid && !tm_.config().unsafe_skip_validation) {
    tm_.stats().add(static_cast<std::size_t>(slot_.slot()),
                    Counter::kTxReadValidationFail);
    note_abort(injected ? rt::AbortReason::kFaultInjected
                        : rt::AbortReason::kReadValidation,
               static_cast<std::uint32_t>(s));
    abort_in_flight();
    return false;
  }
  if (!rmark(reg)) {
    rmark(reg) = 1;
    rset_.emplace_back(reg, static_cast<std::uint32_t>(s));
  }
  out = value;
  rec_.response(ActionKind::kReadRet, reg, value);
  return true;
}

bool Tl2Thread::tx_write(RegId reg, Value value) {
  rec_.request(ActionKind::kWriteReq, reg, value);
  wmark(reg) = 1;
  wset_.emplace_back(reg, value);
  rec_.response(ActionKind::kWriteRet, reg);
  return true;
}

void Tl2Thread::release_stripes() {
  // Restore the pre-lock word of every stripe this commit locked.
  for (const LockedStripe& ls : locked_) {
    tm_.stripes_.stripe(ls.stripe).restore(ls.prev);
  }
  locked_.clear();
}

TxResult Tl2Thread::tx_commit() {
  rec_.request(ActionKind::kTxCommit);

  // Injection site: a spurious abort at commit entry, before any stripe
  // is locked — shaped like a validation failure the checker already
  // accepts (txcommit answered by aborted is a legal history).
  if (fault_ != nullptr &&
      fault_->inject_abort(stat_slot(), rt::FaultSite::kCommit)) {
    note_abort(rt::AbortReason::kFaultInjected);
    abort_in_flight();
    auto_fence(false);
    return TxResult::kAborted;
  }

  // Collapse the write set to one (location, final value) entry in
  // first-write program order: write-back then flushes in the order the
  // program issued its (first) writes, which is the order the paper's
  // examples observe. One linear pass — a location's first occurrence
  // claims a writeback_ slot (wslot remembers which), later duplicates
  // overwrite that slot's value in place.
  writeback_.clear();
  for (const auto& [reg, value] : wset_) {
    auto& m = wmark(reg);
    if (m == 1) {
      m = 2;
      wslot(reg) = static_cast<std::uint32_t>(writeback_.size());
      writeback_.emplace_back(reg, value);
    } else {
      writeback_[wslot(reg)].second = value;
    }
  }

  // Acquire the write-set stripes (lines 31–39), once per distinct stripe
  // (several locations may hash together).
  locked_.clear();
  bool lock_failed = false;
  std::uint32_t fail_stripe = rt::kNoStripe;
  bool fail_injected = false;
  for (const auto& [reg, value] : writeback_) {
    (void)value;
    const std::size_t s =
        tm_.stripes_.index_of(static_cast<std::uint64_t>(reg));
    auto& vlock = tm_.stripes_.stripe(s);
    VersionedLock::Word expected = vlock.load(std::memory_order_relaxed);
    // A stripe this commit already locked carries our owner token — the
    // O(1) dup-stripe test (the seed rescanned locked_ per entry). No
    // other session can hold our token, and we park it here only while
    // committing.
    if (VersionedLock::is_locked(expected) &&
        VersionedLock::owner_of(expected) == token_) {
      continue;
    }
    // Injection site: a lost CAS race — the attempt is skipped entirely
    // (performing it and ignoring a success would leak the stripe lock)
    // and the commit takes its normal lock-failed abort path.
    if (fault_ != nullptr &&
        fault_->inject_cas_loss(stat_slot(), rt::FaultSite::kLockAcquire)) {
      lock_failed = true;
      fail_stripe = static_cast<std::uint32_t>(s);
      fail_injected = true;
      break;
    }
    if (!vlock.try_lock(expected, token_)) {
      lock_failed = true;
      fail_stripe = static_cast<std::uint32_t>(s);
      break;
    }
    locked_.push_back({s, expected});
  }
  if (lock_failed) {
    release_stripes();
    tm_.stats().add(static_cast<std::size_t>(slot_.slot()),
                    Counter::kTxLockFail);
    note_abort(fail_injected ? rt::AbortReason::kFaultInjected
                             : rt::AbortReason::kLockFail,
               fail_stripe);
    abort_in_flight();
    auto_fence(false);
    return TxResult::kAborted;
  }

  // Mint the write timestamp: wver := fetch_and_increment(clock)+1 (line 40).
  wver_ = tm_.clock_.advance();
  wver_minted_ = true;

  // Validate the read set (lines 41–50). A stripe locked by this very
  // commit counts as free (original TL2; see header comment), validated
  // against the version its word carried when we locked it.
  for (const auto& [reg, sidx] : rset_) {
    (void)reg;
    const auto s = static_cast<std::size_t>(sidx);
    const VersionedLock::Word w =
        tm_.stripes_.stripe(s).load(std::memory_order_acquire);
    bool valid;
    if (VersionedLock::is_locked(w)) {
      valid = false;
      if (VersionedLock::owner_of(w) == token_) {
        for (const LockedStripe& ls : locked_) {
          if (ls.stripe == s) {
            valid = rver_ >= VersionedLock::version_of(ls.prev);
            break;
          }
        }
      }
    } else {
      valid = rver_ >= VersionedLock::version_of(w);
    }
    if (!valid && !tm_.config().unsafe_skip_validation) {
      release_stripes();
      tm_.stats().add(static_cast<std::size_t>(slot_.slot()),
                      Counter::kTxReadValidationFail);
      note_abort(rt::AbortReason::kReadValidation,
                 static_cast<std::uint32_t>(s));
      abort_in_flight();
      auto_fence(false);
      return TxResult::kAborted;
    }
  }

  // Write back (lines 51–54), pausing before each store when the harness
  // asks: this is exactly the "commit-pending with locks held" window in
  // which the delayed-commit problem of Fig 1(a) lives. Stripes are
  // released with the new version after all values landed. An injected
  // delay here widens that window with the stripes held — the exact
  // schedule the privatization fences must survive.
  if (fault_ != nullptr) {
    fault_->maybe_delay(stat_slot(), rt::FaultSite::kCommit);
  }
  const std::uint32_t pause = tm_.config().commit_pause_spins;
  for (const auto& [reg, value] : writeback_) {
    for (std::uint32_t i = 0; i < pause; ++i) {
      rt::cpu_relax();
    }
    heap_.cell(reg).store(value, std::memory_order_release);
    rec_.publish(reg, value);  // TXVIS point (Fig 10)
    // Marks drop to 0 as each distinct location publishes, so no
    // separate wset clear pass runs after the stripes release.
    wmark(reg) = 0;
  }
  for (const LockedStripe& ls : locked_) {
    tm_.stripes_.stripe(ls.stripe).unlock_with_version(wver_);
  }
  locked_.clear();

  const bool wrote = !wset_.empty();
  for (const auto& [r, s] : rset_) {
    (void)s;
    rmark(r) = 0;
  }

  rec_.response(ActionKind::kCommitted);
  tm_.stats().add(static_cast<std::size_t>(slot_.slot()), Counter::kTxCommit);
  if (!wrote) {
    tm_.stats().add(static_cast<std::size_t>(slot_.slot()),
                    Counter::kTxReadOnlyCommit);
  }
  trace_tx_commit();
  if (tm_.config().collect_timestamps) {
    tm_.log_stamp({thread_, txn_ordinal_, rver_, wver_, wver_minted_,
                   /*committed=*/true});
  }
  ++txn_ordinal_;
  registry_.tx_exit(slot_.slot());      // commit handler: clear active
  auto_fence(wrote);
  return TxResult::kCommitted;
}

Value Tl2Thread::nt_read(RegId reg) {
  tm_.stats().add(static_cast<std::size_t>(slot_.slot()), Counter::kNtRead);
  auto& cell = heap_.cell(reg);
  return rec_.nt_access(/*is_write=*/false, reg, 0, [&] {
    return cell.load(std::memory_order_seq_cst);
  });
}

void Tl2Thread::nt_write(RegId reg, Value value) {
  tm_.stats().add(static_cast<std::size_t>(slot_.slot()), Counter::kNtWrite);
  auto& cell = heap_.cell(reg);
  rec_.nt_access(/*is_write=*/true, reg, value, [&] {
    // Uninstrumented: no version bump, no lock — deliberately.
    cell.store(value, std::memory_order_seq_cst);
    return value;
  });
}

}  // namespace privstm::tm
