#include "tm/norec.hpp"

#include <cassert>

namespace privstm::tm {

using hist::ActionKind;
using rt::Counter;

NOrec::NOrec(TmConfig config) : TransactionalMemory(config) {}

std::unique_ptr<TmThread> NOrec::make_thread(ThreadId thread,
                                             hist::Recorder* recorder) {
  return std::make_unique<NOrecThread>(*this, thread, recorder);
}

void NOrec::reset() {
  reset_base();  // stats + heap (cells, extents, limbo, per-thread magazines)
}

NOrecThread::NOrecThread(NOrec& tm, ThreadId thread, hist::Recorder* recorder)
    : TmThread(tm, thread, recorder),
      tm_(tm),
      cells_(tm.heap().cells()),
      in_wset_(tm.config().num_registers, 0) {}

NOrecThread::~NOrecThread() = default;

bool NOrecThread::tx_begin() {
  // Block while an escalated (irrevocable) transaction holds the serial
  // gate — before tx_enter, so a gated thread is quiescent and the
  // escalator's drain never waits on it (runtime/serial_gate.hpp).
  serial_gate_wait();
  registry_.tx_enter(slot_.slot());
  rec_.request(ActionKind::kTxBegin);
  snapshot_ = tm_.seqlock_.read_begin();  // wait until no writer in flight
  rset_.clear();
  wset_.clear();
  rec_.response(ActionKind::kOk);
  trace_tx_begin();
  return true;
}

bool NOrecThread::revalidate() {
  for (;;) {
    const rt::SeqLock::Stamp fresh = tm_.seqlock_.read_begin();
    bool valid = true;
    for (const auto& [reg, seen] : rset_) {
      if (cells_[static_cast<std::size_t>(reg)].load(
              std::memory_order_acquire) != seen) {
        valid = false;
        break;
      }
    }
    if (!valid) return false;
    if (tm_.seqlock_.read_validate(fresh)) {
      snapshot_ = fresh;
      return true;
    }
    // A writer slipped in while we revalidated; try again.
  }
}

void NOrecThread::abort_in_flight() {
  rec_.response(ActionKind::kAborted);
  tm_.stats().add(static_cast<std::size_t>(slot_.slot()), Counter::kTxAbort);
  for (const auto& [r, v] : wset_) {
    (void)v;
    wmark(r) = 0;
  }
  registry_.tx_exit(slot_.slot());
}

void NOrecThread::tx_abort() {
  rec_.request(ActionKind::kTxAbort);
  note_abort(rt::AbortReason::kCmInduced);
  abort_in_flight();  // buffered writes are simply dropped
}

bool NOrecThread::tx_read(RegId reg, Value& out) {
  rec_.request(ActionKind::kReadReq, reg);
  if (in_wset(reg)) {
    for (auto it = wset_.rbegin(); it != wset_.rend(); ++it) {
      if (it->first == reg) {
        out = it->second;
        rec_.response(ActionKind::kReadRet, reg, out);
        return true;
      }
    }
  }
  // Injection site: a spurious read-validation abort, indistinguishable
  // from a failed value-based revalidation (the clean-abort path below).
  if (fault_ != nullptr &&
      fault_->inject_abort(stat_slot(), rt::FaultSite::kReadValidation)) {
    tm_.stats().add(static_cast<std::size_t>(slot_.slot()),
                    Counter::kTxReadValidationFail);
    // Injected, not a genuine value mismatch — the attribution must say so
    // (the value snapshot may in fact still be perfectly valid).
    note_abort(rt::AbortReason::kFaultInjected);
    abort_in_flight();
    return false;
  }
  Value v = cells_[static_cast<std::size_t>(reg)].load(
      std::memory_order_acquire);
  while (!tm_.seqlock_.read_validate(snapshot_)) {
    if (!revalidate()) {
      tm_.stats().add(static_cast<std::size_t>(slot_.slot()),
                      Counter::kTxReadValidationFail);
      // Value-based validation has no stripe to blame: kNoStripe.
      note_abort(rt::AbortReason::kReadValidation);
      abort_in_flight();
      return false;
    }
    v = cells_[static_cast<std::size_t>(reg)].load(
        std::memory_order_acquire);
  }
  rset_.emplace_back(reg, v);
  out = v;
  rec_.response(ActionKind::kReadRet, reg, v);
  return true;
}

bool NOrecThread::tx_write(RegId reg, Value value) {
  rec_.request(ActionKind::kWriteReq, reg, value);
  wmark(reg) = 1;
  wset_.emplace_back(reg, value);
  rec_.response(ActionKind::kWriteRet, reg);
  return true;
}

TxResult NOrecThread::tx_commit() {
  rec_.request(ActionKind::kTxCommit);

  // Injection site: a spurious abort at commit entry, before the seqlock
  // is contended — txcommit answered by aborted is a legal history shape.
  if (fault_ != nullptr &&
      fault_->inject_abort(stat_slot(), rt::FaultSite::kCommit)) {
    note_abort(rt::AbortReason::kFaultInjected);
    abort_in_flight();
    return TxResult::kAborted;
  }

  if (wset_.empty()) {
    // Read-only: reads were validated when taken; nothing to publish.
    rec_.response(ActionKind::kCommitted);
    tm_.stats().add(static_cast<std::size_t>(slot_.slot()),
                    Counter::kTxCommit);
    tm_.stats().add(static_cast<std::size_t>(slot_.slot()),
                    Counter::kTxReadOnlyCommit);
    trace_tx_commit();
    registry_.tx_exit(slot_.slot());
    return TxResult::kCommitted;
  }

  // Collapse the write set to one (location, final value) entry in
  // first-write program order before touching the seqlock: the serialized
  // critical section below then pays exactly one store per distinct
  // location, not the seed's O(|wset|²) rescan under the lock. One linear
  // pass — a location's first occurrence claims a writeback_ slot (wslot
  // remembers which), later duplicates overwrite that slot's value.
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

  // Injection site: one lost seqlock CAS per commit attempt at most — the
  // attempt is skipped (taking it and discarding a success would leave the
  // seqlock write-locked forever) and the commit revalidates exactly as
  // after a genuine race loss. Bounded to one so a high injection rate
  // cannot livelock the acquire/revalidate loop.
  bool cas_loss_injected = false;
  while ((fault_ != nullptr && !cas_loss_injected &&
          (cas_loss_injected = fault_->inject_cas_loss(
               stat_slot(), rt::FaultSite::kLockAcquire))) ||
         !tm_.seqlock_.try_write_lock(snapshot_)) {
    if (!revalidate()) {
      tm_.stats().add(static_cast<std::size_t>(slot_.slot()),
                      Counter::kTxReadValidationFail);
      note_abort(rt::AbortReason::kReadValidation);
      abort_in_flight();
      return TxResult::kAborted;
    }
  }
  // Injected delay with the seqlock held: the widened delayed-commit
  // window every concurrent reader must revalidate across.
  if (fault_ != nullptr) {
    fault_->maybe_delay(stat_slot(), rt::FaultSite::kCommit);
  }
  // Sole writer: flush the collapsed set. Marks drop to 0 as each
  // location publishes, so no separate clear pass runs afterwards.
  for (const auto& [reg, value] : writeback_) {
    cells_[static_cast<std::size_t>(reg)].store(
        value, std::memory_order_release);
    rec_.publish(reg, value);
    wmark(reg) = 0;
  }
  tm_.seqlock_.write_unlock();

  rec_.response(ActionKind::kCommitted);
  tm_.stats().add(static_cast<std::size_t>(slot_.slot()), Counter::kTxCommit);
  trace_tx_commit();
  registry_.tx_exit(slot_.slot());
  return TxResult::kCommitted;
}

Value NOrecThread::nt_read(RegId reg) {
  tm_.stats().add(static_cast<std::size_t>(slot_.slot()), Counter::kNtRead);
  auto& cell = cells_[static_cast<std::size_t>(reg)];
  return rec_.nt_access(/*is_write=*/false, reg, 0, [&] {
    return cell.load(std::memory_order_seq_cst);
  });
}

void NOrecThread::nt_write(RegId reg, Value value) {
  tm_.stats().add(static_cast<std::size_t>(slot_.slot()), Counter::kNtWrite);
  auto& cell = cells_[static_cast<std::size_t>(reg)];
  rec_.nt_access(/*is_write=*/true, reg, value, [&] {
    cell.store(value, std::memory_order_seq_cst);
    return value;
  });
}

}  // namespace privstm::tm
