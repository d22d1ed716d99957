// The TM interface — the programming model of §2.1.
//
// Threads obtain a per-thread session (`TmThread`) from a TM instance and
// issue:
//   * transactional accesses between tx_begin() and tx_commit()/abort,
//   * non-transactional accesses nt_read()/nt_write() outside transactions
//     (uninstrumented on the fast path, per the paper's motivation),
//   * transactional fences fence() outside transactions — synchronous, or
//     asynchronous via fence_async()/fence_try_complete()/fence_wait().
//
// Fencing is not a backend concern: every backend routes privatization
// through the shared quiescence subsystem (rt::QuiescenceManager, owned by
// the TransactionalMemory base) via the `FenceSession` embedded in the
// TmThread base. Backends only mark transaction activity (tx_enter/tx_exit
// on their registry slot) and call auto_fence() at commit/abort ends.
//
// All implementations optionally log their interface actions to a
// hist::Recorder so executions can be checked for DRF and strong opacity.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "history/action.hpp"
#include "history/recorder.hpp"
#include "runtime/fault.hpp"
#include "runtime/global_clock.hpp"
#include "runtime/quiescence.hpp"
#include "runtime/serial_gate.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_registry.hpp"
#include "runtime/trace.hpp"
#include "tm/heap.hpp"
#include "tm/txn_stamp.hpp"

namespace privstm::tm {

using hist::RegId;
using hist::ThreadId;
using hist::Value;

// The quiescence subsystem owns the fence policy (runtime/quiescence.hpp);
// these aliases keep the tm-layer spelling used across the repo.
using rt::FencePolicy;
using rt::fence_policy_name;

enum class TxResult : std::uint8_t { kCommitted, kAborted };

struct TmConfig {
  /// Statically allocated location prefix (the legacy register file).
  /// Locations [0, num_registers) exist from construction and are never
  /// recycled; tm_alloc() grows the heap beyond them without bound.
  std::size_t num_registers = 64;
  /// Stripe count of the hashed version/lock table the TL2-family backends
  /// validate against (rounded up to a power of two). More stripes = fewer
  /// false conflicts; the table is fixed-size however large the heap grows.
  /// The table is split into alloc.effective_shards() regions (StripeTable
  /// file comment / DESIGN.md §11): blocks served by different allocator
  /// shards validate and lock disjoint stripe ranges.
  std::size_t lock_stripes = 1024;
  FencePolicy fence_policy = FencePolicy::kSelective;
  rt::FenceMode fence_mode = rt::FenceMode::kEpochCounter;
  /// Busy-wait spins injected between commit-time validation and write-back
  /// (TL2 only). Zero in production; litmus harnesses widen the
  /// delayed-commit window (Fig 1a) with it to make the race observable in
  /// reasonable run counts.
  std::uint32_t commit_pause_spins = 0;
  /// Collect per-transaction read/write timestamps (TL2 only) so tests can
  /// validate the §7 / Fig 11 INV.5 invariants on recorded executions.
  bool collect_timestamps = false;
  /// TEST-ONLY (TL2): skip read-time version checks and commit-time
  /// read-set validation, yielding a deliberately *unsound* TM. Used to
  /// demonstrate that the strong-opacity checker detects real bugs
  /// (tests/checker_detection_test.cpp). Never enable outside tests.
  bool unsafe_skip_validation = false;
  /// Heap allocator tuning: per-thread magazine capacity, frees per
  /// grace-period ticket, size-class table bound, store shards
  /// (allocator.hpp). `{.magazine_size = 0, .limbo_batch = 1,
  /// .shards = 1}` reproduces the PR 3 single-lock allocator's
  /// deterministic recycling behavior.
  AllocConfig alloc;
  /// Deterministic fault-injection plan (runtime/fault.hpp): seeded,
  /// per-thread, site-addressed spurious aborts / lost CASes / bounded
  /// delays across every backend's protocol steps plus the allocator's
  /// shared-refill path. Default: everything off (hot paths pay one
  /// pointer test). Conformance suites use this to prove injected-fault
  /// histories stay opaque/DRF (DESIGN.md §10).
  rt::FaultConfig fault;
  /// Transaction-lifecycle tracing (runtime/trace.hpp, DESIGN.md §13):
  /// per-thread SPSC event rings + per-stripe conflict heat map, dumped as
  /// Chrome trace-event JSON. Default: off — every emit site then holds a
  /// null TraceDomain* and pays a single predictable branch (the overhead
  /// cell in bench_tm_throughput gates this staying true).
  rt::TraceConfig trace;

  /// Smallest/largest auto-sized stripe table (auto_size_stripes below).
  static constexpr std::size_t kMinAutoStripes = 64;
  static constexpr std::size_t kMaxAutoStripes = std::size_t{1} << 20;

  /// Size `lock_stripes` from the expected peak number of live heap cells
  /// (static prefix + allocated blocks). Targets ~2 stripes per cell —
  /// under the Fibonacci mixing hash that keeps the expected number of
  /// colliding live cells per stripe below 1/2, so the false-conflict
  /// rate stays in the low percent under full contention (regression:
  /// tests/stripe_sweep_test.cpp). Region-aware: the budget is divided
  /// across alloc.effective_shards() equal power-of-two regions
  /// (ceil-divided, so a partitioned table never ends up smaller than the
  /// unpartitioned answer), with the same overall clamp
  /// [kMinAutoStripes, kMaxAutoStripes] (a 2^20 table is 64 MiB of
  /// cache-line-padded locks; past that, collisions beat footprint).
  /// Because regions are a power of two, the rounding commutes: for any
  /// region count the total equals the single-region auto size, so the
  /// pinned values in stripe_sweep_test hold for every partitioning.
  /// Returns the chosen total count.
  std::size_t auto_size_stripes(std::size_t expected_cells) noexcept {
    const std::size_t regions = alloc.effective_shards();
    const std::size_t min_per =
        std::max<std::size_t>(2, kMinAutoStripes / regions);
    const std::size_t max_per =
        std::max<std::size_t>(min_per, kMaxAutoStripes / regions);
    const std::size_t want = expected_cells >= kMaxAutoStripes / 2
                                 ? kMaxAutoStripes
                                 : expected_cells * 2;
    const std::size_t want_per = (want + regions - 1) / regions;
    std::size_t per = min_per;
    while (per < want_per && per < max_per) per <<= 1;
    lock_stripes = per * regions;
    return lock_stripes;
  }
};

class TransactionalMemory;

/// Asynchronous fences are recorded on shadow thread ids (the session's
/// id plus `(k + 1) * kAsyncFenceThreadOffset` for outstanding slot k):
/// fbegin at issue, fend at completion. A shadow stream keeps the
/// per-thread request/response alternation of Definition A.1 condition 5
/// intact while the issuing thread runs transactions between issue and
/// completion — one stream per concurrently outstanding ticket; conditions
/// 10 (fence blocking) and the af/bf/cl happens-before edges are global
/// over the whole history, so the fence constrains the execution exactly
/// as a same-thread fence would.
inline constexpr ThreadId kAsyncFenceThreadOffset = 1000;

/// Outstanding async fences per session (deferred-privatization pipelines
/// keep a couple of tickets in flight; see bench_fence_overhead).
inline constexpr std::size_t kMaxOutstandingFences = 4;

/// The one shared fence implementation all backends use: policy dispatch,
/// fbegin/fend recording and the sync/async quiescence calls. Owned by the
/// TmThread base; replaces the per-backend fence()/do_fence()/auto_fence()
/// copies that predated the quiescence subsystem.
class FenceSession {
 public:
  /// `rec` is the owning session's recording handle (fbegin/fend of
  /// synchronous fences interleave with the thread's other actions);
  /// `recorder` is kept to lazily open the async shadow stream.
  /// `fault` may be null (injection disabled); armed, fence entries become
  /// a bounded-delay injection site (FaultSite::kFence). `trace` may be
  /// null (tracing disabled); armed, every synchronous fence becomes a
  /// "fence" span on the session's trace stream.
  FenceSession(rt::QuiescenceManager& qm, hist::Recorder* recorder,
               hist::Recorder::Handle& rec, ThreadId thread,
               std::size_t stat_slot, rt::FaultInjector* fault = nullptr,
               rt::TraceDomain* trace = nullptr) noexcept
      : qm_(qm),
        recorder_(recorder),
        rec_(rec),
        thread_(thread),
        stat_slot_(stat_slot),
        fault_(fault),
        trace_(trace),
        policy_(qm.policy()) {}

  FenceSession(const FenceSession&) = delete;
  FenceSession& operator=(const FenceSession&) = delete;

  /// Synchronous transactional fence; no-op under FencePolicy::kNone.
  void fence() {
    if (policy_ == FencePolicy::kNone) return;
    do_fence();
  }

  /// Post-commit/abort policy fence (FencePolicy::kAlways / kSkipAfterRO).
  void auto_fence(bool wrote) {
    switch (policy_) {
      case FencePolicy::kAlways:
        do_fence();
        break;
      case FencePolicy::kSkipAfterReadOnly:
        if (wrote) do_fence();  // the unsound optimization of [43]
        break;
      case FencePolicy::kNone:
      case FencePolicy::kSelective:
        break;
    }
  }

  /// Issue an asynchronous fence (outside transactions). Up to
  /// kMaxOutstandingFences may be outstanding per session, each bracketed
  /// on its own shadow history stream.
  rt::FenceTicket fence_async() {
    if (policy_ == FencePolicy::kNone) return rt::kNullFenceTicket;
    const std::size_t k = free_slot();
    if (k >= kMaxOutstandingFences) {
      // Overrunning the ticket window degrades to a synchronous fence and
      // hands back the already-complete null ticket — safe (the
      // quiescence happened) rather than fast. The degradation is counted
      // so callers can see the window is too small for their pipeline.
      qm_.count(stat_slot_, rt::Counter::kFenceAsyncOverflow);
      do_fence();
      return rt::kNullFenceTicket;
    }
    async_rec(k).request(hist::ActionKind::kFenceBegin);
    outstanding_[k] = qm_.fence_async(stat_slot_);
    return outstanding_[k];
  }

  /// Non-blocking completion poll; true once the ticket's grace periods
  /// have elapsed (always true for completed/null/unknown tickets).
  bool fence_try_complete(rt::FenceTicket ticket) {
    const std::size_t k = slot_of(ticket);
    if (k == kMaxOutstandingFences) return true;
    if (!qm_.fence_try_complete(ticket, stat_slot_)) return false;
    retire(k);
    return true;
  }

  /// Block until the ticket completes. Must be outside transactions (the
  /// grace period would wait for the caller's own transaction).
  void fence_wait(rt::FenceTicket ticket) {
    const std::size_t k = slot_of(ticket);
    if (k == kMaxOutstandingFences) return;
    qm_.fence_wait(ticket, stat_slot_);
    retire(k);
  }

 private:
  void do_fence() {
    rec_.request(hist::ActionKind::kFenceBegin);
    if (trace_ != nullptr) {
      trace_->emit(stat_slot_, rt::TraceEventKind::kFenceBegin);
    }
    if (fault_ != nullptr) {
      fault_->maybe_delay(stat_slot_, rt::FaultSite::kFence);
    }
    qm_.fence(stat_slot_);
    if (trace_ != nullptr) {
      trace_->emit(stat_slot_, rt::TraceEventKind::kFenceEnd);
    }
    rec_.response(hist::ActionKind::kFenceEnd);
  }

  std::size_t free_slot() const {
    for (std::size_t k = 0; k < kMaxOutstandingFences; ++k) {
      if (outstanding_[k] == rt::kNullFenceTicket) return k;
    }
    return kMaxOutstandingFences;
  }

  /// Oldest outstanding slot holding `ticket` (tickets issued back to back
  /// may share a target value; any assignment brackets correctly since the
  /// completion condition is identical). kMaxOutstandingFences if unknown.
  std::size_t slot_of(rt::FenceTicket ticket) const {
    if (ticket == rt::kNullFenceTicket) return kMaxOutstandingFences;
    for (std::size_t k = 0; k < kMaxOutstandingFences; ++k) {
      if (outstanding_[k] == ticket) return k;
    }
    return kMaxOutstandingFences;
  }

  void retire(std::size_t k) {
    async_rec(k).response(hist::ActionKind::kFenceEnd);
    outstanding_[k] = rt::kNullFenceTicket;
  }

  hist::Recorder::Handle& async_rec(std::size_t k) {
    if (!arec_made_[k]) {
      arec_made_[k] = true;
      if (recorder_ != nullptr) {
        arec_[k] = recorder_->for_thread(
            thread_ +
            static_cast<ThreadId>(k + 1) * kAsyncFenceThreadOffset);
      }
    }
    return arec_[k];
  }

  rt::QuiescenceManager& qm_;
  hist::Recorder* recorder_;
  hist::Recorder::Handle& rec_;
  /// Shadow streams, one per outstanding slot, opened on first use.
  std::array<hist::Recorder::Handle, kMaxOutstandingFences> arec_{};
  std::array<bool, kMaxOutstandingFences> arec_made_{};
  ThreadId thread_;
  std::size_t stat_slot_;
  rt::FaultInjector* fault_;
  rt::TraceDomain* trace_;
  const FencePolicy policy_;
  std::array<rt::FenceTicket, kMaxOutstandingFences> outstanding_{};
};

/// Per-thread TM session. Not thread-safe; owned by exactly one thread.
class TmThread {
 public:
  virtual ~TmThread() = default;

  /// Begin a transaction. Returns false if the TM aborted it immediately
  /// (none of our TMs do, but the interface of Fig 4 allows it).
  virtual bool tx_begin() = 0;

  /// Transactional read. On success stores the value and returns true; on
  /// false the transaction has been aborted (do not call tx_commit()).
  virtual bool tx_read(RegId reg, Value& out) = 0;

  /// Transactional write; false means the transaction aborted.
  virtual bool tx_write(RegId reg, Value value) = 0;

  /// Attempt to commit. Either way the transaction is finished.
  virtual TxResult tx_commit() = 0;

  /// Explicit user abort (the Fig 4 interface allows it; until now only
  /// internal aborts existed). Must be called inside a transaction; the
  /// transaction's writes are discarded and it is finished. Recorded as a
  /// txabort request answered by aborted. No auto-fence follows — like
  /// the read-validation abort path, an aborted transaction published
  /// nothing a privatizer could race with through this thread.
  virtual void tx_abort() = 0;

  /// Uninstrumented non-transactional accesses (must be outside txns).
  virtual Value nt_read(RegId reg) = 0;
  virtual void nt_write(RegId reg, Value value) = 0;

  /// Transactional fence (must be outside txns). Under FencePolicy::kNone
  /// this is a no-op — deliberately so, to run the paper's examples in
  /// their unsafe configuration without editing the programs. Shared by
  /// all backends via the quiescence subsystem.
  void fence() { fencer_.fence(); }

  /// Asynchronous fence (deferred privatization): issue now, keep doing
  /// useful (including transactional) work, complete the fence later. The
  /// privatized data may be accessed non-transactionally only after
  /// completion. Up to kMaxOutstandingFences tickets per session.
  rt::FenceTicket fence_async() { return fencer_.fence_async(); }

  /// Poll an async fence; safe anywhere, including between transactions.
  bool fence_try_complete(rt::FenceTicket ticket) {
    return fencer_.fence_try_complete(ticket);
  }

  /// Block until an async fence completes (must be outside transactions).
  void fence_wait(rt::FenceTicket ticket) { fencer_.fence_wait(ticket); }

  /// Recorded heap allocation: like TransactionalMemory::tm_alloc, but the
  /// event enters this session's history stream (kAllocReq/kAllocRet) so
  /// the DRF checker can attribute races to reclaimed blocks. Must be
  /// called outside transactions (recorded heap events are
  /// non-transactional by convention; the well-formedness checker flags
  /// violations).
  TxHandle tm_alloc(std::size_t n) {
    rec_.request(hist::ActionKind::kAllocReq, hist::kNoReg,
                 static_cast<Value>(n));
    const TxHandle h = heap_.alloc(n);
    rec_.response(hist::ActionKind::kAllocRet, h.base, h.size);
    return h;
  }

  /// Recorded privatization-safe free (kFreeReq/kFreeRet); same
  /// outside-transactions convention as tm_alloc. The grace-period
  /// semantics are the heap's (TxHeap::free).
  void tm_free(TxHandle h) {
    rec_.request(hist::ActionKind::kFreeReq, h.base, h.size);
    heap_.free(h);
    rec_.response(hist::ActionKind::kFreeRet, h.base, h.size);
  }

  ThreadId thread_id() const noexcept { return thread_; }

  /// Reason and faulting stripe of this session's most recent abort.
  /// Maintained unconditionally — the abort slow path affords two plain
  /// stores — so attribution is inspectable with tracing off.
  struct AbortInfo {
    rt::AbortReason reason = rt::AbortReason::kNone;
    std::uint32_t stripe = rt::kNoStripe;
  };
  AbortInfo last_abort() const noexcept { return last_abort_; }

  /// This session's registry slot: its stats lane and the tid its trace
  /// events carry.
  std::size_t stat_slot() const noexcept {
    return static_cast<std::size_t>(slot_.slot());
  }

  // run_tx_retry internals — public so the free-function retry helpers can
  // reach them; not part of the user-facing session API.

  /// Escalate this session into the irrevocable serial mode: close the
  /// serial gate (quiescence handshake drains in-flight optimistic
  /// transactions), suspend this slot's fault injection (the irrevocable
  /// attempt is the progress guarantee of last resort) and count
  /// Counter::kTxEscalated. Must be called between transactions; pair with
  /// escalate_exit().
  void escalate_enter() noexcept {
    if (trace_ != nullptr) {
      trace_->emit(stat_slot(), rt::TraceEventKind::kEscalateBegin);
    }
    gate_.enter(slot_.slot());
    if (fault_ != nullptr) fault_->suspend(stat_slot());
    stats_.add(stat_slot(), rt::Counter::kTxEscalated);
    escalated_ = true;
  }

  /// Demote back to optimistic execution: reopen the gate, resume faults.
  void escalate_exit() noexcept {
    escalated_ = false;
    if (fault_ != nullptr) fault_->resume(stat_slot());
    gate_.exit();
    if (trace_ != nullptr) {
      trace_->emit(stat_slot(), rt::TraceEventKind::kEscalateEnd);
    }
  }

 protected:
  /// Registers a slot with `tm`'s quiescence registry and wires the shared
  /// fence session; defined after TransactionalMemory below.
  TmThread(TransactionalMemory& tm, ThreadId thread,
           hist::Recorder* recorder);

  /// Post-commit/abort policy fence — backends call this exactly where the
  /// paper's commit/abort handlers end.
  void auto_fence(bool wrote) { fencer_.auto_fence(wrote); }

  /// Record an abort's attribution (AbortInfo latch + kTxAbort trace event
  /// + conflict heat map). Backends call this immediately before their
  /// abort bookkeeping with the *cause*: kFaultInjected when the injector
  /// fired (taking priority over whatever genuine check it fired inside),
  /// kReadValidation / kLockFail with the faulting stripe where one
  /// exists, kCmInduced for explicit tx_abort(). Aborts of an escalated
  /// (irrevocable serial-mode) attempt are re-attributed to kEscalated —
  /// those are body-requested by construction, and the escalation is the
  /// fact the telemetry consumer needs.
  void note_abort(rt::AbortReason reason,
                  std::uint32_t stripe = rt::kNoStripe) noexcept {
    if (escalated_) reason = rt::AbortReason::kEscalated;
    last_abort_ = {reason, stripe};
    if (trace_ != nullptr) {
      trace_->emit(stat_slot(), rt::TraceEventKind::kTxAbort,
                   static_cast<std::uint8_t>(reason), stripe);
      trace_->note_conflict(stripe);
    }
  }

  /// Lifecycle trace points; single null test each when tracing is off.
  void trace_tx_begin() noexcept {
    if (trace_ != nullptr) {
      trace_->emit(stat_slot(), rt::TraceEventKind::kTxBegin);
    }
  }
  void trace_tx_commit() noexcept {
    if (trace_ != nullptr) {
      trace_->emit(stat_slot(), rt::TraceEventKind::kTxCommit);
    }
  }

  /// First thing in every backend's tx_begin: block while another
  /// session's escalated (irrevocable) transaction holds the serial gate.
  /// Must run BEFORE the activity word is bumped — a blocked thread is
  /// quiescent, so the escalator's drain never waits on a thread the gate
  /// itself is blocking (serial_gate.hpp has the progress argument).
  void serial_gate_wait() const noexcept { gate_.wait(slot_.slot()); }

  ThreadId thread_;
  hist::Recorder::Handle rec_;
  rt::ThreadRegistry& registry_;  ///< the TM's shared registry
  rt::ThreadSlotGuard slot_;
  rt::StatsDomain& stats_;        ///< the TM's shared counter domain
  rt::SerialGate& gate_;          ///< the TM's irrevocable serial gate
  rt::FaultInjector* fault_;      ///< null when injection is disabled
  rt::TraceDomain* trace_;        ///< null when tracing is disabled
  FenceSession fencer_;
  TxHeap& heap_;  ///< the TM's shared heap (recorded tm_alloc/tm_free)
  AbortInfo last_abort_{};
  bool escalated_ = false;  ///< inside an escalate_enter/exit tenure
};

/// A TM instance: shared state plus a session factory.
///
/// All backends store committed values in one shared `TxHeap` — a dynamic
/// location space with tm_alloc()/tm_free() — and keep only their
/// *metadata* representation private (stripe table, sequence lock, global
/// mutex). That is what makes the heap a TM-interface feature rather than
/// a per-backend one: handles, histories and checkers see plain location
/// ids whatever backend runs them.
class TransactionalMemory {
 public:
  virtual ~TransactionalMemory() = default;

  /// Create the session for logical thread `thread`. `recorder` may be
  /// nullptr (no logging — the benchmark configuration).
  virtual std::unique_ptr<TmThread> make_thread(
      ThreadId thread, hist::Recorder* recorder) = 0;

  virtual const char* name() const noexcept = 0;

  /// Restore every location to vinit and reset TM metadata (including the
  /// heap allocator). All sessions must be destroyed / quiescent, and
  /// outstanding TxHandles are invalidated.
  virtual void reset() = 0;

  /// Allocate `n` contiguous heap locations (initially vinit). Thread-safe;
  /// callable from any thread, inside or outside transactions.
  TxHandle tm_alloc(std::size_t n) { return heap_.alloc(n); }

  /// Privatization-safe deferred free: the block is recycled only after a
  /// quiescence grace period — every transaction active at this call has
  /// finished — so a delayed commit can never write into reused memory.
  /// The caller must have unlinked the block (no new transactional
  /// accesses can reach it); stale use of the handle after free is a
  /// use-after-free bug the DRF checker flags (see the reclamation litmus
  /// in backend_conformance_test).
  void tm_free(TxHandle handle) { heap_.free(handle); }

  /// Read a location's committed value outside any execution — a harness
  /// utility for evaluating litmus postconditions after threads joined.
  /// Not part of the paper's interface. vinit for unmaterialized ids.
  Value peek(RegId reg) const noexcept { return heap_.peek(reg); }

  const TmConfig& config() const noexcept { return config_; }
  rt::StatsDomain& stats() noexcept { return stats_; }

  /// The instance's trace domain (inert unless TmConfig::trace enables
  /// it); trace_ptr() is the emit-site form — null when disabled, so every
  /// lifecycle event site costs one pointer test (same shape as
  /// fault_ptr()).
  rt::TraceDomain& trace() noexcept { return trace_; }
  rt::TraceDomain* trace_ptr() noexcept {
    return trace_.enabled() ? &trace_ : nullptr;
  }

  /// Stripe index a TL2-family backend validates/locks `reg` against, or
  /// rt::kNoStripe for backends with no stripes (norec's single seqlock,
  /// glock's mutex). Lets attribution consumers map a location onto the
  /// conflict heat map without reaching into backend internals.
  virtual std::uint32_t stripe_of(RegId reg) const noexcept {
    (void)reg;
    return rt::kNoStripe;
  }

  /// The instance's fault injector (disabled unless TmConfig::fault arms
  /// it); fault_ptr() is the hot-path form — null when disabled so every
  /// injection site costs one pointer test.
  rt::FaultInjector& fault() noexcept { return fault_; }
  rt::FaultInjector* fault_ptr() noexcept {
    return fault_.enabled() ? &fault_ : nullptr;
  }

  /// The irrevocable serial mode's gate (runtime/serial_gate.hpp), shared
  /// by every session; run_tx_retry escalates through it.
  rt::SerialGate& serial_gate() noexcept { return serial_gate_; }

  /// The shared value store + allocator (all backends).
  TxHeap& heap() noexcept { return heap_; }
  const TxHeap& heap() const noexcept { return heap_; }

  /// The shared quiescence subsystem: thread registry, fence dispatch and
  /// fence statistics for this instance.
  rt::QuiescenceManager& quiescence() noexcept { return quiescence_; }

 protected:
  explicit TransactionalMemory(TmConfig config)
      : config_(config),
        trace_(config_.trace, config_.lock_stripes),
        fault_(config_.fault, stats_),
        quiescence_(stats_, config_.fence_policy, config_.fence_mode),
        serial_gate_(quiescence_.registry()),
        heap_(config_.num_registers, quiescence_, config_.alloc) {
    // The allocator's shared-refill path is an injection site too
    // (FaultSite::kAllocRefill); hand it the injector only when armed.
    heap_.set_fault_injector(fault_ptr());
    // Trace emit sites below the TM layer get the same null-when-disabled
    // pointer: grace-period scans and allocator/limbo slow paths.
    quiescence_.set_trace(trace_ptr());
    heap_.set_trace(trace_ptr());
  }

  /// Shared part of reset(): stats, the fault injector's streams, and the
  /// heap — cell values, free extents, limbo batches, and every thread's
  /// allocator magazines (cleared via the allocator's registry epoch;
  /// quiescence required).
  void reset_base() {
    stats_.reset();
    trace_.reset();
    fault_.reset();
    heap_.reset();
  }

  TmConfig config_;
  rt::StatsDomain stats_;
  rt::TraceDomain trace_;
  rt::FaultInjector fault_;
  rt::QuiescenceManager quiescence_;
  rt::SerialGate serial_gate_;
  TxHeap heap_;
};

inline TmThread::TmThread(TransactionalMemory& tm, ThreadId thread,
                          hist::Recorder* recorder)
    : thread_(thread),
      rec_(recorder ? recorder->for_thread(thread)
                    : hist::Recorder::Handle{}),
      registry_(tm.quiescence().registry()),
      slot_(registry_),
      stats_(tm.stats()),
      gate_(tm.serial_gate()),
      fault_(tm.fault_ptr()),
      trace_(tm.trace_ptr()),
      fencer_(tm.quiescence(), recorder, rec_, thread,
              static_cast<std::size_t>(slot_.slot()), fault_, trace_),
      heap_(tm.heap()) {}

// ---------------------------------------------------------------------------
// Structured transaction helpers.
// ---------------------------------------------------------------------------

/// Body-scoped view of a running transaction that remembers whether the TM
/// aborted it; all accesses after an abort become no-ops so bodies can be
/// written straight-line.
class TxScope {
 public:
  explicit TxScope(TmThread& thread) noexcept : thread_(thread) {}

  Value read(RegId reg) noexcept {
    if (aborted_) return 0;
    Value v = 0;
    if (!thread_.tx_read(reg, v)) aborted_ = true;
    return v;
  }

  void write(RegId reg, Value value) noexcept {
    if (aborted_) return;
    if (!thread_.tx_write(reg, value)) aborted_ = true;
  }

  /// Explicit user abort from inside a body: the transaction is finished
  /// (TmThread::tx_abort) and every later access through this scope is a
  /// no-op, so bodies stay straight-line. run_tx treats the attempt as
  /// aborted without calling tx_commit.
  void abort() noexcept {
    if (aborted_) return;
    thread_.tx_abort();
    aborted_ = true;
  }

  bool aborted() const noexcept { return aborted_; }

 private:
  TmThread& thread_;
  bool aborted_ = false;
};

/// Run `body(TxScope&)` as one transaction attempt; returns the outcome.
/// This is `l := atomic { C }` of §2.1.
template <typename F>
TxResult run_tx(TmThread& thread, F&& body) {
  if (!thread.tx_begin()) return TxResult::kAborted;
  TxScope scope(thread);
  std::forward<F>(body)(scope);
  if (scope.aborted()) return TxResult::kAborted;
  return thread.tx_commit();
}

enum class TxRetryStatus : std::uint8_t {
  kCommitted,  ///< an attempt committed
  kGaveUp,     ///< max_attempts exhausted without a commit
};

/// Retry knobs for run_tx_retry (DESIGN.md §10). There is one retry rule:
/// a failed attempt retries at once, and past `escalate_after` failed
/// attempts the loop enters the irrevocable serial mode. No pause between
/// attempts — the serial gate, not a wait, is what guarantees progress.
struct TxRetryOptions {
  /// Total attempt budget, escalated attempts included; 0 = unbounded.
  /// With a bound, a persistently failing body (e.g. one that calls
  /// TxScope::abort every time) returns kGaveUp instead of spinning
  /// forever.
  std::size_t max_attempts = 0;
  /// Failed attempts before escalating to the irrevocable serial mode
  /// (runtime/serial_gate.hpp); 0 = never escalate. Past 64 failures a
  /// symmetric conflict storm is no longer plausibly transient.
  std::size_t escalate_after = 64;
};

struct TxRetryResult {
  TxRetryStatus status = TxRetryStatus::kCommitted;
  std::size_t attempts = 0;
  bool escalated = false;  ///< the loop entered the serial mode

  bool committed() const noexcept {
    return status == TxRetryStatus::kCommitted;
  }
};

/// Retry `body` at once until it commits, the attempt budget runs out
/// (kGaveUp), or — past escalate_after failed attempts — by escalating
/// into the irrevocable serial mode: the serial gate closes, in-flight
/// optimistic transactions drain, and the body retries under global mutual
/// exclusion (fault injection suspended) until it commits or exhausts
/// max_attempts. Escalated attempts run the backend's normal protocol, so
/// their recorded histories go through the same opacity/DRF checkers as
/// optimistic ones; the gate is reopened (demotion) before returning
/// either way.
template <typename F>
TxRetryResult run_tx_retry(TmThread& thread, F&& body,
                           const TxRetryOptions& options) {
  TxRetryResult result;
  for (std::size_t attempt = 1;; ++attempt) {
    result.attempts = attempt;
    if (run_tx(thread, body) == TxResult::kCommitted) break;
    if (options.max_attempts != 0 && attempt >= options.max_attempts) {
      result.status = TxRetryStatus::kGaveUp;
      break;
    }
    if (!result.escalated && options.escalate_after != 0 &&
        attempt >= options.escalate_after) {
      result.escalated = true;
      thread.escalate_enter();
    }
  }
  if (result.escalated) thread.escalate_exit();
  return result;
}

/// Retry until commit under the default TxRetryOptions; returns the number
/// of attempts. The short form every raw retry loop in the repo uses, so
/// they all get the serial-gate escape hatch without touching their call
/// sites.
template <typename F>
std::size_t run_tx_retry(TmThread& thread, F&& body) {
  return run_tx_retry(thread, std::forward<F>(body), TxRetryOptions{})
      .attempts;
}

// ---------------------------------------------------------------------------
// Typed accessors over heap locations.
// ---------------------------------------------------------------------------

/// Encoding between a user type and the TM's raw 64-bit Value word: raw
/// bytes, so any trivially copyable T of at most 8 bytes round-trips
/// exactly (signed integers, enums, bool, float/double).
template <typename T>
struct TxCodec {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(Value),
                "TxVar<T> requires a trivially copyable T of <= 8 bytes");

  static Value encode(T v) noexcept {
    Value raw = 0;
    std::memcpy(&raw, &v, sizeof(T));
    return raw;
  }
  static T decode(Value raw) noexcept {
    T v{};
    std::memcpy(&v, &raw, sizeof(T));
    return v;
  }
};

/// A typed view of one heap location: the end-user face of tm_alloc().
/// Plain data (location id + codec); copying a TxVar aliases the location.
/// Transactional accesses go through a TxScope; nt_* are the uninstrumented
/// accesses of the privatization idiom and carry the same DRF obligations
/// as raw nt_read/nt_write.
template <typename T = Value>
class TxVar {
 public:
  TxVar() = default;
  explicit TxVar(RegId loc) noexcept : loc_(loc) {}
  /// Element `index` of an allocated block.
  explicit TxVar(TxHandle handle, std::size_t index = 0) noexcept
      : loc_(handle.loc(index)) {}

  RegId loc() const noexcept { return loc_; }
  bool valid() const noexcept { return loc_ != hist::kNoReg; }

  T get(TxScope& tx) const noexcept { return TxCodec<T>::decode(tx.read(loc_)); }
  void set(TxScope& tx, T v) const noexcept {
    tx.write(loc_, TxCodec<T>::encode(v));
  }

  /// Uninstrumented accesses — only DRF after privatization (fence!).
  T nt_get(TmThread& session) const {
    return TxCodec<T>::decode(session.nt_read(loc_));
  }
  void nt_set(TmThread& session, T v) const {
    session.nt_write(loc_, TxCodec<T>::encode(v));
  }

 private:
  RegId loc_ = hist::kNoReg;
};

/// A typed view of a whole allocated block: bounds-checked (by assert)
/// indexing into the handle's contiguous locations.
template <typename T = Value>
class TxArray {
 public:
  TxArray() = default;
  explicit TxArray(TxHandle handle) noexcept : handle_(handle) {}

  std::size_t size() const noexcept { return handle_.size; }
  TxHandle handle() const noexcept { return handle_; }
  bool valid() const noexcept { return handle_.valid(); }

  TxVar<T> operator[](std::size_t i) const noexcept {
    return TxVar<T>(handle_.loc(i));
  }
  RegId loc(std::size_t i) const noexcept { return handle_.loc(i); }

  T get(TxScope& tx, std::size_t i) const noexcept {
    return (*this)[i].get(tx);
  }
  void set(TxScope& tx, std::size_t i, T v) const noexcept {
    (*this)[i].set(tx, v);
  }
  T nt_get(TmThread& session, std::size_t i) const {
    return (*this)[i].nt_get(session);
  }
  void nt_set(TmThread& session, std::size_t i, T v) const {
    (*this)[i].nt_set(session, v);
  }

 private:
  TxHandle handle_{};
};

/// Allocate a typed block: `auto arr = tm_alloc_array<int>(tm, 16);`.
template <typename T = Value>
TxArray<T> tm_alloc_array(TransactionalMemory& tm, std::size_t n) {
  return TxArray<T>(tm.tm_alloc(n));
}

}  // namespace privstm::tm
