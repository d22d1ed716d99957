// Transaction-lifecycle tracing: per-thread bounded SPSC event rings, a
// per-stripe conflict heat map, and a Chrome-trace-event (Perfetto-loadable)
// exporter. DESIGN.md §13.
//
// Design constraints, in order:
//
//  1. The *disabled* path must be a single predictable branch. Every emit
//     site in the TM/runtime/service layers holds a `TraceDomain*` that is
//     nullptr when `TmConfig::trace.enabled` is false, so a traced build
//     with tracing off pays one always-not-taken test per slow-path event
//     site and nothing on the read/write fast paths (which are not traced
//     at all — only lifecycle transitions are).
//
//  2. The *enabled* path must never block and never corrupt. Each session
//     slot owns a cache-line-isolated single-producer/single-consumer ring;
//     when a ring is full the event is dropped and a per-ring drop counter
//     is bumped — emit() never waits and never overwrites an event the
//     consumer may be reading.
//
//  3. Events are tiny (24-byte POD) and self-describing: a kind, the
//     producing slot, an 8-bit argument (abort reason), a 32-bit argument
//     (stripe / bucket / thread count), and a 64-bit argument.
//
// Producer discipline: slots 0..kMaxSessionSlots-1 are written only by the
// thread owning that registry slot (the SPSC contract). kSharedSlot is a
// multi-producer ring for events emitted from centrally-locked contexts
// (grace-period scans, allocator compaction/refill/steal, limbo retirement);
// emit_shared() serializes those producers behind a spinlock — all of them
// are already slow-path, lock-holding call sites.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/cacheline.hpp"

namespace privstm::rt {

/// Sentinel stripe index for events with no associated stripe (NOrec has no
/// stripes; glock has no conflict aborts; body-requested aborts name none).
inline constexpr std::uint32_t kNoStripe = 0xFFFFFFFFu;

/// Why a transaction aborted. Carried as the 8-bit argument of every
/// kTxAbort event and latched per session for test inspection
/// (`TmThread::last_abort()`), tracing enabled or not.
enum class AbortReason : std::uint8_t {
  kNone = 0,          ///< no abort recorded yet
  kReadValidation,    ///< snapshot/read-set validation failed (genuine)
  kLockFail,          ///< commit-time stripe lock acquisition failed
  kCmInduced,         ///< explicit tx_abort() from the body
  kFaultInjected,     ///< rt::FaultInjector fired at this site
  kEscalated,         ///< abort while irrevocably escalated (serial gate)
  kCount,
};

const char* abort_reason_name(AbortReason r) noexcept;

/// Event vocabulary. *Begin/*End pairs become Chrome "B"/"E" spans;
/// kTxCommit and kTxAbort both close the "tx" span opened by kTxBegin;
/// the rest are instants ("i").
enum class TraceEventKind : std::uint8_t {
  kTxBegin = 0,
  kTxCommit,             ///< ends the tx span (a64 = commits so far)
  kTxAbort,              ///< ends the tx span (a8 = AbortReason, a32 = stripe)
  kFenceBegin,           ///< sync privatization fence (FenceSession)
  kFenceEnd,
  kGraceScanBegin,       ///< elected grace-period scan (a32 = threads waited)
  kGraceScanEnd,
  kEscalateBegin,        ///< irrevocable serial-gate tenure
  kEscalateEnd,
  kAllocRefill,          ///< shard refill from central extent map (a32 = shard)
  kAllocSteal,           ///< sibling-shard steal (a32 = victim, a64 = blocks)
  kAllocCompaction,      ///< bounded incremental spill step
  kLimboRetire,          ///< one limbo batch retired (a64 = blocks)
  kSweepFreezeBegin,     ///< SessionStore sweep phases (a32 = bucket)
  kSweepFreezeEnd,
  kSweepFenceBegin,
  kSweepFenceEnd,
  kSweepReclaimBegin,
  kSweepReclaimEnd,
  kSweepRepublishBegin,
  kSweepRepublishEnd,
  kCount,
};

/// Chrome span name ("tx", "fence", ...) for a kind, or the instant name.
const char* trace_event_name(TraceEventKind k) noexcept;

enum class TracePhase : std::uint8_t { kBegin, kEnd, kInstant };
TracePhase trace_event_phase(TraceEventKind k) noexcept;

/// One timestamped event. 24-byte POD; a8/a32/a64 meanings per kind above.
struct TraceEvent {
  std::uint64_t ts_ns = 0;
  std::uint64_t a64 = 0;
  std::uint32_t a32 = 0;
  std::uint16_t tid = 0;
  TraceEventKind kind = TraceEventKind::kTxBegin;
  std::uint8_t a8 = 0;
};
static_assert(sizeof(TraceEvent) == 24);

/// Knob hung off TmConfig. Everything is off by default; the disabled
/// TraceDomain allocates nothing.
struct TraceConfig {
  bool enabled = false;
  /// Events buffered per session slot before drop-and-count. Rounded up to
  /// a power of two.
  std::size_t ring_capacity = 4096;
  /// Conflict heat map size; 0 = match the TM's stripe count. Rounded up
  /// to a power of two.
  std::size_t heat_stripes = 0;
  /// Rows reported by top_n() / the metrics snapshot.
  std::size_t top_n = 16;
};

/// A stripe and its accumulated abort count, for the heat map.
struct StripeHeat {
  std::uint32_t stripe = 0;
  std::uint64_t aborts = 0;
};

class TraceDomain {
 public:
  static constexpr std::size_t kMaxSessionSlots = 64;  // = registry capacity
  /// Extra ring for centrally-locked producers (scans, allocator, limbo).
  static constexpr std::size_t kSharedSlot = kMaxSessionSlots;
  static constexpr std::size_t kSlots = kMaxSessionSlots + 1;

  /// `default_heat_stripes` sizes the conflict map when the config leaves
  /// heat_stripes at 0 (the TM passes its stripe count).
  explicit TraceDomain(const TraceConfig& config,
                       std::size_t default_heat_stripes = 1024);

  TraceDomain(const TraceDomain&) = delete;
  TraceDomain& operator=(const TraceDomain&) = delete;

  bool enabled() const noexcept { return enabled_; }
  std::size_t ring_capacity() const noexcept { return capacity_; }
  std::size_t heat_stripes() const noexcept { return heat_size_; }

  static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Append an event to `slot`'s ring (SPSC: only the owning thread may
  /// call this for a given slot). Full ring => drop and count, never block.
  void emit(std::size_t slot, TraceEventKind kind, std::uint8_t a8 = 0,
            std::uint32_t a32 = 0, std::uint64_t a64 = 0) noexcept {
    if (!enabled_) return;
    Ring& r = rings_[slot < kSlots ? slot : kSharedSlot];
    const std::uint64_t head = r.head.load(std::memory_order_relaxed);
    if (head - r.tail.load(std::memory_order_acquire) >= capacity_) {
      // Single writer per ring: plain load+store is race-free here.
      r.drops.store(r.drops.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
      return;
    }
    TraceEvent& e = r.buf[head & mask_];
    e.ts_ns = now_ns();
    e.a64 = a64;
    e.a32 = a32;
    e.tid = static_cast<std::uint16_t>(slot < kSlots ? slot : kSharedSlot);
    e.kind = kind;
    e.a8 = a8;
    r.head.store(head + 1, std::memory_order_release);
  }

  /// Multi-producer variant for kSharedSlot: call sites that run under a
  /// central lock but under *different* central locks (allocator vs scan)
  /// still need mutual exclusion with each other.
  void emit_shared(TraceEventKind kind, std::uint8_t a8 = 0,
                   std::uint32_t a32 = 0, std::uint64_t a64 = 0) noexcept {
    if (!enabled_) return;
    while (shared_lock_.exchange(true, std::memory_order_acquire)) {
    }
    emit(kSharedSlot, kind, a8, a32, a64);
    shared_lock_.store(false, std::memory_order_release);
  }

  /// Count an abort against `stripe` in the conflict heat map. Relaxed
  /// fetch_add; any thread may call concurrently.
  void note_conflict(std::uint32_t stripe) noexcept {
    if (!enabled_ || stripe == kNoStripe) return;
    heat_[stripe & heat_mask_].fetch_add(1, std::memory_order_relaxed);
  }

  /// Drain every ring into one vector (consumer side; call after the
  /// producers quiesced, or accept a prefix snapshot). Events from one ring
  /// stay in emission order; rings are concatenated by slot.
  std::vector<TraceEvent> drain();

  /// Total events dropped across all rings since the last reset.
  std::uint64_t dropped() const noexcept;

  /// Events currently buffered (not yet drained) across all rings.
  std::size_t buffered() const noexcept;

  /// Abort count for one heat-map cell.
  std::uint64_t heat(std::uint32_t stripe) const noexcept {
    if (!enabled_) return 0;
    return heat_[stripe & heat_mask_].load(std::memory_order_relaxed);
  }

  /// The n (default config.top_n) hottest stripes by abort count,
  /// descending; zero-count stripes are omitted.
  std::vector<StripeHeat> top_n(std::size_t n = 0) const;

  /// Total aborts across the whole heat map.
  std::uint64_t total_conflicts() const noexcept;

  void reset() noexcept;

 private:
  struct Ring {
    alignas(kCacheLine) std::atomic<std::uint64_t> head{0};
    alignas(kCacheLine) std::atomic<std::uint64_t> tail{0};
    std::atomic<std::uint64_t> drops{0};
    std::vector<TraceEvent> buf;
  };

  bool enabled_;
  std::size_t capacity_ = 0;
  std::uint64_t mask_ = 0;
  std::size_t heat_size_ = 0;
  std::uint32_t heat_mask_ = 0;
  std::size_t top_n_ = 16;
  std::unique_ptr<Ring[]> rings_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> heat_;
  alignas(kCacheLine) std::atomic<bool> shared_lock_{false};
};

/// Render `events` as a Chrome trace-event JSON document (loadable by
/// Perfetto / chrome://tracing). Timestamps are microseconds with ns
/// fraction; tid = producing slot; dropped-event count is recorded in
/// otherData.
std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              std::uint64_t dropped);

/// chrome_trace_json() straight to a file. Returns false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events,
                        std::uint64_t dropped);

}  // namespace privstm::rt
