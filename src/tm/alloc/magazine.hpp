// Per-thread allocation magazines for the transactional heap
// (DESIGN.md §9).
//
// PR 3's allocator serialized every tm_alloc/tm_free on one spin lock;
// with alloc/free-heavy workloads the lock convoy — not the TM — was what
// the `alloc-free` bench cell measured. A `ThreadCache` gives each thread
// two thread-confined stashes so the hot path takes NO shared lock:
//
//  * **Magazines** — one small LIFO stack of ready-to-hand-out block
//    bases per size class. A hit pops locally; a miss batch-refills
//    several blocks from the shared `ExtentMap` under the central lock
//    (one lock acquisition amortized over the whole refill). Magazine
//    blocks have already passed their grace period — they came out of the
//    shared store — so caching them privately is trivially safe. Their
//    cells may still hold stale values: a hit restores vinit as it hands
//    the block out, except for entries tagged `kBumpFresh` (allocator.hpp),
//    which came straight from the bump pointer and are already vinit.
//
//  * **The free batch** — frees accumulate locally and are sealed into
//    the shared `LimboList` as one batch with one grace-period ticket
//    once `AllocConfig::limbo_batch` deep (see limbo.hpp).
//
// Lifecycle: a cache attaches to its allocator on a thread's first
// alloc/free against that allocator and registers in the allocator's
// cache registry. It is emptied back into the shared structures
//  - on **thread exit** (the thread_local registry's destructor flushes
//    magazines into the extent store and seals the free batch), and
//  - on **allocator reset()** (the registry epoch bumps; caches are
//    cleared in place and any cache that raced past the direct clear
//    drops its — now stale — contents the next time it is used).
// A process-wide link mutex serializes attach/detach/reset against
// allocator destruction, so a cache can never flush into a dead
// allocator (the dangling-owner hazard of thread_local caches).
//
// Counters are single-writer relaxed atomics (the owning thread writes,
// aggregators read) — the same discipline as rt::StatsDomain.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "tm/alloc/limbo.hpp"
#include "tm/alloc/size_class.hpp"

namespace privstm::tm::alloc {

class TxAllocator;

/// Single-writer event counts (owner thread bumps, aggregators read).
struct CacheCounters {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> magazine_hits{0};
  /// Blocks in the unsealed free batch (limbo_size() adds these in).
  std::atomic<std::uint64_t> pending{0};

  static void bump(std::atomic<std::uint64_t>& v,
                   std::uint64_t n = 1) noexcept {
    v.store(v.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
  }
  void reset() noexcept {
    allocs.store(0, std::memory_order_relaxed);
    frees.store(0, std::memory_order_relaxed);
    magazine_hits.store(0, std::memory_order_relaxed);
    pending.store(0, std::memory_order_relaxed);
  }
};

/// One thread's view of one allocator: per-class magazines plus the
/// unsealed free batch. All mutation happens on the owning thread except
/// flush/clear paths, which the link mutex + quiescence contracts guard.
class ThreadCache {
 public:
  ThreadCache() = default;
  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;

  /// The allocator this cache currently serves; nullptr when detached.
  TxAllocator* owner() const noexcept {
    return owner_.load(std::memory_order_acquire);
  }

 private:
  friend class TxAllocator;
  friend ThreadCache& local_cache(TxAllocator& a);
  friend void flush_detached_cache(ThreadCache& cache);

  std::atomic<TxAllocator*> owner_{nullptr};
  std::uint64_t epoch_ = 0;  ///< owner reset epoch these contents belong to
  std::array<std::vector<RegId>, kNumClasses> mags_{};
  std::vector<LimboBlock> batch_;  ///< unsealed frees
  CacheCounters counters_;
};

/// The calling thread's cache for `a`, creating and registering it on
/// first use. The returned reference stays valid until thread exit or
/// allocator destruction (whichever comes first).
ThreadCache& local_cache(TxAllocator& a);

/// Thread-exit path: flush `cache` back into its owner (magazines into
/// the extent store, pending frees sealed into limbo) and detach it.
/// No-op when the owner is already gone.
void flush_detached_cache(ThreadCache& cache);

/// The process-wide attach/detach/reset serializer (see file comment).
/// Ordered strictly BEFORE any allocator's central lock.
std::mutex& cache_link_mutex();

}  // namespace privstm::tm::alloc
