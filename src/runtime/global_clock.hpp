// The TL2 global version clock (`clock` in Fig 9).
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/cacheline.hpp"

namespace privstm::rt {

/// Monotone global counter. `sample()` is the transaction-begin read
/// (rver := clock); `advance()` is the commit-time
/// fetch_and_increment(clock)+1 that mints a write timestamp (wver), so
/// every writer commit gets a stamp no other commit shares.
///
/// Lives alone on a cache line: it is the single hottest word in TL2 and
/// sharing it with anything else destroys scalability (ablation E13).
class alignas(kCacheLine) GlobalClock {
 public:
  using Stamp = std::uint64_t;

  Stamp sample() const noexcept {
    return now_.load(std::memory_order_acquire);
  }

  /// fetch_and_increment(clock) + 1 — returns the freshly minted stamp.
  Stamp advance() noexcept {
    return now_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  void reset() noexcept { now_.store(0, std::memory_order_release); }

 private:
  std::atomic<Stamp> now_{0};
};

}  // namespace privstm::rt
