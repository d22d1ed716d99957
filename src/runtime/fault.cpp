#include "runtime/fault.hpp"

#include "runtime/backoff.hpp"

namespace privstm::rt {

const char* fault_site_name(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::kLockAcquire:
      return "lock_acquire";
    case FaultSite::kReadValidation:
      return "read_validation";
    case FaultSite::kCommit:
      return "commit";
    case FaultSite::kFence:
      return "fence";
    case FaultSite::kAllocRefill:
      return "alloc_refill";
  }
  return "?";
}

FaultInjector::FaultInjector(const FaultConfig& config, StatsDomain& stats)
    : config_(config), enabled_(config.enabled()), stats_(stats) {
  if (enabled_) seed_streams();
}

void FaultInjector::seed_streams() noexcept {
  // splitmix64 over (seed, slot) gives every slot an independent stream
  // while keeping the whole plan a function of the one configured seed.
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    std::uint64_t sm = config_.seed + 0x9e3779b97f4a7c15ULL * (s + 1);
    streams_[s]->rng = Xoshiro256(splitmix64(sm));
    streams_[s]->injected = 0;
    streams_[s]->suspend_depth = 0;
  }
}

bool FaultInjector::roll(std::size_t slot, FaultSite site,
                         std::uint32_t permille) noexcept {
  if (permille == 0) return false;
  if ((config_.sites & fault_site_bit(site)) == 0) return false;
  Stream& stream = *streams_[slot];
  if (stream.suspend_depth != 0) return false;
  if (config_.max_per_thread != 0 &&
      stream.injected >= config_.max_per_thread) {
    return false;
  }
  if (!stream.rng.chance(permille, 1000)) return false;
  ++stream.injected;
  site_counts_[static_cast<std::size_t>(site)].fetch_add(
      1, std::memory_order_relaxed);
  stats_.add(slot, Counter::kFaultInjected);
  return true;
}

void FaultInjector::maybe_delay(std::size_t slot, FaultSite site) noexcept {
  if (!enabled_ || config_.delay_max_spins == 0) return;
  if (!roll(slot, site, config_.delay_permille)) return;
  const std::uint64_t spins =
      streams_[slot]->rng.below(config_.delay_max_spins) + 1;
  for (std::uint64_t i = 0; i < spins; ++i) cpu_relax();
}

void FaultInjector::suspend(std::size_t slot) noexcept {
  ++streams_[slot]->suspend_depth;
}

void FaultInjector::resume(std::size_t slot) noexcept {
  if (streams_[slot]->suspend_depth != 0) --streams_[slot]->suspend_depth;
}

void FaultInjector::exhaust_budgets() noexcept {
  for (auto& s : streams_) s->injected = config_.max_per_thread;
}

std::uint64_t FaultInjector::injected(FaultSite site) const noexcept {
  return site_counts_[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected_total() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& c : site_counts_) sum += c.load(std::memory_order_relaxed);
  return sum;
}

void FaultInjector::reset() noexcept {
  if (enabled_) seed_streams();
  for (auto& c : site_counts_) c.store(0, std::memory_order_relaxed);
}

}  // namespace privstm::rt
