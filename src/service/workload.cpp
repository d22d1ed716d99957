#include "service/workload.hpp"

#include <chrono>
#include <cmath>
#include <thread>

#include "runtime/barrier.hpp"

namespace privstm::service {
namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// ZipfianGenerator.
// ---------------------------------------------------------------------------

ZipfianGenerator::ZipfianGenerator(std::size_t n, double s,
                                   std::uint64_t seed)
    : n_(n == 0 ? 1 : n), s_(s), rng_(seed) {
  // The closed form needs s != 1 (alpha = 1/(1-s) has a pole there); the
  // distribution itself is continuous in s, so nudging off the harmonic
  // point is statistically invisible.
  if (std::abs(1.0 - s_) < 1e-9) s_ = 1.0 + 1e-6;
  zetan_ = 0.0;
  for (std::size_t i = 1; i <= n_; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), s_);
  }
  alpha_ = 1.0 / (1.0 - s_);
  half_pow_s_ = std::pow(0.5, s_);
  const double zeta2 = 1.0 + half_pow_s_;
  const double num =
      1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - s_);
  const double den = 1.0 - zeta2 / zetan_;
  // den -> 0 only when n <= 2 (the whole mass is in the first ranks);
  // eta is then irrelevant because the uz branches below always hit.
  eta_ = den != 0.0 ? num / den : 0.0;
}

std::size_t ZipfianGenerator::sample() noexcept {
  // Uniform in [0, 1) with 53 significant bits.
  const double u =
      static_cast<double>(rng_() >> 11) * (1.0 / 9007199254740992.0);
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + half_pow_s_ && n_ > 1) return 1;
  const double rank = static_cast<double>(n_) *
                      std::pow(eta_ * u - eta_ + 1.0, alpha_);
  auto r = static_cast<std::size_t>(rank);
  return r >= n_ ? n_ - 1 : r;
}

const char* op_class_name(OpClass c) noexcept {
  switch (c) {
    case OpClass::kGet:
      return "get";
    case OpClass::kPut:
      return "put";
    case OpClass::kTouch:
      return "touch";
    case OpClass::kErase:
      return "erase";
    case OpClass::kSweep:
      return "sweep";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Phase driver.
// ---------------------------------------------------------------------------

namespace {

/// Per-thread tallies merged into the PhaseResult after the join.
struct WorkerTally {
  std::array<rt::LatencyHistogram, kOpClassCount> latency;
  std::array<std::uint64_t, kOpClassCount> ops{};
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t put_failures = 0;
  std::uint64_t violations = 0;
};

std::size_t payload_cells_for(rt::Xoshiro256& rng,
                              const WorkloadConfig& cfg) {
  const std::size_t n = std::size(kPayloadSizes);
  std::size_t cells = kPayloadSizes[rng.below(n)];
  if (cells < cfg.value_min_cells) cells = cfg.value_min_cells;
  if (cells > cfg.value_max_cells) cells = cfg.value_max_cells;
  return cells;
}

}  // namespace

PhaseResult run_phase(tm::TransactionalMemory& tm, SessionStore& store,
                      const WorkloadConfig& cfg, const PhaseConfig& phase,
                      std::uint64_t seed,
                      std::atomic<std::uint64_t>& clock) {
  const std::size_t workers = cfg.threads;
  const bool with_sweeper = cfg.sweep_every_ticks > 0;
  std::vector<WorkerTally> tallies(workers);
  PhaseResult result;

  std::atomic<std::size_t> workers_done{0};
  rt::SpinBarrier barrier(workers + (with_sweeper ? 1 : 0));

  std::vector<std::thread> threads;
  threads.reserve(workers + 1);
  for (std::size_t t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      auto session = tm.make_thread(static_cast<hist::ThreadId>(t), nullptr);
      WorkerTally& tally = tallies[t];
      std::uint64_t sm = seed * 0x9E3779B97F4A7C15ULL + t;
      ZipfianGenerator zipf(cfg.num_keys, phase.zipf_s, rt::splitmix64(sm));
      rt::Xoshiro256 rng(rt::splitmix64(sm));
      tm::Value tag = (static_cast<tm::Value>(t) + 1) << 40;
      barrier.arrive_and_wait();
      for (std::size_t i = 0; i < phase.ops_per_thread; ++i) {
        // Key choice: storm ops hammer a tiny uniform hot set, the rest
        // follow the phase's zipfian popularity. Keys are 1-based.
        tm::Value key;
        if (phase.hot_permille != 0 &&
            rng.below(1000) < phase.hot_permille) {
          key = 1 + rng.below(std::min<std::uint64_t>(phase.hot_keys,
                                                      cfg.num_keys));
        } else {
          key = 1 + static_cast<tm::Value>(zipf.sample());
        }
        const std::uint64_t now =
            clock.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t draw = rng.below(1000);
        const auto& mix = phase.mix;
        OpClass op = OpClass::kGet;
        if (draw < mix.put_permille) {
          op = OpClass::kPut;
        } else if (draw < mix.put_permille + mix.touch_permille) {
          op = OpClass::kTouch;
        } else if (draw <
                   mix.put_permille + mix.touch_permille +
                       mix.erase_permille) {
          op = OpClass::kErase;
        }
        const std::uint64_t start = now_ns();
        switch (op) {
          case OpClass::kPut: {
            const std::size_t cells = payload_cells_for(rng, cfg);
            if (store.put(*session, key, now + cfg.ttl_ticks, cells,
                          ++tag) != SessionStore::PutStatus::kOk) {
              ++tally.put_failures;
            }
            break;
          }
          case OpClass::kTouch:
            store.touch(*session, key, now + cfg.ttl_ticks);
            break;
          case OpClass::kErase:
            store.erase(*session, key);
            break;
          case OpClass::kGet:
          default: {
            const auto r = store.get(*session, key, now);
            if (r.hit) {
              ++tally.hits;
              if (!r.consistent) ++tally.violations;
            } else {
              ++tally.misses;
            }
            break;
          }
        }
        tally.latency[static_cast<std::size_t>(op)].record(now_ns() -
                                                           start);
        ++tally.ops[static_cast<std::size_t>(op)];
      }
      workers_done.fetch_add(1, std::memory_order_release);
    });
  }

  // The sweeper: a dedicated maintenance thread running full-store expiry
  // sweeps at its tick cadence until the traffic drains, then one final
  // pass (so every phase retires something even if the cadence never
  // fired mid-phase).
  SessionStore::SweepStats sweep_totals;
  std::uint64_t sweeps = 0;
  rt::LatencyHistogram sweep_latency;
  if (with_sweeper) {
    threads.emplace_back([&] {
      auto session = tm.make_thread(
          static_cast<hist::ThreadId>(workers), nullptr);
      barrier.arrive_and_wait();
      std::uint64_t next_sweep = clock.load(std::memory_order_relaxed) +
                                 cfg.sweep_every_ticks;
      while (workers_done.load(std::memory_order_acquire) < workers) {
        if (clock.load(std::memory_order_relaxed) < next_sweep) {
          std::this_thread::yield();
          continue;
        }
        const std::uint64_t now =
            clock.load(std::memory_order_relaxed);
        const auto s = store.sweep_expired(*session, now, cfg.sweep_mode,
                                           &sweep_latency);
        sweep_totals.scanned += s.scanned;
        sweep_totals.retired += s.retired;
        ++sweeps;
        next_sweep = now + cfg.sweep_every_ticks;
      }
      const auto s = store.sweep_expired(
          *session, clock.load(std::memory_order_relaxed),
          cfg.sweep_mode, &sweep_latency);
      sweep_totals.scanned += s.scanned;
      sweep_totals.retired += s.retired;
      ++sweeps;
    });
  }

  const std::uint64_t phase_start = now_ns();
  for (auto& th : threads) th.join();
  result.seconds =
      static_cast<double>(now_ns() - phase_start) * 1e-9;

  for (const WorkerTally& tally : tallies) {
    for (std::size_t c = 0; c < kOpClassCount; ++c) {
      result.latency[c].merge(tally.latency[c]);
      result.ops[c] += tally.ops[c];
    }
    result.get_hits += tally.hits;
    result.get_misses += tally.misses;
    result.put_failures += tally.put_failures;
    result.consistency_violations += tally.violations;
  }
  result.latency[static_cast<std::size_t>(OpClass::kSweep)].merge(
      sweep_latency);
  result.ops[static_cast<std::size_t>(OpClass::kSweep)] =
      sweep_latency.count();
  result.sweeps = sweeps;
  result.sweep_scanned = sweep_totals.scanned;
  result.sweep_retired = sweep_totals.retired;
  return result;
}

}  // namespace privstm::service
