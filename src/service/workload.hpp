// Server-shaped workload harness for the transactional session store
// (DESIGN.md §12): seeded zipfian key popularity, configurable
// get/put/touch/erase mixes, hot-key storm phases, variable-size payload
// churn, and per-op-class latency histograms — the macro-benchmark the
// ROADMAP's north-star item asks for, shared by bench_service and the
// service correctness tests.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/latency.hpp"
#include "runtime/rng.hpp"
#include "service/session_store.hpp"

namespace privstm::service {

// ---------------------------------------------------------------------------
// Zipfian key generator.
// ---------------------------------------------------------------------------

/// Bounded zipfian sampler over ranks [0, n) with exponent `s` (rank 0 is
/// the most popular; P(rank = k) ∝ 1/(k+1)^s). Gray et al.'s closed-form
/// inversion as popularized by YCSB: O(n) once at construction (the zeta
/// sum), O(1) per sample, no rejection. `s = 0` degenerates to the exact
/// uniform distribution; `s` near 1 is nudged off the harmonic
/// singularity (the distribution is continuous there, so the nudge is
/// invisible at any sample size we run).
class ZipfianGenerator {
 public:
  ZipfianGenerator(std::size_t n, double s, std::uint64_t seed);

  /// Next rank in [0, n), most popular first. Deterministic in the seed.
  std::size_t sample() noexcept;

  std::size_t n() const noexcept { return n_; }
  double s() const noexcept { return s_; }

 private:
  std::size_t n_;
  double s_;
  double zetan_;   ///< Σ_{i=1..n} i^-s
  double alpha_;   ///< 1 / (1 - s)
  double eta_;
  double half_pow_s_;  ///< 0.5^s
  rt::Xoshiro256 rng_;
};

// ---------------------------------------------------------------------------
// Workload configuration.
// ---------------------------------------------------------------------------

/// Operation classes the harness measures separately. kSweep is the
/// per-bucket expiry-sweep latency recorded by the sweeper thread.
enum class OpClass : std::uint8_t { kGet, kPut, kTouch, kErase, kSweep };
inline constexpr std::size_t kOpClassCount = 5;
const char* op_class_name(OpClass c) noexcept;

/// Per-mille operation mix (must sum to <= 1000; the remainder goes to
/// gets, keeping the mix read-dominated by default like a session cache).
struct OpMix {
  std::uint32_t put_permille = 200;
  std::uint32_t touch_permille = 80;
  std::uint32_t erase_permille = 20;
};

/// One workload phase: a label, a per-thread op budget and the key-skew
/// shape. Hot-key storms redirect `hot_permille` of the ops onto a tiny
/// uniform hot set — the flash-crowd pattern that stresses the contention
/// manager hardest (ROADMAP item 3's target consumer).
struct PhaseConfig {
  const char* label = "steady";
  std::size_t ops_per_thread = 2000;
  double zipf_s = 0.99;
  std::uint32_t hot_permille = 0;  ///< ops redirected to the hot set
  std::size_t hot_keys = 8;
  OpMix mix;
};

struct WorkloadConfig {
  std::size_t threads = 4;       ///< traffic workers (sweeper is extra)
  std::size_t num_keys = 4096;   ///< key space (keys are 1..num_keys)
  /// Payload churn: each put draws its payload size from
  /// kPayloadSizes[...] clamped to [min_cells, max_cells] — rotating
  /// across allocator size classes is the point.
  std::size_t value_min_cells = 4;
  std::size_t value_max_cells = 128;
  std::uint64_t ttl_ticks = 2048;  ///< session lifetime in logical ticks
  SweepMode sweep_mode = SweepMode::kSyncFence;
  /// Sweeper cadence: one full-store sweep per this many logical ticks
  /// (0 = no sweeper thread).
  std::uint64_t sweep_every_ticks = 1024;
};

/// Payload size ladder (cells) the churn rotates through — chosen to hit
/// several allocator size classes (size_class.hpp pairs {3·2^k, 2^(k+1)}).
inline constexpr std::size_t kPayloadSizes[] = {4, 6, 12, 24, 48, 96, 192};

// ---------------------------------------------------------------------------
// Phase results.
// ---------------------------------------------------------------------------

struct PhaseResult {
  /// Merged cross-thread latency histograms, one per op class (ns).
  std::array<rt::LatencyHistogram, kOpClassCount> latency;
  std::array<std::uint64_t, kOpClassCount> ops{};  ///< completed per class
  std::uint64_t get_hits = 0;
  std::uint64_t get_misses = 0;       ///< absent or expired
  std::uint64_t put_failures = 0;     ///< bucket full (capacity pressure)
  std::uint64_t sweeps = 0;           ///< full-store sweep passes
  std::uint64_t sweep_scanned = 0;
  std::uint64_t sweep_retired = 0;
  /// Payload records whose cells disagreed with their header (key, tag) —
  /// torn reads or use-after-free corruption. Must be zero; the service
  /// correctness tests assert on it.
  std::uint64_t consistency_violations = 0;
  double seconds = 0.0;
  std::uint64_t throughput_ops() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < kOpClassCount - 1; ++c) total += ops[c];
    return total;  // sweeps excluded: they are maintenance, not traffic
  }
};

/// Drive one phase of traffic against `store`: `cfg.threads` workers each
/// run `phase.ops_per_thread` ops (zipfian keys, the phase's mix, latency
/// per op class), while — when cfg.sweep_every_ticks > 0 — one extra
/// sweeper thread runs expiry sweeps in cfg.sweep_mode at its cadence.
/// `clock` is the logical session clock, shared across phases so expiry
/// state carries over. Deterministic per (seed, thread count) up to OS
/// scheduling of the real threads.
PhaseResult run_phase(tm::TransactionalMemory& tm, SessionStore& store,
                      const WorkloadConfig& cfg, const PhaseConfig& phase,
                      std::uint64_t seed, std::atomic<std::uint64_t>& clock);

}  // namespace privstm::service
