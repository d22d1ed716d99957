// Measurement primitives owned by the end-to-end benchmark: the clock, the
// random stream, the zipf sampler and the latency histogram.
//
// They live here rather than in src/ on purpose: a change to the library
// must not be able to change the inputs the benchmark feeds it or the way
// its latencies are binned, or two commits would not be measured alike.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// One reported number: printed as `name value unit`, and a key of the
/// result object's "metrics".
struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};
using Metrics = std::vector<Metric>;

/// The q-quantile of a sample, interpolating between neighbouring order
/// statistics; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Payload sizes (cells) a put draws from: several allocator size classes.
inline constexpr std::size_t kLadder[] = {4, 6, 12, 24, 48, 96, 192};

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64: one 64-bit word of state, full period, good enough
/// equidistribution for op mixes and key draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound) (Lemire's multiply-shift).
  std::uint64_t below(std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  /// Uniform in [0, 1) with 53 significant bits.
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Zipf over ranks [0, n): P(k) ∝ 1/(k+1)^s, sampled by binary search in
/// the exact CDF. s = 0 is uniform. The table costs 8n bytes once; every
/// sample happens before the measured window, so exactness beats speed.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  std::size_t sample(Rng& rng) const noexcept {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.unit());
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Latency histogram in nanoseconds: 1 ns buckets below 512 ns, then 256
/// linear buckets per power of two (under 0.4% wide) up to 2^40 ns; 66 KiB,
/// small enough for one per op class and client. quantile()
/// interpolates inside the bucket that holds the rank, so a median reads as
/// a measured number, not as a bucket edge shared by every run.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t ns) noexcept {
    ++counts_[bucket_of(std::min(ns, kMax))];
    ++count_;
  }

  void merge(const Histogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  /// The q-quantile in ns (q in [0, 1]); 0 when empty.
  double quantile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
    double below = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const auto c = static_cast<double>(counts_[i]);
      if (c > 0.0 && below + c >= target) {
        return static_cast<double>(lower(i)) +
               (target - below) / c * static_cast<double>(width(i));
      }
      below += c;
    }
    return static_cast<double>(kMax);
  }

 private:
  static constexpr unsigned kSubBits = 8;
  static constexpr std::uint64_t kLinear = std::uint64_t{2} << kSubBits;
  static constexpr unsigned kMaxBit = 40;
  static constexpr std::uint64_t kMax = (std::uint64_t{1} << kMaxBit) - 1;
  static constexpr std::size_t kBuckets =
      kLinear + (kMaxBit - kSubBits - 1) * (std::size_t{1} << kSubBits);

  static std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v < kLinear) return static_cast<std::size_t>(v);
    const unsigned msb = 63U - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = msb - kSubBits;
    return static_cast<std::size_t>(
        kLinear + (msb - kSubBits - 1) * (std::uint64_t{1} << kSubBits) +
        ((v >> shift) - (std::uint64_t{1} << kSubBits)));
  }
  static std::uint64_t lower(std::size_t i) noexcept {
    if (i < kLinear) return i;
    const std::size_t j = i - kLinear;
    const unsigned shift = static_cast<unsigned>(j >> kSubBits) + 1;
    return ((std::uint64_t{1} << kSubBits) + (j & ((1U << kSubBits) - 1)))
           << shift;
  }
  static std::uint64_t width(std::size_t i) noexcept {
    if (i < kLinear) return 1;
    return std::uint64_t{1} << (((i - kLinear) >> kSubBits) + 1);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

}  // namespace e2e
