// Bench-side spans for the traced run: recorded from the benchmark's own
// files around calls into the library, held in memory, and written once as
// Chrome trace-event JSON when the run ends (load it in Perfetto or
// chrome://tracing).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  const char* name = "";   ///< static string: op, sweep pass or probe name
  std::uint64_t id = 0;    ///< shared by every span of one op / pass / batch
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Fixed-capacity ring, one per recording thread. When full it overwrites
/// the oldest span, so recording costs the same for the whole run and the
/// file keeps the run's tail.
class SpanRing {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 14;

  SpanRing() : spans_(kCapacity) {}

  void add(const Span& s) noexcept {
    spans_[recorded_ & (kCapacity - 1)] = s;
    ++recorded_;
  }

  std::uint64_t recorded() const noexcept { return recorded_; }

  template <typename F>
  void for_each(F&& f) const {
    const std::uint64_t n = std::min<std::uint64_t>(recorded_, kCapacity);
    for (std::uint64_t i = recorded_ - n; i < recorded_; ++i) {
      f(spans_[i & (kCapacity - 1)]);
    }
  }

 private:
  std::vector<Span> spans_;
  std::uint64_t recorded_ = 0;
};

/// Writes complete ("X") events with ts/dur in µs from `origin_ns`; each
/// ring becomes one track (tid). Returns false if the file cannot be
/// written.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<const SpanRing*>& tracks,
                               const std::vector<std::string>& track_names,
                               std::uint64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", t, track_names[t].c_str());
    first = false;
    tracks[t]->for_each([&](const Span& s) {
      const auto start = static_cast<double>(s.start_ns - origin_ns) * 1e-3;
      const auto dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu}}",
                   s.name, t, start, dur,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
    });
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2e
