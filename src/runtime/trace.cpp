#include "runtime/trace.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace privstm::rt {

const char* abort_reason_name(AbortReason r) noexcept {
  switch (r) {
    case AbortReason::kNone:
      return "none";
    case AbortReason::kReadValidation:
      return "read_validation";
    case AbortReason::kLockFail:
      return "lock_fail";
    case AbortReason::kCmInduced:
      return "cm_induced";
    case AbortReason::kFaultInjected:
      return "fault_injected";
    case AbortReason::kEscalated:
      return "escalated";
    case AbortReason::kCount:
      break;
  }
  return "?";
}

const char* trace_event_name(TraceEventKind k) noexcept {
  switch (k) {
    case TraceEventKind::kTxBegin:
    case TraceEventKind::kTxCommit:
    case TraceEventKind::kTxAbort:
      return "tx";
    case TraceEventKind::kFenceBegin:
    case TraceEventKind::kFenceEnd:
      return "fence";
    case TraceEventKind::kGraceScanBegin:
    case TraceEventKind::kGraceScanEnd:
      return "grace_scan";
    case TraceEventKind::kEscalateBegin:
    case TraceEventKind::kEscalateEnd:
      return "escalated";
    case TraceEventKind::kAllocRefill:
      return "alloc_refill";
    case TraceEventKind::kAllocSteal:
      return "alloc_steal";
    case TraceEventKind::kAllocCompaction:
      return "alloc_compaction";
    case TraceEventKind::kLimboRetire:
      return "limbo_retire";
    case TraceEventKind::kSweepFreezeBegin:
    case TraceEventKind::kSweepFreezeEnd:
      return "sweep_freeze";
    case TraceEventKind::kSweepFenceBegin:
    case TraceEventKind::kSweepFenceEnd:
      return "sweep_fence";
    case TraceEventKind::kSweepReclaimBegin:
    case TraceEventKind::kSweepReclaimEnd:
      return "sweep_reclaim";
    case TraceEventKind::kSweepRepublishBegin:
    case TraceEventKind::kSweepRepublishEnd:
      return "sweep_republish";
    case TraceEventKind::kCount:
      break;
  }
  return "?";
}

TracePhase trace_event_phase(TraceEventKind k) noexcept {
  switch (k) {
    case TraceEventKind::kTxBegin:
    case TraceEventKind::kFenceBegin:
    case TraceEventKind::kGraceScanBegin:
    case TraceEventKind::kEscalateBegin:
    case TraceEventKind::kSweepFreezeBegin:
    case TraceEventKind::kSweepFenceBegin:
    case TraceEventKind::kSweepReclaimBegin:
    case TraceEventKind::kSweepRepublishBegin:
      return TracePhase::kBegin;
    case TraceEventKind::kTxCommit:
    case TraceEventKind::kTxAbort:
    case TraceEventKind::kFenceEnd:
    case TraceEventKind::kGraceScanEnd:
    case TraceEventKind::kEscalateEnd:
    case TraceEventKind::kSweepFreezeEnd:
    case TraceEventKind::kSweepFenceEnd:
    case TraceEventKind::kSweepReclaimEnd:
    case TraceEventKind::kSweepRepublishEnd:
      return TracePhase::kEnd;
    default:
      return TracePhase::kInstant;
  }
}

TraceDomain::TraceDomain(const TraceConfig& config,
                         std::size_t default_heat_stripes)
    : enabled_(config.enabled), top_n_(config.top_n) {
  if (!enabled_) return;
  capacity_ = std::bit_ceil(std::max<std::size_t>(config.ring_capacity, 8));
  mask_ = capacity_ - 1;
  const std::size_t want_heat =
      config.heat_stripes != 0 ? config.heat_stripes : default_heat_stripes;
  heat_size_ = std::bit_ceil(std::max<std::size_t>(want_heat, 16));
  heat_mask_ = static_cast<std::uint32_t>(heat_size_ - 1);
  rings_.reset(new Ring[kSlots]);
  for (std::size_t s = 0; s < kSlots; ++s) rings_[s].buf.resize(capacity_);
  heat_.reset(new std::atomic<std::uint64_t>[heat_size_]);
  for (std::size_t i = 0; i < heat_size_; ++i)
    heat_[i].store(0, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceDomain::drain() {
  std::vector<TraceEvent> out;
  if (!enabled_) return out;
  out.reserve(buffered());
  for (std::size_t s = 0; s < kSlots; ++s) {
    Ring& r = rings_[s];
    const std::uint64_t head = r.head.load(std::memory_order_acquire);
    std::uint64_t tail = r.tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) out.push_back(r.buf[tail & mask_]);
    r.tail.store(tail, std::memory_order_release);
  }
  return out;
}

std::uint64_t TraceDomain::dropped() const noexcept {
  if (!enabled_) return 0;
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < kSlots; ++s)
    total += rings_[s].drops.load(std::memory_order_relaxed);
  return total;
}

std::size_t TraceDomain::buffered() const noexcept {
  if (!enabled_) return 0;
  std::size_t total = 0;
  for (std::size_t s = 0; s < kSlots; ++s) {
    const Ring& r = rings_[s];
    total += static_cast<std::size_t>(r.head.load(std::memory_order_acquire) -
                                      r.tail.load(std::memory_order_relaxed));
  }
  return total;
}

std::vector<StripeHeat> TraceDomain::top_n(std::size_t n) const {
  std::vector<StripeHeat> rows;
  if (!enabled_) return rows;
  if (n == 0) n = top_n_;
  for (std::size_t i = 0; i < heat_size_; ++i) {
    const std::uint64_t c = heat_[i].load(std::memory_order_relaxed);
    if (c != 0) rows.push_back({static_cast<std::uint32_t>(i), c});
  }
  std::sort(rows.begin(), rows.end(), [](const StripeHeat& a,
                                         const StripeHeat& b) {
    return a.aborts != b.aborts ? a.aborts > b.aborts : a.stripe < b.stripe;
  });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

std::uint64_t TraceDomain::total_conflicts() const noexcept {
  if (!enabled_) return 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < heat_size_; ++i)
    total += heat_[i].load(std::memory_order_relaxed);
  return total;
}

void TraceDomain::reset() noexcept {
  if (!enabled_) return;
  for (std::size_t s = 0; s < kSlots; ++s) {
    Ring& r = rings_[s];
    r.tail.store(r.head.load(std::memory_order_acquire),
                 std::memory_order_release);
    r.drops.store(0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < heat_size_; ++i)
    heat_[i].store(0, std::memory_order_relaxed);
}

namespace {

void append_event_json(std::string& out, const TraceEvent& e) {
  char buf[256];
  const TracePhase phase = trace_event_phase(e.kind);
  const char ph = phase == TracePhase::kBegin  ? 'B'
                  : phase == TracePhase::kEnd  ? 'E'
                                               : 'i';
  // Chrome trace ts is in microseconds; keep ns resolution as a fraction.
  const double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
  int n = std::snprintf(buf, sizeof buf,
                        "{\"name\": \"%s\", \"ph\": \"%c\", \"ts\": %.3f, "
                        "\"pid\": 1, \"tid\": %u",
                        trace_event_name(e.kind), ph, ts_us,
                        static_cast<unsigned>(e.tid));
  out.append(buf, static_cast<std::size_t>(n));
  if (phase == TracePhase::kInstant) out += ", \"s\": \"t\"";
  // Args: abort reason + stripe on tx-abort ends; raw a32/a64 elsewhere
  // when nonzero.
  if (e.kind == TraceEventKind::kTxAbort) {
    n = std::snprintf(buf, sizeof buf,
                      ", \"args\": {\"reason\": \"%s\", \"stripe\": %" PRId64
                      "}",
                      abort_reason_name(static_cast<AbortReason>(e.a8)),
                      e.a32 == kNoStripe ? static_cast<std::int64_t>(-1)
                                         : static_cast<std::int64_t>(e.a32));
    out.append(buf, static_cast<std::size_t>(n));
  } else if (e.a32 != 0 || e.a64 != 0) {
    n = std::snprintf(buf, sizeof buf,
                      ", \"args\": {\"a32\": %u, \"a64\": %" PRIu64 "}",
                      e.a32, e.a64);
    out.append(buf, static_cast<std::size_t>(n));
  }
  out += "}";
}

}  // namespace

std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              std::uint64_t dropped) {
  // Chrome/Perfetto accepts events in any order, but sorting by (tid, ts)
  // keeps per-thread streams contiguous and B/E nesting obvious to both
  // human readers and the re-parse test.
  std::vector<const TraceEvent*> sorted;
  sorted.reserve(events.size());
  for (const TraceEvent& e : events) sorted.push_back(&e);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     if (a->tid != b->tid) return a->tid < b->tid;
                     return a->ts_ns < b->ts_ns;
                   });
  std::string out;
  out.reserve(events.size() * 96 + 256);
  out += "{\n\"traceEvents\": [\n";
  bool first = true;
  for (const TraceEvent* e : sorted) {
    if (!first) out += ",\n";
    first = false;
    append_event_json(out, *e);
  }
  char tail[128];
  std::snprintf(tail, sizeof tail,
                "\n],\n\"displayTimeUnit\": \"ns\",\n\"otherData\": "
                "{\"dropped_events\": %" PRIu64 "}\n}\n",
                dropped);
  out += tail;
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events,
                        std::uint64_t dropped) {
  std::ofstream out(path);
  if (!out) return false;
  out << chrome_trace_json(events, dropped);
  return static_cast<bool>(out);
}

}  // namespace privstm::rt
