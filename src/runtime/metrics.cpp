#include "runtime/metrics.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace privstm::rt {

const char* counter_prom_name(Counter c) noexcept {
  switch (c) {
    case Counter::kTxCommit:
      return "tx_commits";
    case Counter::kTxReadOnlyCommit:
      return "tx_ro_commits";
    case Counter::kTxAbort:
      return "tx_aborts";
    case Counter::kTxReadValidationFail:
      return "tx_read_validation_fails";
    case Counter::kTxLockFail:
      return "tx_lock_fails";
    case Counter::kFence:
      return "fences";
    case Counter::kFenceCoalesced:
      return "fences_coalesced";
    case Counter::kFenceAsyncIssued:
      return "fences_async_issued";
    case Counter::kFenceAsyncOverflow:
      return "fences_async_overflow";
    case Counter::kNtRead:
      return "nt_reads";
    case Counter::kNtWrite:
      return "nt_writes";
    case Counter::kDoomedDetected:
      return "doomed_detected";
    case Counter::kPostconditionViolation:
      return "postcondition_violations";
    case Counter::kAllocSharedRefill:
      return "alloc_shared_refills";
    case Counter::kLimboBatchRetired:
      return "limbo_batches_retired";
    case Counter::kAllocCompaction:
      return "alloc_compactions";
    case Counter::kTxRetryBackoff:
      return "tx_retry_backoffs";
    case Counter::kTxEscalated:
      return "tx_escalations";
    case Counter::kFaultInjected:
      return "faults_injected";
    case Counter::kAllocShardSteal:
      return "alloc_shard_steals";
    case Counter::kGovernorEpoch:
      return "governor_epochs";
    case Counter::kGovernorPolicyShift:
      return "governor_policy_shifts";
    case Counter::kCount:
      break;
  }
  return "?";
}

void MetricsRegistry::mark() {
  baseline_.assign(kCounterCount, 0);
  if (stats_ == nullptr) return;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    baseline_[i] = stats_->total(static_cast<Counter>(i));
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  if (stats_ != nullptr) {
    snap.counters.reserve(kCounterCount);
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      const auto c = static_cast<Counter>(i);
      const std::uint64_t base = i < baseline_.size() ? baseline_[i] : 0;
      const std::uint64_t now = stats_->total(c);
      snap.counters.push_back(
          {counter_prom_name(c), now >= base ? now - base : 0});
    }
  }
  for (const NamedHist& h : histograms_) {
    snap.histograms.push_back({h.name, h.hist->count(), h.hist->p50(),
                               h.hist->p99(), h.hist->p999(),
                               h.hist->percentile(1.0)});
  }
  for (const NamedGauge& g : gauges_) {
    snap.gauges.push_back({g.name, g.fn()});
  }
  if (trace_ != nullptr) {
    snap.hot_stripes = trace_->top_n();
    snap.total_conflicts = trace_->total_conflicts();
    snap.trace_dropped = trace_->dropped();
  }
  return snap;
}

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace

std::string to_json(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(2048);
  out += "{\n  \"counters\": {";
  bool first = true;
  for (const auto& c : snap.counters) {
    appendf(out, "%s\n    \"%s\": %" PRIu64, first ? "" : ",",
            c.name.c_str(), c.value);
    first = false;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& h : snap.histograms) {
    appendf(out,
            "%s\n    \"%s\": {\"count\": %" PRIu64 ", \"p50\": %" PRIu64
            ", \"p99\": %" PRIu64 ", \"p999\": %" PRIu64 ", \"max\": %" PRIu64
            "}",
            first ? "" : ",", h.name.c_str(), h.count, h.p50, h.p99, h.p999,
            h.max);
    first = false;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& g : snap.gauges) {
    appendf(out, "%s\n    \"%s\": %.6g", first ? "" : ",", g.name.c_str(),
            g.value);
    first = false;
  }
  out += "\n  },\n  \"hot_stripes\": [";
  first = true;
  for (const auto& s : snap.hot_stripes) {
    appendf(out, "%s\n    {\"stripe\": %u, \"aborts\": %" PRIu64 "}",
            first ? "" : ",", s.stripe, s.aborts);
    first = false;
  }
  appendf(out,
          "\n  ],\n  \"total_conflicts\": %" PRIu64
          ",\n  \"trace_dropped\": %" PRIu64 "\n}",
          snap.total_conflicts, snap.trace_dropped);
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const auto& c : snap.counters) {
    appendf(out, "# TYPE privstm_%s_total counter\n", c.name.c_str());
    appendf(out, "privstm_%s_total %" PRIu64 "\n", c.name.c_str(), c.value);
  }
  for (const auto& h : snap.histograms) {
    appendf(out, "# TYPE privstm_%s_ns summary\n", h.name.c_str());
    appendf(out, "privstm_%s_ns{quantile=\"0.5\"} %" PRIu64 "\n",
            h.name.c_str(), h.p50);
    appendf(out, "privstm_%s_ns{quantile=\"0.99\"} %" PRIu64 "\n",
            h.name.c_str(), h.p99);
    appendf(out, "privstm_%s_ns{quantile=\"0.999\"} %" PRIu64 "\n",
            h.name.c_str(), h.p999);
    appendf(out, "privstm_%s_ns{quantile=\"1\"} %" PRIu64 "\n",
            h.name.c_str(), h.max);
    appendf(out, "privstm_%s_ns_count %" PRIu64 "\n", h.name.c_str(),
            h.count);
  }
  for (const auto& g : snap.gauges) {
    appendf(out, "# TYPE privstm_%s gauge\n", g.name.c_str());
    appendf(out, "privstm_%s %.6g\n", g.name.c_str(), g.value);
  }
  if (!snap.hot_stripes.empty()) {
    out += "# TYPE privstm_stripe_aborts counter\n";
    for (const auto& s : snap.hot_stripes) {
      appendf(out, "privstm_stripe_aborts{stripe=\"%u\"} %" PRIu64 "\n",
              s.stripe, s.aborts);
    }
  }
  appendf(out, "# TYPE privstm_conflicts_total counter\n");
  appendf(out, "privstm_conflicts_total %" PRIu64 "\n", snap.total_conflicts);
  appendf(out, "# TYPE privstm_trace_dropped_total counter\n");
  appendf(out, "privstm_trace_dropped_total %" PRIu64 "\n",
          snap.trace_dropped);
  return out;
}

}  // namespace privstm::rt
