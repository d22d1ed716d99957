// Layer probes of the traced run. Each times one layer's public functions
// directly, from outside the library, on a fresh TM of the workload's
// backend with default settings, so the per-layer costs behind an
// end-to-end number can be read without instrumenting src/.
#pragma once

#include <cstdint>

#include "harness.hpp"
#include "spans.hpp"
#include "tm/factory.hpp"

namespace e2e {

/// Appends the tm.*, alloc.*, quiescence.* and adt.* probe metrics to
/// `out`. Runs on the calling thread plus at most two helpers; every timed
/// batch of the calling thread becomes a span in `spans` under `root_id`.
void run_layer_probes(privstm::tm::TmKind kind, Metrics& out,
                      SpanRing& spans, std::uint64_t root_id);

}  // namespace e2e
