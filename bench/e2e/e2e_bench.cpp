// End-to-end benchmark of the transactional session store.
//
// Closed-loop clients (nproc - 1 of them) send get/put/touch/erase through
// the public service::SessionStore API, each sending its next op only when
// the previous one returned, while one sweeper thread runs the store's
// privatizing expiry sweep (freeze → fence → NT reclaim → republish). Every
// library knob stays at its default except the TM backend and the store
// shape a workload names. Per-layer numbers come from stats() counter
// deltas and from probes that call each layer's public functions; nothing
// in src/ is instrumented for this benchmark. README.md has the workload
// and metric tables and the reasons behind them.
//
// Usage: e2e_bench [--workload NAME|all] [--seed N] [--seconds S]
//                  [--trace [0|1]] [--smoke] [--out-dir DIR]
// Prints every metric as `name value unit`; the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness gate fails, 2 on bad arguments.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "probes.hpp"
#include "service/session_store.hpp"
#include "spans.hpp"
#include "tm/factory.hpp"

namespace e2e {
namespace {

namespace tm = privstm::tm;
namespace rt = privstm::rt;
using privstm::service::SessionStore;
using privstm::service::SessionStoreConfig;
using privstm::service::SweepMode;

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  tm::TmKind backend;
  std::size_t keys;             ///< keys 1..keys, all prefilled
  double zipf_s;                ///< 0 = uniform
  std::uint32_t hot_permille;   ///< ops sent uniformly to keys 1..hot_keys
  std::size_t hot_keys;
  std::uint32_t put_permille;   ///< the rest of the mix after put, touch
  std::uint32_t touch_permille; ///< and erase is get
  std::uint32_t erase_permille;
  std::uint64_t ttl_ticks;
  std::uint64_t sweep_every_ticks;
  std::size_t buckets;
  std::size_t bucket_capacity;
};

// Why each workload exists is in README.md: the read-dominated control,
// the same traffic on the other TM family, the contention layer's storm,
// and the allocator/sweep-heavy churn whose heap outgrows L2.
constexpr Workload kWorkloads[] = {
    {"zipf-small", tm::TmKind::kTl2Fused, 4096, 0.99, 0, 0, 200, 80, 20,
     16384, 8192, 8, 2048},
    {"zipf-small-norec", tm::TmKind::kNOrec, 4096, 0.99, 0, 0, 200, 80, 20,
     16384, 8192, 8, 2048},
    {"hot-storm", tm::TmKind::kTl2Fused, 4096, 0.99, 900, 4, 300, 200, 20,
     16384, 8192, 8, 2048},
    {"churn-large", tm::TmKind::kTl2Fused, 32768, 0.0, 0, 0, 400, 50, 150,
     4096, 8192, 16, 4096},
};

enum Op : std::uint32_t { kGet, kPut, kTouch, kErase, kOps };
constexpr const char* kOpName[kOps] = {"get", "put", "touch", "erase"};

constexpr std::size_t kClients = 3;  // nproc - 1; the sweeper is the 4th
constexpr std::size_t kSetups = 5;   // setup_s is their median
constexpr std::size_t kStreamOps = std::size_t{1} << 21;  // cycled
constexpr auto kSweeperNap = std::chrono::microseconds(100);
constexpr std::uint64_t kWarmupNs = 1'000'000'000;  // discarded
// The window is cut into equal slices of about this length. A traced run
// records spans in odd slices only and compares their throughput with the
// even slices'.
constexpr double kSliceTargetNs = 0.5e9;
constexpr std::uint64_t kSampleEvery = 16;  // 1 op in 16 gets a span
constexpr double kMinBusyShare = 0.85;

/// One op packed in 32 bits: key (24), op (2), ladder index (3).
std::uint32_t pack(std::uint64_t key, Op op, std::uint64_t size_index) {
  return static_cast<std::uint32_t>(key | (std::uint64_t{op} << 24) |
                                    (size_index << 26));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed ^ (stream * 0xD1B54A32D192ED03ULL)).next();
}

/// The op stream of client `c`: a pure function of the workload and seed.
std::vector<std::uint32_t> make_stream(const Workload& w, std::uint64_t seed,
                                       std::size_t c) {
  Rng rng(mix_seed(seed, c + 1));
  const Zipf zipf(w.keys, w.zipf_s);
  std::vector<std::uint32_t> ops(kStreamOps);
  for (std::uint32_t& o : ops) {
    const std::uint64_t key = w.hot_permille != 0 &&
                                      rng.below(1000) < w.hot_permille
                                  ? 1 + rng.below(w.hot_keys)
                                  : 1 + zipf.sample(rng);
    const std::uint64_t draw = rng.below(1000);
    Op op = kGet;
    if (draw < w.put_permille) {
      op = kPut;
    } else if (draw < w.put_permille + w.touch_permille) {
      op = kTouch;
    } else if (draw < w.put_permille + w.touch_permille + w.erase_permille) {
      op = kErase;
    }
    o = pack(key, op, rng.below(std::size(kLadder)));
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Setup: TM + store + prefill.
// ---------------------------------------------------------------------------

struct Instance {
  std::unique_ptr<tm::TransactionalMemory> tm;
  std::unique_ptr<SessionStore> store;  // destroyed first: it frees into tm
};

/// Builds a prefilled store; false if a prefill put found its bucket full.
bool set_up(const Workload& w, std::uint64_t seed, Instance& out) {
  out.tm = tm::make_tm(w.backend, tm::TmConfig{});
  out.store = std::make_unique<SessionStore>(
      *out.tm, SessionStoreConfig{w.buckets, w.bucket_capacity});
  auto session = out.tm->make_thread(0, nullptr);
  Rng rng(mix_seed(seed, 0));
  bool ok = true;
  for (std::uint64_t key = 1; key <= w.keys; ++key) {
    ok &= out.store->put(*session, key, w.ttl_ticks,
                         kLadder[rng.below(std::size(kLadder))],
                         key) == SessionStore::PutStatus::kOk;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// The measured run.
// ---------------------------------------------------------------------------

/// The ops a client has issued, alone on its cache line and written only by
/// its owner: the harness's only cross-thread write per op.
///
/// Logical time is the global op count. A client rebuilds it every
/// kClockSync ops from the others' published counts, so no atomic is shared
/// per op. Its tick trails the true count by the ops the others issued
/// since its last sync: under kClockSync · kClients while clients run at
/// similar speeds. (A purely per-client clock, `1 + i·clients`, drifts
/// apart by hundreds of thousands of ticks in a few seconds when clients
/// run at different speeds; the fastest client's sessions then never
/// expire.)
struct alignas(64) ClientClock {
  std::atomic<std::uint64_t> ops{0};
};
constexpr std::uint64_t kClockSync = 64;

struct ClientTally {
  std::vector<std::uint64_t> slice_ops;  ///< ops completed in each slice
  std::array<Histogram, kOps> latency;   ///< the whole window, per op class
  std::array<std::uint64_t, kOps> ops{};
  std::uint64_t busy_ns = 0;  ///< time inside store calls in the window
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inconsistent = 0;  ///< hit && !consistent, any time
  std::uint64_t put_full = 0;      ///< kFull puts in the window
  SpanRing spans;
};

using CounterSnapshot = std::array<std::uint64_t, rt::kCounterCount>;

CounterSnapshot snapshot(tm::TransactionalMemory& tm) {
  CounterSnapshot s{};
  for (std::size_t i = 0; i < rt::kCounterCount; ++i) {
    s[i] = tm.stats().total(static_cast<rt::Counter>(i));
  }
  return s;
}

struct SweepTally {
  std::vector<double> pass_ms;  ///< passes started in the window
  rt::LatencyHistogram bucket_ns;
  std::uint64_t retired = 0;
  /// Heap cells in use (handed out and not back in the free store: live
  /// records, index, unswept expired records, limbo, magazines), sampled
  /// once per nap.
  std::vector<double> heap_cells;
  SpanRing spans;
  CounterSnapshot begin{};
  CounterSnapshot end{};
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string out_dir = "build-e2e";
};

struct RunResult {
  std::string workload;
  bool traced = false;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;  ///< the mode's gated set: end-to-end or per-layer
  Metrics info;     ///< sample counts and gate inputs, printed only
  std::vector<std::string> errors;
};

/// One measured run's shared state. The first fields are fixed before any
/// thread starts; each client writes only its own clock and tally, the
/// sweeper only its tally.
struct Run {
  const Workload& w;
  SessionStore& store;
  tm::TransactionalMemory& tm;
  bool tracing;
  std::uint64_t origin_ns;  ///< the warm-up starts here
  std::size_t slices;
  std::uint64_t slice_ns;
  std::array<ClientClock, kClients> clocks{};
  std::atomic<std::size_t> clients_done{0};
  std::vector<ClientTally> clients = std::vector<ClientTally>(kClients);
  SweepTally sweeper{};

  std::uint64_t window_begin() const { return origin_ns + kWarmupNs; }
  std::uint64_t window_end() const {
    return window_begin() + slices * slice_ns;
  }
  /// The sweeper's and the audit's "now": the global op count less the
  /// clients' sync slack, so it stays behind every client's tick while the
  /// clients run at similar speeds.
  std::uint64_t now_tick() const {
    std::uint64_t ops = 0;
    for (const ClientClock& c : clocks) {
      ops += c.ops.load(std::memory_order_relaxed);
    }
    return 1 + ops - std::min(ops, kClockSync * kClients);
  }
};

void run_client(Run& run, std::size_t c,
                const std::vector<std::uint32_t>& ops) {
  auto session = run.tm.make_thread(static_cast<tm::ThreadId>(c), nullptr);
  ClientTally& t = run.clients[c];
  t.slice_ops.resize(run.slices);
  SessionStore& store = run.store;
  const std::uint64_t ttl = run.w.ttl_ticks;
  const std::uint64_t root = c + 1;
  tm::Value tag = root << 40;
  const std::uint64_t w0 = run.window_begin();
  const std::uint64_t w1 = run.window_end();
  std::size_t k = 0;  // current slice; odd slices are traced in a traced run
  std::uint64_t slice_end = w0 + run.slice_ns;
  ClientClock& clock = run.clocks[c];
  std::uint64_t others = 0;  // the other clients' ops at the last sync
  for (std::uint64_t i = 0;; ++i) {
    const std::uint32_t rec = ops[i & (kStreamOps - 1)];
    const tm::Value key = rec & 0xFFFFFF;
    const auto op = static_cast<Op>((rec >> 24) & 3);
    if (i % kClockSync == 0) {
      others = 0;
      for (std::size_t j = 0; j < kClients; ++j) {
        if (j != c) others += run.clocks[j].ops.load(std::memory_order_relaxed);
      }
    }
    const std::uint64_t tick = 1 + others + i;
    clock.ops.store(i + 1, std::memory_order_relaxed);
    bool hit = false;
    bool full = false;
    const std::uint64_t t0 = now_ns();
    switch (op) {
      case kGet: {
        const auto r = store.get(*session, key, tick);
        hit = r.hit;
        if (r.hit && !r.consistent) ++t.inconsistent;
        break;
      }
      case kPut:
        full = store.put(*session, key, tick + ttl, kLadder[rec >> 26],
                         ++tag) != SessionStore::PutStatus::kOk;
        break;
      case kTouch:
        store.touch(*session, key, tick + ttl);
        break;
      default:
        store.erase(*session, key);
        break;
    }
    const std::uint64_t t1 = now_ns();
    if (t1 < w0) continue;
    if (t1 >= w1) break;
    while (t1 >= slice_end) {
      ++k;
      slice_end += run.slice_ns;
    }
    ++t.slice_ops[k];
    t.busy_ns += t1 - t0;
    ++t.ops[op];
    t.latency[op].record(t1 - t0);
    if (op == kGet) ++(hit ? t.hits : t.misses);
    if (op == kPut) t.put_full += full;
    if (run.tracing && (k & 1) != 0 && i % kSampleEvery == 0) {
      t.spans.add({kOpName[op], (root << 40) | i, root, t0, t1});
    }
  }
  if (run.tracing) t.spans.add({"client", root, 0, w0, w1});
  run.clients_done.fetch_add(1, std::memory_order_release);
}

constexpr std::uint64_t kSweeperRoot = 100;
constexpr std::uint64_t kProbesRoot = 200;

void run_sweeper(Run& run) {
  auto session =
      run.tm.make_thread(static_cast<tm::ThreadId>(kClients), nullptr);
  SweepTally& s = run.sweeper;
  const std::uint64_t w0 = run.window_begin();
  const std::uint64_t w1 = run.window_end();
  std::uint64_t next_sweep = run.w.sweep_every_ticks;
  std::uint64_t passes = 0;
  bool window_open = false;
  while (run.clients_done.load(std::memory_order_acquire) < kClients) {
    std::this_thread::sleep_for(kSweeperNap);
    const std::uint64_t t0 = now_ns();
    if (!window_open && t0 >= w0) {
      s.begin = snapshot(run.tm);
      window_open = true;
    }
    const bool in_window = t0 >= w0 && t0 < w1;
    if (in_window) {
      const tm::TxHeap& heap = run.tm.heap();
      s.heap_cells.push_back(
          static_cast<double>(heap.allocated_end() - heap.free_cells()));
    }
    const std::uint64_t tick = run.now_tick();
    if (tick < next_sweep) continue;
    const auto st = run.store.sweep_expired(*session, tick,
                                            SweepMode::kSyncFence,
                                            in_window ? &s.bucket_ns : nullptr);
    const std::uint64_t t1 = now_ns();
    next_sweep = tick + run.w.sweep_every_ticks;
    if (!in_window) continue;
    s.pass_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    s.retired += st.retired;
    if (run.tracing) {
      s.spans.add({"sweep_pass", (kSweeperRoot << 40) | ++passes,
                   kSweeperRoot, t0, t1});
    }
  }
  s.end = snapshot(run.tm);
  if (run.tracing) s.spans.add({"sweeper", kSweeperRoot, 0, w0, w1});
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

RunResult run_workload(const Workload& w, bool tracing,
                       const RunOptions& opt) {
  RunResult res;
  res.workload = w.name;
  res.traced = tracing;
  const auto fail = [&](std::string why) {
    res.correct = false;
    res.errors.push_back(std::move(why));
  };

  std::vector<double> setup_s;
  Instance inst;
  for (std::size_t r = 0; r < kSetups; ++r) {
    inst.store.reset();
    inst.tm.reset();
    const std::uint64_t t0 = now_ns();
    if (!set_up(w, opt.seed, inst)) fail("a prefill put returned kFull");
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // Inputs are generated in parallel, one stream per client, before the
  // clock starts.
  std::array<std::vector<std::uint32_t>, kClients> streams;
  {
    std::vector<std::thread> gen;
    for (std::size_t c = 0; c < kClients; ++c) {
      gen.emplace_back([&, c] { streams[c] = make_stream(w, opt.seed, c); });
    }
    for (auto& g : gen) g.join();
  }

  // The warm-up starts at the origin and absorbs thread start-up.
  const auto slices = static_cast<std::size_t>(
      std::max(1.0, std::round(opt.seconds * 1e9 / kSliceTargetNs)));
  Run run{w, *inst.store, *inst.tm, tracing, now_ns(), slices,
          static_cast<std::uint64_t>(opt.seconds * 1e9) / slices};
  {
    // Client 0 runs on this thread: the process runs kClients + 1 = nproc
    // threads while measuring.
    std::vector<std::thread> threads;
    for (std::size_t c = 1; c < kClients; ++c) {
      threads.emplace_back([&, c] { run_client(run, c, streams[c]); });
    }
    threads.emplace_back([&] { run_sweeper(run); });
    run_client(run, 0, streams[0]);
    for (auto& t : threads) t.join();
  }

  // Post-run audit: traffic has stopped; every hit must verify.
  std::uint64_t audit_bad = 0;
  {
    auto session = inst.tm->make_thread(0, nullptr);
    const std::uint64_t now = run.now_tick();
    for (std::uint64_t key = 1; key <= w.keys; ++key) {
      const auto r = inst.store->get(*session, key, now);
      audit_bad += r.hit && !r.consistent;
    }
  }

  // Merge the clients.
  ClientTally all;
  all.slice_ops.resize(run.slices);
  for (const ClientTally& t : run.clients) {
    for (std::size_t k = 0; k < run.slices; ++k) {
      all.slice_ops[k] += t.slice_ops[k];
    }
    all.busy_ns += t.busy_ns;
    for (std::size_t op = 0; op < kOps; ++op) {
      all.latency[op].merge(t.latency[op]);
      all.ops[op] += t.ops[op];
    }
    all.hits += t.hits;
    all.misses += t.misses;
    all.inconsistent += t.inconsistent;
    all.put_full += t.put_full;
  }
  const double slice_s = static_cast<double>(run.slice_ns) * 1e-9;
  const double secs = slice_s * static_cast<double>(run.slices);
  std::uint64_t ops = 0;
  for (const std::uint64_t n : all.ops) ops += n;
  const double busy_share =
      static_cast<double>(all.busy_ns) * 1e-9 / (secs * kClients);
  const auto us = [&](Op op, double q) {
    return all.latency[op].quantile(q) * 1e-3;
  };
  const SweepTally& sw = run.sweeper;
  const auto delta = [&](rt::Counter c) {
    const auto i = static_cast<std::size_t>(c);
    return static_cast<double>(sw.end[i] - sw.begin[i]);
  };
  const double kops = static_cast<double>(ops) * 1e-3;
  const double commits = delta(rt::Counter::kTxCommit);
  const double aborts = delta(rt::Counter::kTxAbort);
  constexpr double kMiB = 1024.0 * 1024.0;
  const double heap_end_mib =
      static_cast<double>(inst.tm->heap().allocated_end()) * 8.0 / kMiB;

  res.attempted = ops;
  res.failed = all.put_full;
  if (ops == 0) fail("no op completed in the window");
  if (all.inconsistent != 0) fail("a get hit an inconsistent record");
  if (audit_bad != 0) fail("the post-run audit found an inconsistent record");
  if (sw.retired == 0) fail("the sweeps retired nothing");
  if (busy_share < kMinBusyShare) {
    fail("clients spent under 85% of the window in store calls");
  }

  for (std::size_t op = 0; op < kOps; ++op) {
    res.info.push_back({std::string(kOpName[op]) + "_samples",
                        static_cast<double>(all.ops[op]), "count"});
  }
  res.info.push_back({"sweep_passes", static_cast<double>(sw.pass_ms.size()),
                      "count"});
  res.info.push_back({"slices", static_cast<double>(run.slices), "count"});
  res.info.push_back({"failed_frac",
                      ratio(static_cast<double>(all.put_full),
                            static_cast<double>(ops)),
                      "ratio"});
  res.info.push_back({"heap_end_mib", heap_end_mib, "MiB"});

  if (!tracing) {
    res.info.push_back({"busy_share", busy_share, "ratio"});
    res.metrics = {
        {"ops_per_s", static_cast<double>(ops) / secs, "ops/s"},
        {"get_p50_us", us(kGet, 0.50), "us"},
        {"get_p99_us", us(kGet, 0.99), "us"},
        {"put_p50_us", us(kPut, 0.50), "us"},
        {"put_p99_us", us(kPut, 0.99), "us"},
        {"heap_mib", median(sw.heap_cells) * 8.0 / kMiB, "MiB"},
        {"setup_s", median(setup_s), "s"},
    };
    return res;
  }

  // Traced run: per-layer metrics, the layer probes and the trace file.
  // Spans are recorded in odd slices only, so the overhead of tracing is
  // the ratio of the two halves' median throughput.
  std::array<std::vector<double>, 2> by_parity;
  for (std::size_t k = 0; k < run.slices; ++k) {
    by_parity[k & 1].push_back(static_cast<double>(all.slice_ops[k]));
  }
  const auto fences = delta(rt::Counter::kFence);
  const auto refills = delta(rt::Counter::kAllocSharedRefill);
  res.metrics = {
      {"service.tx_per_op", ratio(commits, static_cast<double>(ops)), "ratio"},
      {"service.sweep_pass_ms.p50", quantile(sw.pass_ms, 0.50), "ms"},
      {"service.sweep_pass_ms.p99", quantile(sw.pass_ms, 0.99), "ms"},
      {"service.sweep_bucket_us.p50",
       static_cast<double>(sw.bucket_ns.percentile(0.50)) * 1e-3, "us"},
      {"service.sweep_bucket_us.p99",
       static_cast<double>(sw.bucket_ns.percentile(0.99)) * 1e-3, "us"},
      {"service.sweeps_per_s", static_cast<double>(sw.pass_ms.size()) / secs,
       "1/s"},
      {"service.retired_per_s", static_cast<double>(sw.retired) / secs, "1/s"},
      {"service.get_hit_ratio",
       ratio(static_cast<double>(all.hits),
             static_cast<double>(all.hits + all.misses)),
       "ratio"},
      {"service.get_p999_us", us(kGet, 0.999), "us"},
      {"service.put_p999_us", us(kPut, 0.999), "us"},
      {"service.touch_p99_us", us(kTouch, 0.99), "us"},
      {"service.erase_p99_us", us(kErase, 0.99), "us"},
      {"tm.commits_per_s", commits / secs, "1/s"},
      {"tm.aborts_per_kop", ratio(aborts, kops), "1/kop"},
      {"tm.commit_ratio", ratio(commits, commits + aborts), "ratio"},
      {"tm.ro_commit_share",
       ratio(delta(rt::Counter::kTxReadOnlyCommit), commits), "ratio"},
      {"contention.backoffs_per_kop",
       ratio(delta(rt::Counter::kTxRetryBackoff), kops), "1/kop"},
      {"contention.escalations_per_mop",
       ratio(delta(rt::Counter::kTxEscalated), kops * 1e-3), "1/mop"},
      {"quiescence.fences_per_s", fences / secs, "1/s"},
      {"quiescence.fences_coalesced_per_s",
       delta(rt::Counter::kFenceCoalesced) / secs, "1/s"},
      {"alloc.refills_per_kop", ratio(refills, kops), "1/kop"},
      {"alloc.steals_per_refill",
       ratio(delta(rt::Counter::kAllocShardSteal), refills), "ratio"},
      {"alloc.limbo_batches_per_kop",
       ratio(delta(rt::Counter::kLimboBatchRetired), kops), "1/kop"},
      {"alloc.compactions_per_s", delta(rt::Counter::kAllocCompaction) / secs,
       "1/s"},
  };
  SpanRing probe_spans;
  const std::uint64_t p0 = now_ns();
  run_layer_probes(w.backend, res.metrics, probe_spans, kProbesRoot);
  probe_spans.add({"probes", kProbesRoot, 0, p0, now_ns()});
  res.metrics.push_back({"bench.busy_share", busy_share, "ratio"});
  res.metrics.push_back({"bench.trace_overhead",
                         ratio(median(by_parity[1]), median(by_parity[0])),
                         "ratio"});

  std::vector<const SpanRing*> tracks;
  std::vector<std::string> names;
  for (std::size_t c = 0; c < kClients; ++c) {
    tracks.push_back(&run.clients[c].spans);
    names.push_back("client " + std::to_string(c));
  }
  tracks.push_back(&sw.spans);
  names.push_back("sweeper");
  tracks.push_back(&probe_spans);
  names.push_back("probes");
  const std::string path = opt.out_dir + "/trace_" + w.name + ".json";
  if (!write_chrome_trace(path, tracks, names, run.origin_ns)) {
    fail("could not write " + path);
  }
  std::uint64_t sampled = 0;
  for (const ClientTally& t : run.clients) sampled += t.spans.recorded();
  res.info.push_back({"op_spans_recorded", static_cast<double>(sampled),
                      "count"});
  return res;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string metrics_json(const Metrics& ms) {
  std::string s = "{";
  for (const Metric& m : ms) {
    if (s.size() > 1) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}";
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::string& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics + "}";
}

bool write_report(const std::string& path, const RunOptions& opt,
                  const std::vector<RunResult>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"schema\": 1, \"seed\": %llu, \"seconds\": %s, "
               "\"warmup_s\": %s, \"clients\": %zu, \"runs\": [",
               static_cast<unsigned long long>(opt.seed),
               fmt(opt.seconds).c_str(), fmt(kWarmupNs * 1e-9).c_str(),
               kClients);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(f, "%s\n  {\"workload\": \"%s\", \"traced\": %s, ",
                 i == 0 ? "" : ",", r.workload.c_str(),
                 r.traced ? "true" : "false");
    std::fprintf(f, "\"info\": %s,\n   \"result\": %s}",
                 metrics_json(r.info).c_str(),
                 result_json(r.correct, r.attempted, r.failed,
                             metrics_json(r.metrics))
                     .c_str());
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

int usage() {
  std::fputs(
      "usage: e2e_bench [--workload NAME|all] [--seed N] [--seconds S]\n"
      "                 [--trace [0|1]] [--smoke] [--out-dir DIR]\n"
      "  --trace 0   untraced run: end-to-end metrics (default)\n"
      "  --trace 1   traced run: per-layer metrics, probes, trace file\n"
      "  --trace     both, untraced first\n"
      "  --smoke     1 s window\n"
      "workloads: zipf-small zipf-small-norec hot-storm churn-large\n",
      stderr);
  return 2;
}

bool parse_seconds(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && out > 0.0;
}

bool parse_seed(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  RunOptions opt;
  std::string workload = "all";
  bool untraced = true;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value &&
               parse_seed(argv[i + 1], opt.seed)) {
      ++i;
    } else if (a == "--seconds" && has_value &&
               parse_seconds(argv[i + 1], opt.seconds)) {
      ++i;
    } else if (a == "--trace") {
      const std::string_view next = has_value ? argv[i + 1] : "";
      untraced = next != "1";
      traced = next != "0";
      if (next == "0" || next == "1") ++i;
    } else if (a == "--smoke") {
      opt.seconds = 1.0;
    } else if (a == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else {
      return usage();
    }
  }

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (workload == "all" || workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) return usage();
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);

  std::vector<RunResult> runs;
  for (const Workload* w : selected) {
    for (const bool tracing : {false, true}) {
      if (tracing ? !traced : !untraced) continue;
      RunResult r = run_workload(*w, tracing, opt);
      const char* mode = tracing ? "traced" : "untraced";
      std::printf("# %s (%s, seed %llu)\n", w->name, mode,
                  static_cast<unsigned long long>(opt.seed));
      for (const Metrics* ms : {&r.metrics, &r.info}) {
        for (const Metric& m : *ms) {
          std::printf("%s %s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                      m.unit);
        }
      }
      for (const std::string& e : r.errors) {
        std::fprintf(stderr, "FAIL %s (%s): %s\n", w->name, mode, e.c_str());
      }
      std::fflush(stdout);
      runs.push_back(std::move(r));
    }
  }

  const std::string report = opt.out_dir + "/BENCH_e2e.json";
  if (!write_report(report, opt, runs)) {
    std::fprintf(stderr, "FAIL could not write %s\n", report.c_str());
    return 1;
  }
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string metrics;
  if (runs.size() == 1) {
    metrics = metrics_json(runs[0].metrics);
  } else {
    Metrics all;
    for (const RunResult& r : runs) {
      for (const Metric& m : r.metrics) {
        all.push_back({r.workload + "/" + m.name, m.value, m.unit});
      }
    }
    metrics = metrics_json(all);
  }
  for (const RunResult& r : runs) {
    correct &= r.correct;
    attempted += r.attempted;
    failed += r.failed;
  }
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}
