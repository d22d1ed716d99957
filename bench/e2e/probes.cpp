#include "probes.hpp"

#include <array>
#include <atomic>
#include <barrier>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adt/tx_hashmap.hpp"
#include "service/session_store.hpp"

namespace e2e {
namespace {

using privstm::tm::TmThread;
using privstm::tm::TxHandle;
using privstm::tm::TxResult;
using privstm::tm::Value;

constexpr int kBatches = 7;  // each probe reports the median batch

/// Records one timed batch of the probing thread as a span.
struct BatchSpans {
  SpanRing& ring;
  std::uint64_t root;
  std::uint64_t seq = 0;

  void add(const char* name, std::uint64_t start, std::uint64_t end) {
    ring.add({name, (root << 40) | ++seq, root, start, end});
  }
};

/// Runs body(t, sync) on `threads` threads, t = 0 on the caller, and joins
/// them; `sync` lets the threads line their batches up.
template <typename Body>
void on_threads(std::size_t threads, Body&& body) {
  std::barrier<> sync(static_cast<std::ptrdiff_t>(threads));
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < threads; ++t) {
    helpers.emplace_back([&body, &sync, t] { body(t, sync); });
  }
  body(0, sync);
  for (auto& h : helpers) h.join();
}

// ---------------------------------------------------------------------------
// TM: begin/read/write/commit, by difference of four transaction shapes.
// ---------------------------------------------------------------------------

enum Shape : std::size_t { kEmpty, kReads, kOneWrite, kWrites, kShapes };
constexpr const char* kShapeSpan[kShapes] = {
    "probe.tm.empty", "probe.tm.reads", "probe.tm.one_write",
    "probe.tm.writes"};
constexpr std::size_t kAccesses = 16;
constexpr std::size_t kTxPerBatch = 20000;

/// Commits `iters` transactions of `shape` on `block`, retrying aborts;
/// returns ns per committed transaction.
double time_shape(TmThread& s, TxHandle block, Shape shape,
                  std::size_t iters) {
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < iters; ++i) {
    for (;;) {
      s.tx_begin();
      bool ok = true;
      Value v = 0;
      switch (shape) {
        case kReads:
          for (std::size_t k = 0; ok && k < kAccesses; ++k) {
            ok = s.tx_read(block.loc(k), v);
          }
          break;
        case kOneWrite:
          ok = s.tx_write(block.loc(0), i);
          break;
        case kWrites:
          for (std::size_t k = 0; ok && k < kAccesses; ++k) {
            ok = s.tx_write(block.loc(k), i + k);
          }
          break;
        default:
          break;
      }
      if (ok && s.tx_commit() == TxResult::kCommitted) break;
    }
  }
  return static_cast<double>(now_ns() - t0) / static_cast<double>(iters);
}

void probe_tm(privstm::tm::TransactionalMemory& tm, std::size_t threads,
              Metrics& out, BatchSpans& spans) {
  std::array<std::vector<double>, kShapes> ns;
  for (auto& v : ns) v.assign(threads * kBatches, 0.0);
  on_threads(threads, [&](std::size_t t, std::barrier<>& sync) {
    auto s = tm.make_thread(static_cast<privstm::hist::ThreadId>(t), nullptr);
    const TxHandle block = s->tm_alloc(kAccesses);
    for (std::size_t shape = 0; shape < kShapes; ++shape) {
      for (int b = 0; b < kBatches; ++b) {
        sync.arrive_and_wait();
        const std::uint64_t start = now_ns();
        ns[shape][t * kBatches + b] =
            time_shape(*s, block, static_cast<Shape>(shape), kTxPerBatch);
        if (t == 0) spans.add(kShapeSpan[shape], start, now_ns());
      }
    }
    s->tm_free(block);
  });
  const double empty = median(ns[kEmpty]);
  const double reads = median(ns[kReads]);
  const double one_write = median(ns[kOneWrite]);
  const double writes = median(ns[kWrites]);
  const double write = (writes - one_write) / (kAccesses - 1);
  const std::string sfx = ".t" + std::to_string(threads);
  out.push_back({"tm.begin_commit_ro_ns" + sfx, empty, "ns"});
  out.push_back({"tm.read_ns" + sfx, (reads - empty) / kAccesses, "ns"});
  out.push_back({"tm.write_ns" + sfx, write, "ns"});
  // What a write set adds to commit (locks, clock, write-back) beyond an
  // empty read-only transaction and the buffered write itself.
  out.push_back({"tm.commit_rw_ns" + sfx, one_write - empty - write, "ns"});
}

// ---------------------------------------------------------------------------
// Allocator: tm_alloc / tm_free over the service's payload ladder.
// ---------------------------------------------------------------------------

constexpr std::size_t kAllocsPerBatch = 4096;

void probe_alloc(privstm::tm::TransactionalMemory& tm, std::size_t threads,
                 Metrics& out, BatchSpans& spans) {
  std::vector<double> alloc_ns(threads * kBatches), free_ns(threads * kBatches);
  on_threads(threads, [&](std::size_t t, std::barrier<>& sync) {
    auto s = tm.make_thread(static_cast<privstm::hist::ThreadId>(t), nullptr);
    std::vector<TxHandle> blocks(kAllocsPerBatch);
    for (int b = 0; b < kBatches; ++b) {
      sync.arrive_and_wait();
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < kAllocsPerBatch; ++i) {
        blocks[i] =
            s->tm_alloc(privstm::service::SessionStore::kHeaderCells +
                        kLadder[i % std::size(kLadder)]);
      }
      const std::uint64_t t1 = now_ns();
      for (const TxHandle h : blocks) s->tm_free(h);
      const std::uint64_t t2 = now_ns();
      alloc_ns[t * kBatches + b] =
          static_cast<double>(t1 - t0) / kAllocsPerBatch;
      free_ns[t * kBatches + b] =
          static_cast<double>(t2 - t1) / kAllocsPerBatch;
      if (t == 0) {
        spans.add("probe.alloc.alloc", t0, t1);
        spans.add("probe.alloc.free", t1, t2);
      }
    }
  });
  const std::string sfx = ".t" + std::to_string(threads);
  out.push_back({"alloc.alloc_ns" + sfx, median(alloc_ns), "ns"});
  out.push_back({"alloc.free_ns" + sfx, median(free_ns), "ns"});
}

// ---------------------------------------------------------------------------
// Quiescence: fence latency, idle and while two threads run transactions.
// ---------------------------------------------------------------------------

constexpr std::size_t kFencesPerBatch = 2000;

/// µs per call of `fence_once`: the median of kBatches timed batches.
template <typename F>
double time_fences(BatchSpans& spans, const char* name, F&& fence_once) {
  std::vector<double> us(kBatches);
  for (double& u : us) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kFencesPerBatch; ++i) fence_once();
    const std::uint64_t t1 = now_ns();
    u = static_cast<double>(t1 - t0) * 1e-3 / kFencesPerBatch;
    spans.add(name, t0, t1);
  }
  return median(us);
}

void probe_fence(privstm::tm::TransactionalMemory& tm, Metrics& out,
                 BatchSpans& spans) {
  auto s = tm.make_thread(0, nullptr);
  out.push_back({"quiescence.fence_us.idle",
                 time_fences(spans, "probe.fence.idle", [&] { s->fence(); }),
                 "us"});

  // Two helpers keep short read-only transactions in flight, so every
  // fence has someone to wait for.
  constexpr std::size_t kBusyThreads = 2;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ready{0};
  const TxHandle cell = s->tm_alloc(1);
  std::vector<std::thread> busy;
  for (std::size_t t = 1; t <= kBusyThreads; ++t) {
    busy.emplace_back([&, t] {
      auto bs =
          tm.make_thread(static_cast<privstm::hist::ThreadId>(t), nullptr);
      ready.fetch_add(1);
      Value v = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        bs->tx_begin();
        if (bs->tx_read(cell.loc(0), v)) bs->tx_commit();
      }
    });
  }
  while (ready.load() < kBusyThreads) std::this_thread::yield();
  out.push_back({"quiescence.fence_us.busy",
                 time_fences(spans, "probe.fence.busy", [&] { s->fence(); }),
                 "us"});
  out.push_back({"quiescence.fence_async_wait_us.busy",
                 time_fences(spans, "probe.fence_async.busy",
                             [&] { s->fence_wait(s->fence_async()); }),
                 "us"});
  stop.store(true);
  for (auto& b : busy) b.join();
  s->tm_free(cell);
}

// ---------------------------------------------------------------------------
// ADT: TxHashMap freeze / unfreeze (the sweep's agreement and republish).
// ---------------------------------------------------------------------------

constexpr std::size_t kMaps = 64;
constexpr std::size_t kFreezeRounds = 100;

void probe_freeze(privstm::tm::TransactionalMemory& tm, Metrics& out,
                  BatchSpans& spans) {
  auto s = tm.make_thread(0, nullptr);
  std::vector<std::unique_ptr<privstm::adt::TxHashMap>> maps;
  for (std::size_t m = 0; m < kMaps; ++m) {
    maps.push_back(std::make_unique<privstm::adt::TxHashMap>(tm, 16));
  }
  Value token = 0;
  std::vector<double> freeze_us(kBatches), unfreeze_us(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    std::uint64_t frozen_ns = 0, unfrozen_ns = 0;
    const std::uint64_t start = now_ns();
    for (std::size_t r = 0; r < kFreezeRounds; ++r) {
      const std::uint64_t t0 = now_ns();
      for (auto& m : maps) m->freeze(*s, ++token);
      const std::uint64_t t1 = now_ns();
      for (auto& m : maps) m->unfreeze(*s);
      const std::uint64_t t2 = now_ns();
      frozen_ns += t1 - t0;
      unfrozen_ns += t2 - t1;
    }
    spans.add("probe.adt.freeze_unfreeze", start, now_ns());
    constexpr double kCalls = kMaps * kFreezeRounds;
    freeze_us[b] = static_cast<double>(frozen_ns) * 1e-3 / kCalls;
    unfreeze_us[b] = static_cast<double>(unfrozen_ns) * 1e-3 / kCalls;
  }
  out.push_back({"adt.freeze_us", median(freeze_us), "us"});
  out.push_back({"adt.unfreeze_us", median(unfreeze_us), "us"});
}

}  // namespace

void run_layer_probes(privstm::tm::TmKind kind, Metrics& out,
                      SpanRing& ring, std::uint64_t root_id) {
  auto tm = privstm::tm::make_tm(kind, privstm::tm::TmConfig{});
  BatchSpans spans{ring, root_id};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    probe_tm(*tm, threads, out, spans);
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    probe_alloc(*tm, threads, out, spans);
  }
  probe_fence(*tm, out, spans);
  probe_freeze(*tm, out, spans);
}

}  // namespace e2e
