#include "service/session_store.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>

namespace privstm::service {
namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* sweep_mode_name(SweepMode mode) noexcept {
  switch (mode) {
    case SweepMode::kSyncFence:
      return "sync";
    case SweepMode::kAsyncFence:
      return "async";
    case SweepMode::kUnfencedUnsafe:
      return "unfenced";
  }
  return "?";
}

SessionStore::SessionStore(tm::TransactionalMemory& tm,
                           SessionStoreConfig config)
    : tm_(&tm) {
  std::size_t buckets = std::bit_ceil(std::max<std::size_t>(config.buckets, 1));
  bucket_shift_ = 64U - static_cast<unsigned>(std::countr_zero(buckets));
  buckets_.reserve(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    buckets_.push_back(
        std::make_unique<adt::TxHashMap>(tm, config.bucket_capacity));
  }
}

SessionStore::~SessionStore() {
  // Index blocks are freed by the TxHashMap destructors; live records
  // would leak heap blocks, which is fine for teardown (the owning TM's
  // arena dies with it) — a graceful shutdown sweeps with now = ∞ first.
}

SessionStore::PutStatus SessionStore::put(tm::TmThread& session,
                                          tm::Value key,
                                          std::uint64_t expiry,
                                          std::size_t payload_cells,
                                          tm::Value tag) {
  assert(key != 0 && key != adt::TxHashMap::kTombstone);
  const adt::TxHashMap& bucket = *buckets_[bucket_of(key)];
  const tm::TxHandle record =
      session.tm_alloc(kHeaderCells + payload_cells);
  // Pre-publication NT fill: the block is unreachable until the publish
  // transaction commits, and that commit orders these writes before any
  // transactional reader that finds the index entry (the publication
  // idiom, Fig 2).
  session.nt_write(record.loc(0), key);
  session.nt_write(record.loc(1), static_cast<tm::Value>(expiry));
  session.nt_write(record.loc(2), tag);
  for (std::size_t i = 0; i < payload_cells; ++i) {
    session.nt_write(record.loc(kHeaderCells + i),
                     payload_cell(key, tag, i));
  }

  bool ok = false;
  tm::Value replaced = 0;
  bool frozen = true;
  while (frozen) {
    tm::run_tx_retry(session, [&](tm::TxScope& tx) {
      ok = false;
      replaced = 0;
      frozen = bucket.frozen(tx);
      if (frozen) return;
      ok = bucket.put_in(tx, key, encode(record), &replaced);
    });
  }
  if (!ok) {
    session.tm_free(record);  // never published
    return PutStatus::kFull;
  }
  if (replaced != 0) {
    // The displaced record is unlinked as of the commit; tm_free's grace
    // period covers readers whose transactions were still in flight.
    session.tm_free(decode(replaced));
  }
  return PutStatus::kOk;
}

SessionStore::GetResult SessionStore::get(tm::TmThread& session,
                                          tm::Value key,
                                          std::uint64_t now) {
  const adt::TxHashMap& bucket = *buckets_[bucket_of(key)];
  GetResult result;
  bool frozen = true;
  while (frozen) {
    tm::run_tx_retry(session, [&](tm::TxScope& tx) {
      result = GetResult{};
      frozen = bucket.frozen(tx);
      if (frozen) return;
      const auto encoded = bucket.get_in(tx, key);
      if (!encoded.has_value()) return;  // miss
      const tm::TxHandle record = decode(*encoded);
      const auto expiry =
          static_cast<std::uint64_t>(tx.read(record.loc(1)));
      if (expiry <= now) return;  // expired: a miss until the sweep runs
      result.hit = true;
      result.tag = tx.read(record.loc(2));
      result.payload_cells = record.size - kHeaderCells;
      // Sample the payload (first and last cells) and verify against the
      // header — opacity makes any committed snapshot consistent, so a
      // mismatch here is store corruption, not benign concurrency.
      const tm::Value rkey = tx.read(record.loc(0));
      const tm::Value first = tx.read(record.loc(kHeaderCells));
      const tm::Value last = tx.read(record.loc(record.size - 1));
      result.consistent =
          rkey == key && first == payload_cell(key, result.tag, 0) &&
          last == payload_cell(key, result.tag, result.payload_cells - 1);
    });
  }
  return result;
}

bool SessionStore::touch(tm::TmThread& session, tm::Value key,
                         std::uint64_t expiry) {
  const adt::TxHashMap& bucket = *buckets_[bucket_of(key)];
  bool found = false;
  bool frozen = true;
  while (frozen) {
    tm::run_tx_retry(session, [&](tm::TxScope& tx) {
      found = false;
      frozen = bucket.frozen(tx);
      if (frozen) return;
      const auto encoded = bucket.get_in(tx, key);
      if (!encoded.has_value()) return;
      tx.write(decode(*encoded).loc(1), static_cast<tm::Value>(expiry));
      found = true;
    });
  }
  return found;
}

bool SessionStore::erase(tm::TmThread& session, tm::Value key) {
  const adt::TxHashMap& bucket = *buckets_[bucket_of(key)];
  bool found = false;
  tm::Value removed = 0;
  bool frozen = true;
  while (frozen) {
    tm::run_tx_retry(session, [&](tm::TxScope& tx) {
      found = false;
      removed = 0;
      frozen = bucket.frozen(tx);
      if (frozen) return;
      found = bucket.erase_in(tx, key, &removed);
    });
  }
  if (found) session.tm_free(decode(removed));
  return found;
}

void SessionStore::scan_bucket(tm::TmThread& session, std::size_t bucket,
                               std::uint64_t now, SweepStats& stats) {
  const adt::TxHashMap& map = *buckets_[bucket];
  for (std::size_t slot = 0; slot < map.capacity(); ++slot) {
    const tm::Value k = session.nt_read(map.key_loc(slot));
    if (k == 0 || k == adt::TxHashMap::kTombstone) continue;
    ++stats.scanned;
    const tm::TxHandle record =
        decode(session.nt_read(map.value_loc(slot)));
    const auto expiry =
        static_cast<std::uint64_t>(session.nt_read(record.loc(1)));
    if (expiry > now) continue;
    // Expired: unlink with an NT tombstone (the bucket is privatized —
    // we own its slots), then the privatization-safe deferred free.
    session.nt_write(map.key_loc(slot), adt::TxHashMap::kTombstone);
    session.tm_free(record);
    ++stats.retired;
  }
}

SessionStore::SweepStats SessionStore::sweep_expired(
    tm::TmThread& session, std::uint64_t now, SweepMode mode,
    rt::LatencyHistogram* per_bucket_ns) {
  SweepStats stats;
  // Sweep-phase spans land on the sweeper's own session slot (this thread
  // is the slot's sole producer — the SPSC contract); a32 = bucket index,
  // so a trace viewer can line up the freeze/fence/reclaim/republish
  // pipeline per bucket.
  rt::TraceDomain* const trace = tm_->trace_ptr();
  const std::size_t tslot = session.stat_slot();
  const auto emit = [&](rt::TraceEventKind kind, std::size_t bucket) {
    if (trace != nullptr) {
      trace->emit(tslot, kind, 0, static_cast<std::uint32_t>(bucket));
    }
  };
  // Deferred pipeline state (kAsyncFence): while bucket b's grace period
  // elapses under its ticket, bucket b-1 — whose ticket has had a whole
  // freeze + issue to complete — is scanned. Exactly two buckets are
  // frozen at any instant, so traffic on the other buckets keeps
  // flowing; the fence latency leaves the sweep's critical path (the PR 2
  // depth-limited ticket pipeline, depth 2).
  struct Pending {
    std::size_t bucket = 0;
    rt::FenceTicket ticket = rt::kNullFenceTicket;
    std::uint64_t start = 0;
    bool valid = false;
  } pending;
  const auto finish = [&](std::size_t bucket, std::uint64_t start) {
    emit(rt::TraceEventKind::kSweepReclaimBegin, bucket);
    scan_bucket(session, bucket, now, stats);
    emit(rt::TraceEventKind::kSweepReclaimEnd, bucket);
    emit(rt::TraceEventKind::kSweepRepublishBegin, bucket);
    buckets_[bucket]->unfreeze(session);
    emit(rt::TraceEventKind::kSweepRepublishEnd, bucket);
    ++stats.buckets;
    if (per_bucket_ns != nullptr) per_bucket_ns->record(now_ns() - start);
  };
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::uint64_t start = now_ns();
    emit(rt::TraceEventKind::kSweepFreezeBegin, b);
    buckets_[b]->freeze(session, next_freeze_token());
    emit(rt::TraceEventKind::kSweepFreezeEnd, b);
    switch (mode) {
      case SweepMode::kSyncFence:
        emit(rt::TraceEventKind::kSweepFenceBegin, b);
        session.fence();
        emit(rt::TraceEventKind::kSweepFenceEnd, b);
        finish(b, start);
        break;
      case SweepMode::kUnfencedUnsafe:
        // No fence: the NT scan races with delayed commits of
        // transactions that probed this bucket before the freeze. The
        // service litmus tests exist to show the checker flagging this.
        finish(b, start);
        break;
      case SweepMode::kAsyncFence: {
        const rt::FenceTicket ticket = session.fence_async();
        if (pending.valid) {
          // The span covers only the residual wait — the pipelined part
          // of the grace period (overlapped with this bucket's freeze)
          // is exactly what the viewer should see missing from it.
          emit(rt::TraceEventKind::kSweepFenceBegin, pending.bucket);
          session.fence_wait(pending.ticket);
          emit(rt::TraceEventKind::kSweepFenceEnd, pending.bucket);
          finish(pending.bucket, pending.start);
        }
        pending = {b, ticket, start, true};
        break;
      }
    }
  }
  if (pending.valid) {
    emit(rt::TraceEventKind::kSweepFenceBegin, pending.bucket);
    session.fence_wait(pending.ticket);
    emit(rt::TraceEventKind::kSweepFenceEnd, pending.bucket);
    finish(pending.bucket, pending.start);
  }
  return stats;
}

}  // namespace privstm::service
