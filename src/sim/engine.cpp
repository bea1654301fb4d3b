#include "sim/engine.hpp"

#include <atomic>
#include <utility>

namespace pinsim::sim {

namespace {

// Process-wide totals, folded in by ~Engine. Worker threads each own
// private engines, so contention is one batch of relaxed adds per
// simulation, not per event.
std::atomic<std::int64_t> g_scheduled{0};
std::atomic<std::int64_t> g_fired{0};
std::atomic<std::int64_t> g_tombstone_pops{0};
std::atomic<std::int64_t> g_deferred_rearms{0};
std::atomic<std::int64_t> g_reschedules{0};
std::atomic<std::int64_t> g_peak_heap{0};
std::atomic<std::int64_t> g_boundaries_batched{0};
std::atomic<std::int64_t> g_boundaries_skipped{0};
std::atomic<std::int64_t> g_quiet_windows{0};

}  // namespace

EngineStats aggregate_engine_stats() {
  EngineStats stats;
  stats.scheduled = g_scheduled.load(std::memory_order_relaxed);
  stats.fired = g_fired.load(std::memory_order_relaxed);
  stats.tombstone_pops = g_tombstone_pops.load(std::memory_order_relaxed);
  stats.deferred_rearms = g_deferred_rearms.load(std::memory_order_relaxed);
  stats.reschedules = g_reschedules.load(std::memory_order_relaxed);
  stats.peak_heap = g_peak_heap.load(std::memory_order_relaxed);
  stats.boundaries_batched =
      g_boundaries_batched.load(std::memory_order_relaxed);
  stats.boundaries_skipped =
      g_boundaries_skipped.load(std::memory_order_relaxed);
  stats.quiet_windows = g_quiet_windows.load(std::memory_order_relaxed);
  return stats;
}

Engine::~Engine() {
  const EngineStats s = stats();
  g_scheduled.fetch_add(s.scheduled, std::memory_order_relaxed);
  g_fired.fetch_add(s.fired, std::memory_order_relaxed);
  g_tombstone_pops.fetch_add(s.tombstone_pops, std::memory_order_relaxed);
  g_deferred_rearms.fetch_add(s.deferred_rearms, std::memory_order_relaxed);
  g_reschedules.fetch_add(s.reschedules, std::memory_order_relaxed);
  g_boundaries_batched.fetch_add(s.boundaries_batched,
                                 std::memory_order_relaxed);
  g_boundaries_skipped.fetch_add(s.boundaries_skipped,
                                 std::memory_order_relaxed);
  g_quiet_windows.fetch_add(s.quiet_windows, std::memory_order_relaxed);
  std::int64_t peak = g_peak_heap.load(std::memory_order_relaxed);
  while (peak < s.peak_heap &&
         !g_peak_heap.compare_exchange_weak(peak, s.peak_heap,
                                            std::memory_order_relaxed)) {
  }
}

EngineStats& operator+=(EngineStats& into, const EngineStats& from) {
  into.scheduled += from.scheduled;
  into.fired += from.fired;
  into.tombstone_pops += from.tombstone_pops;
  into.deferred_rearms += from.deferred_rearms;
  into.reschedules += from.reschedules;
  into.peak_heap += from.peak_heap;
  into.boundaries_batched += from.boundaries_batched;
  into.boundaries_skipped += from.boundaries_skipped;
  into.quiet_windows += from.quiet_windows;
  return into;
}

void Engine::refill() {
  const unsigned b =
      mask_[0] != 0
          ? static_cast<unsigned>(__builtin_ctzll(mask_[0]))
          : 64u + static_cast<unsigned>(__builtin_ctzll(mask_[1]));
  const std::uint32_t first = head_[b];
  head_[b] = kNil;
  mask_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  std::uint32_t best = first;
  Key best_key = key_[first];
  for (std::uint32_t i = links_[first].next; i != kNil; i = links_[i].next) {
    if (key_[i] < best_key) {
      best = i;
      best_key = key_[i];
    }
  }
  top_ = best;
  last_ = best_key;
  // Every other member shares bucket b's high bits with the new last_
  // and lies above it, so each lands in a bucket strictly below b.
  for (std::uint32_t i = first; i != kNil;) {
    const std::uint32_t next = links_[i].next;
    if (i != best) link(i);
    i = next;
  }
}

// Cold: only the non-monotone pushes described in engine.hpp (and the
// first push) land here. Out of line so enqueue() stays small on every
// schedule.
__attribute__((noinline)) void Engine::rebase(std::uint32_t id) {
  const Key old_last = last_;
  const std::uint32_t old_top = top_;
  last_ = key_[id];
  top_ = id;
  // Equal keys only at the very first push, into an empty queue.
  if (last_ == old_last) return;
  // Every queued key lies above old_last, which lies above the new
  // last_; let h be the highest bit where the two lasts differ. A node
  // in bucket b > h still differs from the new last_ first at bit b, so
  // it stays put; a node in bucket b < h (and the old top, which sat at
  // old_last itself) now differs first at bit h. So only the buckets
  // below h move — the nodes closest to the old minimum.
  const unsigned h = bucket_of(old_last);
  for (unsigned b = 0; b < h; ++b) {
    std::uint32_t i = head_[b];
    if (i == kNil) continue;
    head_[b] = kNil;
    mask_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    while (i != kNil) {
      const std::uint32_t next = links_[i].next;
      link(i);
      i = next;
    }
  }
  if (old_top != kNil) link(old_top);
}

// Cold: one call per 256 nodes. Out of line (and never inlined) so
// acquire_node() stays small enough to inline into the schedule path.
__attribute__((noinline)) void Engine::grow_slab() {
  // The slab growth itself is the sanctioned cold-path allocation: one
  // call per 256 nodes, explicitly kept out of line.
  // pinsim-lint: allow(hot-path)
  chunks_.push_back(std::make_unique<Node[]>(std::size_t{1} << kChunkShift));
  const std::size_t capacity = chunks_.size() << kChunkShift;
  key_.resize(capacity);
  links_.resize(capacity);
  deferred_.resize(capacity);
  cookie_.resize(capacity);
  // Every free-list entry refers to a node, so node capacity bounds the
  // list. Reserving here makes release_node allocation-free between
  // slab growths.
  free_nodes_.reserve(capacity);
}

void Engine::release_node(std::uint32_t slot) {
  // Bumping the generation invalidates every outstanding handle to the
  // node's previous tenant; stale cancel()/pending() become no-ops.
  // The side arrays may hold stale data — harmless, a node's key,
  // links and deferred key are rewritten before they are next read.
  Node& n = node(slot);
  ++n.gen;
  n.cancelled = false;
  n.tracked = false;
  n.deferred = false;
  n.fn = Callback();
  free_nodes_.push_back(slot);
}

// Out of line (and never inlined) so step()'s fast path stays compact:
// inlining the re-queue would grow step()'s code size and measurably
// slow the common fire path.
__attribute__((noinline)) void Engine::resolve_deferred(std::uint32_t id) {
  // The deadline moved later while this node was queued. Cancel still
  // wins: a cancelled-after-deferral event tombstones here and its
  // deferred key is never queued.
  Node& n = node(id);
  if (n.cancelled) {
    ++stats_.tombstone_pops;
    release_node(id);
    return;
  }
  // Re-queue under the key stored at reschedule() time (still tracked,
  // so later reschedules keep working), no firing.
  ++stats_.deferred_rearms;
  n.deferred = false;
  enqueue(id, deferred_[id]);
}

bool Engine::step(SimTime horizon) {
  while (!empty()) {
    const std::uint32_t id = top();
    const SimTime when = when_of(key_[id]);
    if (when > horizon) return false;
    top_ = kNil;
    Node& n = node(id);
    if (n.deferred) [[unlikely]] {
      resolve_deferred(id);
      continue;
    }
    if (n.cancelled) {
      ++stats_.tombstone_pops;
      release_node(id);
      continue;
    }
    now_ = when;
    ++stats_.fired;
    // Move the callback out and release the node before invoking, so the
    // event reads as no-longer-pending from inside its own callback and
    // nested scheduling can reuse the node immediately.
    Callback fn = std::move(n.fn);
    release_node(id);
    fn();
    return true;
  }
  return false;
}

std::int64_t Engine::run(SimTime horizon) {
  std::int64_t fired = 0;
  while (step(horizon)) {
    ++fired;
  }
  if (horizon != kNoHorizon && now_ < horizon && empty()) {
    now_ = horizon;
  }
  return fired;
}

}  // namespace pinsim::sim
