// Discrete-event simulation engine.
//
// A single monotonically advancing clock and a radix queue of events.
// Events scheduled at the same instant fire in scheduling order (FIFO by
// sequence number) so the simulation is fully deterministic. Events can be
// cancelled through the returned handle — the kernel uses this to retract
// a core's quantum-expiry event when the core reschedules early.
//
// Hot-path design: each event's callback (a small-buffer-optimized
// move-only util::MoveFunction) and cancellation flag live in a slab
// node recycled through a free list — no shared_ptr control block per
// event. Generation counters on the nodes make stale handles to
// recycled nodes inert. Fire-and-forget call sites use
// schedule_detached(), which skips handle construction.
//
// The queue is keyed by slab node id: a node's (when, seq) key, packed
// into one 128-bit integer, lives in a dense array next to the node,
// and the node is threaded onto one of 128 intrusive bucket lists. The
// engine is a monotone priority queue — every pushed key (when >= now,
// fresh seq) exceeds the last popped key — so a radix queue applies:
// bucket b holds the keys whose highest bit differing from `last_` (the
// key of the most recently extracted minimum) is bit b. Taking the
// minimum scans only the lowest non-empty bucket and relinks its other
// members into strictly lower buckets, so each node moves a handful of
// times over its life instead of every pop paying log(n) dependent
// heap levels. The extracted minimum waits in a scalar top slot until
// it fires. The one non-monotone case is a push below a key that was
// extracted without advancing the clock: a minimum left in the top slot
// (step() stopped at a horizon, pop_batched_peer() declined, or
// peek_next() looked), or a cancelled or deferred entry that popped.
// An out-of-line rebase() then makes the new event the minimum and
// moves the few nodes whose bucket that changes.
//
// Timer re-arming is tombstone-free: reschedule() moves a pending
// event's deadline in place. Re-armable events are scheduled through
// schedule_tracked()/schedule_tracked_at(). Because a node id is its
// own queue position, reschedule() finds the live entry in O(1).
// Moving a deadline *earlier* (or to the same instant) unlinks the node
// and re-queues it under the new key. Moving it *later* is a lazy
// deferral: the new key goes into a dense side array, the node is
// flagged, and the queued key is otherwise left alone; when the stale
// key reaches the top, step() re-queues it instead of firing. Either
// way the event keeps the fire-order key (when, seq-at-reschedule-time)
// that a cancel() + fresh schedule() would have produced, so simulations
// are bit-identical to the historical cancel+push pattern — without its
// dead queue entries.
//
// Handles must not outlive the engine that issued them (they hold a raw
// pointer into it); default-constructed handles are inert.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.hpp"
#include "util/move_function.hpp"
#include "util/units.hpp"

namespace pinsim::sim {

class Engine;

/// Always-on event-engine counters. The only counter the fire fast path
/// maintains is `fired` (one register add); the rest increment on cold
/// paths or are derived at read time, so the accounting never shows up
/// in simulation profiles. Per-instance via Engine::stats();
/// process-wide totals via aggregate_engine_stats().
struct EngineStats {
  std::int64_t scheduled = 0;        // schedule()/schedule_detached() events
  std::int64_t fired = 0;            // callbacks invoked
  std::int64_t tombstone_pops = 0;   // cancelled entries discarded by pop
  std::int64_t deferred_rearms = 0;  // stale entries re-pushed at new deadline
  std::int64_t reschedules = 0;      // reschedule() calls served in place
  std::int64_t peak_heap = 0;        // high-water mark of pending entries
  std::int64_t boundaries_batched = 0;  // same-instant peers drained batched
  std::int64_t boundaries_skipped = 0;  // boundary fires elided by quiet cores
  std::int64_t quiet_windows = 0;       // quiet-core fast-forwards entered
};

/// Field-wise sum (every counter, `peak_heap` included), for folding the
/// engines of a sharded fleet.
EngineStats& operator+=(EngineStats& into, const EngineStats& from);

/// Process-wide totals across every Engine destroyed so far (each engine
/// folds its counters in on destruction). The figure benches print this
/// under --stats; worker-thread engines accumulate atomically.
EngineStats aggregate_engine_stats();

/// Cancellation handle for a scheduled event. Default-constructed handles
/// are inert; cancelling twice is a no-op. Valid only while the issuing
/// Engine is alive.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing. Safe to call after the event fired.
  void cancel();

  /// True when the event is still pending (scheduled, not cancelled, not
  /// yet fired).
  bool pending() const;

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint32_t slot, std::uint64_t gen)
      : engine_(engine), slot_(slot), gen_(gen) {}
  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

class Engine {
 public:
  using Callback = util::MoveFunction;

  Engine() {
    for (std::uint32_t& head : head_) head = kNil;
  }
  ~Engine();
  // EventHandles hold raw pointers into the engine, so it must stay put.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  // The schedule path is defined inline (below the class) so callers in
  // other translation units can collapse the callback's type-erased
  // construction and moves into direct stores into the slab node.

  /// Schedule `fn` to run `delay` from now. `delay` must be >= 0.
  EventHandle schedule(SimDuration delay, Callback fn);

  /// Schedule `fn` at the absolute instant `when` (>= now()).
  EventHandle schedule_at(SimTime when, Callback fn);

  /// Fire-and-forget variants: no cancellation handle returned. Cheaper
  /// than schedule(); use when the caller discards the handle.
  void schedule_detached(SimDuration delay, Callback fn);
  void schedule_detached_at(SimTime when, Callback fn);

  /// Tracked variants: like schedule()/schedule_at(), but the returned
  /// handle additionally supports reschedule(). Use for persistent
  /// re-armable timers; plain schedule() is cheaper for fire-once
  /// events (tracked entries pay a back-pointer store per heap move).
  EventHandle schedule_tracked(SimDuration delay, Callback fn);
  EventHandle schedule_tracked_at(SimTime when, Callback fn);

  /// Tracked schedule carrying a batch cookie `(domain << 16) | payload`.
  /// Cookied entries are eligible for pop_batched_peer(): when one fires
  /// through the normal step() path, the owner can drain its same-instant
  /// domain peers without paying a callback dispatch each. Domain ids
  /// come from new_batch_domain(); cookie 0 means "not batchable" (the
  /// default for the other tracked overloads).
  EventHandle schedule_tracked_at(SimTime when, std::uint32_t cookie,
                                  Callback fn);

  /// Allocate a batch-cookie domain id (16-bit, starts at 1 so the
  /// implicit cookie 0 of un-cookied tracked entries never matches).
  /// Several kernels can share one engine (sharded fleets); each takes
  /// its own domain so a sweep never drains a foreign kernel's timers.
  std::uint32_t new_batch_domain() {
    PINSIM_CHECK_MSG(next_batch_domain_ < 0xffffu, "batch domains exhausted");
    return next_batch_domain_++;
  }

  /// Batched same-instant drain: if the top queue entry is an un-deferred
  /// tracked entry armed at exactly now() whose cookie belongs to
  /// `domain`, pop it without dispatching its callback and return the
  /// cookie's 16-bit payload; otherwise return -1 and leave the queue
  /// alone. Cancelled matching entries are tombstoned and the scan
  /// continues. Callers loop until -1, handling each payload inline —
  /// one at a time, so a handler that cancels or defers a peer's entry
  /// is observed before that peer is popped, exactly like the
  /// one-step()-per-fire path this replaces.
  // pinsim-lint: hot
  int pop_batched_peer(std::uint32_t domain) {
    while (!empty()) {
      const std::uint32_t id = top();
      if (when_of(key_[id]) != now_) return -1;
      // Untracked nodes may carry a previous tenant's cookie; the node
      // flags below reject them.
      const std::uint32_t cookie = cookie_[id];
      if ((cookie >> 16) != domain) return -1;
      const Node& n = node(id);
      if (!n.tracked || n.deferred) return -1;
      top_ = kNil;
      if (n.cancelled) {
        ++stats_.tombstone_pops;
        release_node(id);
        continue;
      }
      // A batched pop is a real fire for accounting purposes — the
      // owner runs the same handler the callback would have run.
      ++stats_.fired;
      ++stats_.boundaries_batched;
      release_node(id);
      return static_cast<int>(cookie & 0xffffu);
    }
    return -1;
  }

  /// Quiet-core fast-forward accounting (the counters live here so
  /// aggregate_engine_stats() folds them with everything else).
  void note_boundaries_skipped(std::int64_t n) {
    stats_.boundaries_skipped += n;
  }
  void note_quiet_window() { ++stats_.quiet_windows; }

  /// Move a pending event's deadline to `when` (>= now()) without
  /// cancelling it — the callback is untouched. The handle must come
  /// from schedule_tracked()/schedule_tracked_at() (checked). Returns
  /// false (and does nothing) when the handle is inert, cancelled, or
  /// already fired; the caller then schedules afresh. Fire order is
  /// exactly what cancel() plus a new schedule_tracked_at() would give:
  /// the event is re-keyed with a fresh sequence number, so among
  /// same-instant events it fires last.
  bool reschedule(EventHandle& handle, SimTime when);

  /// Run until the event queue drains or `horizon` is reached (events at
  /// exactly `horizon` still fire). Returns the number of events fired.
  std::int64_t run(SimTime horizon = kNoHorizon);

  /// Run until `predicate()` becomes true (checked after each event) or
  /// the queue drains. Returns true when the predicate was satisfied.
  /// The predicate is a template parameter so tight measure loops pay a
  /// direct call per event, not type-erased std::function dispatch.
  template <typename Predicate>
  bool run_until(Predicate&& predicate, SimTime horizon = kNoHorizon) {
    if (predicate()) return true;
    while (step(horizon)) {
      if (predicate()) return true;
    }
    return predicate();
  }

  bool empty() const {
    return top_ == kNil && (mask_[0] | mask_[1]) == 0;
  }
  /// Every live slab node is queued (a node is released exactly when
  /// its entry pops), so the live-node count is the queue length.
  std::size_t pending_events() const {
    return node_count_ - free_nodes_.size();
  }

  /// Instant of the earliest pending queue entry, or kNoHorizon when the
  /// queue is empty. For an entry whose deadline was deferred later (see
  /// reschedule()) this reports the stale armed instant — a lower bound
  /// on when the event can actually fire, which is exactly what the
  /// sharded round loop needs for a conservative window. Not const: it
  /// extracts the minimum into the top slot.
  SimTime peek_next() {
    return empty() ? kNoHorizon : when_of(key_[top()]);
  }

  /// Jump the clock forward to `when` without firing anything. Only
  /// legal when no pending event lies at or before `when` (checked) —
  /// the sharded engine uses this to keep every shard's clock aligned
  /// at a window boundary so cross-shard deliveries are never in a
  /// receiver's past.
  void advance_clock_to(SimTime when) {
    PINSIM_CHECK_MSG(when >= now_, "clock moved backwards (" << when << " < "
                                                             << now_ << ")");
    PINSIM_CHECK_MSG(peek_next() > when,
                     "advance_clock_to(" << when
                                         << ") would skip a pending event at "
                                         << peek_next());
    now_ = when;
  }

  /// Counter snapshot. `scheduled` and `peak_heap` are derived here
  /// rather than maintained per event: every reschedule() and every
  /// schedule consumes exactly one sequence number, so scheduled =
  /// next_seq_ - reschedules; and queue entries map 1:1 onto live slab
  /// nodes (a node is released exactly when its entry pops), so the
  /// slab high-water mark IS the queue high-water mark.
  EngineStats stats() const {
    EngineStats s = stats_;
    s.scheduled =
        static_cast<std::int64_t>(next_seq_) - stats_.reschedules;
    s.peak_heap = static_cast<std::int64_t>(node_count_);
    return s;
  }

  static constexpr SimTime kNoHorizon = INT64_MAX;

 private:
  friend class EventHandle;

  /// Slab node: the event's callback plus cancellation state. The
  /// generation counter distinguishes the current tenant event from
  /// stale handles to earlier tenants of the same node. Queue keys and
  /// links live in dense side arrays, not here: growing the node (~72
  /// bytes, the pop path's main cache-line traffic) measurably slows
  /// every simulation. The flags pack into the tail padding. `deferred`
  /// marks a node whose deadline moved later than its queued key (the
  /// new key waits in deferred_); `tracked` marks a node that may be
  /// rescheduled.
  struct Node {
    Callback fn;
    std::uint64_t gen = 0;
    bool cancelled = false;
    bool tracked = false;
    bool deferred = false;
  };

  /// Ordering key: (when, seq) packed into one 128-bit integer so the
  /// comparison is a single sub/sbb. `when` is never negative (the clock
  /// starts at zero and only advances), so the unsigned compare is safe.
  using Key = unsigned __int128;
  static Key make_key(SimTime when, std::uint64_t seq) {
    return (static_cast<Key>(static_cast<std::uint64_t>(when)) << 64) | seq;
  }
  static SimTime when_of(Key key) {
    return static_cast<SimTime>(static_cast<std::uint64_t>(key >> 64));
  }

  /// A queued node's neighbours on its bucket list (kNil at the ends).
  struct Link {
    std::uint32_t next;
    std::uint32_t prev;
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr int kBuckets = 128;

  /// Bucket of a queued key: the highest bit where it differs from
  /// last_. Only called for keys above last_, so the xor is non-zero.
  unsigned bucket_of(Key key) const {
    const Key diff = key ^ last_;
    const auto hi = static_cast<std::uint64_t>(diff >> 64);
    return hi != 0 ? 127u - static_cast<unsigned>(__builtin_clzll(hi))
                   : 63u - static_cast<unsigned>(__builtin_clzll(
                               static_cast<std::uint64_t>(diff)));
  }

  /// Fire the next event; returns false when the queue is empty or the
  /// next event lies beyond `horizon`.
  bool step(SimTime horizon);

  /// The minimum queued node, extracted into the top slot if it is not
  /// there yet. The queue must be non-empty.
  std::uint32_t top() {
    if (top_ == kNil) refill();
    return top_;
  }
  /// Move the minimum of the lowest non-empty bucket into the top slot
  /// and relink the bucket's other members against the new last_.
  void refill();

  /// Thread node `id` (key above last_) onto the head of its bucket.
  void link(std::uint32_t id) {
    const unsigned b = bucket_of(key_[id]);
    const std::uint32_t head = head_[b];
    links_[id] = Link{head, kNil};
    if (head != kNil) links_[head].prev = id;
    head_[b] = id;
    mask_[b >> 6] |= std::uint64_t{1} << (b & 63);
  }
  /// Take queued node `id` out of the top slot or its bucket.
  void unlink(std::uint32_t id) {
    if (id == top_) {
      top_ = kNil;
      return;
    }
    const std::uint32_t prev = links_[id].prev;
    const std::uint32_t next = links_[id].next;
    if (next != kNil) links_[next].prev = prev;
    if (prev != kNil) {
      links_[prev].next = next;
      return;
    }
    const unsigned b = bucket_of(key_[id]);
    head_[b] = next;
    if (next == kNil) mask_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  }
  /// Queue node `id` under `key`. A key at or below last_ can only come
  /// from the non-monotone case above (or the very first push);
  /// rebase() handles it off the hot path.
  void enqueue(std::uint32_t id, Key key) {
    key_[id] = key;
    if (key <= last_) [[unlikely]] {
      rebase(id);
      return;
    }
    link(id);
  }
  /// Make node `id` (keyed below every queued key) the top, and move
  /// the queued nodes whose bucket changes under its key.
  void rebase(std::uint32_t id);

  /// Slow path for a popped node flagged deferred: tombstone it if
  /// cancelled, otherwise re-queue it at its deferred key. Kept out of
  /// line so step()'s fast path stays small enough to inline well.
  void resolve_deferred(std::uint32_t id);

  std::uint32_t push_event(SimTime when, Callback&& fn) {
    const std::uint32_t slot = acquire_node();
    node(slot).fn = std::move(fn);
    enqueue(slot, make_key(when, next_seq_++));
    return slot;
  }
  std::uint32_t push_event_tracked(SimTime when, Callback&& fn,
                                   std::uint32_t cookie = 0) {
    const std::uint32_t slot = acquire_node();
    Node& n = node(slot);
    n.fn = std::move(fn);
    n.tracked = true;
    // Unconditional store: a recycled node may carry a previous tenant's
    // cookie, and pop_batched_peer() must never match a stale one.
    cookie_[slot] = cookie;
    enqueue(slot, make_key(when, next_seq_++));
    return slot;
  }
  std::uint32_t acquire_node() {
    if (!free_nodes_.empty()) {
      const std::uint32_t slot = free_nodes_.back();
      free_nodes_.pop_back();
      return slot;
    }
    // grow_slab() is outlined: with the chunk allocation and the
    // side-array resizes inlined here, acquire_node() exceeds the
    // inliner's budget and turns into an out-of-line call on every
    // schedule — measurably slower than keeping this wrapper tiny.
    if ((node_count_ >> kChunkShift) == chunks_.size()) [[unlikely]] {
      grow_slab();
    }
    return node_count_++;
  }
  void grow_slab();
  void release_node(std::uint32_t node);

  // Nodes live in fixed-size chunks so growing the slab never relocates
  // existing nodes — a vector<Node> would move-construct every live
  // callback on each capacity doubling, which dominated the schedule
  // path's cost.
  static constexpr std::uint32_t kChunkShift = 8;  // 256 nodes per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;
  Node& node(std::uint32_t i) { return chunks_[i >> kChunkShift][i & kChunkMask]; }
  const Node& node(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }

  bool node_pending(std::uint32_t i, std::uint64_t gen) const {
    const Node& n = node(i);
    return n.gen == gen && !n.cancelled;
  }
  void node_cancel(std::uint32_t i, std::uint64_t gen) {
    Node& n = node(i);
    if (n.gen == gen) n.cancelled = true;
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Radix queue over node ids: the key of the last extracted minimum,
  /// the extracted minimum itself (kNil when none waits), one list head
  /// per bucket, and a bitmask of the non-empty buckets.
  Key last_ = 0;
  std::uint32_t top_ = kNil;
  std::uint32_t head_[kBuckets] = {};
  std::uint64_t mask_[2] = {0, 0};
  /// node id -> queued key and bucket-list links (valid while queued).
  std::vector<Key> key_;
  std::vector<Link> links_;
  /// node id -> deferred re-arm key (valid while the node is deferred).
  std::vector<Key> deferred_;
  /// node id -> batch cookie, written on every tracked push (0 = none).
  std::vector<std::uint32_t> cookie_;
  std::uint32_t next_batch_domain_ = 1;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t node_count_ = 0;
  std::vector<std::uint32_t> free_nodes_;
  EngineStats stats_;
};

inline void EventHandle::cancel() {
  if (engine_ != nullptr) engine_->node_cancel(slot_, gen_);
}

inline bool EventHandle::pending() const {
  return engine_ != nullptr && engine_->node_pending(slot_, gen_);
}

inline EventHandle Engine::schedule(SimDuration delay, Callback fn) {
  PINSIM_CHECK_MSG(delay >= 0, "event scheduled in the past (delay=" << delay
                                                                     << ")");
  return schedule_at(now_ + delay, std::move(fn));
}

inline EventHandle Engine::schedule_at(SimTime when, Callback fn) {
  PINSIM_CHECK_MSG(when >= now_,
                   "event scheduled before now (" << when << " < " << now_
                                                  << ")");
  const std::uint32_t slot = push_event(when, std::move(fn));
  return EventHandle(this, slot, node(slot).gen);
}

inline void Engine::schedule_detached(SimDuration delay, Callback fn) {
  PINSIM_CHECK_MSG(delay >= 0, "event scheduled in the past (delay=" << delay
                                                                     << ")");
  schedule_detached_at(now_ + delay, std::move(fn));
}

inline void Engine::schedule_detached_at(SimTime when, Callback fn) {
  PINSIM_CHECK_MSG(when >= now_,
                   "event scheduled before now (" << when << " < " << now_
                                                  << ")");
  push_event(when, std::move(fn));
}

inline EventHandle Engine::schedule_tracked(SimDuration delay, Callback fn) {
  PINSIM_CHECK_MSG(delay >= 0, "event scheduled in the past (delay=" << delay
                                                                     << ")");
  return schedule_tracked_at(now_ + delay, std::move(fn));
}

inline EventHandle Engine::schedule_tracked_at(SimTime when, Callback fn) {
  PINSIM_CHECK_MSG(when >= now_,
                   "event scheduled before now (" << when << " < " << now_
                                                  << ")");
  const std::uint32_t slot = push_event_tracked(when, std::move(fn));
  return EventHandle(this, slot, node(slot).gen);
}

inline EventHandle Engine::schedule_tracked_at(SimTime when,
                                               std::uint32_t cookie,
                                               Callback fn) {
  PINSIM_CHECK_MSG(when >= now_,
                   "event scheduled before now (" << when << " < " << now_
                                                  << ")");
  const std::uint32_t slot = push_event_tracked(when, std::move(fn), cookie);
  return EventHandle(this, slot, node(slot).gen);
}

inline bool Engine::reschedule(EventHandle& handle, SimTime when) {
  if (handle.engine_ != this) return false;  // inert or foreign handle
  Node& n = node(handle.slot_);
  if (n.gen != handle.gen_ || n.cancelled) return false;
  PINSIM_CHECK_MSG(n.tracked,
                   "reschedule() on an untracked event; use "
                   "schedule_tracked()/schedule_tracked_at()");
  PINSIM_CHECK_MSG(when >= now_,
                   "event rescheduled before now (" << when << " < " << now_
                                                    << ")");
  // One sequence number per re-arm, exactly like the cancel+push pattern
  // this replaces — so every other event's seq (and thus every FIFO
  // tie-break) is unchanged.
  const std::uint64_t seq = next_seq_++;
  ++stats_.reschedules;
  const std::uint32_t id = handle.slot_;
  if (when > when_of(key_[id])) {
    // Later than the queued key: defer lazily. step() re-queues the
    // node when its stale key surfaces. Repeated deferrals just
    // overwrite the side-array key.
    deferred_[id] = make_key(when, seq);
    n.deferred = true;
    return true;
  }
  // At or before the queued key: re-queue under the new key (dropping
  // any deferral from an earlier move).
  n.deferred = false;
  unlink(id);
  enqueue(id, make_key(when, seq));
  return true;
}

}  // namespace pinsim::sim
