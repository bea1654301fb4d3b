#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/check.hpp"

namespace pinsim::sim {
namespace {

TEST(EngineTest, StartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(msec(3), [&] { order.push_back(3); });
  engine.schedule(msec(1), [&] { order.push_back(1); });
  engine.schedule(msec(2), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), msec(3));
}

TEST(EngineTest, TiesFireInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule(msec(5), [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EngineTest, NestedScheduling) {
  Engine engine;
  std::vector<SimTime> fired;
  engine.schedule(msec(1), [&] {
    fired.push_back(engine.now());
    engine.schedule(msec(1), [&] { fired.push_back(engine.now()); });
  });
  engine.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], msec(1));
  EXPECT_EQ(fired[1], msec(2));
}

TEST(EngineTest, HorizonStopsAndAdvancesClock) {
  Engine engine;
  int fired = 0;
  engine.schedule(msec(1), [&] { ++fired; });
  engine.schedule(msec(10), [&] { ++fired; });
  engine.run(msec(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), msec(1));  // stopped at the last fired event
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, EventAtExactHorizonFires) {
  Engine engine;
  bool fired = false;
  engine.schedule(msec(5), [&] { fired = true; });
  engine.run(msec(5));
  EXPECT_TRUE(fired);
}

TEST(EngineTest, EmptyRunToHorizonAdvancesClock) {
  Engine engine;
  engine.run(msec(7));
  EXPECT_EQ(engine.now(), msec(7));
}

TEST(EngineTest, CancelPreventsFiring) {
  Engine engine;
  bool fired = false;
  EventHandle handle = engine.schedule(msec(1), [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(EngineTest, CancelAfterFireIsNoop) {
  Engine engine;
  int fired = 0;
  EventHandle handle = engine.schedule(msec(1), [&] { ++fired; });
  engine.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();
  engine.run();
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash
}

TEST(EngineTest, RunUntilPredicate) {
  Engine engine;
  int counter = 0;
  for (int i = 1; i <= 10; ++i) {
    engine.schedule(msec(i), [&] { ++counter; });
  }
  const bool satisfied = engine.run_until([&] { return counter == 4; });
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(counter, 4);
  EXPECT_EQ(engine.now(), msec(4));
}

TEST(EngineTest, RunUntilUnsatisfiedDrainsQueue) {
  Engine engine;
  engine.schedule(msec(1), [] {});
  const bool satisfied = engine.run_until([] { return false; });
  EXPECT_FALSE(satisfied);
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, RejectsNegativeDelay) {
  Engine engine;
  EXPECT_THROW(engine.schedule(-1, [] {}), InvariantViolation);
  EXPECT_THROW(engine.schedule_detached(-1, [] {}), InvariantViolation);
}

TEST(EngineTest, DetachedEventsFireInOrderWithHandledOnes) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_detached(msec(2), [&] { order.push_back(2); });
  engine.schedule(msec(1), [&] { order.push_back(1); });
  engine.schedule_detached(msec(1), [&] { order.push_back(11); });
  engine.schedule(msec(3), [&] { order.push_back(3); });
  EXPECT_EQ(engine.run(), 4);
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2, 3}));
}

TEST(EngineTest, DetachedNestedScheduling) {
  Engine engine;
  int fired = 0;
  engine.schedule_detached(msec(1), [&] {
    ++fired;
    engine.schedule_detached(msec(1), [&] { ++fired; });
  });
  engine.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), msec(2));
}

TEST(EngineTest, StaleHandleCannotCancelSlotReuser) {
  // After an event fires, its cancellation slot is recycled. A stale
  // handle to the fired event must not affect the slot's next tenant.
  Engine engine;
  bool first = false;
  bool second = false;
  EventHandle stale = engine.schedule(msec(1), [&] { first = true; });
  engine.run();
  EXPECT_TRUE(first);
  EventHandle fresh = engine.schedule(msec(1), [&] { second = true; });
  stale.cancel();  // must be a no-op against the recycled slot
  EXPECT_TRUE(fresh.pending());
  EXPECT_FALSE(stale.pending());
  engine.run();
  EXPECT_TRUE(second);
}

TEST(EngineTest, NotPendingInsideOwnCallback) {
  Engine engine;
  EventHandle handle;
  bool was_pending = true;
  handle = engine.schedule(msec(1), [&] { was_pending = handle.pending(); });
  engine.run();
  EXPECT_FALSE(was_pending);
}

TEST(EngineTest, CancelledSlotIsRecycledAfterDrain) {
  // Cancelled entries release their slots as the queue pops them; a
  // long-running sim with heavy cancel traffic must not grow the slab.
  Engine engine;
  for (int round = 0; round < 100; ++round) {
    EventHandle handle = engine.schedule(msec(1), [] {});
    handle.cancel();
    engine.run();
  }
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, ReturnsEventCount) {
  Engine engine;
  for (int i = 0; i < 5; ++i) engine.schedule(msec(i + 1), [] {});
  EXPECT_EQ(engine.run(), 5);
}

TEST(EngineTest, RescheduleLaterDefersFiring) {
  Engine engine;
  std::vector<int> order;
  EventHandle moved =
      engine.schedule_tracked(msec(1), [&] { order.push_back(1); });
  engine.schedule(msec(2), [&] { order.push_back(2); });
  EXPECT_TRUE(engine.reschedule(moved, msec(3)));
  EXPECT_TRUE(moved.pending());
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(engine.now(), msec(3));
}

TEST(EngineTest, RescheduleEarlierDecreasesKey) {
  Engine engine;
  std::vector<int> order;
  EventHandle moved =
      engine.schedule_tracked(msec(5), [&] { order.push_back(5); });
  engine.schedule(msec(2), [&] { order.push_back(2); });
  EXPECT_TRUE(engine.reschedule(moved, msec(1)));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{5, 2}));
}

TEST(EngineTest, RescheduleSameInstantDropsBehindTies) {
  // A reschedule consumes a fresh sequence number even when the deadline
  // is unchanged — exactly like the cancel+push it replaces, so a
  // re-armed event fires after same-instant events scheduled before the
  // reschedule happened.
  Engine engine;
  std::vector<int> order;
  EventHandle moved =
      engine.schedule_tracked(msec(1), [&] { order.push_back(1); });
  engine.schedule(msec(1), [&] { order.push_back(2); });
  EXPECT_TRUE(engine.reschedule(moved, msec(1)));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EngineTest, RescheduleDeadHandleFails) {
  Engine engine;
  EventHandle fired_handle = engine.schedule_tracked(msec(1), [] {});
  EventHandle cancelled_handle = engine.schedule_tracked(msec(2), [] {});
  cancelled_handle.cancel();
  engine.run();
  EXPECT_FALSE(engine.reschedule(fired_handle, engine.now() + msec(1)));
  EXPECT_FALSE(engine.reschedule(cancelled_handle, engine.now() + msec(1)));
  EventHandle inert;
  EXPECT_FALSE(engine.reschedule(inert, engine.now() + msec(1)));
}

TEST(EngineTest, CancelWinsOverDeferredReschedule) {
  Engine engine;
  bool fired = false;
  EventHandle handle = engine.schedule_tracked(msec(1), [&] { fired = true; });
  EXPECT_TRUE(engine.reschedule(handle, msec(5)));  // lazy deferral
  handle.cancel();
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, RepeatedDeferralKeepsLatestDeadline) {
  Engine engine;
  SimTime fired_at = -1;
  EventHandle handle =
      engine.schedule_tracked(msec(1), [&] { fired_at = engine.now(); });
  EXPECT_TRUE(engine.reschedule(handle, msec(4)));
  EXPECT_TRUE(engine.reschedule(handle, msec(7)));
  EXPECT_TRUE(engine.reschedule(handle, msec(6)));  // earlier than deferred
  engine.run();
  EXPECT_EQ(fired_at, msec(6));
}

TEST(EngineTest, StatsCountFiresTombstonesAndDeferrals) {
  // stats() derives scheduled/peak_heap at read time, so each snapshot
  // must be taken after the activity it checks.
  Engine engine;
  EventHandle cancelled_handle = engine.schedule(msec(1), [] {});
  EventHandle deferred = engine.schedule_tracked(msec(2), [] {});
  engine.schedule(msec(3), [] {});
  EXPECT_EQ(engine.stats().scheduled, 3);
  EXPECT_EQ(engine.stats().peak_heap, 3);
  cancelled_handle.cancel();
  EXPECT_TRUE(engine.reschedule(deferred, msec(5)));
  engine.run();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduled, 3);       // reschedule is not a new event
  EXPECT_EQ(stats.fired, 2);           // cancelled one never fires
  EXPECT_EQ(stats.tombstone_pops, 1);  // only the explicit cancel
  EXPECT_EQ(stats.deferred_rearms, 1);
  EXPECT_EQ(stats.reschedules, 1);
}

TEST(EngineTest, RescheduleUntrackedPendingHandleIsInvariantViolation) {
  // reschedule() requires a handle from schedule_tracked(); a pending
  // handle from plain schedule() is a fire-once event, so the engine
  // must refuse loudly rather than silently move it.
  Engine engine;
  EventHandle handle = engine.schedule(msec(1), [] {});
  EXPECT_THROW(engine.reschedule(handle, msec(2)), InvariantViolation);
  handle.cancel();
  engine.run();
}

TEST(EngineTest, RescheduleEarlierLeavesNoTombstone) {
  Engine engine;
  EventHandle handle = engine.schedule_tracked(msec(5), [] {});
  EXPECT_TRUE(engine.reschedule(handle, msec(1)));
  engine.run();
  EXPECT_EQ(engine.stats().tombstone_pops, 0);
  EXPECT_EQ(engine.stats().deferred_rearms, 0);
  EXPECT_EQ(engine.stats().fired, 1);
}

TEST(EngineTest, BatchedDrainStopsAtDeferredAndUntrackedPeers) {
  // pop_batched_peer() may only take an entry whose callback it can
  // stand in for: tracked, un-deferred, same instant, same domain.
  Engine engine;
  const std::uint32_t domain = engine.new_batch_domain();
  std::vector<int> order;
  std::vector<int> drained;
  const auto drain = [&] {
    for (int payload = engine.pop_batched_peer(domain); payload >= 0;
         payload = engine.pop_batched_peer(domain)) {
      drained.push_back(payload);
    }
  };
  // A recycled node keeps its previous tenant's cookie: the untracked
  // event scheduled from this callback reuses the timer's node.
  engine.schedule_tracked_at(usec(50), (domain << 16) | 9, [&] {
    order.push_back(9);
    engine.schedule_at(usec(100), [&] { order.push_back(3); });
  });
  engine.schedule_tracked_at(usec(100), (domain << 16) | 1, [&] {
    order.push_back(1);
    drain();
  });
  EventHandle deferred = engine.schedule_tracked_at(
      usec(100), (domain << 16) | 2, [&] {
        order.push_back(2);
        drain();
      });
  engine.schedule_tracked_at(usec(100), (domain << 16) | 4, [&] {
    order.push_back(4);
    drain();
  });
  engine.schedule_tracked_at(usec(100), (domain << 16) | 5,
                             [&] { order.push_back(5); });
  EXPECT_TRUE(engine.reschedule(deferred, usec(300)));
  engine.run();
  // 1's drain stops at the deferred 2, still queued at usec(100). 4's
  // drain takes 5, then stops at 3: untracked despite its stale cookie,
  // so it fires through its own callback. 2 fires at its new deadline.
  EXPECT_EQ(order, (std::vector<int>{9, 1, 4, 3, 2}));
  EXPECT_EQ(drained, (std::vector<int>{5}));
  EXPECT_EQ(engine.stats().boundaries_batched, 1);
}

// --- Cold paths of the radix queue -----------------------------------
//
// The queue extracts its minimum into a top slot before it fires. Three
// ways leave that minimum extracted but unfired: run() stopping at a
// horizon, peek_next(), and pop_batched_peer() declining. An event
// scheduled (or rescheduled) below it afterwards must still fire first,
// and a cancelled top must be skipped. No benchmark workload reaches
// these paths, so each gets a deterministic order test here.

/// (tag, fire time) log shared by the cold-path tests.
struct FireLog {
  std::vector<std::pair<int, SimTime>> fires;
  Engine::Callback note(Engine& engine, int tag) {
    return [this, &engine, tag] { fires.emplace_back(tag, engine.now()); };
  }
};

using Fires = std::vector<std::pair<int, SimTime>>;

/// Background events spread over several radix buckets (far apart in
/// time, plus same-instant ties) so relinking has members to move.
void schedule_background(Engine& engine, FireLog& log) {
  engine.schedule_at(usec(900), log.note(engine, 90));
  engine.schedule_at(msec(40), log.note(engine, 91));
  engine.schedule_at(msec(40), log.note(engine, 92));
  engine.schedule_at(sec(3), log.note(engine, 93));
}

/// What schedule_background() fires, in order.
const Fires kBackgroundFires = {{90, usec(900)},
                                {91, msec(40)},
                                {92, msec(40)},
                                {93, sec(3)}};

/// `fires` followed by the background events, which fire last.
Fires with_background(Fires fires) {
  fires.insert(fires.end(), kBackgroundFires.begin(), kBackgroundFires.end());
  return fires;
}

TEST(EngineColdPathTest, ScheduleBelowTopAfterHorizonStop) {
  Engine engine;
  FireLog log;
  schedule_background(engine, log);
  engine.schedule_at(usec(100), log.note(engine, 1));
  engine.schedule_at(usec(200), log.note(engine, 2));
  EXPECT_EQ(engine.run(usec(150)), 1);
  EXPECT_EQ(engine.now(), usec(100));  // usec(200) waits in the top slot
  engine.schedule_at(usec(120), log.note(engine, 3));
  engine.schedule_at(usec(200), log.note(engine, 4));  // ties behind 2
  engine.schedule_at(usec(180), log.note(engine, 5));
  engine.schedule_at(usec(100), log.note(engine, 6));  // at now()
  engine.run();
  EXPECT_EQ(log.fires,
            with_background({{1, usec(100)},
                             {6, usec(100)},
                             {3, usec(120)},
                             {5, usec(180)},
                             {2, usec(200)},
                             {4, usec(200)}}));
  EXPECT_TRUE(engine.empty());
}

TEST(EngineColdPathTest, ScheduleBelowPeekedTop) {
  Engine engine;
  FireLog log;
  schedule_background(engine, log);
  engine.schedule_at(usec(500), log.note(engine, 1));
  EXPECT_EQ(engine.peek_next(), usec(500));
  engine.schedule_at(usec(50), log.note(engine, 2));
  EXPECT_EQ(engine.peek_next(), usec(50));
  engine.schedule_at(usec(60), log.note(engine, 3));
  engine.schedule_at(usec(40), log.note(engine, 4));
  EXPECT_EQ(engine.peek_next(), usec(40));
  EXPECT_EQ(engine.pending_events(), 8u);
  engine.run();
  EXPECT_EQ(log.fires, with_background({{4, usec(40)},
                                        {2, usec(50)},
                                        {3, usec(60)},
                                        {1, usec(500)}}));
}

/// A cookied timer at usec(100) is left in the top slot by a
/// pop_batched_peer() call that declines (it runs at usec(10), so the
/// timer is not same-instant), then moved to `when` from the same
/// callback. Returns the fire log.
Fires reschedule_after_declined_batch(SimTime when) {
  Engine engine;
  FireLog log;
  schedule_background(engine, log);
  const std::uint32_t domain = engine.new_batch_domain();
  EventHandle timer = engine.schedule_tracked_at(usec(100), (domain << 16) | 7,
                                                 log.note(engine, 1));
  engine.schedule_at(usec(100), log.note(engine, 2));
  engine.schedule_at(usec(10), [&] {
    log.fires.emplace_back(0, engine.now());
    EXPECT_EQ(engine.pop_batched_peer(domain), -1);
    EXPECT_EQ(engine.peek_next(), usec(100));
    EXPECT_TRUE(engine.reschedule(timer, when));
    engine.schedule_at(usec(100), log.note(engine, 3));
  });
  engine.run();
  EXPECT_EQ(engine.stats().boundaries_batched, 0);
  EXPECT_EQ(engine.stats().fired, 8);
  return log.fires;
}

TEST(EngineColdPathTest, DeclinedBatchTopRescheduledEarlier) {
  EXPECT_EQ(reschedule_after_declined_batch(usec(40)),
            with_background({{0, usec(10)},
                             {1, usec(40)},
                             {2, usec(100)},
                             {3, usec(100)}}));
}

TEST(EngineColdPathTest, DeclinedBatchTopRescheduledEqual) {
  // Same instant, fresh sequence number: the timer drops behind 2, but
  // stays ahead of 3, which is scheduled after the reschedule.
  EXPECT_EQ(reschedule_after_declined_batch(usec(100)),
            with_background({{0, usec(10)},
                             {2, usec(100)},
                             {1, usec(100)},
                             {3, usec(100)}}));
}

TEST(EngineColdPathTest, DeclinedBatchTopRescheduledLater) {
  EXPECT_EQ(reschedule_after_declined_batch(usec(300)),
            with_background({{0, usec(10)},
                             {2, usec(100)},
                             {3, usec(100)},
                             {1, usec(300)}}));
}

TEST(EngineColdPathTest, CancelledTopIsSkipped) {
  Engine engine;
  FireLog log;
  schedule_background(engine, log);
  const std::uint32_t domain = engine.new_batch_domain();
  EventHandle peer;
  // The first cookied timer fires through step(); its callback extracts
  // the next peer into the top slot, cancels it, and drains: the
  // cancelled top tombstones and the drain moves on to the third timer.
  engine.schedule_tracked_at(usec(100), (domain << 16) | 1, [&] {
    log.fires.emplace_back(1, engine.now());
    EXPECT_EQ(engine.peek_next(), usec(100));
    peer.cancel();
    EXPECT_EQ(engine.pop_batched_peer(domain), 3);
    EXPECT_EQ(engine.pop_batched_peer(domain), -1);
  });
  peer = engine.schedule_tracked_at(usec(100), (domain << 16) | 2,
                                    log.note(engine, 2));
  engine.schedule_tracked_at(usec(100), (domain << 16) | 3,
                             log.note(engine, 3));
  EventHandle top = engine.schedule_at(usec(200), log.note(engine, 4));
  EXPECT_EQ(engine.run(usec(150)), 1);
  // usec(200) waits in the top slot; cancel it and schedule below it.
  top.cancel();
  EXPECT_EQ(engine.peek_next(), usec(200));  // still queued
  engine.schedule_at(usec(170), log.note(engine, 5));
  EXPECT_EQ(engine.peek_next(), usec(170));
  engine.run();
  EXPECT_EQ(log.fires, with_background({{1, usec(100)}, {5, usec(170)}}));
  EXPECT_EQ(engine.stats().tombstone_pops, 2);
  EXPECT_EQ(engine.stats().boundaries_batched, 1);
  EXPECT_EQ(engine.stats().fired, 7);
}

}  // namespace
}  // namespace pinsim::sim
