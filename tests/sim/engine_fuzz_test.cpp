// Randomized stress of the event engine: ordering, cancellation,
// in-place rescheduling, and nested-scheduling invariants under
// thousands of random operations, including a reference-model fuzz
// against a std::multimap oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace pinsim::sim {
namespace {

class EngineFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzzTest, MonotonicTimeAndExactFireCounts) {
  Rng rng(GetParam());
  Engine engine;
  std::int64_t expected_fires = 0;
  std::vector<EventHandle> handles;
  SimTime last_fire = 0;
  bool out_of_order = false;

  // Seed events; some callbacks schedule more, some cancel others.
  std::int64_t scheduled = 0;
  std::function<void(int)> fire = [&](int depth) {
    if (engine.now() < last_fire) out_of_order = true;
    last_fire = engine.now();
    ++expected_fires;
    if (depth < 3 && rng.chance(0.4)) {
      const auto delay = static_cast<SimDuration>(rng.uniform_int(0, 5000));
      engine.schedule(delay, [&fire, depth] { fire(depth + 1); });
      ++scheduled;
    }
  };
  for (int i = 0; i < 2000; ++i) {
    const auto delay = static_cast<SimDuration>(rng.uniform_int(0, 100000));
    handles.push_back(engine.schedule(delay, [&fire] { fire(0); }));
    ++scheduled;
  }
  // Cancel a random ~quarter before running.
  std::int64_t cancelled = 0;
  for (auto& handle : handles) {
    if (rng.chance(0.25)) {
      handle.cancel();
      ++cancelled;
    }
  }
  const std::int64_t fired = engine.run();
  EXPECT_FALSE(out_of_order);
  EXPECT_EQ(fired, expected_fires);
  // Every scheduled-and-not-cancelled top-level event fired (nested ones
  // are all uncancelled, so: fired = scheduled - cancelled).
  EXPECT_EQ(fired, scheduled - cancelled);
  EXPECT_TRUE(engine.empty());
}

TEST_P(EngineFuzzTest, HorizonSplitEqualsFullRun) {
  // Running to a horizon and then to completion must fire the same
  // events in the same order as one uninterrupted run.
  auto run_collect = [&](bool split) {
    Rng rng(GetParam() * 3 + 1);
    Engine engine;
    std::vector<int> order;
    for (int i = 0; i < 500; ++i) {
      const auto delay = static_cast<SimDuration>(rng.uniform_int(0, 50000));
      engine.schedule(delay, [&order, i] { order.push_back(i); });
    }
    if (split) {
      engine.run(25000);
      engine.run();
    } else {
      engine.run();
    }
    return order;
  };
  EXPECT_EQ(run_collect(false), run_collect(true));
}

TEST_P(EngineFuzzTest, RescheduleMatchesMultimapOracle) {
  // Reference model: a std::multimap keyed by (deadline, seq) where seq
  // mirrors the engine's internal sequence counter — one tick per
  // schedule and per successful reschedule. The engine must fire
  // exactly the oracle's key order through any interleaving of
  // schedule / cancel / reschedule-earlier / reschedule-later / run.
  // Random peek_next() calls and mid-round horizon stops leave the
  // queue's minimum extracted but unfired, so later schedules and
  // reschedules below it exercise the queue's rebase path.
  Rng rng(GetParam() * 1007 + 11);
  Engine engine;
  using Key = std::pair<SimTime, std::uint64_t>;
  std::multimap<Key, int> oracle;
  std::map<int, std::multimap<Key, int>::iterator> live;
  std::map<int, EventHandle> handles;
  std::vector<int> fired;
  std::vector<int> expected;
  std::vector<int> dead;
  std::uint64_t seq = 0;
  std::int64_t cancelled_count = 0;
  int next_id = 0;

  auto random_live = [&]() -> int {
    if (live.empty()) return -1;
    auto it = live.begin();
    std::advance(it, rng.uniform_int(0, static_cast<int>(live.size()) - 1));
    return it->first;
  };
  // Run the engine to `horizon`, move the oracle's events at or before
  // it to `expected`, and report whether the fire orders still agree.
  auto run_to = [&](SimTime horizon) {
    engine.run(horizon);
    while (!oracle.empty() && oracle.begin()->first.first <= horizon) {
      const int id = oracle.begin()->second;
      expected.push_back(id);
      live.erase(id);
      dead.push_back(id);
      oracle.erase(oracle.begin());
    }
    return fired == expected;
  };

  for (int round = 0; round < 80; ++round) {
    const int ops = static_cast<int>(rng.uniform_int(1, 40));
    for (int op = 0; op < ops; ++op) {
      const std::int64_t dice = rng.uniform_int(0, 99);
      if (dice < 45 || live.empty()) {
        const auto delay = static_cast<SimDuration>(rng.uniform_int(0, 5000));
        const int id = next_id++;
        handles[id] = engine.schedule_tracked(
            delay, [&fired, id] { fired.push_back(id); });
        live[id] = oracle.emplace(Key{engine.now() + delay, seq++}, id);
      } else if (dice < 58) {
        const int id = random_live();
        handles[id].cancel();
        EXPECT_FALSE(handles[id].pending());
        oracle.erase(live[id]);
        live.erase(id);
        dead.push_back(id);
        ++cancelled_count;
        // A cancelled handle must refuse in-place rescheduling (and must
        // not consume a sequence number — the oracle would drift).
        EXPECT_FALSE(engine.reschedule(handles[id], engine.now() + 1));
      } else if (dice < 80) {
        const int id = random_live();
        const auto when = static_cast<SimTime>(
            engine.now() + rng.uniform_int(0, 5000));
        ASSERT_TRUE(engine.reschedule(handles[id], when));
        oracle.erase(live[id]);
        live[id] = oracle.emplace(Key{when, seq++}, id);
      } else if (dice < 86) {
        if (dead.empty()) continue;
        // Fired or cancelled events are gone for good.
        const int id = dead[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(dead.size()) - 1))];
        EXPECT_FALSE(engine.reschedule(handles[id], engine.now() + 1));
      } else if (dice < 93) {
        // Cancelled and deferred entries stay queued at their old key,
        // so the peeked instant is a lower bound on the next fire.
        const SimTime peek = engine.peek_next();
        EXPECT_GE(peek, engine.now());
        if (!oracle.empty()) {
          EXPECT_LE(peek, oracle.begin()->first.first);
        }
      } else {
        const auto horizon = static_cast<SimTime>(
            engine.now() + rng.uniform_int(0, 3000));
        ASSERT_TRUE(run_to(horizon)) << "diverged mid-round " << round;
      }
    }

    const auto horizon = static_cast<SimTime>(
        engine.now() + rng.uniform_int(0, 8000));
    ASSERT_TRUE(run_to(horizon)) << "diverged after round " << round;
  }

  engine.run();
  for (const auto& [key, id] : oracle) expected.push_back(id);
  EXPECT_EQ(fired, expected);
  EXPECT_TRUE(engine.empty());
  // Only explicit cancels leave tombstones now; every reschedule was
  // served in place (deferred re-arm or re-key), never by a dead entry.
  EXPECT_EQ(engine.stats().tombstone_pops, cancelled_count);
  EXPECT_EQ(engine.stats().fired, static_cast<std::int64_t>(fired.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest,
                         ::testing::Values(1u, 42u, 1234u, 987654u));

}  // namespace
}  // namespace pinsim::sim
