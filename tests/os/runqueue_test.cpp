#include "os/runqueue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "support/names.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pinsim::os {
namespace {

std::unique_ptr<Task> make_task(Task::Id id, SimDuration vruntime) {
  auto task = std::make_unique<Task>(
      id, test::numbered("t", id),
      std::make_unique<LambdaDriver>([](Task&) { return Action::exit(); }));
  task->vruntime = vruntime;
  return task;
}

TEST(RunqueueTest, OrdersByVruntime) {
  Runqueue rq;
  auto a = make_task(1, msec(5));
  auto b = make_task(2, msec(2));
  auto c = make_task(3, msec(8));
  rq.enqueue(*a);
  rq.enqueue(*b);
  rq.enqueue(*c);
  EXPECT_EQ(rq.size(), 3);
  EXPECT_EQ(rq.peek_min(), b.get());
  EXPECT_EQ(rq.peek_max(), c.get());
  EXPECT_EQ(&rq.pop_min(), b.get());
  EXPECT_EQ(&rq.pop_min(), a.get());
  EXPECT_EQ(&rq.pop_min(), c.get());
  EXPECT_TRUE(rq.empty());
}

TEST(RunqueueTest, TieBrokenById) {
  Runqueue rq;
  auto a = make_task(7, msec(1));
  auto b = make_task(3, msec(1));
  rq.enqueue(*a);
  rq.enqueue(*b);
  EXPECT_EQ(rq.peek_min(), b.get());
}

TEST(RunqueueTest, RemoveMiddle) {
  Runqueue rq;
  auto a = make_task(1, msec(1));
  auto b = make_task(2, msec(2));
  auto c = make_task(3, msec(3));
  rq.enqueue(*a);
  rq.enqueue(*b);
  rq.enqueue(*c);
  rq.remove(*b);
  EXPECT_EQ(rq.size(), 2);
  EXPECT_FALSE(rq.contains(*b));
  EXPECT_TRUE(rq.contains(*a));
}

TEST(RunqueueTest, DoubleEnqueueRejected) {
  Runqueue rq;
  auto a = make_task(1, msec(1));
  rq.enqueue(*a);
  EXPECT_THROW(rq.enqueue(*a), InvariantViolation);
}

TEST(RunqueueTest, RemoveAbsentRejected) {
  Runqueue rq;
  auto a = make_task(1, msec(1));
  EXPECT_THROW(rq.remove(*a), InvariantViolation);
}

TEST(RunqueueTest, MinVruntimeAdvancesMonotonically) {
  Runqueue rq;
  auto a = make_task(1, msec(10));
  rq.enqueue(*a);
  rq.pop_min();
  EXPECT_EQ(rq.min_vruntime(), msec(10));
  auto b = make_task(2, msec(4));
  rq.enqueue(*b);
  rq.pop_min();
  // min_vruntime must never go backwards.
  EXPECT_EQ(rq.min_vruntime(), msec(10));
}

TEST(RunqueueTest, PopEmptyRejected) {
  Runqueue rq;
  EXPECT_THROW(rq.pop_min(), InvariantViolation);
  EXPECT_EQ(rq.peek_min(), nullptr);
  EXPECT_EQ(rq.peek_max(), nullptr);
}

TEST(RunqueueTest, ForEachVisitsEveryQueuedTaskOnce) {
  // for_each is heap-order (unordered); it must still visit each task
  // exactly once.
  Runqueue rq;
  auto a = make_task(1, msec(3));
  auto b = make_task(2, msec(1));
  auto c = make_task(3, msec(2));
  rq.enqueue(*a);
  rq.enqueue(*b);
  rq.enqueue(*c);
  std::vector<Task*> visited;
  rq.for_each([&](Task& t) { visited.push_back(&t); });
  std::sort(visited.begin(), visited.end());
  std::vector<Task*> expected{a.get(), b.get(), c.get()};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(visited, expected);
}

TEST(RunqueueTest, MaxWherePicksLargestEligibleKey) {
  Runqueue rq;
  auto a = make_task(1, msec(3));
  auto b = make_task(2, msec(9));
  auto c = make_task(3, msec(5));
  rq.enqueue(*a);
  rq.enqueue(*b);
  rq.enqueue(*c);
  EXPECT_EQ(rq.max_where([](const Task&) { return true; }), b.get());
  EXPECT_EQ(rq.max_where([&](const Task& t) { return &t != b.get(); }),
            c.get());
  EXPECT_EQ(rq.max_where([](const Task&) { return false; }), nullptr);
}

TEST(RunqueueTest, MaxWhereBreaksVruntimeTiesById) {
  Runqueue rq;
  auto a = make_task(9, msec(4));
  auto b = make_task(2, msec(4));
  rq.enqueue(*a);
  rq.enqueue(*b);
  // Equal vruntime: the larger id is the larger (vruntime, id) key.
  EXPECT_EQ(rq.max_where([](const Task&) { return true; }), a.get());
}

// Randomized differential test: the indexed flat heap must agree with a
// std::set<(vruntime, id)> reference model (the historical
// implementation) under arbitrary interleavings of enqueue, middle
// removal, and pop_min — including equal-vruntime ties.
TEST(RunqueuePropertyTest, MatchesSetModelUnderRandomOps) {
  for (const std::uint64_t seed : {1ull, 42ull, 987654ull}) {
    Rng rng(seed);
    Runqueue rq;
    using Key = std::pair<SimDuration, Task::Id>;
    std::set<Key> model;
    std::vector<std::unique_ptr<Task>> tasks;
    for (Task::Id id = 0; id < 48; ++id) {
      // Few distinct vruntime values so ties are common.
      tasks.push_back(make_task(id, msec(rng.uniform_int(0, 7))));
    }
    std::vector<Task*> queued;
    std::vector<Task*> idle;
    for (auto& t : tasks) idle.push_back(t.get());

    auto pick = [&](std::vector<Task*>& from) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1));
      Task* task = from[i];
      from[i] = from.back();
      from.pop_back();
      return task;
    };
    for (int step = 0; step < 4000; ++step) {
      const std::int64_t op = rng.uniform_int(0, 2);
      if (op == 0 && !idle.empty()) {
        Task* task = pick(idle);
        task->vruntime = msec(rng.uniform_int(0, 7));
        rq.enqueue(*task);
        model.insert({task->vruntime, task->id()});
        queued.push_back(task);
      } else if (op == 1 && !queued.empty()) {
        Task* task = pick(queued);
        rq.remove(*task);
        model.erase({task->vruntime, task->id()});
        idle.push_back(task);
      } else if (op == 2 && !queued.empty()) {
        Task& popped = rq.pop_min();
        const Key expected = *model.begin();
        ASSERT_EQ(popped.vruntime, expected.first);
        ASSERT_EQ(popped.id(), expected.second);
        model.erase(model.begin());
        queued.erase(std::find(queued.begin(), queued.end(), &popped));
        idle.push_back(&popped);
      }
      ASSERT_EQ(rq.size(), static_cast<int>(model.size()));
      if (!model.empty()) {
        ASSERT_EQ(rq.peek_min()->id(), model.begin()->second);
        ASSERT_EQ(rq.peek_max()->id(), model.rbegin()->second);
      }
      for (Task* task : queued) ASSERT_TRUE(rq.contains(*task));
      for (Task* task : idle) ASSERT_FALSE(rq.contains(*task));
    }
    // Drain: the full pop order must match the model's sorted order.
    while (!model.empty()) {
      Task& popped = rq.pop_min();
      ASSERT_EQ((Key{popped.vruntime, popped.id()}), *model.begin());
      model.erase(model.begin());
    }
    EXPECT_TRUE(rq.empty());
  }
}

}  // namespace
}  // namespace pinsim::os
