// steal_candidate (the steal/balance scan with the all-throttled skip)
// against the plain max_where(can_migrate_to) scan it short-cuts, and
// Runqueue::ungrouped() against a recount: randomized runqueues mixing
// ungrouped tasks and members of 1-3 groups, with random affinity,
// cpuset, quota and throttle phase, checked for every cpu.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "hw/cost_model.hpp"
#include "hw/cpuset.hpp"
#include "os/cgroup.hpp"
#include "os/runqueue.hpp"
#include "os/task.hpp"
#include "util/rng.hpp"

namespace pinsim::os {
namespace {

constexpr int kCpus = 8;
constexpr int kQueues = 4;

std::unique_ptr<TaskDriver> exit_now() {
  return std::make_unique<LambdaDriver>([](Task&) { return Action::exit(); });
}

/// Empty (no restriction) with probability 1/3, else a random subset.
hw::CpuSet random_subset(Rng& rng) {
  hw::CpuSet subset;
  if (rng.uniform_int(0, 2) == 0) return subset;
  for (hw::CpuId cpu = 0; cpu < kCpus; ++cpu) {
    if (rng.uniform_int(0, 1) == 0) subset.add(cpu);
  }
  return subset;
}

/// The scan every steal and balance pass ran before the skip.
Task* oracle(const Runqueue& rq, hw::CpuId cpu) {
  return rq.max_where(
      [cpu](const Task& task) { return can_migrate_to(task, cpu); });
}

int recount_ungrouped(const Runqueue& rq) {
  int count = 0;
  rq.for_each([&count](const Task& task) {
    if (task.cgroup == nullptr) ++count;
  });
  return count;
}

/// One executor's worth of state: its groups, its task table and a few
/// runqueues holding some of its tasks.
struct Executor {
  std::vector<std::unique_ptr<Cgroup>> groups;
  TaskTable table;
  std::vector<Runqueue> queues = std::vector<Runqueue>(kQueues);
  std::vector<Task*> idle;  // created, not queued

  Task& make_task(Rng& rng, int grouped_percent) {
    Cgroup* group = nullptr;
    if (rng.uniform_int(0, 99) < grouped_percent) {
      group = groups[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<std::int64_t>(groups.size()) - 1))]
                  .get();
    }
    hw::CpuSet affinity = random_subset(rng);
    // An affinity disjoint from the group's cpuset has nowhere to run
    // (create_task rejects it); drop it instead.
    if (group != nullptr && !group->cpuset().empty() && !affinity.empty() &&
        (affinity & group->cpuset()).empty()) {
      affinity = hw::CpuSet();
    }
    Task& task = table.add("t", exit_now());
    task.affinity = affinity;
    task.allowed =
        placement_set("t", hw::CpuSet::first_n(kCpus), affinity, group);
    task.detached = true;
    // Few distinct values, so vruntime ties fall back to the id.
    task.vruntime = msec(rng.uniform_int(0, 20));
    if (group != nullptr) group->add_member(task);
    return task;
  }
};

void expect_counts_match(const Executor& ex) {
  for (const Runqueue& rq : ex.queues) {
    ASSERT_EQ(rq.ungrouped(), recount_ungrouped(rq));
  }
}

TEST(StealCandidateTest, MatchesMaxWhereOracleAndUngroupedRecount) {
  hw::CostModel costs;
  Rng rng(1606);
  // Skips taken (every group throttled, nothing ungrouped), and found
  // candidates where the skip must NOT fire: every group throttled but
  // an ungrouped task qualifies, or nothing ungrouped but some group is
  // throttled and another is open here.
  int skipped = 0;
  int ungrouped_rescues = 0;
  int open_group_rescues = 0;
  int found = 0;
  for (int round = 0; round < 60; ++round) {
    Executor ex;
    const int group_count = static_cast<int>(rng.uniform_int(1, 3));
    for (int g = 0; g < group_count; ++g) {
      // Mostly small quotas that drain fast; some unlimited groups,
      // which are never throttled.
      const double limit =
          rng.uniform_int(0, 4) == 0 ? 0.0 : rng.uniform(0.1, 1.0);
      ex.groups.push_back(std::make_unique<Cgroup>(
          Cgroup::Config{"g" + std::to_string(g), limit, random_subset(rng)},
          costs));
    }
    // A third of the rounds queue only grouped tasks.
    const int grouped_percent =
        round % 3 == 0 ? 100 : static_cast<int>(rng.uniform_int(30, 95));
    for (int t = 0; t < 40; ++t) {
      Task& task = ex.make_task(rng, grouped_percent);
      if (rng.uniform_int(0, 3) == 0) {
        ex.idle.push_back(&task);
        continue;
      }
      Runqueue& rq = ex.queues[static_cast<std::size_t>(
          rng.uniform_int(0, kQueues - 1))];
      rq.enqueue(task);
      ASSERT_EQ(rq.ungrouped(), recount_ungrouped(rq));
    }

    // Throttle phases: fresh; drained by charges on random cpus (some
    // keep a local slice, so a group is throttled on some cpus only);
    // drained again after queue churn; refilled.
    for (int phase = 0; phase < 4; ++phase) {
      if (phase == 1 || phase == 2) {
        for (auto& group : ex.groups) {
          const int charges = static_cast<int>(rng.uniform_int(0, 40));
          for (int c = 0; c < charges; ++c) {
            const auto cpu =
                static_cast<hw::CpuId>(rng.uniform_int(0, kCpus - 1));
            group->charge(cpu, usec(rng.uniform_int(100, 9000)));
          }
        }
      } else if (phase == 3) {
        for (auto& group : ex.groups) group->refill_period();
      }
      for (const Runqueue& rq : ex.queues) {
        for (hw::CpuId cpu = 0; cpu < kCpus; ++cpu) {
          Task* expected = oracle(rq, cpu);
          ASSERT_EQ(steal_candidate(rq, cpu, ex.groups), expected)
              << "round " << round << " phase " << phase << " cpu " << cpu;
          if (expected != nullptr) ++found;
          const bool all_throttled =
              std::all_of(ex.groups.begin(), ex.groups.end(),
                          [cpu](const std::unique_ptr<Cgroup>& group) {
                            return group->throttled_on(cpu);
                          });
          if (rq.ungrouped() == 0 && all_throttled && !rq.empty()) ++skipped;
          if (expected == nullptr) continue;
          if (all_throttled) ++ungrouped_rescues;
          if (rq.ungrouped() == 0 && !all_throttled &&
              std::any_of(ex.groups.begin(), ex.groups.end(),
                          [cpu](const std::unique_ptr<Cgroup>& group) {
                            return group->throttled_on(cpu);
                          })) {
            ++open_group_rescues;
          }
        }
      }

      // Churn between phases: pop minima, remove from the middle,
      // requeue idle tasks, then reap exited ones that are not queued.
      for (int op = 0; op < 20; ++op) {
        Runqueue& rq = ex.queues[static_cast<std::size_t>(
            rng.uniform_int(0, kQueues - 1))];
        switch (rng.uniform_int(0, 2)) {
          case 0:
            if (!rq.empty()) ex.idle.push_back(&rq.pop_min());
            break;
          case 1:
            if (!rq.empty()) {
              Task* victim = oracle(rq, static_cast<hw::CpuId>(
                                            rng.uniform_int(0, kCpus - 1)));
              if (victim == nullptr) victim = rq.peek_max();
              rq.remove(*victim);
              ex.idle.push_back(victim);
            }
            break;
          default:
            if (!ex.idle.empty()) {
              rq.enqueue(*ex.idle.back());
              ex.idle.pop_back();
            }
            break;
        }
        expect_counts_match(ex);
      }
      const std::size_t reap = std::min<std::size_t>(ex.idle.size(), 3);
      for (std::size_t r = 0; r < reap; ++r) {
        Task* task = ex.idle.back();
        ex.idle.pop_back();
        task->state = TaskState::Finished;
        ex.table.exit(*task);
      }
      ex.table.reap();
      expect_counts_match(ex);
    }
  }
  // The random draws must reach the skip and both ways out of it.
  EXPECT_GT(skipped, 50);
  EXPECT_GT(ungrouped_rescues, 50);
  EXPECT_GT(open_group_rescues, 50);
  EXPECT_GT(found, 500);
}

TEST(StealCandidateTest, SkipsOnlyWhenNothingUngroupedAndAllGroupsThrottled) {
  hw::CostModel costs;
  Executor ex;
  ex.groups.push_back(
      std::make_unique<Cgroup>(Cgroup::Config{"a", 0.1, {}}, costs));
  ex.groups.push_back(
      std::make_unique<Cgroup>(Cgroup::Config{"b", 0.1, {}}, costs));
  Task& a = ex.table.add("a", exit_now());
  Task& b = ex.table.add("b", exit_now());
  Task& loose = ex.table.add("loose", exit_now());
  for (Task* task : {&a, &b, &loose}) {
    task->allowed = hw::CpuSet::first_n(kCpus);
  }
  ex.groups[0]->add_member(a);
  ex.groups[1]->add_member(b);
  Runqueue& rq = ex.queues[0];
  rq.enqueue(a);
  rq.enqueue(b);
  EXPECT_EQ(rq.ungrouped(), 0);

  // Drain group a only: b still qualifies everywhere.
  ex.groups[0]->charge(0, msec(50));
  ASSERT_TRUE(ex.groups[0]->throttled_on(1));
  EXPECT_EQ(steal_candidate(rq, 1, ex.groups), &b);

  // Drain b too: nothing qualifies on a cpu without a local slice.
  ex.groups[1]->charge(0, msec(50));
  ASSERT_TRUE(ex.groups[1]->throttled_on(1));
  EXPECT_EQ(steal_candidate(rq, 1, ex.groups), nullptr);

  // An ungrouped task is still stealable.
  rq.enqueue(loose);
  EXPECT_EQ(rq.ungrouped(), 1);
  EXPECT_EQ(steal_candidate(rq, 1, ex.groups), &loose);
  rq.remove(loose);
  EXPECT_EQ(rq.ungrouped(), 0);
  EXPECT_EQ(steal_candidate(rq, 1, ex.groups), nullptr);
}

}  // namespace
}  // namespace pinsim::os
