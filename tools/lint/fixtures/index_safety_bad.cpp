// Fixture: raw [] use of the guarded back-pointer fields outside the
// owning files. Analyzed as if at src/os/fixture_index_safety_bad.cpp
// (not an owner) and at src/os/runqueue.cpp (the rq_index owner, where
// the same code is legal).
#include <vector>

namespace fixture {

struct Task {
  int rq_index = -1;
  int park_index = -1;
};

struct Poker {
  std::vector<Task*> heap_;
  std::vector<unsigned> links_;
  std::vector<Task*> parked_;

  Task* peek(const Task& t) {
    return heap_[t.rq_index];  // expect: index-safety
  }
  unsigned slot(int node) {
    return links_[node];  // expect: index-safety
  }
  Task* parked(Task* t) {
    return parked_[t->park_index];  // expect: index-safety
  }
};

// The sharded-engine mailbox rows and the fleet's host->shard map are
// guarded the same way (owners: sharded_engine.*, cluster/fleet.*).
struct ShardPoker {
  std::vector<int> outbox_;
  std::vector<int> host_shard_;

  int box(int src) {
    return outbox_[src];  // expect: index-safety
  }
  int home(int host) {
    return host_shard_[host];  // expect: index-safety
  }
};

// Cgroup membership slots are guarded like the parked list (owner:
// cgroup.cpp).
struct MemberTask {
  int member_index = -1;
};

struct MemberPoker {
  std::vector<MemberTask*> members_;

  MemberTask* member(const MemberTask& t) {
    return members_[t.member_index];  // expect: index-safety
  }
};

}  // namespace fixture
