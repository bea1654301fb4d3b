#include "os/task.hpp"

#include <algorithm>
#include <utility>

#include "os/cgroup.hpp"
#include "util/check.hpp"

namespace pinsim::os {

const char* to_string(TaskState state) {
  switch (state) {
    case TaskState::Created:
      return "created";
    case TaskState::Runnable:
      return "runnable";
    case TaskState::Running:
      return "running";
    case TaskState::Blocked:
      return "blocked";
    case TaskState::Throttled:
      return "throttled";
    case TaskState::Finished:
      return "finished";
  }
  return "unknown";
}

Action Action::compute(SimDuration work) {
  PINSIM_CHECK(work >= 0);
  Action action;
  action.kind = Kind::Compute;
  action.work = work;
  return action;
}

Action Action::io(hw::IoDevice& device, hw::IoRequest request) {
  Action action;
  action.kind = Kind::Io;
  action.device = &device;
  action.request = request;
  return action;
}

Action Action::recv() {
  Action action;
  action.kind = Kind::Recv;
  return action;
}

Action Action::recv_spin() {
  Action action;
  action.kind = Kind::Recv;
  action.spin = true;
  return action;
}

Action Action::post(Task& target, int count) {
  PINSIM_CHECK(count >= 1);
  Action action;
  action.kind = Kind::Post;
  action.target = &target;
  action.count = count;
  return action;
}

Action Action::sleep_for(SimDuration duration) {
  PINSIM_CHECK(duration >= 0);
  Action action;
  action.kind = Kind::Sleep;
  action.duration = duration;
  return action;
}

Action Action::exit() {
  Action action;
  action.kind = Kind::Exit;
  return action;
}

Task::Task(Id id, std::string name, std::unique_ptr<TaskDriver> driver)
    : id_(id), name_(std::move(name)), driver_(std::move(driver)) {
  PINSIM_CHECK(driver_ != nullptr);
}

Task& TaskTable::add(std::string name, std::unique_ptr<TaskDriver> driver) {
  tasks_.push_back(
      std::make_unique<Task>(next_id_++, std::move(name), std::move(driver)));
  return *tasks_.back();
}

void TaskTable::exit(Task& task) {
  PINSIM_CHECK(task.state == TaskState::Finished);
  if (task.on_exit) task.on_exit(task);
  // Queued only now: the callback may itself create a task (and so
  // reap), and must not free the task it is running for.
  if (task.detached) exited_.push_back(&task);
}

std::int64_t TaskTable::reap() {
  if (exited_.empty()) return 0;
  for (Task* task : exited_) {
    if (task->cgroup != nullptr) task->cgroup->remove_member(*task);
  }
  // tasks_ is in id order; exits arrive in any order.
  std::sort(exited_.begin(), exited_.end(),
            [](const Task* a, const Task* b) { return a->id() < b->id(); });
  auto next = exited_.begin();
  for (std::unique_ptr<Task>& slot : tasks_) {
    if (next == exited_.end()) break;
    if (slot.get() == *next) {
      slot.reset();
      ++next;
    }
  }
  PINSIM_CHECK_MSG(next == exited_.end(), "reaped a task of another table");
  tasks_.erase(std::remove(tasks_.begin(), tasks_.end(), nullptr),
               tasks_.end());
  const auto reaped = static_cast<std::int64_t>(exited_.size());
  exited_.clear();
  return reaped;
}

}  // namespace pinsim::os
