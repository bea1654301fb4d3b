// Execution platforms (paper Table III / Figure 2).
//
// A Platform deploys workload tasks onto a Host in one of the four
// configurations the paper evaluates — bare-metal (BM), KVM virtual
// machine (VM), Docker-style container (CN), container inside a VM
// (VMCN) — in either the vanilla (host-scheduled) or pinned (cpuset)
// CPU-provisioning mode. Workloads are written once against this
// interface and run unmodified on every platform; what differs is what
// each action costs, which is the paper's subject.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "hw/cost_model.hpp"
#include "hw/disk.hpp"
#include "hw/topology.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "virt/instance_type.hpp"

namespace pinsim::virt {

enum class PlatformKind { BareMetal, Vm, Container, VmContainer };
enum class CpuMode { Vanilla, Pinned };

const char* to_string(PlatformKind kind);
const char* to_string(CpuMode mode);

struct PlatformSpec {
  PlatformKind kind = PlatformKind::BareMetal;
  CpuMode mode = CpuMode::Vanilla;
  InstanceType instance;

  /// "Pinned CN", "Vanilla VMCN", "Vanilla BM" — the series labels used
  /// throughout the paper's figures.
  std::string label() const;
};

/// A physical machine for one simulation run: engine, topology, host
/// kernel, and the shared devices (RAID1 disk, NIC).
class Host {
 public:
  /// Solo host: owns a private sim::Engine.
  Host(hw::Topology topology, hw::CostModel costs, std::uint64_t seed);

  /// Host on a borrowed engine: every event of this machine (kernel,
  /// guest kernels, devices) runs on `engine`, which must outlive the
  /// host. cluster::Fleet runs all of its hosts on one shared engine.
  Host(sim::Engine& engine, hw::Topology topology, hw::CostModel costs,
       std::uint64_t seed);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  sim::Engine& engine() { return *engine_; }
  os::Kernel& kernel() { return kernel_; }
  const hw::Topology& topology() const { return topology_; }
  const hw::CostModel& costs() const { return costs_; }
  hw::IoDevice& disk() { return disk_; }
  hw::IoDevice& nic() { return nic_; }
  Rng fork_rng() { return rng_.fork(); }

 private:
  hw::Topology topology_;
  hw::CostModel costs_;
  /// Solo hosts own their engine; the others borrow one. `engine_`
  /// points at whichever applies and is what every accessor and member
  /// initializer uses. Declared before kernel_ and the devices, which
  /// capture the engine at construction.
  std::unique_ptr<sim::Engine> owned_engine_;
  sim::Engine* engine_;
  Rng rng_;
  os::Kernel kernel_;
  hw::IoDevice disk_;
  hw::IoDevice nic_;
};

/// Parameters for a workload task spawned onto a platform.
struct WorkTaskConfig {
  std::string name = "task";
  double working_set_mb = 5.0;
  double weight = 1.0;
  std::function<void(os::Task&)> on_exit;
  /// The spawner never reads the task after `on_exit` returns, so the
  /// executor may free it (os::TaskConfig::detached).
  bool detached = false;
  /// First-touch NUMA home shared between sibling threads of one
  /// process. Leave null for a private per-task home; host platforms
  /// allocate one automatically. (Guest tasks are NUMA-exempt: the
  /// hypervisor calibration covers guest memory placement.)
  std::shared_ptr<int> numa_home;
  /// How strongly the hypervisor's compute inflation applies to this
  /// task (1 = fully, e.g. the memory-intensive FFmpeg encode the paper
  /// measures at ~2x; smaller for workloads whose service time is
  /// dominated by IO paths rather than user-space compute).
  double guest_inflation_sensitivity = 1.0;
  /// Network-born request tasks start where the device interrupt ran.
  bool network_born = false;
};

class Platform {
 public:
  explicit Platform(Host& host, PlatformSpec spec)
      : host_(&host), spec_(std::move(spec)) {}
  virtual ~Platform() = default;

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  /// Create a task governed by this platform's executor (host kernel or
  /// guest kernel) and resource controls (cgroup, affinity, pinning).
  virtual os::Task& spawn(WorkTaskConfig config,
                          std::unique_ptr<os::TaskDriver> driver) = 0;

  /// Make a spawned task runnable now (workload arrival).
  virtual void start(os::Task& task) = 0;

  /// Deliver `count` external messages to a task (load generators).
  virtual void post(os::Task& task, int count = 1) = 0;

  /// Number of cpus the application sees on this platform.
  virtual int visible_cpus() const = 0;

  // Devices as named by workloads. On VM platforms the access path goes
  // through virtio (the executor charges it); the devices themselves are
  // the host's.
  hw::IoDevice& disk() { return host_->disk(); }
  hw::IoDevice& nic() { return host_->nic(); }

  Host& host() { return *host_; }
  sim::Engine& engine() { return host_->engine(); }
  const PlatformSpec& spec() const { return spec_; }

 protected:
  Host* host_;
  PlatformSpec spec_;
};

}  // namespace pinsim::virt
