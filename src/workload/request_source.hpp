// Request-granularity serving: the open-ended half of the Deployment
// split.
//
// A workload::Deployment (PR 5) runs a fixed batch to completion; a
// RequestSource is its serving-side counterpart. Deployed once onto a
// platform, it accepts externally injected requests one at a time and
// reports each completion through a callback — the unit of work is the
// request, and the *caller* owns arrival timing, routing, and latency
// measurement (cluster::Fleet does all three from its front end). The
// source owns only how a request executes on its platform, reusing the
// calibrated fig-5/fig-6 service recipes.
//
// Two serving models cover the paper's request-serving applications:
//
//   WordPress  one task per request (Apache process-per-request):
//              inject() spawns a network-born task running the fig-5
//              socket/parse/db/render recipe and the task's exit is the
//              completion;
//   Cassandra  a resident server-thread pool spawned at deployment:
//              inject() round-robins the op to a worker's queue and
//              posts a message; the worker loops recv -> parse ->
//              commit-log/SSTable IO -> respond forever (fig-6 recipe
//              without the fixed op budget).
//
// Determinism: a source derives each request's service randomness by
// forking its own Rng at inject() time. Injections reach a host in a
// deterministic order (cluster::Fleet schedules them on its one
// engine), so a (config, seed) pair replays the same per-request
// service times on every run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "util/rng.hpp"
#include "workload/cassandra.hpp"
#include "workload/profiles.hpp"
#include "workload/wordpress.hpp"

namespace pinsim::virt {
class Platform;
}  // namespace pinsim::virt

namespace pinsim::workload {

class RequestSource {
 public:
  using Done = std::function<void()>;

  virtual ~RequestSource() = default;

  virtual const char* name() const = 0;

  /// Begin serving one request now. Must be called at a simulated
  /// instant on the platform's engine (the fleet schedules the call one
  /// dispatch leg after the arrival); `done` runs at the instant the
  /// request completes.
  virtual void inject(Done done) = 0;

  /// Requests accepted and not yet completed.
  virtual int outstanding() const = 0;

  /// Requests completed since deployment.
  virtual std::int64_t served() const = 0;
};

/// The source must not outlive `platform`. Config knobs keep their
/// fig-5/fig-6 meanings; batch-only fields (requests, operations,
/// ramp/submit windows, horizon) are ignored.
std::unique_ptr<RequestSource> make_wordpress_source(
    virt::Platform& platform, const WordPressConfig& config, Rng rng);
std::unique_ptr<RequestSource> make_cassandra_source(
    virt::Platform& platform, const CassandraConfig& config, Rng rng);

/// Serving source for an application class with default tuning. Only
/// the request-serving classes are supported (IoWeb -> WordPress,
/// IoNoSql -> Cassandra); others CHECK-fail.
std::unique_ptr<RequestSource> make_request_source(AppClass cls,
                                                   virt::Platform& platform,
                                                   Rng rng);

}  // namespace pinsim::workload
