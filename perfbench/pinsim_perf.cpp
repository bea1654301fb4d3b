// pinsim_perf: runs one benchmark workload through pinsim's public API
// for a fixed time and prints its metrics (see README.md).
//
//   pinsim_perf --workload NAME --seed N --seconds S --trace 0|1
//               [--expect-digest HEX] [--commit ID] [--record PATH]
//               [--spans PATH] [--cells PATH]
//
// The run repeats whole passes over the workload until the next one
// would end after --seconds (at least three passes, four when traced)
// and reports medians over passes. With --trace 1 every other pass is
// traced: per-layer metrics come from the traced passes, end-to-end
// metrics only ever from untraced ones. The last line of stdout is one
// JSON object with the keys correct, attempted, failed and metrics.
// Exit status: 0 when every check passed, 1 when a check failed, 2 on
// bad arguments.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perf::Counters;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::optional<std::uint64_t> expect_digest;
  std::string commit = "unknown";
  std::string record_path;
  std::string spans_path;
  std::string cells_path;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "pinsim_perf: " << message << "\n"
            << "usage: pinsim_perf --workload NAME --seed N --seconds S "
               "--trace 0|1 [--expect-digest HEX] [--commit ID] "
               "[--record PATH] [--spans PATH] [--cells PATH]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text,
                        int base = 10) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
  if (text.empty() || ec != std::errc() || ptr != end) {
    usage_error(flag + " expects a non-negative whole number, got '" + text +
                "'");
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t seconds = parse_u64(flag, value);
      if (seconds < 1 || seconds > 3600) {
        usage_error("--seconds must be between 1 and 3600");
      }
      options.seconds = static_cast<double>(seconds);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--expect-digest") {
      options.expect_digest =
          parse_u64(flag, value.rfind("0x", 0) == 0 ? value.substr(2) : value,
                    16);
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--record") {
      options.record_path = value;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else if (flag == "--cells") {
      options.cells_path = value;
    } else {
      usage_error("unknown argument " + flag);
    }
  }
  if (!have_workload) usage_error("--workload is required");
  const auto& names = perf::workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    std::string known;
    for (const std::string& name : names) known += " " + name;
    usage_error("unknown workload '" + options.workload + "' (known:" +
                known + ")");
  }
  return options;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::string number(double value) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc() ? std::string(buffer, ptr) : "0";
}

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << "0x" << std::hex << value;
  return os.str();
}

std::string quoted(const std::string& text) {
  std::string json = "\"";
  json += pinsim::core::json_escape(text);
  json += '"';
  return json;
}

struct Context {
  long nproc = 0;
  int affinity_cpus = 0;
  std::string build_type = PERF_BUILD_TYPE;
  std::string compiler = PERF_COMPILER;
  std::string commit;

  std::string json() const {
    return "{\"nproc\": " + std::to_string(nproc) +
           ", \"affinity_cpus\": " + std::to_string(affinity_cpus) +
           ", \"build_type\": " + quoted(build_type) +
           ", \"compiler\": " + quoted(compiler) +
           ", \"commit\": " + quoted(commit) + "}";
  }
};

Context machine_context(const std::string& commit) {
  Context context;
  context.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    context.affinity_cpus = CPU_COUNT(&set);
  }
  context.commit = commit;
  return context;
}

/// Peak resident memory of this process image. getrusage's ru_maxrss
/// would also count the image that exec'd this one (run.py's Python).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// One pass over the workload.
struct Pass {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double setup_s = 0.0;
  std::uint64_t digest = 0;
  Counters counters{};
  std::map<std::string, double> span_s;  // traced: summed span time by name
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer values of one traced pass, keyed by metric name.
std::map<std::string, double> layer_values(const Pass& pass, int runs) {
  std::map<std::string, double> values;
  const Counters& c = pass.counters;
  for (int k = 0; k < perf::kCounterCount; ++k) {
    if (k == perf::kCompleted) continue;
    values[perf::kCounterNames[static_cast<std::size_t>(k)]] =
        static_cast<double>(c[static_cast<std::size_t>(k)]);
  }
  auto span = [&pass](const char* name) {
    const auto it = pass.span_s.find(name);
    return it == pass.span_s.end() ? 0.0 : it->second;
  };
  values["hw.topology_s"] = span("hw.topology");
  values["virt.host_build_s"] = span("virt.host");
  values["virt.platform_build_s"] = span("virt.platform");
  values["workload.deploy_s"] = span("workload.deploy");
  values["workload.drive_s"] = span("workload.drive");
  values["workload.collect_s"] = span("workload.collect");
  values["workload.run_s"] = span("workload.run");
  values["cluster.run_s"] = span("cluster.run");
  values["core.report_s"] = span("core.report");
  // Host time per simulated event, over the spans that drive an engine.
  const double events = static_cast<double>(c[perf::kEventsFired]);
  const double driving_s =
      span("workload.drive") + span("workload.run") + span("cluster.run");
  values["sim.ns_per_event"] = events > 0 ? 1e9 * driving_s / events : 0.0;
  const double dispatched = static_cast<double>(c[perf::kDispatched]);
  values["cluster.ns_per_request"] =
      dispatched > 0 ? 1e9 * span("cluster.run") / dispatched : 0.0;
  values["cluster.completion_ratio"] =
      dispatched > 0 ? static_cast<double>(c[perf::kCompleted]) / dispatched
                     : 0.0;
  values["core.runs"] = runs;
  return values;
}

std::string layer_unit(const std::string& name) {
  if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0) {
    return "s";
  }
  if (name == "sim.ns_per_event" || name == "cluster.ns_per_request") {
    return "ns";
  }
  if (name == "cluster.completion_ratio") return "ratio";
  return "count";
}

/// Checks a traced pass's spans: every child lies inside its parent and
/// the children's durations fit in the parent's. Also sums span time by
/// name and collects the duration of each `run` span.
bool check_spans(const std::vector<perf::Span>& spans, std::size_t first,
                 Pass& pass, std::vector<double>& run_ms) {
  bool ok = true;
  std::vector<std::int64_t> child_ns(spans.size() - first, 0);
  for (std::size_t i = first; i < spans.size(); ++i) {
    const perf::Span& span = spans[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    ok = ok && duration >= 0;
    pass.span_s[span.name] += 1e-9 * static_cast<double>(duration);
    if (std::strcmp(span.name, "run") == 0) run_ms.push_back(1e-6 * duration);
    if (span.parent < 0) continue;
    const std::size_t parent = static_cast<std::size_t>(span.parent);
    ok = ok && parent >= first && spans[parent].start_ns <= span.start_ns &&
         span.end_ns <= spans[parent].end_ns;
    if (parent >= first) child_ns[parent - first] += duration;
  }
  for (std::size_t i = first; i < spans.size(); ++i) {
    ok = ok && child_ns[i - first] <= spans[i].end_ns - spans[i].start_ns;
  }
  return ok;
}

void write_spans(const std::string& path, const std::vector<perf::Span>& spans) {
  std::ofstream out(path);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perf::Span& span = spans[i];
    out << "{\"pass\": " << span.pass << ", \"id\": " << i
        << ", \"parent\": " << span.parent << ", \"name\": \"" << span.name
        << "\", \"start_ns\": " << span.start_ns - origin
        << ", \"end_ns\": " << span.end_ns - origin << "}\n";
  }
  if (!out) std::cerr << "pinsim_perf: cannot write spans to " << path << "\n";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string json = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += quoted(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": " +
            quoted(metrics[i].unit) + "}";
  }
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  const Context context = machine_context(options.commit);
  std::unique_ptr<perf::Workload> workload =
      perf::make_workload(options.workload, options.seed);
  const int runs = workload->runs_per_pass();
  const int min_passes = options.trace ? 4 : 3;

  perf::Recorder recorder;
  std::vector<Pass> passes;
  std::vector<double> run_ms;  // every traced run span, pooled
  std::vector<std::uint64_t> reference;  // per-run digests of pass 0
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool spans_ok = true;
  std::string first_error;
  std::ostringstream report;
  const std::int64_t start_ns = perf::now_ns();

  for (int p = 0;; ++p) {
    Pass pass;
    pass.traced = options.trace && p % 2 == 1;
    recorder.begin_pass(p, pass.traced);
    const std::size_t first_span = recorder.spans().size();
    report.str("");
    std::vector<std::uint64_t> digests(static_cast<std::size_t>(runs), 0);
    std::vector<bool> ok(static_cast<std::size_t>(runs), true);

    const double cpu_start = cpu_seconds();
    const std::int64_t wall_start = perf::now_ns();
    for (int i = 0; i < runs; ++i) {
      const std::size_t k = static_cast<std::size_t>(i);
      try {
        const perf::RunOutput out = workload->run(i, recorder, pass.traced);
        digests[k] = out.digest;
        ok[k] = out.sane;
        if (!out.sane && first_error.empty()) {
          first_error = "run " + std::to_string(i) + ": implausible results";
        }
        if (pass.traced) perf::accumulate(pass.counters, out.counters);
      } catch (const std::exception& error) {
        ok[k] = false;
        if (first_error.empty()) {
          first_error = "run " + std::to_string(i) + " threw: " + error.what();
        }
      }
    }
    try {
      perf::Scope span(recorder, "core.report");
      workload->report(report);
    } catch (const std::exception& error) {
      std::fill(ok.begin(), ok.end(), false);
      if (first_error.empty()) first_error = std::string("report threw: ") + error.what();
    }
    pass.wall_s = 1e-9 * static_cast<double>(perf::now_ns() - wall_start);
    pass.cpu_s = cpu_seconds() - cpu_start;
    pass.setup_s = 1e-9 * static_cast<double>(recorder.setup_ns());

    perf::Fnv1a digest;
    for (std::uint64_t run_digest : digests) digest.u64(run_digest);
    pass.digest = digest.value();
    if (options.expect_digest && pass.digest != *options.expect_digest) {
      std::fill(ok.begin(), ok.end(), false);
      if (first_error.empty()) {
        first_error = "pass digest " + hex(pass.digest) + " != expected " +
                      hex(*options.expect_digest);
      }
    }
    if (reference.empty()) {
      reference = digests;
    } else {
      for (std::size_t k = 0; k < digests.size(); ++k) {
        if (digests[k] == reference[k]) continue;
        ok[k] = false;
        if (first_error.empty()) {
          first_error = "run " + std::to_string(k) + " of pass " +
                        std::to_string(p) + " differs from pass 0";
        }
      }
    }
    attempted += runs;
    failed += std::count(ok.begin(), ok.end(), false);
    if (pass.traced) {
      spans_ok = check_spans(recorder.spans(), first_span, pass, run_ms) &&
                 spans_ok;
    }
    if (p == 0 && !options.cells_path.empty()) {
      std::ofstream out(options.cells_path);
      pinsim::core::BenchRunMeta meta;
      meta.artifact = options.workload;
      meta.repetitions = workload->reps();
      pinsim::core::write_bench_json(out, meta, workload->figures());
    }
    passes.push_back(std::move(pass));

    std::vector<double> walls;
    for (const Pass& done : passes) walls.push_back(done.wall_s);
    const double elapsed = 1e-9 * static_cast<double>(perf::now_ns() - start_ns);
    if (p + 1 >= min_passes && elapsed + median(walls) > options.seconds) break;
  }

  // End-to-end metrics, from the untraced passes only.
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> setup;
  std::vector<const Pass*> traced;
  for (const Pass& pass : passes) {
    if (pass.traced) {
      traced.push_back(&pass);
      continue;
    }
    wall.push_back(pass.wall_s);
    cpu.push_back(pass.cpu_s);
    setup.push_back(pass.setup_s);
  }
  const std::vector<Metric> end_to_end = {
      {"wall_s", median(wall), "s"},
      {"cpu_s", median(cpu), "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  const double fail_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);

  // Per-layer metrics: medians over the traced passes, plus the pooled
  // distribution of run times.
  std::vector<Metric> per_layer;
  bool traced_digest_ok = true;
  bool completion_ok = true;
  if (options.trace) {
    std::map<std::string, std::vector<double>> series;
    for (const Pass* pass : traced) {
      for (const auto& [name, value] : layer_values(*pass, runs)) {
        series[name].push_back(value);
      }
      traced_digest_ok = traced_digest_ok && pass->digest == passes[0].digest;
    }
    for (const auto& [name, values] : series) {
      per_layer.push_back({name, median(values), layer_unit(name)});
    }
    const double dispatched = median(series["cluster.dispatched"]);
    const double completion = median(series["cluster.completion_ratio"]);
    completion_ok = dispatched == 0.0 || completion == 1.0;
    per_layer.push_back({"core.run_ms_p50", percentile(run_ms, 0.5), "ms"});
    per_layer.push_back({"core.run_ms_p90", percentile(run_ms, 0.9), "ms"});
    per_layer.push_back(
        {"core.run_samples", static_cast<double>(run_ms.size()), "count"});
    per_layer.push_back({"core.longest_run_s",
                         run_ms.empty() ? 0.0
                                        : 1e-3 * *std::max_element(
                                                     run_ms.begin(),
                                                     run_ms.end()),
                         "s"});
    std::vector<double> traced_wall;
    for (const Pass* pass : traced) traced_wall.push_back(pass->wall_s);
    per_layer.push_back(
        {"trace.overhead_frac", median(traced_wall) / median(wall) - 1.0,
         "ratio"});
    std::sort(per_layer.begin(), per_layer.end(),
              [](const Metric& a, const Metric& b) { return a.name < b.name; });
  }

  bool finite = true;
  for (const Metric& metric : end_to_end) {
    finite = finite && std::isfinite(metric.value);
  }
  for (const Metric& metric : per_layer) {
    finite = finite && std::isfinite(metric.value);
  }
  const bool correct =
      failed == 0 && spans_ok && traced_digest_ok && completion_ok && finite;

  // Human-readable summary, then the result line.
  std::cout << "pinsim_perf " << options.workload << " seed=" << options.seed
            << ": " << passes.size() << " passes (" << traced.size()
            << " traced) x " << runs << " runs, digest "
            << hex(passes[0].digest);
  if (options.expect_digest) {
    std::cout << (passes[0].digest == *options.expect_digest
                      ? " (matches expected)"
                      : " (EXPECTED " + hex(*options.expect_digest) + ")");
  }
  std::cout << "\n";
  for (const Metric& metric : end_to_end) {
    std::cout << "  " << metric.name << " = " << number(metric.value) << " "
              << metric.unit << "\n";
  }
  std::cout << "  fail_frac = " << number(fail_frac) << " ratio (" << failed
            << " of " << attempted << " runs)\n";
  for (const Metric& metric : per_layer) {
    std::cout << "  " << metric.name << " = " << number(metric.value) << " "
              << metric.unit << "\n";
  }
  if (!first_error.empty()) std::cout << "  first failure: " << first_error << "\n";
  if (!spans_ok) std::cout << "  CHECK FAILED: child spans outside their run\n";
  if (!traced_digest_ok) std::cout << "  CHECK FAILED: traced digest differs\n";
  if (!completion_ok) std::cout << "  CHECK FAILED: cluster completion < 1\n";
  if (!finite) std::cout << "  CHECK FAILED: a metric is not finite\n";
  std::cout << "context " << context.json() << "\n";

  std::vector<Metric> reported = options.trace ? per_layer : end_to_end;
  for (Metric& metric : reported) {
    if (!std::isfinite(metric.value)) metric.value = 0.0;
  }
  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + metrics_json(reported) + "}";

  if (!options.record_path.empty()) {
    std::ofstream out(options.record_path);
    out << "{\"workload\": " << quoted(options.workload)
        << ", \"seed\": " << options.seed
        << ", \"trace\": " << (options.trace ? 1 : 0)
        << ", \"context\": " << context.json()
        << ", \"digest\": " << quoted(hex(passes[0].digest))
        << ", \"fail_frac\": " << number(fail_frac)
        << ", \"end_to_end\": " << metrics_json(end_to_end)
        << ", \"passes\": [";
    for (std::size_t i = 0; i < passes.size(); ++i) {
      out << (i > 0 ? ", " : "") << "{\"traced\": "
          << (passes[i].traced ? "true" : "false")
          << ", \"wall_s\": " << number(passes[i].wall_s)
          << ", \"cpu_s\": " << number(passes[i].cpu_s)
          << ", \"setup_s\": " << number(passes[i].setup_s)
          << ", \"digest\": " << quoted(hex(passes[i].digest)) << "}";
    }
    out << "], \"result\": " << result << "}\n";
    if (!out) std::cerr << "pinsim_perf: cannot write " << options.record_path << "\n";
  }
  if (options.trace && !options.spans_path.empty()) {
    write_spans(options.spans_path, recorder.spans());
  }
  std::cout << result << std::endl;
  return correct ? 0 : 1;
}
