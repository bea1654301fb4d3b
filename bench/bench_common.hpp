// Shared scaffolding for the figure/table bench binaries.
//
// Each bench reproduces one paper artifact and prints mean ± 95% CI
// tables, ASCII bars, overhead ratios, and CSV. Repetition counts default
// to the paper's protocol; set PINSIM_REPS to override (e.g. PINSIM_REPS=3
// for a quick pass) — the output notes any override.
//
// Common CLI (parse with bench::parse_cli):
//   --jobs N    fan the sweep across N worker threads (default: 1, or
//               PINSIM_JOBS). Results are bit-identical to --jobs 1.
//   --reps N    override the paper's repetition count (same as PINSIM_REPS)
//   --json P    also write machine-readable results + timing to file P
//   --stats     print aggregated sim::Engine counters (events fired,
//               tombstone pops, deferred re-arms, peak heap) after the run;
//               scenario_cluster also prints each cell's host- and
//               guest-kernel counters (os::KernelStats, virt::GuestStats)
// Every N must be a whole number >= 1, on the command line and in the
// environment; anything else exits 2 naming the flag or variable.
// scenario_cluster adds its own --shards N (see there). The benches
// without a sweep to fan out take no arguments (reject_arguments).
#pragma once

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "core/experiment.hpp"
#include "core/figure.hpp"
#include "core/report.hpp"
#include "sim/engine.hpp"
#include "stats/text_table.hpp"

namespace pinsim::bench {

struct BenchOptions {
  int jobs = 1;
  int reps_override = 0;  // --reps, else PINSIM_REPS; 0 = paper protocol
  std::string json_path;  // empty = no JSON output
  bool engine_stats = false;  // print aggregated engine counters at exit
};

/// `text` as a whole decimal integer >= 1; exits 2 naming `name` (a
/// flag or an environment variable) for anything else — empty, signed,
/// trailing characters, zero, or out of range.
inline int positive_or_exit(const char* name, const char* text) {
  const char* end = text + std::strlen(text);
  int value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < 1) {
    std::cerr << name << " must be >= 1 (got '" << text << "')\n";
    std::exit(2);
  }
  return value;
}

inline int env_int_or(const char* name, int fallback) {
  const char* env = std::getenv(name);
  return env == nullptr ? fallback : positive_or_exit(name, env);
}

/// Parse the common bench flags; exits with a usage message on errors so
/// every bench binary behaves the same. A binary with one flag of its
/// own passes its name as `own_flag`; its value, parsed like --jobs,
/// lands in `*own_value`.
inline BenchOptions parse_cli(int argc, char** argv,
                              const char* own_flag = nullptr,
                              int* own_value = nullptr) {
  BenchOptions options;
  options.jobs = env_int_or("PINSIM_JOBS", 1);
  options.reps_override = env_int_or("PINSIM_REPS", 0);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--jobs" || arg == "-j") {
      options.jobs = positive_or_exit("--jobs", value("--jobs"));
    } else if (arg == "--reps") {
      options.reps_override = positive_or_exit("--reps", value("--reps"));
    } else if (own_flag != nullptr && arg == own_flag) {
      *own_value = positive_or_exit(own_flag, value(own_flag));
    } else if (arg == "--json") {
      options.json_path = value("--json");
    } else if (arg == "--stats") {
      options.engine_stats = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0] << " [--jobs N]";
      if (own_flag != nullptr) std::cout << " [" << own_flag << " N]";
      std::cout << " [--reps N] [--json PATH] [--stats]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      std::exit(2);
    }
  }
  return options;
}

/// For the benches that take no flags: any argument prints the usage
/// line and exits 2, instead of being silently ignored.
inline void reject_arguments(int argc, char** argv) {
  if (argc <= 1) return;
  std::cerr << "unknown argument: " << argv[1] << "\nusage: " << argv[0]
            << " (takes no arguments)\n";
  std::exit(2);
}

/// PINSIM_REPS, else the paper's count (the benches without parse_cli).
inline int repetitions_or(int paper_default) {
  return env_int_or("PINSIM_REPS", paper_default);
}

inline core::ExperimentRunner make_runner(int paper_reps,
                                          const BenchOptions& options) {
  core::ExperimentConfig config;
  config.repetitions =
      options.reps_override > 0 ? options.reps_override : paper_reps;
  if (config.repetitions != paper_reps) {
    std::cout << "[note] repetition override: " << config.repetitions
              << " repetitions (paper protocol: " << paper_reps << ")\n";
  }
  if (options.jobs > 1) {
    std::cout << "[note] sweeping with " << options.jobs
              << " worker threads (results identical to --jobs 1)\n";
  }
  return core::ExperimentRunner(config);
}

/// Progress dots so long sweeps show life on the console.
inline void progress_point(const virt::PlatformSpec& spec,
                           const stats::Interval& interval) {
  std::cout << "  [" << spec.instance.name << "] " << spec.label() << ": "
            << stats::format_interval(interval) << " s\n"
            << std::flush;
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Write the machine-readable report when --json was given.
inline void maybe_write_json(const BenchOptions& options,
                             const std::string& artifact, int repetitions,
                             double wall_seconds,
                             const std::vector<const stats::Figure*>& figures) {
  if (options.json_path.empty()) return;
  std::ofstream out(options.json_path);
  if (!out) {
    std::cerr << "cannot open " << options.json_path << " for writing\n";
    std::exit(1);
  }
  core::BenchRunMeta meta;
  meta.artifact = artifact;
  meta.repetitions = repetitions;
  meta.jobs = options.jobs;
  meta.wall_seconds = wall_seconds;
  core::write_bench_json(out, meta, figures);
  std::cout << "json written to " << options.json_path << "\n";
}

/// Print the process-wide engine counters when --stats was given. Call
/// last in main — the totals fold in as each simulation's Engine is
/// destroyed, and a sweep builds one engine per (cell, repetition).
inline void maybe_print_engine_stats(const BenchOptions& options) {
  if (!options.engine_stats) return;
  const sim::EngineStats stats = sim::aggregate_engine_stats();
  const double tombstone_ratio =
      stats.fired > 0 ? static_cast<double>(stats.tombstone_pops) /
                            static_cast<double>(stats.fired)
                      : 0.0;
  const double skipped_ratio =
      stats.fired + stats.boundaries_skipped > 0
          ? static_cast<double>(stats.boundaries_skipped) /
                static_cast<double>(stats.fired + stats.boundaries_skipped)
          : 0.0;
  std::cout << "engine stats: fired=" << stats.fired
            << " scheduled=" << stats.scheduled
            << " tombstone_pops=" << stats.tombstone_pops
            << " (ratio " << std::setprecision(4) << tombstone_ratio
            << ") deferred_rearms=" << stats.deferred_rearms
            << " reschedules=" << stats.reschedules
            << " peak_heap=" << stats.peak_heap
            << " boundaries_batched=" << stats.boundaries_batched
            << " boundaries_skipped=" << stats.boundaries_skipped
            << " (ratio " << std::setprecision(4) << skipped_ratio
            << ") quiet_windows=" << stats.quiet_windows << "\n";
}

}  // namespace pinsim::bench
