// Shared helpers for the bench binaries: the --runs/--seed/--jobs parser,
// host measurements (peak RSS, wall and CPU clocks) and the paper-claim
// evaluator behind rpv_repro.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "exec/campaign_engine.hpp"
#include "experiment/runner.hpp"
#include "metrics/text_table.hpp"
#include "pipeline/report.hpp"
#include "sim/validate.hpp"

namespace rpv::bench {

// Shared CLI options: every bench binary accepts
//   --runs N   override the per-bench campaign size
//   --seed S   override the per-bench base seed
//   --jobs J   worker threads per campaign (0 = one per hardware thread)
struct Options {
  std::optional<int> runs;
  std::optional<std::uint64_t> seed;
  int jobs = 0;
};

inline Options& options() {
  static Options opts;
  return opts;
}

// Testable core of the CLI parser: consumes argv (minus the program name) and
// returns the parsed options, throwing std::invalid_argument via rpv::validate
// on malformed, unknown, or out-of-range flags (rpv::parse_int: counts must
// fit in an int, seeds must be non-negative).
[[nodiscard]] inline Options parse_options(const std::vector<std::string>& args) {
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  Options opts;
  auto value_of = [&](std::size_t& i, const std::string& flag) -> std::string {
    validate(i + 1 < args.size(), flag + " needs a value");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--runs") {
      opts.runs = static_cast<int>(parse_int(arg, value_of(i, arg), 1, kIntMax));
    } else if (arg == "--seed") {
      opts.seed = static_cast<std::uint64_t>(parse_int(
          arg, value_of(i, arg), 0, std::numeric_limits<std::int64_t>::max()));
    } else if (arg == "--jobs") {
      // 0 = one worker per hardware thread.
      opts.jobs = static_cast<int>(parse_int(arg, value_of(i, arg), 0, kIntMax));
    } else {
      validate(false, "unknown argument: " + arg + " (try --help)");
    }
  }
  return opts;
}

inline void print_usage(const char* prog, std::ostream& out) {
  out << "usage: " << prog
      << " [--runs N] [--seed S] [--jobs J]\n"
         "  --runs N  campaign size per scenario cell (default: "
         "per-bench, usually 4-8)\n"
         "  --seed S  base seed (default: per-bench)\n"
         "  --jobs J  worker threads (default 0 = all hardware "
         "threads)\n";
}

inline void parse_args(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0], std::cout);
      std::exit(0);
    }
    args.push_back(arg);
  }
  try {
    options() = parse_options(args);
  } catch (const std::exception& e) {
    // A malformed or unknown flag gets the full usage text, not just the
    // one-line reason — the common failure is a typo'd flag name.
    std::cerr << e.what() << "\n";
    print_usage(argv[0], std::cerr);
    std::exit(2);
  }
}

// Per-bench defaults, overridable from the command line.
[[nodiscard]] inline int runs_or(int bench_default) {
  return options().runs.value_or(bench_default);
}
[[nodiscard]] inline std::uint64_t seed_or(std::uint64_t bench_default) {
  return options().seed.value_or(bench_default);
}

// High-water resident set size of this process, in MB.
[[nodiscard]] inline double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// Monotonic wall clock, in seconds.
[[nodiscard]] inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of this process, in seconds. A single-threaded timed section
// read on this clock does not count the time the host ran other work.
[[nodiscard]] inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Run a hand-built scenario list through the parallel campaign engine,
// honoring --jobs. Reports come back in input order.
[[nodiscard]] inline std::vector<pipeline::SessionReport> run_scenarios(
    const std::vector<experiment::Scenario>& scenarios) {
  const exec::CampaignEngine engine{{.jobs = options().jobs}};
  return engine.run_scenarios(scenarios);
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << title << "\n"
            << "Paper reference: " << paper_ref << "\n"
            << "==============================================================\n";
}

// --- Paper claims (rpv_repro) ---
//
// A claim states one result of the paper as a band on one number measured
// over named cells; `metric` gets the runs of each named cell, in order.
using Runs = std::vector<const pipeline::SessionReport*>;
using ClaimMetric = std::function<double(const std::vector<Runs>& cells)>;

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// [lo, hi], both edges inclusive; an ordering leaves one end infinite.
struct Band {
  double lo = -kInf;
  double hi = kInf;
};

// kKnownDeviation: outside its band, for a reason EXPERIMENTS.md records.
enum class Expect { kPass, kKnownDeviation };
enum class Verdict { kPass, kFail, kKnownDeviation, kXpass };

struct Claim {
  std::string id;
  std::string ref;       // where the paper states it
  std::string quantity;  // what is measured
  std::string paper;     // the paper's value, as text
  std::vector<std::string> cells;
  ClaimMetric metric;
  Band band;
  Expect expect = Expect::kPass;
};

// A known deviation inside its band is an XPASS: fixed, so its row must flip
// to kPass, just like a moved golden pin. NaN is never inside a band.
[[nodiscard]] inline Verdict judge(const Claim& c, double measured) {
  const bool inside = measured >= c.band.lo && measured <= c.band.hi;
  if (c.expect == Expect::kPass) return inside ? Verdict::kPass : Verdict::kFail;
  return inside ? Verdict::kXpass : Verdict::kKnownDeviation;
}

[[nodiscard]] inline std::string verdict_name(Verdict v) {
  constexpr const char* kNames[] = {"pass", "FAIL", "known-deviation", "XPASS"};
  return kNames[static_cast<int>(v)];
}

// Run before anything is simulated: unique cell labels, unique non-empty
// claim ids, and every claim has cells (all among `cell_labels`), a metric
// and a non-empty band.
inline void validate_claims(const std::vector<Claim>& claims,
                            const std::vector<std::string>& cell_labels) {
  const std::set<std::string> known(cell_labels.begin(), cell_labels.end());
  validate(known.size() == cell_labels.size(), "duplicate cell label");
  std::set<std::string> ids;
  for (const auto& c : claims) {
    validate(!c.id.empty() && ids.insert(c.id).second,
             "empty or duplicate claim id: '" + c.id + "'");
    validate(!c.cells.empty(), "claim " + c.id + " names no cell");
    for (const auto& cell : c.cells) {
      validate(known.count(cell) == 1,
               "claim " + c.id + " names unknown cell: " + cell);
    }
    validate(c.metric && c.band.lo <= c.band.hi,
             "claim " + c.id + " has no metric or an empty band");
  }
}

// Evaluates every claim over its cells' runs and prints one row per claim,
// numbers to three significant digits. Returns 1 on any FAIL (a claim broke)
// or XPASS (a deviation was fixed but its row still says known-deviation).
[[nodiscard]] inline int check_claims(
    const std::vector<Claim>& claims,
    const std::map<std::string, Runs>& runs_by_cell, std::ostream& out) {
  auto num = [](double v) {
    if (std::isinf(v)) return std::string{v > 0 ? "inf" : "-inf"};
    const double a = std::abs(v);
    return metrics::TextTable::num(v, a >= 100 ? 0 : a >= 10 ? 1 : a >= 1 ? 2 : 3);
  };
  metrics::TextTable table{
      {"id", "ref", "quantity", "paper", "measured", "band", "status"}};
  int status = 0;
  for (const auto& c : claims) {
    std::vector<Runs> cells;
    for (const auto& label : c.cells) cells.push_back(runs_by_cell.at(label));
    const double measured = c.metric(cells);
    const auto verdict = judge(c, measured);
    if (verdict == Verdict::kFail || verdict == Verdict::kXpass) status = 1;
    table.add_row({c.id, c.ref, c.quantity, c.paper, num(measured),
                   "[" + num(c.band.lo) + ", " + num(c.band.hi) + "]",
                   verdict_name(verdict)});
  }
  out << table.render();
  return status;
}

}  // namespace rpv::bench
