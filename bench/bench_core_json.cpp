// Core serialization microbench: report JSON throughput, isolated from any
// simulation, so the perf gate can tell "the JSON layer regressed" apart
// from "the campaign simulated more".
//
// A deterministic synthetic SessionReport carries the per-packet and
// per-frame samples a full flight persists (OWD samples and trace, playback
// latency, SSIM, loss times, handovers). Two workloads:
//   dump   report_to_json(r).dump() — build the document tree, serialize it
//          and free it, the path every stored or digested report takes.
//   parse  report_from_json(json::parse(bytes)) — the `rpv_campaign --load`
//          path that rebuilds figures without re-simulating.
// Each workload runs kReps times and is timed in process CPU time; the row
// reports the fastest repetition, the one least disturbed by other load on
// the host (cache and memory-bus contention still shows).
//
// Exit status encodes the acceptance verdict: 0 when dump -> parse ->
// report_from_json -> dump reproduces the first dump byte for byte, 1
// otherwise.
//
//   bench_core_json [--packets N] [--seed S] [--bench-json PATH]
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "json/json.hpp"
#include "metrics/text_table.hpp"
#include "pipeline/report.hpp"
#include "pipeline/report_json.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/validate.hpp"

namespace {

using namespace rpv;

constexpr int kReps = 9;
// 300k samples make a 21 MB report and ~110 MB peak RSS; the cap keeps a
// mistyped size from exhausting memory.
constexpr std::int64_t kMaxPackets = 10'000'000;

// A flight-shaped report: `packets` media packets at ~3 packets per 30 FPS
// frame, with full-precision samples like the simulator produces.
pipeline::SessionReport synthetic_report(std::uint64_t packets,
                                         std::uint64_t seed) {
  sim::Rng rng{seed};
  pipeline::SessionReport r;
  r.cc_name = "gcc";
  r.environment = "urban";
  const std::uint64_t frames = packets / 3;
  r.duration = sim::Duration::micros(static_cast<std::int64_t>(frames) * 33'333);
  r.packets_sent = packets;
  r.frames_encoded = static_cast<std::uint32_t>(frames);

  sim::TimePoint t = sim::TimePoint::origin();
  for (std::uint64_t i = 0; i < packets; ++i) {
    t = t + sim::Duration::micros(rng.uniform_int(50, 20'000));
    const double owd = 35.0 + rng.exponential(20.0);
    r.owd_ms.push_back(owd);
    r.owd_trace_ms.add(t, owd);
    if (rng.chance(0.001)) r.loss_times.push_back(t);
  }
  r.packets_received = r.owd_ms.size();
  t = sim::TimePoint::origin();
  for (std::uint64_t f = 0; f < frames; ++f) {
    t = t + sim::Duration::micros(33'333);
    const double latency = 150.0 + rng.exponential(40.0);
    r.playback_latency_ms.push_back(latency);
    r.playback_latency_trace_ms.add(t, latency);
    r.ssim_samples.push_back(rng.uniform(0.85, 0.99));
    if (f % 30 == 0) {
      r.fps_windows.push_back(rng.uniform(25.0, 30.0));
      r.goodput_mbps_windows.push_back(rng.uniform(5.0, 40.0));
      r.target_bitrate_trace_bps.add(t, rng.uniform(1e6, 25e6));
      r.capacity_trace_mbps.add(t, rng.uniform(2.0, 60.0));
    }
    if (f % 600 == 0) {
      metrics::HandoverEvent e;
      e.start = t;
      e.het = sim::Duration::micros(rng.uniform_int(20'000, 4'000'000));
      e.source_cell = static_cast<std::uint32_t>(rng.uniform_int(0, 31));
      e.target_cell = static_cast<std::uint32_t>(rng.uniform_int(0, 31));
      r.handovers.record(e);
      r.het_ms.push_back(static_cast<double>(e.het.us()) / 1e3);
      r.ho_latency_ratios.push_back(
          {rng.uniform(1.0, 8.0), rng.uniform(1.0, 8.0)});
    }
  }
  r.frames_played = static_cast<std::uint32_t>(r.playback_latency_ms.size());
  r.sim_events = packets * 12;
  return r;
}

struct WorkloadResult {
  double best_cpu_seconds = 0.0;
  double mb_per_second = 0.0;
};

template <typename Fn>
WorkloadResult time_reps(std::size_t bytes, Fn&& fn) {
  double best = 0.0;
  for (int i = 0; i < kReps; ++i) {
    const double t0 = bench::cpu_seconds();
    fn();
    const double cpu = bench::cpu_seconds() - t0;
    if (i == 0 || cpu < best) best = cpu;
  }
  const double mb = static_cast<double>(bytes) / 1e6;
  return {best, best > 0.0 ? mb / best : 0.0};
}

void print_usage(const char* prog) {
  std::cout << "usage: " << prog
            << " [--packets N] [--seed S] [--bench-json PATH]\n"
               "  --packets N       per-packet samples in the report "
               "(default 300000, at most 10000000)\n"
               "  --seed S          rng seed (default 42)\n"
               "  --bench-json PATH write the perf baseline rows as "
               "canonical JSON\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t packets = 300'000;
  std::uint64_t seed = 42;
  std::optional<std::string> bench_json;

  auto value_of = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << flag << " needs a value\n";
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--packets")
        packets = static_cast<std::uint64_t>(
            parse_int(arg, value_of(i, arg), 1, kMaxPackets));
      else if (arg == "--seed")
        seed = static_cast<std::uint64_t>(
            parse_int(arg, value_of(i, arg), 0,
                      std::numeric_limits<std::int64_t>::max()));
      else if (arg == "--bench-json") bench_json = value_of(i, arg);
      else if (arg == "--help" || arg == "-h") {
        print_usage(argv[0]);
        return 0;
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        print_usage(argv[0]);
        return 2;
      }
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n\n";
      print_usage(argv[0]);
      return 2;
    }
  }

  const pipeline::SessionReport report = synthetic_report(packets, seed);
  const std::string bytes = pipeline::report_to_json(report).dump();

  std::cout
      << "==============================================================\n"
      << "Core serialization — report JSON microbench\n"
      << "==============================================================\n"
      << packets << " per-packet samples, " << bytes.size()
      << " bytes of report JSON, " << kReps << " reps, seed " << seed
      << "\n\n";

  metrics::TextTable table{
      {"workload", "MB", "best CPU (s)", "MB/s", "RSS (MB)"}};
  json::Value rows = json::Value::array();

  std::size_t sink = 0;  // keeps the timed results observable
  struct Case {
    const char* name;
    WorkloadResult result;
  };
  const Case cases[] = {
      {"dump", time_reps(bytes.size(),
                         [&] {
                           sink += pipeline::report_to_json(report)
                                       .dump()
                                       .size();
                         })},
      {"parse", time_reps(bytes.size(), [&] {
         sink += pipeline::report_from_json(json::parse(bytes)).owd_ms.size();
       })},
  };

  for (const Case& c : cases) {
    const double rss = bench::peak_rss_mb();
    table.add_row({c.name,
                   metrics::TextTable::num(static_cast<double>(bytes.size()) /
                                               1e6, 1),
                   metrics::TextTable::num(c.result.best_cpu_seconds, 3),
                   metrics::TextTable::num(c.result.mb_per_second, 1),
                   metrics::TextTable::num(rss, 0)});
    json::Value row = json::Value::object();
    row.set("workload", std::string{c.name})
        .set("bytes", std::uint64_t{bytes.size()})
        .set("best_cpu_seconds", c.result.best_cpu_seconds)
        .set("mb_per_second", c.result.mb_per_second)
        .set("peak_rss_mb", rss);
    rows.push_back(std::move(row));
  }

  std::cout << table.render();

  const std::string again =
      pipeline::report_to_json(
          pipeline::report_from_json(json::parse(bytes)))
          .dump();
  const bool identical = again == bytes && sink > 0;
  std::cout << "\nround trip (dump -> parse -> report_from_json -> dump): "
            << (identical ? "IDENTICAL" : "MISMATCH") << "\n";

  if (bench_json) {
    json::Value doc = json::Value::object();
    doc.set("bench", std::string{"core_json"})
        .set("packets", packets)
        .set("reps", kReps)
        .set("seed", seed)
        .set("rows", std::move(rows));
    std::ofstream out{*bench_json};
    out << doc.dump(2) << "\n";
    std::cout << "\nperf baseline written to " << *bench_json << "\n";
  }

  return identical ? 0 : 1;
}
