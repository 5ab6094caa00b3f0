// Core feedback-path microbench: the RFC 8888 receiver collector and the
// SCReAM controller that consumes its reports, isolated from any
// simulation, so the perf gate can tell "the feedback path regressed" apart
// from "the campaign simulated more".
//
// A deterministic 25 Mbps stream (1240-byte packets, one every 397 us,
// ~25 per 10 ms feedback interval) crosses a path with 0.5% loss and up to
// 5 ms of jitter, so some packets arrive out of order. For each ack window
// W in {64, 256} (the paper's default and its mitigation), three workloads:
//   on_packet     Rfc8888Collector::on_packet for every arrival, in order
//                 of arrival, into a fresh collector; ns per packet.
//   build_report  Rfc8888Collector::build_report on collectors snapshotted
//                 at 16 points of the stream, round robin; ns per report.
//   on_feedback   one SCReAM feedback interval as the sender sees it: the
//                 on_packet_sent calls of the interval, then on_feedback
//                 with the recorded report, on a fresh controller; ns per
//                 report.
// Each workload runs kReps times and is timed in process CPU time; the row
// reports the fastest repetition, the one least disturbed by other load on
// the host.
//
// Exit status encodes the acceptance verdict: 0 when every repetition of
// every workload ends in the same state (collector report, controller
// window, bytes in flight and declared losses), 1 otherwise.
//
//   bench_core_feedback [--packets N] [--seed S] [--bench-json PATH]
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cc/scream/scream_controller.hpp"
#include "json/json.hpp"
#include "metrics/text_table.hpp"
#include "rtp/feedback.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/validate.hpp"

namespace {

using namespace rpv;

constexpr int kReps = 9;
constexpr int kSnapshots = 16;
// A W=256 run records ~160 bytes of reports per packet sent; the cap keeps
// a mistyped size from exhausting memory.
constexpr std::int64_t kMaxPackets = 1'000'000;
constexpr std::size_t kPacketBytes = 1240;
constexpr sim::Duration kInterval = sim::Duration::millis(10);

// Packet i leaves the sender every 397 us: 25 Mbps of 1240-byte packets.
sim::TimePoint send_time(std::uint64_t i) {
  return sim::TimePoint::from_us(397 * static_cast<std::int64_t>(i));
}

struct Arrival {
  std::uint16_t seq;
  sim::TimePoint at;
};

// Arrivals in arrival order; the sequence number of packet i is i mod 2^16.
std::vector<Arrival> arrival_stream(std::uint64_t packets, std::uint64_t seed) {
  sim::Rng rng{seed};
  std::vector<Arrival> out;
  out.reserve(packets);
  for (std::uint64_t i = 0; i < packets; ++i) {
    if (rng.chance(0.005)) continue;
    out.push_back({static_cast<std::uint16_t>(i),
                   send_time(i) + sim::Duration::millis(30) +
                       sim::Duration::micros(rng.uniform_int(0, 5000))});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
  return out;
}

// The receiver's reports, one per interval, as VideoReceiver::feedback_tick
// sends them; calls `snapshot` with the collector at kSnapshots points.
template <typename SnapshotFn>
std::vector<rtp::FeedbackReport> record_reports(const std::vector<Arrival>& in,
                                                int window, SnapshotFn&& snapshot) {
  std::vector<rtp::FeedbackReport> reports;
  rtp::Rfc8888Collector c{window};
  const std::size_t every = std::max<std::size_t>(in.size() / kSnapshots, 1);
  auto next_tick = in.front().at + kInterval;
  for (std::size_t i = 0; i < in.size(); ++i) {
    while (in[i].at >= next_tick) {
      if (c.has_data()) reports.push_back(c.build_report(next_tick));
      next_tick = next_tick + kInterval;
    }
    c.on_packet(in[i].seq, in[i].at);
    if (i % every == every - 1) snapshot(c);
  }
  return reports;
}

struct Timed {
  std::uint64_t ops = 0;
  double best_cpu_seconds = 0.0;
};

// Best of kReps; `fn` returns a state digest that must repeat every rep.
template <typename Fn>
Timed time_reps(std::uint64_t ops, bool& consistent, Fn&& fn) {
  double best = 0.0;
  std::uint64_t first_digest = 0;
  for (int i = 0; i < kReps; ++i) {
    const double t0 = bench::cpu_seconds();
    const std::uint64_t digest = fn();
    const double cpu = bench::cpu_seconds() - t0;
    if (i == 0) first_digest = digest;
    if (digest != first_digest) consistent = false;
    if (i == 0 || cpu < best) best = cpu;
  }
  return {ops, best};
}

std::uint64_t report_digest(const rtp::FeedbackReport& r) {
  std::uint64_t h = r.results.size();
  for (const auto& p : r.results) {
    h = h * 1'000'003 + p.transport_seq * 2u + (p.received ? 1u : 0u) +
        static_cast<std::uint64_t>(p.arrival.us());
  }
  return h;
}

void print_usage(const char* prog) {
  std::cout << "usage: " << prog
            << " [--packets N] [--seed S] [--bench-json PATH]\n"
               "  --packets N       packets in the stream (default 300000, "
               "1000 to 1000000)\n"
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
            parse_int(arg, value_of(i, arg), 1'000, kMaxPackets));
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

  const std::vector<Arrival> arrivals = arrival_stream(packets, seed);

  std::cout
      << "==============================================================\n"
      << "Core feedback path — RFC 8888 collector + SCReAM microbench\n"
      << "==============================================================\n"
      << packets << " packets at 25 Mbps (" << arrivals.size()
      << " arrive), " << kReps << " reps, seed " << seed << "\n\n";

  metrics::TextTable table{
      {"workload", "W", "ops", "best CPU (s)", "ns/op"}};
  json::Value rows = json::Value::array();
  bool consistent = true;

  for (const int window : {64, 256}) {
    std::vector<rtp::Rfc8888Collector> snapshots;
    const std::vector<rtp::FeedbackReport> reports = record_reports(
        arrivals, window,
        [&](const rtp::Rfc8888Collector& c) { snapshots.push_back(c); });

    struct Case {
      const char* name;
      Timed timed;
    };
    const Case cases[] = {
        {"on_packet", time_reps(arrivals.size(), consistent, [&] {
           rtp::Rfc8888Collector c{window};
           for (const auto& a : arrivals) c.on_packet(a.seq, a.at);
           return report_digest(c.build_report(arrivals.back().at));
         })},
        {"build_report", time_reps(reports.size(), consistent, [&] {
           std::uint64_t h = 0;
           for (std::size_t i = 0; i < reports.size(); ++i) {
             const auto& c = snapshots[i % snapshots.size()];
             h += report_digest(c.build_report(reports[i].generated));
           }
           return h;
         })},
        {"on_feedback", time_reps(reports.size(), consistent, [&] {
           cc::scream::ScreamController sc;
           std::uint64_t sent = 0;
           for (const auto& r : reports) {
             for (; sent < packets && send_time(sent) <= r.generated; ++sent) {
               sc.on_packet_sent({static_cast<std::uint16_t>(sent), kPacketBytes,
                                  send_time(sent)});
             }
             sc.on_feedback(r, r.generated);
           }
           return sc.cwnd_bytes() * 1'000'003 + sc.bytes_in_flight() +
                  (sc.packets_declared_lost() << 32) + sc.loss_events();
         })},
    };

    for (const Case& c : cases) {
      const double ns =
          c.timed.best_cpu_seconds * 1e9 / static_cast<double>(c.timed.ops);
      table.add_row({c.name, std::to_string(window), std::to_string(c.timed.ops),
                     metrics::TextTable::num(c.timed.best_cpu_seconds, 4),
                     metrics::TextTable::num(ns, 1)});
      json::Value row = json::Value::object();
      row.set("workload", std::string{c.name})
          .set("ack_window", window)
          .set("ops", c.timed.ops)
          .set("best_cpu_seconds", c.timed.best_cpu_seconds)
          .set("ns_per_op", ns)
          .set("ops_per_second", 1e9 / ns);
      rows.push_back(std::move(row));
    }
  }

  std::cout << table.render();
  std::cout << "\nstate across reps: " << (consistent ? "IDENTICAL" : "MISMATCH")
            << "\n";

  if (bench_json) {
    json::Value doc = json::Value::object();
    doc.set("bench", std::string{"core_feedback"})
        .set("packets", packets)
        .set("reps", kReps)
        .set("seed", seed)
        .set("rows", std::move(rows));
    std::ofstream out{*bench_json};
    out << doc.dump(2) << "\n";
    std::cout << "\nperf baseline written to " << *bench_json << "\n";
  }

  return consistent ? 0 : 1;
}
