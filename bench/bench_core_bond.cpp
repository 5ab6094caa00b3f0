// Core bonded-path microbench: the receive-side reorder window and the XOR
// FEC encoder + decoder, isolated from any simulation, so the perf gate can
// tell "the bonded media path regressed" apart from "the bonded scenario
// simulated more".
//
// A deterministic two-path bond at 2000 packets/s (one packet in eleven FEC
// parity): path 1 runs 15 ms behind path 0 with up to 6 ms of jitter on
// each, so packets wait in the window; each path loses 2% (gaps that time
// out), 10% of packets are duplicated onto the other path, and 0.2% arrive
// up to 1 s late. Two workloads:
//   reorder   bond::ReorderWindow::on_packet for every arrival, in arrival
//             order, on a fresh window whose hold timers run on a fresh
//             sim::Simulator; ns per arriving copy.
//   fec       rtp::FecEncoder::on_media_packet for every media packet, then
//             FecDecoder::on_media_packet / on_parity_packet for the copies
//             that survive the same 2% loss, on a fresh table; the group
//             size steps over the adaptive controller's ladder every 5000
//             packets; ns per media packet.
// Each workload runs kReps times and is timed in process CPU time; the row
// reports the fastest repetition, the one least disturbed by other load on
// the host.
//
// Exit status encodes the acceptance verdict: 0 when every repetition of
// every workload ends in the same state (released packets and their order,
// suppressed duplicates, flushes, late packets; parity packets and
// repairs), 1 otherwise.
//
//   bench_core_bond [--packets N] [--seed S] [--bench-json PATH]
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bond/reorder_window.hpp"
#include "json/json.hpp"
#include "metrics/text_table.hpp"
#include "net/packet.hpp"
#include "rtp/fec.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/validate.hpp"

namespace {

using namespace rpv;

constexpr int kReps = 9;
constexpr std::int64_t kMaxPackets = 2'000'000;
constexpr int kLadder[] = {10, 7, 5, 4};

struct Arrival {
  sim::TimePoint at;
  net::Packet packet;
  int path = 0;
};

sim::TimePoint send_time(std::uint64_t i) {
  return sim::TimePoint::from_us(1'000'000 + 500 * static_cast<std::int64_t>(i));
}

// Arriving copies in arrival order; packet i carries transport seq i mod 2^16.
std::vector<Arrival> arrival_stream(std::uint64_t packets, std::uint64_t seed) {
  sim::Rng rng{seed};
  std::vector<Arrival> out;
  out.reserve(packets * 11 / 10);
  for (std::uint64_t i = 0; i < packets; ++i) {
    net::Packet p;
    p.id = i + 1;
    p.transport_seq = static_cast<std::uint16_t>(i);
    p.size_bytes = 1200;
    p.sent = send_time(i);
    if (i % 11 == 10) {
      p.kind = net::PacketKind::kFecParity;
      p.fec_group = static_cast<std::int32_t>(i / 11);
    } else {
      p.frame_id = static_cast<std::uint32_t>(i / 8);
    }
    const int path = static_cast<int>(i % 2);
    const int copies = rng.chance(0.1) ? 2 : 1;
    for (int c = 0; c < copies; ++c) {
      const int on = (path + c) % 2;
      if (rng.chance(0.02)) continue;
      double ms = (on == 0 ? 20.0 : 35.0) + rng.uniform(0.0, 6.0);
      if (rng.chance(0.002)) ms += rng.uniform(100.0, 1000.0);
      out.push_back({p.sent + sim::Duration::millis_f(ms), p, on});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
  return out;
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

std::uint64_t mix(std::uint64_t h, std::uint64_t v) { return h * 1'000'003 + v; }

std::uint64_t run_reorder(const std::vector<Arrival>& arrivals) {
  sim::Simulator sim;
  std::uint64_t h = 0;
  bond::ReorderWindow window{sim, {}, [&h](net::Packet p, int path) {
                               h = mix(h, p.id * 2 + static_cast<std::uint64_t>(path));
                             }};
  for (const Arrival& a : arrivals) {
    sim.run_until(a.at);
    window.on_packet(a.packet, a.path);
  }
  window.flush_all();
  h = mix(h, window.duplicates_suppressed());
  h = mix(h, window.flushes());
  return mix(h, window.late_packets());
}

std::uint64_t run_fec(std::uint64_t media, const std::vector<bool>& lost) {
  auto table = std::make_shared<rtp::FecGroupTable>();
  rtp::FecEncoder enc{rtp::FecConfig{kLadder[0]}, table};
  rtp::FecDecoder dec{table};
  std::uint16_t wire = 0;
  std::uint64_t h = 0;
  std::size_t loss_i = 0;
  const sim::TimePoint now = send_time(0);
  for (std::uint64_t i = 0; i < media; ++i) {
    if (i % 5000 == 0) enc.set_group_size(kLadder[(i / 5000) % 4]);
    net::Packet p;
    p.id = i + 1;
    p.frame_id = static_cast<std::uint32_t>(i / 8);
    p.size_bytes = 1200;
    p.transport_seq = wire++;
    const std::optional<net::Packet> parity = enc.on_media_packet(p);
    if (!lost[loss_i++]) {
      if (const auto rebuilt = dec.on_media_packet(p, now)) h = mix(h, rebuilt->id);
    }
    if (parity) {
      h = mix(h, static_cast<std::uint64_t>(parity->fec_group));
      if (!lost[loss_i++]) {
        if (const auto rebuilt = dec.on_parity_packet(*parity, now)) {
          h = mix(h, rebuilt->id);
        }
      }
    }
  }
  return mix(h, dec.recovered_packets());
}

void print_usage(const char* prog) {
  std::cout << "usage: " << prog
            << " [--packets N] [--seed S] [--bench-json PATH]\n"
               "  --packets N       packets in the stream (default 300000, "
               "1000 to 2000000)\n"
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
  // Media plus parity never exceeds two wire packets per media packet.
  std::vector<bool> lost(2 * packets);
  sim::Rng loss_rng{seed + 1};
  for (std::size_t i = 0; i < lost.size(); ++i) lost[i] = loss_rng.chance(0.02);

  std::cout
      << "==============================================================\n"
      << "Core bonded path — reorder window + FEC microbench\n"
      << "==============================================================\n"
      << packets << " packets at 2000/s over two paths (" << arrivals.size()
      << " copies arrive), " << kReps << " reps, seed " << seed << "\n\n";

  bool consistent = true;
  struct Case {
    const char* name;
    Timed timed;
  };
  const Case cases[] = {
      {"reorder", time_reps(arrivals.size(), consistent,
                            [&] { return run_reorder(arrivals); })},
      {"fec", time_reps(packets, consistent,
                        [&] { return run_fec(packets, lost); })},
  };

  metrics::TextTable table{{"workload", "ops", "best CPU (s)", "ns/op"}};
  json::Value rows = json::Value::array();
  for (const Case& c : cases) {
    const double ns =
        c.timed.best_cpu_seconds * 1e9 / static_cast<double>(c.timed.ops);
    table.add_row({c.name, std::to_string(c.timed.ops),
                   metrics::TextTable::num(c.timed.best_cpu_seconds, 4),
                   metrics::TextTable::num(ns, 1)});
    json::Value row = json::Value::object();
    row.set("workload", std::string{c.name})
        .set("ops", c.timed.ops)
        .set("best_cpu_seconds", c.timed.best_cpu_seconds)
        .set("ns_per_op", ns)
        .set("ops_per_second", 1e9 / ns);
    rows.push_back(std::move(row));
  }

  std::cout << table.render();
  std::cout << "\nstate across reps: " << (consistent ? "IDENTICAL" : "MISMATCH")
            << "\n";

  if (bench_json) {
    json::Value doc = json::Value::object();
    doc.set("bench", std::string{"core_bond"})
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
