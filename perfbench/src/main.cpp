// rpv_perfbench — one workload of the rpv benchmark in a fresh,
// single-threaded process (perfbench/run.py drives it; see the comment at
// the top of that file for the workloads and metrics).
//
//   rpv_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--out PATH] [--spans PATH] [--git-sha SHA]
//                 [--source-digest HEX]
//
// --trace 0 measures the end-to-end metrics: whole passes of the workload
// back to back for S seconds, each metric the median over passes.
// --trace 1 adds one traced pass between untraced ones: spans around the
// calls into each layer, bus event counts, heap allocations, and the
// isolated layer replays. Exit status: 0 when every output check passed,
// 1 when one failed, 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "obs/event.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace rpv;
using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 20.0;
  bool trace = false;
  std::string out;
  std::string spans;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

void usage(std::ostream& os) {
  os << "usage: rpv_perfbench --workload NAME [--seed N] [--seconds S] "
        "[--trace 0|1]\n"
        "                     [--out PATH] [--spans PATH] [--git-sha SHA] "
        "[--source-digest HEX]\n"
        "workloads:";
  for (const auto& w : workloads()) os << " " << w.name;
  os << "\n";
}

bool all_digits(const std::string& s) {
  return !s.empty() && s.size() <= 19 &&
         std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return c >= '0' && c <= '9'; });
}

// Returns an error message, or empty on success.
std::string parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return "missing value for " + arg;
    const std::string v = argv[++i];
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      if (!all_digits(v)) return "--seed must be a non-negative integer: " + v;
      opt.seed = std::stoull(v);
      opt.seed_given = true;
    } else if (arg == "--seconds") {
      if (!all_digits(v) || std::stoull(v) < 1 || std::stoull(v) > 600) {
        return "--seconds must be a whole number from 1 to 600: " + v;
      }
      opt.seconds = static_cast<double>(std::stoull(v));
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") return "--trace must be 0 or 1: " + v;
      opt.trace = v == "1";
    } else if (arg == "--out") {
      opt.out = v;
    } else if (arg == "--spans") {
      opt.spans = v;
    } else if (arg == "--git-sha") {
      opt.git_sha = v;
    } else if (arg == "--source-digest") {
      opt.source_digest = v;
    } else {
      return "unknown argument: " + arg;
    }
  }
  if (opt.workload.empty()) return "--workload is required";
  if (find_workload(opt.workload) == nullptr) {
    return "unknown workload: " + opt.workload;
  }
  return {};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double current_rss_mb() {
  std::ifstream statm{"/proc/self/statm"};
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

json::Value metrics_json(const std::vector<Metric>& ms) {
  json::Value obj = json::Value::object();
  for (const auto& m : ms) {
    json::Value v = json::Value::object();
    v.set("value", m.value).set("unit", m.unit);
    obj.set(m.name, std::move(v));
  }
  return obj;
}

void print_metrics(const std::string& title, const std::vector<Metric>& ms) {
  std::cout << title << "\n";
  for (const auto& m : ms) {
    std::cout << "  " << std::left << std::setw(36) << m.name << std::right
              << std::setw(18) << std::setprecision(6) << m.value << " "
              << m.unit << "\n";
  }
}

std::uint64_t component_total(const EventCounts& c, obs::Component comp) {
  std::uint64_t sum = 0;
  for (const auto n : c[static_cast<std::size_t>(comp)]) sum += n;
  return sum;
}

std::uint64_t count(const EventCounts& c, obs::Component comp,
                    obs::EventKind kind) {
  return c[static_cast<std::size_t>(comp)][static_cast<std::size_t>(kind)];
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const auto err = parse(argc, argv, opt); !err.empty()) {
    std::cerr << "rpv_perfbench: " << err << "\n";
    usage(std::cerr);
    return 2;
  }
  const Workload& w = *find_workload(opt.workload);
  const std::uint64_t seed = opt.seed_given ? opt.seed : w.default_seed;
  const bool is_fleet = w.kind == WorkloadKind::kFleet;
  const double rss_base_mb = current_rss_mb();

  // --- Measured passes -----------------------------------------------------
  std::vector<PassResult> passes;  // untraced
  std::vector<double> setup_samples;
  PassResult traced;
  TraceContext tctx;
  const double start = now_s();
  double last_pass_wall = 0.0;
  auto untraced_pass = [&] {
    const double t0 = now_s();
    passes.push_back(run_pass(w, seed, nullptr));
    last_pass_wall = now_s() - t0;
  };
  untraced_pass();
  if (opt.trace) {
    set_alloc_counting(true);
    traced = run_pass(w, seed, &tctx);
    set_alloc_counting(false);
  }
  // Start another pass only if it should end within the measured window, so
  // a run lasts about --seconds whatever the pass length; but an untraced
  // run takes at least three, so its medians do not rest on one or two
  // passes (a campaign_video pass is more than a third of the window).
  const std::size_t min_passes = opt.trace ? 1 : 3;
  while (passes.size() < min_passes ||
         now_s() - start + last_pass_wall <= opt.seconds) {
    untraced_pass();
  }
  const double peak_mb = peak_rss_mb();
  // Set-up takes well under a millisecond per pass, too short to time once.
  // Each sample repeats it alone for at least 50 ms; the metric is the
  // median of seven samples.
  while (setup_samples.size() < 7) {
    double spent = 0.0;
    int reps = 0;
    while (spent < 0.05) {
      spent += setup_only(w, seed);
      ++reps;
    }
    setup_samples.push_back(spent / reps);
  }

  // --- Output checks -------------------------------------------------------
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  auto tally = [&](const PassResult& p) {
    attempted += p.sessions;
    failed += p.failed;
    for (const auto& f : p.failures) failures.push_back(f);
  };
  for (const auto& p : passes) tally(p);
  if (opt.trace) tally(traced);

  const std::uint64_t digest = passes.front().digest;
  bool repeat = true;
  for (const auto& p : passes) repeat = repeat && p.digest == digest;
  checks.push_back({"digest repeats across passes", repeat, hex64(digest)});
  if (opt.trace) {
    checks.push_back({"traced digest equals untraced", traced.digest == digest,
                      hex64(traced.digest)});
  }
  checks.push_back({"session output checks", failed == 0,
                    failures.empty() ? std::string{"all sessions passed"}
                                     : failures.front()});
  TraceContext check_ctx;
  PassResult solo;
  {
    std::string err;
    try {
      err = check_fleet_of_one(w, seed, check_ctx, solo);
    } catch (const std::exception& e) {
      err = std::string{"fleet-of-one check threw: "} + e.what();
    }
    checks.push_back({"fleet of one equals standalone Session", err.empty(),
                      err.empty() ? std::string{"byte-identical"} : err});
  }
  // The traced run's spans must account for the time they enclose.
  const char* covered = is_fleet ? "pass" : "session";
  const double coverage = tctx.spans.child_coverage(covered);
  if (opt.trace) {
    checks.push_back({std::string{"child spans cover the "} + covered + " span",
                      coverage >= 0.95, std::to_string(coverage)});
  }
  bool correct = true;
  for (const auto& c : checks) correct = correct && c.ok;

  // --- End-to-end metrics --------------------------------------------------
  std::vector<double> rtf;
  std::vector<double> eps;
  std::vector<double> rtf_wall;
  std::vector<double> host;
  for (const auto& p : passes) {
    rtf.push_back(ratio(p.sim_seconds, p.run_s));
    eps.push_back(ratio(static_cast<double>(p.events), p.run_s));
    rtf_wall.push_back(ratio(p.sim_seconds, p.run_wall_s));
    host.push_back(p.setup_s + p.run_s);
  }
  const double sessions_per_pass = static_cast<double>(passes.front().sessions);
  const std::vector<Metric> e2e = {
      {"realtime_factor", median(rtf), "x"},
      {"sim_events_per_s", median(eps), "1/s"},
      {"setup_s", median(setup_samples), "s"},
      {"peak_rss_mb", peak_mb, "MB"},
      {"rss_per_session_mb", ratio(peak_mb - rss_base_mb, sessions_per_pass),
       "MB"},
      {"session_fail_ratio",
       ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
      {"realtime_factor_wall", median(rtf_wall), "x"},
  };

  // --- Per-layer metrics (traced run) --------------------------------------
  std::vector<Metric> layers;
  json::Value shares = json::Value::object();
  json::Value span_allocs = json::Value::object();
  if (opt.trace) {
    // pipeline.* spans and the replay costs come from the workload's own
    // Sessions on campaign_video. Fleets run theirs inside FleetEngine and
    // bond_sat runs MultipathSession (no begin()/collect(), no sender or
    // receiver events), so those take them from the fleet-of-one Session
    // built from the workload's base scenario.
    const bool own_sessions = w.kind == WorkloadKind::kCampaign;
    const auto& ws = tctx.spans;
    const auto& cs = check_ctx.spans;
    const auto& pipeline_spans = own_sessions ? ws : cs;
    const auto& fleet_spans = is_fleet ? ws : cs;
    const LayerCosts& costs = own_sessions ? tctx.costs : check_ctx.costs;
    const auto& c = traced.counts;
    const double events = static_cast<double>(traced.events);
    const char* run_span = is_fleet ? "fleet.run" : "pipeline.run";
    const double enqueues = static_cast<double>(
        count(c, obs::Component::kLinkQueue, obs::EventKind::kQueueEnqueue));
    const double json_s = ws.total("json.serialize");
    const double json_mb = static_cast<double>(traced.json_bytes) / 1e6;
    const double untraced_host = median(host);
    const double traced_host = traced.setup_s + traced.run_s;
    const auto publish = measure_masked_publish();

    layers = {
        {"sim.events", events, "count"},
        {"sim.allocs_per_event",
         ratio(static_cast<double>(ws.allocs(run_span)), events), "allocs/event"},
        {"sim.queue_ns_per_event", costs.queue.ns_per_op(), "ns"},
        {"cellular.measurements",
         static_cast<double>(count(c, obs::Component::kCellular,
                                   obs::EventKind::kLinkMeasurement)),
         "count"},
        {"cellular.handovers",
         static_cast<double>(count(c, obs::Component::kCellular,
                                   obs::EventKind::kHandoverStart)),
         "count"},
        {"cellular.rlf",
         static_cast<double>(
             count(c, obs::Component::kCellular, obs::EventKind::kRlf)),
         "count"},
        {"cellular.linkqueue.enqueues", enqueues, "count"},
        {"cellular.linkqueue.drop_ratio",
         ratio(static_cast<double>(count(c, obs::Component::kLinkQueue,
                                         obs::EventKind::kQueueDrop)),
               enqueues),
         "ratio"},
        {"cellular.linkqueue.ns_per_packet", costs.linkqueue.ns_per_op(), "ns"},
        {"cc.target_rate_changes",
         static_cast<double>(
             count(c, obs::Component::kCc, obs::EventKind::kTargetRate)),
         "count"},
        {"cc.gcc.ns_per_feedback", costs.gcc.ns_per_op(), "ns"},
        {"cc.scream.ns_per_feedback", costs.scream.ns_per_op(), "ns"},
        {"rtp.packetizer.ns_per_frame", costs.packetizer.ns_per_op(), "ns"},
        {"rtp.jitter.ns_per_packet", costs.jitter.ns_per_op(), "ns"},
        {"pipeline.setup_s", pipeline_spans.total("pipeline.setup"), "s"},
        {"pipeline.run_s", pipeline_spans.total("pipeline.run"), "s"},
        {"pipeline.collect_s", pipeline_spans.total("pipeline.collect"), "s"},
        {"pipeline.self_s", ws.self(covered), "s"},
        {"pipeline.span_coverage", coverage, "ratio"},
        {"pipeline.delivery_ratio",
         ratio(static_cast<double>(traced.packets_received),
               static_cast<double>(traced.packets_sent)),
         "ratio"},
        {"pipeline.play_ratio",
         ratio(static_cast<double>(traced.frames_played),
               static_cast<double>(traced.frames_encoded)),
         "ratio"},
        {"json.serialize_s", json_s, "s"},
        {"json.report_mb", json_mb, "MB"},
        {"json.mb_per_s", ratio(json_mb, json_s), "MB/s"},
        {"fleet.plan_s", fleet_spans.total("fleet.plan"), "s"},
        {"fleet.run_s", fleet_spans.total("fleet.run"), "s"},
        {"fleet.peak_cell_load",
         static_cast<double>(is_fleet ? traced.peak_cell_load
                                      : solo.peak_cell_load),
         "count"},
        {"bond.path_switches", static_cast<double>(traced.bond_path_switches),
         "count"},
        {"bond.fec_retunes", static_cast<double>(traced.bond_fec_retunes),
         "count"},
        {"bond.reorder_flushes", static_cast<double>(traced.bond_reorder_flushes),
         "count"},
        {"bond.reorder.ns_per_packet", costs.reorder.ns_per_op(), "ns"},
        {"bond.media_per_airtime",
         ratio(static_cast<double>(traced.bond_media_bytes),
               static_cast<double>(traced.bond_airtime_bytes)),
         "ratio"},
        {"sat.pass_handovers", static_cast<double>(traced.sat_pass_handovers),
         "count"},
        {"sat.outages", static_cast<double>(traced.sat_outages), "count"},
    };
    for (int i = 0; i < obs::kComponentCount; ++i) {
      const auto comp = static_cast<obs::Component>(i);
      layers.push_back({"obs.bus_events." + std::string{obs::component_name(comp)},
                        static_cast<double>(component_total(c, comp)), "count"});
    }
    layers.push_back({"obs.publish_ns_masked", publish.masked_ns, "ns"});
    layers.push_back({"obs.empty_loop_ns", publish.empty_ns, "ns"});
    layers.push_back({"obs.trace_overhead_frac",
                      ratio(traced_host - untraced_host, untraced_host), "ratio"});

    // Count x isolated cost, over the traced pass's run time. Where the
    // costs come from the fleet-of-one session, its feedback-report count is
    // scaled to the workload by the event ratio.
    const double run_ns = ws.total(run_span) * 1e9;
    const double solo_scale =
        own_sessions ? 1.0 : ratio(events, static_cast<double>(solo.events));
    auto share = [&](const char* name, double ops, const ReplayCost& cost) {
      shares.set(name, ratio(ops * cost.ns_per_op(), run_ns));
    };
    for (const char* name : {"pipeline.setup", "pipeline.run", "pipeline.collect",
                             "json.serialize", "fleet.plan", "fleet.run"}) {
      span_allocs.set(name, ws.allocs(name));
    }
    share("sim.queue", events, costs.queue);
    share("cellular.linkqueue", enqueues, costs.linkqueue);
    share("rtp.packetizer", static_cast<double>(traced.frames_encoded),
          costs.packetizer);
    share("rtp.jitter", static_cast<double>(traced.packets_received),
          costs.jitter);
    share("cc.gcc", static_cast<double>(costs.gcc_reports) * solo_scale,
          costs.gcc);
    share("cc.scream", static_cast<double>(costs.scream_reports) * solo_scale,
          costs.scream);
    share("bond.reorder",
          w.kind == WorkloadKind::kBond
              ? static_cast<double>(traced.packets_received)
              : 0.0,
          costs.reorder);
  }

  // --- Report --------------------------------------------------------------
  std::cout << "workload " << w.name << "  seed " << seed << "  passes "
            << passes.size() << (opt.trace ? " + 1 traced" : "") << "  digest "
            << hex64(digest) << "\n";
  for (const auto& c : checks) {
    std::cout << "  check " << (c.ok ? "ok  " : "FAIL") << "  " << c.name
              << " (" << c.detail << ")\n";
  }
  print_metrics("end-to-end (median over untraced passes, --jobs 1, host = "
                "process CPU time):",
                e2e);
  if (opt.trace) {
    print_metrics("per-layer (traced pass):", layers);
    std::cout << "estimated share of run time, count x isolated ns/op "
                 "(an estimate, not a measurement):\n";
    for (const auto& m : shares.members()) {
      std::cout << "  " << std::left << std::setw(36) << m.key << std::right
                << std::setw(17) << std::fixed << std::setprecision(1)
                << 100.0 * m.value.as_double() << "%\n"
                << std::defaultfloat;
    }
    std::cout << "heap allocations inside the traced pass's spans:\n";
    for (const auto& m : span_allocs.members()) {
      std::cout << "  " << std::left << std::setw(36) << m.key << std::right
                << std::setw(18) << m.value.as_u64() << "\n";
    }
  }

  json::Value prov = json::Value::object();
  prov.set("nproc", std::int64_t{sysconf(_SC_NPROCESSORS_ONLN)})
      .set("cpu_model", cpu_model())
      .set("compiler", std::string{PERFBENCH_COMPILER})
      .set("cmake_build_type", std::string{PERFBENCH_BUILD_TYPE})
      .set("git_sha", opt.git_sha)
      .set("source_digest", opt.source_digest)
      .set("jobs", 1)
      .set("seed", seed)
      .set("workload", w.name)
      .set("seconds", opt.seconds);

  json::Value check_arr = json::Value::array();
  for (const auto& c : checks) {
    json::Value v = json::Value::object();
    v.set("name", c.name).set("ok", c.ok).set("detail", c.detail);
    check_arr.push_back(std::move(v));
  }
  json::Value doc = json::Value::object();
  doc.set("workload", w.name)
      .set("seed", seed)
      .set("trace", opt.trace)
      .set("correct", correct)
      .set("attempted", attempted)
      .set("failed", failed)
      .set("digest", hex64(digest))
      .set("passes", static_cast<std::uint64_t>(passes.size()))
      .set("checks", std::move(check_arr))
      .set("end_to_end", metrics_json(e2e))
      .set("provenance", std::move(prov));
  if (opt.trace) {
    doc.set("per_layer", metrics_json(layers))
        .set("share_estimate", shares)
        .set("span_allocations", span_allocs);
  }
  if (!opt.out.empty() && !json::write_file(opt.out, doc)) {
    std::cerr << "rpv_perfbench: cannot write " << opt.out << "\n";
    return 2;
  }
  if (opt.trace && !opt.spans.empty()) {
    json::Value spans = json::Value::object();
    spans.set("workload", w.name)
        .set("traced_pass", tctx.spans.to_json())
        .set("fleet_of_one", check_ctx.spans.to_json());
    if (!json::write_file(opt.spans, spans)) {
      std::cerr << "rpv_perfbench: cannot write " << opt.spans << "\n";
      return 2;
    }
  }
  return correct ? 0 : 1;
}
