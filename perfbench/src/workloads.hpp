// The four benchmark workloads. Each is a closed batch run: one process,
// one worker thread (--jobs 1), sessions back to back. A pass executes the
// whole workload once and reports host time split into set-up and run,
// simulated work, an FNV-1a digest of the canonical report bytes, and the
// per-session output checks.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "replay.hpp"
#include "trace.hpp"

namespace perfbench {

enum class WorkloadKind { kCampaign, kFleet, kBond };

struct Workload {
  std::string name;
  WorkloadKind kind;
  std::uint64_t default_seed;
  int fleet_sessions = 0;      // fleets only
  double fleet_horizon_s = 0;  // fleets only
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

using EventCounts = std::array<std::array<std::uint64_t, rpv::obs::kEventKindCount>,
                               rpv::obs::kComponentCount>;

// State of a traced pass: spans, the counting/recording sink and the costs
// of the isolated replays.
struct TraceContext {
  SpanRecorder spans;
  TraceSink sink;
  LayerCosts costs;
};

// Host time is the CPU time of the (single-threaded) process: on a shared
// machine it leaves out the time other tenants hold the core. Wall time is
// kept beside it for reference.
struct PassResult {
  double setup_s = 0.0;  // layouts, trajectories, configs, sessions
  double run_s = 0.0;    // first simulated event .. last report folded
  double run_wall_s = 0.0;
  double sim_seconds = 0.0;  // simulated UAV-seconds
  std::uint64_t events = 0;
  std::uint64_t sessions = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis

  // Layer figures the traced run reports.
  std::uint64_t json_bytes = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t frames_encoded = 0;
  std::uint64_t frames_played = 0;
  std::uint64_t bond_path_switches = 0;
  std::uint64_t bond_fec_retunes = 0;
  std::uint64_t bond_reorder_flushes = 0;
  std::uint64_t bond_media_bytes = 0;
  std::uint64_t bond_airtime_bytes = 0;
  std::uint64_t sat_pass_handovers = 0;
  std::uint64_t sat_outages = 0;
  std::uint32_t peak_cell_load = 0;
  EventCounts counts{};  // bus events, (component, kind)
};

// One full execution of `w`; `tc` non-null makes it the traced pass.
[[nodiscard]] PassResult run_pass(const Workload& w, std::uint64_t seed,
                                  TraceContext* tc);

// Set-up only: build everything a pass builds before its first event, then
// discard it. Returns host (CPU) seconds.
[[nodiscard]] double setup_only(const Workload& w, std::uint64_t seed);

// A fleet of one built from the workload's base scenario must produce the
// byte-identical report of the standalone Session built from the same
// plan_fleet inputs. Spans land in `tc` (fleet.plan, fleet.run and the
// standalone session's pipeline.* spans); its sink records the standalone
// session. Returns an empty string on success, else what diverged.
[[nodiscard]] std::string check_fleet_of_one(const Workload& w,
                                             std::uint64_t seed,
                                             TraceContext& tc,
                                             PassResult& solo);

}  // namespace perfbench
