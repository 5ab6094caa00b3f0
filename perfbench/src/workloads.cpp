#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <memory>

#include "experiment/scenario.hpp"
#include "fleet/fleet_engine.hpp"
#include "fleet/fleet_report.hpp"
#include "pipeline/multipath_session.hpp"
#include "pipeline/report_json.hpp"
#include "pipeline/session.hpp"

namespace perfbench {

using namespace rpv;
using experiment::Environment;
using experiment::Scenario;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"campaign_video", WorkloadKind::kCampaign, 1000},
      {"fleet_urban_64", WorkloadKind::kFleet, 42000, 64, 60.0},
      {"fleet_urban_1000", WorkloadKind::kFleet, 42000, 1000, 20.0},
      {"bond_sat", WorkloadKind::kBond, 1000},
  };
  return kAll;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

void fold_fnv(std::uint64_t& h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
}

// The rpv_campaign `video` grid: {urban, rural-p1, rural-p2} x air x
// {gcc, scream, static}, one run per cell at the base seed.
std::vector<Scenario> campaign_cells(std::uint64_t seed) {
  std::vector<Scenario> cells;
  for (const auto env : {Environment::kUrban, Environment::kRuralP1,
                         Environment::kRuralP2}) {
    for (const auto cc : {pipeline::CcKind::kGcc, pipeline::CcKind::kScream,
                          pipeline::CcKind::kStatic}) {
      Scenario s;
      s.env = env;
      s.cc = cc;
      s.seed = seed;
      cells.push_back(s);
    }
  }
  return cells;
}

// The rpv_campaign `sat` grid: rural-p1 hover with an RLF storm on both
// operators, {failover, bond-balanced, bond-hr} x {operator pair, +LEO}.
Scenario sat_base(std::uint64_t seed) {
  Scenario s;
  s.env = Environment::kRuralP1;
  s.mobility = experiment::Mobility::kStatic;
  s.cc = pipeline::CcKind::kStatic;
  s.c2 = true;
  s.fault_preset = experiment::FaultPreset::kRlfStorm;
  s.faults_on_both_operators = true;
  s.seed = seed;
  return s;
}

std::vector<Scenario> bond_cells(std::uint64_t seed) {
  std::vector<Scenario> cells;
  for (const auto mp : {experiment::Multipath::kFailover,
                        experiment::Multipath::kBondBalanced,
                        experiment::Multipath::kBondHighReliability}) {
    for (const auto ps : {experiment::PathSet::kOperatorPair,
                          experiment::PathSet::kThreeWay}) {
      Scenario s = sat_base(seed);
      s.multipath = mp;
      s.path_set = ps;
      cells.push_back(s);
    }
  }
  return cells;
}

fleet::FleetScenario fleet_scenario(const Workload& w, std::uint64_t seed) {
  fleet::FleetScenario fs;
  fs.base.env = Environment::kUrban;
  fs.base.mobility = experiment::Mobility::kStatic;
  fs.base.cc = pipeline::CcKind::kGcc;
  fs.base.seed = seed;
  fs.sessions = w.fleet_sessions;
  fs.horizon_sec = w.fleet_horizon_s;
  fs.epoch_sec = 1.0;
  return fs;
}

// run_scenario's seed whitening, so a pass builds exactly the inputs
// experiment::run_scenario would.
sim::Rng scenario_rng(const Scenario& s) {
  return sim::Rng{s.seed * 0x9E3779B97F4A7C15ULL + 0x1234567};
}

std::string session_env_label(const Scenario& s) {
  return experiment::environment_name(s.env) + "/" +
         experiment::mobility_name(s.mobility);
}

// The other operator of a bonded run, as run_scenario pairs them.
Scenario partner_of(const Scenario& s) {
  Scenario other = s;
  if (s.env == Environment::kRuralP1) other.env = Environment::kRuralP2;
  if (s.env == Environment::kRuralP2) other.env = Environment::kRuralP1;
  return other;
}

std::string bond_env_label(const Scenario& s) {
  std::string label = experiment::environment_name(s.env) + "+" +
                      experiment::environment_name(partner_of(s).env);
  if (s.path_set == experiment::PathSet::kThreeWay) label += "+sat";
  if (s.path_set == experiment::PathSet::kThreeWayMesh) label += "+sat+mesh";
  return label + "/" + experiment::mobility_name(s.mobility);
}

void record_failure(PassResult& pr, std::string why) {
  ++pr.failed;
  if (pr.failures.size() < 8) pr.failures.push_back(std::move(why));
}

// The per-session output checks: a session fails when it breaks one.
void check_report(const pipeline::SessionReport& r, const std::string& label,
                  PassResult& pr) {
  if (r.frames_played > r.frames_encoded) {
    record_failure(pr, label + ": frames played > frames encoded");
  } else if (r.packets_received > r.packets_sent) {
    record_failure(pr, label + ": packets received > packets sent");
  } else if (r.sim_events == 0) {
    record_failure(pr, label + ": no simulated events");
  }
}

void fold_report(const pipeline::SessionReport& r, const std::string& json,
                 PassResult& pr) {
  fold_fnv(pr.digest, json);
  pr.json_bytes += json.size();
  pr.events += r.sim_events;
  pr.sim_seconds += r.duration.sec();
  pr.packets_sent += r.packets_sent;
  pr.packets_received += r.packets_received;
  pr.frames_encoded += r.frames_encoded;
  pr.frames_played += r.frames_played;
  pr.bond_path_switches += r.bond_path_switches;
  pr.bond_fec_retunes += r.bond_fec_rate_changes;
  pr.bond_reorder_flushes += r.bond_reorder_flushes;
  pr.bond_media_bytes += r.bond_media_bytes;
  pr.bond_airtime_bytes += r.bond_airtime_bytes;
  pr.sat_pass_handovers += r.sat_pass_handovers;
  pr.sat_outages += r.sat_obstructions;
}

void copy_counts(const TraceSink& sink, EventCounts& out) {
  for (int c = 0; c < obs::kComponentCount; ++c) {
    for (int k = 0; k < obs::kEventKindCount; ++k) {
      out[c][k] = sink.count(static_cast<obs::Component>(c),
                             static_cast<obs::EventKind>(k));
    }
  }
}

// Advance to `end`; a traced run steps in 1 s slices (stepping in any
// increments executes the identical event sequence) to sample the
// event-queue population.
std::size_t run_to(sim::Simulator& sim, sim::TimePoint end, bool sample) {
  if (!sample) {
    sim.run_until(end);
    return 0;
  }
  std::vector<std::size_t> pending;
  for (auto t = sim.now() + sim::Duration::seconds(1.0); t < end;
       t = t + sim::Duration::seconds(1.0)) {
    sim.run_until(t);
    pending.push_back(sim.pending_events());
  }
  sim.run_until(end);
  if (pending.empty()) return sim.pending_events();
  std::nth_element(pending.begin(), pending.begin() + pending.size() / 2,
                   pending.end());
  return pending[pending.size() / 2];
}

// What plan_fleet fixes for a fleet session, so the standalone reference
// session is built from exactly the fleet's inputs and observed the way the
// fleet observes its sessions.
struct FleetInputs {
  const fleet::FleetMission* mission;
  obs::EventSink* registry;  // the all-kinds sink every fleet session carries
};

// One single-path session: the decomposition of run_scenario for a
// reactive, unplanned scenario, with a span around each call.
void run_session(const Scenario& s, const std::string& label,
                 const FleetInputs* fleet_inputs, PassResult& pr,
                 TraceContext* tc, std::uint32_t parent) {
  SpanRecorder* rec = tc ? &tc->spans : nullptr;
  auto session_span = std::make_optional<ScopedSpan>(rec, "session", parent);
  const auto sid = session_span->id();
  ++pr.sessions;

  const double t0 = cpu_s();
  auto setup = std::make_optional<ScopedSpan>(rec, "pipeline.setup", sid);
  const fleet::FleetMission* m = fleet_inputs ? fleet_inputs->mission : nullptr;
  auto rng = scenario_rng(s);
  auto layout = m ? m->layout : experiment::make_layout(s, rng);
  std::optional<geo::Trajectory> own_trajectory;
  if (m == nullptr) own_trajectory = experiment::make_trajectory(s, rng);
  const geo::Trajectory* trajectory =
      m ? &m->trajectories.front() : &*own_trajectory;
  const auto cfg = m ? m->configs.front() : experiment::make_session_config(s);
  pipeline::Session session{cfg, std::move(layout), trajectory,
                            m ? m->environment : session_env_label(s)};
  setup.reset();
  const double t1 = cpu_s();
  const double wall1 = now_s();
  pr.setup_s += t1 - t0;

  if (fleet_inputs) session.observer().subscribe(fleet_inputs->registry);
  if (tc) session.observer().subscribe(&tc->sink);
  std::size_t pending = 0;
  {
    ScopedSpan run{rec, "pipeline.run", sid};
    session.begin();
    pending = run_to(session.simulator(), session.drain_end(), tc != nullptr);
  }
  pipeline::SessionReport r;
  {
    ScopedSpan collect{rec, "pipeline.collect", sid};
    r = session.collect();
  }
  std::string json;
  {
    ScopedSpan ser{rec, "json.serialize", sid};
    json = pipeline::report_to_json(r).dump();
  }
  pr.run_s += cpu_s() - t1;
  pr.run_wall_s += now_s() - wall1;

  session_span.reset();  // the replays below are not part of the session
  fold_report(r, json, pr);
  check_report(r, label, pr);
  if (tc) {
    replay_session(tc->sink.recording(), cfg, pending, tc->costs);
    tc->sink.clear_recording();
  }
}

void run_bond_session(const Scenario& s, PassResult& pr, TraceContext* tc,
                      std::uint32_t parent) {
  SpanRecorder* rec = tc ? &tc->spans : nullptr;
  auto session_span = std::make_optional<ScopedSpan>(rec, "session", parent);
  const auto sid = session_span->id();
  ++pr.sessions;

  const double t0 = cpu_s();
  auto setup = std::make_optional<ScopedSpan>(rec, "pipeline.setup", sid);
  auto rng = scenario_rng(s);
  auto layout = experiment::make_layout(s, rng);
  auto layout_b = experiment::make_layout(partner_of(s), rng);
  auto trajectory = experiment::make_trajectory(s, rng);
  const auto cfg = experiment::make_session_config(s);
  pipeline::MultipathSession session{cfg,
                                     std::move(layout),
                                     std::move(layout_b),
                                     &trajectory,
                                     bond_env_label(s),
                                     experiment::bond_policy_of(s.multipath)};
  setup.reset();
  const double t1 = cpu_s();
  const double wall1 = now_s();
  pr.setup_s += t1 - t0;

  if (tc) session.subscribe(&tc->sink);
  pipeline::SessionReport r;
  {
    // MultipathSession has no begin()/collect() split: run() is all three.
    ScopedSpan run{rec, "pipeline.run", sid};
    r = session.run();
  }
  pr.run_s += cpu_s() - t1;
  pr.run_wall_s += now_s() - wall1;
  std::string json;
  {
    // Serialized for the digest only; bonded runs are not timed through json.
    ScopedSpan ser{rec, "json.serialize", sid};
    json = pipeline::report_to_json(r).dump();
  }
  session_span.reset();
  fold_report(r, json, pr);
  check_report(r, bond_env_label(s) + "-" + experiment::multipath_name(s.multipath),
               pr);
  // A MultipathSession publishes no sender/receiver events, so its streams
  // cannot drive the replays; bond_sat takes its per-operation costs from
  // the fleet-of-one Session built from the sat grid's base scenario.
  if (tc) tc->sink.clear_recording();
}

void fold_fleet_counts(const obs::MetricsSummary& m, EventCounts& out) {
  for (const auto& counter : m.counters) {
    const auto slash = counter.name.find('/');
    if (slash == std::string::npos) continue;
    const auto c = obs::component_from_name(counter.name.substr(0, slash));
    const auto k = obs::event_kind_from_name(counter.name.substr(slash + 1));
    if (c && k) {
      out[static_cast<std::size_t>(*c)][static_cast<std::size_t>(*k)] +=
          counter.value;
    }
  }
}

std::uint64_t count_of(const EventCounts& c, obs::Component comp,
                       obs::EventKind kind) {
  return c[static_cast<std::size_t>(comp)][static_cast<std::size_t>(kind)];
}

void run_fleet_pass(const Workload& w, std::uint64_t seed, PassResult& pr,
                    TraceContext* tc, std::uint32_t parent) {
  SpanRecorder* rec = tc ? &tc->spans : nullptr;
  const auto fs = fleet_scenario(w, seed);
  pr.sessions += static_cast<std::uint64_t>(fs.sessions);

  double t0 = cpu_s();
  {
    ScopedSpan plan_span{rec, "fleet.plan", parent};
    const auto plan = fleet::plan_fleet(fs);
    pr.setup_s += cpu_s() - t0;
  }
  t0 = cpu_s();
  const double wall0 = now_s();
  fleet::FleetRunResult result;
  {
    ScopedSpan run_span{rec, "fleet.run", parent};
    result = fleet::FleetEngine{{.jobs = 1}}.run(fs);
  }
  pr.run_s += cpu_s() - t0;
  pr.run_wall_s += now_s() - wall0;
  std::string json;
  {
    ScopedSpan ser{rec, "json.serialize", parent};
    json = fleet::fleet_report_to_json(result.report).dump();
  }
  const auto& rep = result.report;
  fold_fnv(pr.digest, json);
  pr.json_bytes += json.size();
  pr.events += rep.total_events;
  pr.sim_seconds += static_cast<double>(fs.sessions) * fs.horizon_sec;
  pr.packets_sent += rep.packets_sent;
  pr.packets_received += rep.packets_received;
  pr.peak_cell_load = rep.peak_cell_load;
  fold_fleet_counts(rep.metrics, pr.counts);
  pr.frames_encoded += count_of(pr.counts, obs::Component::kSender,
                                obs::EventKind::kFrameEncoded);
  pr.frames_played += count_of(pr.counts, obs::Component::kReceiver,
                               obs::EventKind::kFrameDecoded);
  // A fleet report has no per-session breakdown: a broken fleet-level check
  // fails every session in it.
  if (pr.frames_played > pr.frames_encoded ||
      rep.packets_received > rep.packets_sent || rep.total_events == 0) {
    pr.failed += static_cast<std::uint64_t>(fs.sessions);
    pr.failures.push_back(w.name + ": fleet report breaks an output check");
  }
}

}  // namespace

PassResult run_pass(const Workload& w, std::uint64_t seed, TraceContext* tc) {
  PassResult pr;
  SpanRecorder* rec = tc ? &tc->spans : nullptr;
  ScopedSpan pass_span{rec, "pass", 0};
  try {
    switch (w.kind) {
      case WorkloadKind::kCampaign:
        for (const auto& s : campaign_cells(seed)) {
          try {
            run_session(s, session_env_label(s) + "-" + pipeline::cc_name(s.cc),
                        nullptr, pr, tc, pass_span.id());
          } catch (const std::exception& e) {
            record_failure(pr, std::string{"campaign session threw: "} + e.what());
          }
        }
        break;
      case WorkloadKind::kBond:
        for (const auto& s : bond_cells(seed)) {
          try {
            run_bond_session(s, pr, tc, pass_span.id());
          } catch (const std::exception& e) {
            record_failure(pr, std::string{"bonded session threw: "} + e.what());
          }
        }
        break;
      case WorkloadKind::kFleet:
        run_fleet_pass(w, seed, pr, tc, pass_span.id());
        break;
    }
  } catch (const std::exception& e) {
    pr.failed = std::max<std::uint64_t>(pr.failed + 1, pr.sessions);
    pr.failures.push_back(std::string{"pass threw: "} + e.what());
  }
  if (tc && w.kind != WorkloadKind::kFleet) copy_counts(tc->sink, pr.counts);
  return pr;
}

double setup_only(const Workload& w, std::uint64_t seed) {
  const double t0 = cpu_s();
  switch (w.kind) {
    case WorkloadKind::kCampaign:
      for (const auto& s : campaign_cells(seed)) {
        auto rng = scenario_rng(s);
        auto layout = experiment::make_layout(s, rng);
        auto trajectory = experiment::make_trajectory(s, rng);
        pipeline::Session session{experiment::make_session_config(s),
                                  std::move(layout), &trajectory,
                                  session_env_label(s)};
      }
      break;
    case WorkloadKind::kBond:
      for (const auto& s : bond_cells(seed)) {
        auto rng = scenario_rng(s);
        auto layout = experiment::make_layout(s, rng);
        auto layout_b = experiment::make_layout(partner_of(s), rng);
        auto trajectory = experiment::make_trajectory(s, rng);
        pipeline::MultipathSession session{
            experiment::make_session_config(s), std::move(layout),
            std::move(layout_b),                &trajectory,
            bond_env_label(s), experiment::bond_policy_of(s.multipath)};
      }
      break;
    case WorkloadKind::kFleet: {
      const auto plan = fleet::plan_fleet(fleet_scenario(w, seed));
      break;
    }
  }
  return cpu_s() - t0;
}

std::string check_fleet_of_one(const Workload& w, std::uint64_t seed,
                               TraceContext& tc, PassResult& solo) {
  fleet::FleetScenario one;
  switch (w.kind) {
    case WorkloadKind::kFleet:
      one = fleet_scenario(w, seed);
      break;
    case WorkloadKind::kCampaign:
      one.base = campaign_cells(seed).front();
      one.horizon_sec = 60.0;
      break;
    case WorkloadKind::kBond:
      one.base = sat_base(seed);
      one.horizon_sec = 60.0;
      break;
  }
  one.sessions = 1;

  ScopedSpan root{&tc.spans, "fleet_of_one", 0};
  fleet::FleetRunResult fleet_result;
  {
    ScopedSpan run{&tc.spans, "fleet.run", root.id()};
    fleet_result = fleet::FleetEngine{{.jobs = 1, .keep_reports = true}}.run(one);
  }
  solo.peak_cell_load = fleet_result.report.peak_cell_load;
  fleet::FleetMission mission;
  {
    ScopedSpan plan{&tc.spans, "fleet.plan", root.id()};
    mission = fleet::plan_fleet(one);
  }
  Scenario s = one.base;
  s.seed = mission.seeds.front();
  obs::MetricsRegistry registry;
  const FleetInputs inputs{&mission, &registry};
  run_session(s, "fleet-of-one standalone", &inputs, solo, &tc, root.id());
  copy_counts(tc.sink, solo.counts);

  const auto fleet_json =
      pipeline::report_to_json(fleet_result.session_reports.at(0)).dump();
  std::uint64_t fleet_digest = PassResult{}.digest;
  fold_fnv(fleet_digest, fleet_json);
  if (fleet_digest != solo.digest) {
    return "fleet of one diverged from the standalone Session (" + w.name + ")";
  }
  return {};
}

}  // namespace perfbench
