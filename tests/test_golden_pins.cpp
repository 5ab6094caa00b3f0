// Golden pins: FNV-1a digests of the canonical report JSON — and, for the
// observed runs, of the recorded events JSONL — for every session shape the
// pipeline builds: single path per CC, probe-only, C2 through an RLF storm
// with the resilience stack, obs with the packet ledger, the six bond
// policies over the rural operator pair, and the 3-way sat / sat+mesh bonds.
//
// The runs are short (90 s of the air profile, 60 s hover otherwise) so the
// whole file stays cheap, but each one exercises the full route of its
// shape. A refactor of the session layer must leave every digest unchanged.
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "experiment/scenario.hpp"
#include "fault/fault_schedule.hpp"
#include "obs/recorder.hpp"
#include "pipeline/multipath_session.hpp"
#include "pipeline/report_json.hpp"
#include "pipeline/session.hpp"

namespace rpv {
namespace {

using experiment::Environment;
using experiment::Mobility;
using experiment::Multipath;
using experiment::PathSet;
using pipeline::CcKind;

std::string fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct Pinned {
  pipeline::SessionReport r;
  std::string report;  // digest of report_to_json(r).dump()
  std::string events;  // digest of obs::to_jsonl(r.events)
  std::size_t packets_logged = 0;
};

// The RLF storm preset compressed into the short horizon.
fault::FaultSchedule short_rlf_storm() {
  fault::FaultSchedule fs;
  fs.rlf(15.0).rlf(30.0).rlf(45.0);
  return fs;
}

experiment::Scenario hover(Environment env, CcKind cc, std::uint64_t seed) {
  experiment::Scenario s;
  s.env = env;
  s.cc = cc;
  s.mobility = Mobility::kStatic;
  s.seed = seed;
  return s;
}

experiment::Scenario bonded(Multipath mp, PathSet paths, std::uint64_t seed) {
  auto s = hover(Environment::kRuralP1, CcKind::kGcc, seed);
  s.multipath = mp;
  s.path_set = paths;
  s.c2 = true;
  s.faults = short_rlf_storm();
  s.faults_on_both_operators = true;
  return s;
}

Pinned run_pinned(const experiment::Scenario& s, bool capture_packets = false) {
  sim::Rng rng{s.seed};
  auto layout = experiment::make_layout(s, rng);
  auto cfg = experiment::make_session_config(s);
  cfg.obs.capture_packets = capture_packets;
  const bool air = s.mobility == Mobility::kAir;
  const geo::Vec3 origin = air ? geo::Vec3{0.0, 0.0, 0.0}
                               : geo::Vec3{30.0, 30.0, 60.0};
  const auto horizon = sim::Duration::seconds(air ? 90.0 : 60.0);

  pipeline::SessionReport r;
  std::size_t logged = 0;
  if (s.multipath == Multipath::kNone) {
    auto traj = experiment::make_trajectory(s, rng, origin, horizon);
    pipeline::Session session{cfg, std::move(layout), &traj, "pin"};
    r = session.run();
    if (session.capture() != nullptr) logged = session.capture()->count();
  } else {
    auto other = s;
    other.env = Environment::kRuralP2;
    auto layout_b = experiment::make_layout(other, rng);
    auto traj = experiment::make_trajectory(s, rng, origin, horizon);
    pipeline::MultipathSession session{
        cfg,   std::move(layout), std::move(layout_b), &traj,
        "pin", experiment::bond_policy_of(s.multipath)};
    r = session.run();
  }
  auto report = fnv1a(pipeline::report_to_json(r).dump());
  auto events = fnv1a(obs::to_jsonl(r.events));
  return {std::move(r), std::move(report), std::move(events), logged};
}

// --- Single path ---

TEST(GoldenPins, SinglePathAirPerCc) {
  struct Case {
    CcKind cc;
    const char* report;
  };
  for (const auto& c : {Case{CcKind::kGcc, "ea7cd6cd2d7321d6"},
                        Case{CcKind::kScream, "dfaa3f37fd0c5efc"},
                        Case{CcKind::kStatic, "ed6caf4308441f25"}}) {
    auto s = hover(Environment::kUrban, c.cc, 11);
    s.mobility = Mobility::kAir;
    EXPECT_EQ(run_pinned(s).report, c.report) << pipeline::cc_name(c.cc);
  }
}

TEST(GoldenPins, ProbeOnly) {
  auto s = hover(Environment::kUrban, CcKind::kNone, 12);
  s.probe_interval = sim::Duration::millis(100);
  const auto p = run_pinned(s);
  EXPECT_EQ(p.report, "fc04e45703bc456f");
  EXPECT_FALSE(p.r.rtt_by_altitude.empty());
}

TEST(GoldenPins, C2ThroughRlfStormWithResilience) {
  auto s = hover(Environment::kRuralP1, CcKind::kGcc, 13);
  s.c2 = true;
  s.faults = short_rlf_storm();
  s.resilience = true;
  const auto p = run_pinned(s);
  EXPECT_EQ(p.report, "a05686440858a6bf");
  EXPECT_EQ(p.r.faults_injected, 3u);
  EXPECT_GT(p.r.commands_sent, 0u);
}

TEST(GoldenPins, ObservedWithPacketLedger) {
  auto s = hover(Environment::kUrban, CcKind::kGcc, 14);
  s.observe = true;
  const auto p = run_pinned(s, /*capture_packets=*/true);
  EXPECT_EQ(p.report, "fbc06d3ce179ed7b");
  EXPECT_EQ(p.events, "a30649e6e1a7ab71");
  EXPECT_EQ(p.packets_logged, 79146u);
}

// --- Bonded ---

TEST(GoldenPins, BondedEveryPolicyFaultsOnBothOperators) {
  struct Case {
    Multipath mp;
    const char* report;
  };
  for (const auto& c :
       {Case{Multipath::kDuplicate, "5386dc534772e0d9"},
        Case{Multipath::kScheduled, "a2df2acd2a9dae85"},
        Case{Multipath::kFailover, "712a3d164d5e4eae"},
        Case{Multipath::kBondLowLatency, "fe472cf24ed6dbf2"},
        Case{Multipath::kBondBalanced, "462b9a885cb125b3"},
        Case{Multipath::kBondHighReliability, "f246be9461e28895"}}) {
    const auto p = run_pinned(bonded(c.mp, PathSet::kOperatorPair, 21));
    EXPECT_EQ(p.report, c.report) << experiment::multipath_name(c.mp);
    EXPECT_EQ(p.r.faults_injected, 6u);
  }
}

TEST(GoldenPins, BondedWithSatAndMesh) {
  struct Case {
    Multipath mp;
    PathSet paths;
    const char* report;
  };
  for (const auto& c :
       {Case{Multipath::kFailover, PathSet::kThreeWay,
             "dc6f3ec9d366c84b"},
        Case{Multipath::kFailover, PathSet::kThreeWayMesh,
             "9f74accc22b5374f"},
        Case{Multipath::kBondBalanced, PathSet::kThreeWay,
             "f684b1b4625727b3"},
        Case{Multipath::kBondBalanced, PathSet::kThreeWayMesh,
             "d5563c72dbf9dfef"},
        Case{Multipath::kBondHighReliability, PathSet::kThreeWay,
             "dda928283580af45"},
        Case{Multipath::kBondHighReliability, PathSet::kThreeWayMesh,
             "84c6d41c41441659"}}) {
    EXPECT_EQ(run_pinned(bonded(c.mp, c.paths, 22)).report, c.report)
        << experiment::multipath_name(c.mp) << " "
        << experiment::path_set_name(c.paths);
  }
}

TEST(GoldenPins, BondedObserved) {
  auto s = bonded(Multipath::kBondHighReliability, PathSet::kThreeWay, 23);
  s.observe = true;
  const auto p = run_pinned(s);
  EXPECT_EQ(p.report, "1812bb2b355a8868");
  EXPECT_EQ(p.events, "6a4773832b40f8c4");
  EXPECT_GT(p.r.sat_pass_handovers, 0u);
}

}  // namespace
}  // namespace rpv
