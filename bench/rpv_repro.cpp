// rpv_repro — the paper's evaluation (Figs. 4-13, the §4.2.1 stall and
// ack-window results, the §A.4 and §5 ablations) as one table of claims.
//
//   rpv_repro [--runs N] [--seed S] [--jobs J]
//
// Table 1 lists every cell a claim reads: a label, a scenario (its seed is
// the base seed), a run count and, for the §5 ablations, a SessionConfig
// tweak. The cells expand into one task list keyed by (scenario, seed,
// tweak), so a run several claims read is simulated once, and
// exec::CampaignEngine runs it. Table 2 states each result of the paper as a
// band on one number measured over named cells. Bands come from the paper's
// statement, never from the measured value:
//   * an ordering -> a ratio band with one end at 1;
//   * "~ v" for a rate, time or ratio -> [v/2, 2v]: the goal is shape
//     fidelity (who wins, by roughly what factor), not the testbed's numbers;
//   * "~ p%" for a share -> p +- 5 percentage points;
//   * a range or bound the paper states -> that range.
// A row outside its band is a known deviation, with its reason in
// EXPERIMENTS.md; never widen a band, or resize or re-seed a cell, to turn a
// row green. Exits 1 on any FAIL or XPASS, 2 on a bad flag or table; the
// bands hold at the default run counts. The per-figure series (CDFs,
// boxplots, the Fig. 8 timeline) come from `rpv_campaign <grid> --out` and
// `rpv_trace`.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "exec/run_artifact.hpp"
#include "experiment/scenario.hpp"

namespace {

using namespace rpv;
using E = experiment::Environment;
using M = experiment::Mobility;
using pipeline::CcKind;
using R = pipeline::SessionReport;
using Cells = std::vector<bench::Runs>;
using bench::kInf;

// --- Table 1: cells ---

enum class Tweak { kNone, kCodel, kDaps };

struct Cell {
  std::string label;
  experiment::Scenario scenario;
  int runs = 5;
  // Seeds are base + i * stride: campaign_seeds' 7919, except the §5
  // ablations, which have always run consecutive seeds.
  std::uint64_t seed_stride = 7919;
  Tweak tweak = Tweak::kNone;
  // Keep each run's per-packet OWD timeline (owd_trace_ms). Other cells drop
  // it after the run: at 16 bytes a packet it is the largest part of a
  // report, and all reports stay in memory until the claims are evaluated.
  bool timeline = false;
};

experiment::Scenario video(E env, CcKind cc, M mobility = M::kAir) {
  experiment::Scenario s;
  s.env = env;
  s.cc = cc;
  s.mobility = mobility;
  s.seed = 1000;
  return s;
}

Cell named(const experiment::Scenario& s, int runs,
           const std::string& suffix = "") {
  return {experiment::environment_name(s.env) + "-" +
              experiment::mobility_name(s.mobility) + "-" +
              pipeline::cc_name(s.cc) + suffix,
          s, runs};
}

std::vector<Cell> make_cells() {
  std::vector<Cell> cells;
  // Figs. 5-7 and 9, the stall table and the ablations' default arms, at the
  // largest run count any of them reads (the stall table's 6).
  for (const auto env : {E::kUrban, E::kRuralP1}) {
    for (const auto cc : {CcKind::kGcc, CcKind::kScream, CcKind::kStatic}) {
      cells.push_back(named(video(env, cc), 6));
    }
  }
  cells.push_back(named(video(E::kUrban, CcKind::kStatic, M::kGround), 5));
  cells.push_back(named(video(E::kRuralP1, CcKind::kStatic, M::kGround), 5));
  cells.push_back(named(video(E::kRuralP2, CcKind::kScream), 5));
  // Fig. 12 and the ack-window ablation: the Ericsson library's 64-packet
  // RFC 8888 window, as the A.3 measurements ran.
  for (const auto env : {E::kRuralP1, E::kRuralP2, E::kUrban}) {
    for (const auto cc : {CcKind::kGcc, CcKind::kScream, CcKind::kStatic}) {
      auto s = video(env, cc);
      s.rfc8888_ack_window = 64;
      const bool ablated = env != E::kRuralP2 && cc == CcKind::kScream;
      if (env != E::kUrban || ablated) {
        cells.push_back(named(s, ablated ? 5 : 4, "-ack64"));
      }
    }
  }
  for (const auto cc : {CcKind::kGcc, CcKind::kScream}) {  // §A.4
    auto s = video(E::kUrban, cc);
    s.drop_on_latency = true;
    cells.push_back(named(s, 5, "-drop"));
  }
  // Figs. 4, 10(b) and 13: probe-only flights.
  for (const auto& [env, mobility] : std::vector<std::pair<E, M>>{
           {E::kUrban, M::kAir}, {E::kUrban, M::kGround},
           {E::kRuralP1, M::kAir}, {E::kRuralP1, M::kGround},
           {E::kRuralP2, M::kAir}}) {
    auto s = video(env, CcKind::kNone, mobility);
    s.probe_interval = sim::Duration::millis(100);
    s.seed = 2000;
    cells.push_back(named(s, 8));
  }
  auto flight = video(E::kRuralP1, CcKind::kGcc);  // Fig. 8's one flight
  flight.seed = 4242;
  cells.push_back({"fig8-flight", flight, 1, 7919, Tweak::kNone, true});
  // §5: CoDel-style AQM on the uplink buffer, and DAPS handover.
  for (const auto tweak : {Tweak::kNone, Tweak::kCodel}) {
    for (const auto cc : {CcKind::kStatic, CcKind::kGcc}) {
      auto s = video(E::kUrban, cc);
      s.seed = 5000;
      const std::string arm = tweak == Tweak::kCodel ? "codel-" : "fifo-";
      cells.push_back({"aqm-" + arm + pipeline::cc_name(cc), s, 4, 1, tweak});
    }
  }
  for (const auto tweak : {Tweak::kNone, Tweak::kDaps}) {
    auto s = video(E::kUrban, CcKind::kGcc);
    s.seed = 7000;
    cells.push_back(
        {tweak == Tweak::kDaps ? "daps-on" : "daps-off", s, 5, 1, tweak});
  }
  return cells;
}

// run_scenario's single-path set-up — the same seed rule, layout and
// trajectory — with the tweak applied to the session config.
R run_tweaked(const experiment::Scenario& s, Tweak tweak) {
  sim::Rng rng{s.seed * 0x9E3779B97F4A7C15ULL + 0x1234567};
  auto layout = experiment::make_layout(s, rng);
  auto trajectory = experiment::make_trajectory(s, rng);
  auto cfg = experiment::make_session_config(s);
  cfg.link.queue.aqm_enabled |= tweak == Tweak::kCodel;
  cfg.link.handover.make_before_break |= tweak == Tweak::kDaps;
  pipeline::Session session{cfg, std::move(layout), &trajectory,
                            experiment::environment_name(s.env) + "/" +
                                experiment::mobility_name(s.mobility)};
  return session.run();
}

// Simulates each distinct (scenario, seed, tweak) of the cells once into
// `reports` and returns each cell's runs, in seed order.
std::map<std::string, bench::Runs> run_cells(const std::vector<Cell>& cells,
                                             std::vector<R>& reports) {
  std::vector<experiment::Scenario> scenarios;
  std::vector<Tweak> tweaks;
  std::vector<bool> timeline;
  std::map<std::pair<std::string, Tweak>, std::size_t> task_of;
  std::map<std::string, std::vector<std::size_t>> tasks_of_cell;
  for (const auto& cell : cells) {
    const auto base = bench::seed_or(cell.scenario.seed);
    for (int i = 0; i < bench::runs_or(cell.runs); ++i) {
      auto s = cell.scenario;
      s.seed = base + static_cast<std::uint64_t>(i) * cell.seed_stride;
      const auto [it, fresh] = task_of.try_emplace(
          {exec::scenario_to_json(s).dump(), cell.tweak}, scenarios.size());
      if (fresh) {
        scenarios.push_back(s);
        tweaks.push_back(cell.tweak);
        timeline.push_back(false);
      }
      timeline[it->second] = timeline[it->second] || cell.timeline;
      tasks_of_cell[cell.label].push_back(it->second);
    }
  }
  const exec::CampaignEngine engine{{.jobs = bench::options().jobs}};
  reports = engine.run_scenarios(scenarios, [&](std::size_t i) {
    auto r = tweaks[i] == Tweak::kNone ? experiment::run_scenario(scenarios[i])
                                       : run_tweaked(scenarios[i], tweaks[i]);
    if (!timeline[i]) r.owd_trace_ms = {};
    return r;
  });
  std::map<std::string, bench::Runs> runs;
  for (const auto& [label, ids] : tasks_of_cell) {
    for (const auto id : ids) runs[label].push_back(&reports[id]);
  }
  return runs;
}

// --- Quantities, each pooled over every run of the cells it is given ---

using Quantity = double (*)(const Cells&);

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double pct(double fraction) { return 100.0 * fraction; }

template <typename F>
void for_each_run(const Cells& c, F f) {
  for (const auto& runs : c) {
    for (const auto* r : runs) f(*r);
  }
}

metrics::Cdf pool(const Cells& c, const std::vector<double> R::*samples) {
  metrics::Cdf cdf;
  for_each_run(c, [&](const R& r) { cdf.add_all(r.*samples); });
  return cdf;
}

// The mean (Q < 0) or the Q-quantile of a sample set.
double stat(const metrics::Cdf& cdf, double q) {
  return q < 0 ? cdf.mean() : cdf.quantile(q);
}

// Statistics of one per-packet, per-frame or per-second vector of the
// report, pooled over all runs.
template <auto Samples, double Q = -1.0>
double sampled(const Cells& c) {
  return stat(pool(c, Samples), Q);
}
template <auto Samples, double X>
double pct_below(const Cells& c) {
  return pct(pool(c, Samples).fraction_below(X));
}
template <auto Samples, double X>
double pct_at_least(const Cells& c) {
  return pct(pool(c, Samples).fraction_at_least(X));
}
// Statistics of one per-run value, one sample per run.
template <auto Field, double Q = -1.0>
double per_run(const Cells& c) {
  metrics::Cdf cdf;
  for_each_run(c, [&](const R& r) { cdf.add(static_cast<double>(r.*Field)); });
  return stat(cdf, Q);
}

constexpr Quantity goodput = sampled<&R::goodput_mbps_windows>;
constexpr Quantity owd_p99 = sampled<&R::owd_ms, 0.99>;
constexpr Quantity ssim_median = sampled<&R::ssim_samples, 0.5>;
constexpr Quantity play_p95 = sampled<&R::playback_latency_ms, 0.95>;
constexpr Quantity owd_pct_below_100 = pct_below<&R::owd_ms, 100.0>;
constexpr Quantity fps_pct_30 = pct_at_least<&R::fps_windows, 29.0>;
constexpr Quantity ssim_pct_05 = pct_at_least<&R::ssim_samples, 0.5>;
constexpr Quantity play_pct_below_300 =
    pct_below<&R::playback_latency_ms, 300.0>;
constexpr Quantity ho_rate = per_run<&R::ho_frequency_per_s>;
constexpr Quantity stalls = per_run<&R::stalls_per_minute>;
constexpr Quantity misloss = per_run<&R::scream_misloss_packets>;
constexpr Quantity frames_played = per_run<&R::frames_played>;

double per_pct(const Cells& c) { return pct(per_run<&R::per>(c)); }
// Seconds to reach 22.5 Mbps (~25), over the runs that get there.
double ramp_up_s(const Cells& c) {
  metrics::Cdf cdf;
  for_each_run(c, [&](const R& r) {
    if (const double t = r.ramp_up_seconds(22.5e6); t > 0) cdf.add(t);
  });
  return cdf.empty() ? kNaN : cdf.mean();
}
// Share of handovers whose last second before the trigger holds an OWD above
// twice the minimum of the two seconds before that.
double pct_ho_after_spike(const Cells& c) {
  const auto s = [](double x) { return sim::Duration::seconds(x); };
  int spiking = 0, total = 0;
  for_each_run(c, [&](const R& r) {
    for (const auto& ho : r.handovers.events()) {
      ++total;
      const auto peak = r.owd_trace_ms.max_in(ho.start - s(1), ho.start);
      const auto base = r.owd_trace_ms.min_in(ho.start - s(3), ho.start - s(1));
      if (peak && base && *peak > 2.0 * *base) ++spiking;
    }
  });
  return total == 0 ? kNaN : pct(static_cast<double>(spiking) / total);
}
template <double metrics::LatencyRatio::*Side, double Q = -1.0>
double ho_ratio(const Cells& c) {
  metrics::Cdf cdf;
  for_each_run(c, [&](const R& r) {
    for (const auto& lr : r.ho_latency_ratios) cdf.add(lr.*Side);
  });
  return stat(cdf, Q);
}
constexpr Quantity before_mean = ho_ratio<&metrics::LatencyRatio::before>;
constexpr Quantity after_mean = ho_ratio<&metrics::LatencyRatio::after>;
constexpr Quantity before_max = ho_ratio<&metrics::LatencyRatio::before, 1.0>;
double before_over_after(const Cells& c) {
  return before_mean(c) / after_mean(c);
}
metrics::Cdf rtt_in_band(const Cells& c, double lo_m, double hi_m) {
  metrics::Cdf cdf;
  for_each_run(c, [&](const R& r) {
    for (const auto& [alt, rtt] : r.rtt_by_altitude) {
      if (alt >= lo_m && alt < hi_m) cdf.add(rtt);
    }
  });
  return cdf;
}
// Largest over smallest median RTT of the Fig. 13 bands below 100 m.
double rtt_median_spread(const Cells& c) {
  double lo = kInf, hi = 0.0;
  for (const auto& [a, b] : {std::pair{0.0, 20.0}, std::pair{21.0, 60.0},
                             std::pair{61.0, 100.0}}) {
    lo = std::min(lo, rtt_in_band(c, a, b).median());
    hi = std::max(hi, rtt_in_band(c, a, b).median());
  }
  return hi / lo;
}
// Share of RTTs over 100 ms at 101-140 m, over the same share below 100 m.
double rtt_outliers_high_over_low(const Cells& c) {
  return rtt_in_band(c, 101.0, 140.0).fraction_at_least(100.0) /
         rtt_in_band(c, 0.0, 100.0).fraction_at_least(100.0);
}

// --- How a claim combines a quantity over its cells (a bare Quantity pools
// them all) ---

// The first cell over the second.
bench::ClaimMetric ratio(Quantity q) {
  return [q](const Cells& c) { return q({c[0]}) / q({c[1]}); };
}
// The lowest or highest single cell.
bench::ClaimMetric worst(Quantity q) {
  return [q](const Cells& c) {
    double v = kInf;
    for (const auto& runs : c) v = std::min(v, q({runs}));
    return v;
  };
}
bench::ClaimMetric best(Quantity q) {
  return [q](const Cells& c) {
    double v = -kInf;
    for (const auto& runs : c) v = std::max(v, q({runs}));
    return v;
  };
}
// The first cell over the lowest or highest of the others.
bench::ClaimMetric over_lowest_other(Quantity q) {
  return [q](const Cells& c) {
    return q({c[0]}) / worst(q)({c.begin() + 1, c.end()});
  };
}
bench::ClaimMetric over_highest_other(Quantity q) {
  return [q](const Cells& c) {
    return q({c[0]}) / best(q)({c.begin() + 1, c.end()});
  };
}

// --- Table 2: claims ---

// "~ v": within a factor of two. "~ p%": within 5 percentage points.
bench::Band about(double v) { return {v / 2.0, v * 2.0}; }
bench::Band about_pct(double p) {
  return {std::max(0.0, p - 5.0), std::min(100.0, p + 5.0)};
}
constexpr bench::Band kAbove1{1.0, kInf};   // ordering: first >= second
constexpr bench::Band kBelow1{-kInf, 1.0};  // ordering: first <= second
constexpr auto kDeviation = bench::Expect::kKnownDeviation;

std::vector<bench::Claim> make_claims() {
  const std::string ua = "urban-air-probe", ug = "urban-ground-probe",
                    ra = "rural-p1-air-probe", rg = "rural-p1-ground-probe";
  const std::string u_gcc = "urban-air-gcc", u_scr = "urban-air-scream",
                    u_sta = "urban-air-static", r_gcc = "rural-p1-air-gcc",
                    r_scr = "rural-p1-air-scream",
                    r_sta = "rural-p1-air-static";
  const std::vector<std::string> video = {u_gcc, u_scr, u_sta,
                                          r_gcc, r_scr, r_sta};
  const std::string p1_gcc = "rural-p1-air-gcc-ack64",
                    p2_gcc = "rural-p2-air-gcc-ack64",
                    p1_scr = "rural-p1-air-scream-ack64",
                    p2_scr = "rural-p2-air-scream-ack64",
                    u_scr64 = "urban-air-scream-ack64",
                    u_drop = "urban-air-gcc-drop";
  return {
      // Fig. 4: handover frequency (HO/s) and execution time (HET).
      {"fig4.air-ground-urban", "Fig. 4a", "urban HO/s, air / ground", "~10x",
       {ua, ug}, ratio(ho_rate), about(10.0), kDeviation},
      {"fig4.air-ground-rural", "Fig. 4a", "rural HO/s, air / ground",
       "air elevated", {ra, rg}, ratio(ho_rate), kAbove1},
      {"fig4.urban-rural-air", "Fig. 4a", "air HO/s, urban / rural",
       "urban > rural", {ua, ra}, ratio(ho_rate), kAbove1},
      {"fig4.urban-air-max", "Fig. 4a", "urban air HO/s, busiest run",
       "up to ~0.7", {ua}, per_run<&R::ho_frequency_per_s, 1.0>, {0.0, 0.7}},
      {"fig4.urban-ground", "Fig. 4a", "urban ground HO/s", "~0.01-0.1", {ug},
       ho_rate, {0.01, 0.1}},
      {"fig4.het-bulk", "Fig. 4b", "HET < 49.5 ms (%), worst scenario",
       "majority", {ua, ug, ra, rg}, worst(pct_below<&R::het_ms, 49.5>),
       {50.0, 100.0}},
      {"fig4.het-air-tail", "Fig. 4b", "longest air HET (ms)",
       "outliers 500 ms-4 s", {ua, ra}, sampled<&R::het_ms, 1.0>,
       {500.0, 4000.0}},

      // Fig. 5: one-way latency (OWD) of the static stream.
      {"fig5.ground-urban", "Fig. 5", "urban ground OWD < 100 ms (%)", "~99%",
       {"urban-ground-static"}, owd_pct_below_100, about_pct(99.0)},
      {"fig5.ground-rural", "Fig. 5", "rural ground OWD < 100 ms (%)", "~99%",
       {"rural-p1-ground-static"}, owd_pct_below_100, about_pct(99.0)},
      {"fig5.air-urban", "Fig. 5", "urban air OWD < 100 ms (%)", "~96%",
       {u_sta}, owd_pct_below_100, about_pct(96.0), kDeviation},
      {"fig5.air-rural", "Fig. 5", "rural air OWD < 100 ms (%)", "~96%",
       {r_sta}, owd_pct_below_100, about_pct(96.0)},
      {"fig5.air-outliers", "Fig. 5", "longest air OWD (ms)", "> 1 s present",
       {u_sta, r_sta}, sampled<&R::owd_ms, 1.0>, {1000.0, kInf}},
      {"fig5.stable-owd", "Fig. 5", "median air OWD (ms)", "~50 ms",
       {u_sta, r_sta}, sampled<&R::owd_ms, 0.5>, about(50.0)},

      // Fig. 6: goodput (Mbps, mean of 1 s windows).
      {"fig6.urban-static", "Fig. 6", "urban static goodput", "~25", {u_sta},
       goodput, about(25.0)},
      {"fig6.urban-scream", "Fig. 6", "urban SCReAM goodput", "~21", {u_scr},
       goodput, about(21.0)},
      {"fig6.urban-gcc", "Fig. 6", "urban GCC goodput", "~19", {u_gcc}, goodput,
       about(19.0)},
      {"fig6.rural-static", "Fig. 6", "rural static goodput", "~8", {r_sta},
       goodput, about(8.0)},
      {"fig6.rural-scream", "Fig. 6", "rural SCReAM goodput", "~10.5", {r_scr},
       goodput, about(10.5)},
      {"fig6.rural-gcc", "Fig. 6", "rural GCC goodput", "~8.5", {r_gcc},
       goodput, about(8.5)},
      {"fig6.urban-static-top", "Fig. 6", "urban static / best CC goodput",
       "static > CCs", {u_sta, u_gcc, u_scr}, over_highest_other(goodput),
       kAbove1},
      {"fig6.urban-scream-gcc", "Fig. 6", "urban goodput, SCReAM / GCC",
       "21 > 19", {u_scr, u_gcc}, ratio(goodput), kAbove1, kDeviation},
      {"fig6.rural-static-bottom", "Fig. 6", "rural static / worst CC goodput",
       "CCs > static", {r_sta, r_gcc, r_scr}, over_lowest_other(goodput),
       kBelow1},
      {"fig6.rural-scream-gcc", "Fig. 6", "rural goodput, SCReAM / GCC",
       "10.5 > 8.5", {r_scr, r_gcc}, ratio(goodput), kAbove1, kDeviation},

      // Fig. 7: FPS, SSIM and playback latency.
      {"fig7.fps30-urban-gcc", "Fig. 7a", "urban GCC time at 30 FPS (%)",
       "~90%", {u_gcc}, fps_pct_30, about_pct(90.0)},
      {"fig7.fps30-urban-scream", "Fig. 7a", "urban SCReAM time at 30 FPS (%)",
       "~90%", {u_scr}, fps_pct_30, about_pct(90.0), kDeviation},
      {"fig7.fps10-urban-gcc", "Fig. 7a", "urban GCC FPS < 10 (%)", "~3%",
       {u_gcc}, pct_below<&R::fps_windows, 9.99>, about_pct(3.0)},
      {"fig7.fps10-urban-scream", "Fig. 7a", "urban SCReAM FPS < 10 (%)",
       "~1.5%", {u_scr}, pct_below<&R::fps_windows, 9.99>, about_pct(1.5)},
      {"fig7.ssim05-worst", "Fig. 7b", "SSIM >= 0.5 (%), worst cell",
       "80.91-99.63%", video, worst(ssim_pct_05), {80.91, 99.63}},
      {"fig7.ssim05-best", "Fig. 7b", "SSIM >= 0.5 (%), best cell",
       "80.91-99.63%", video, best(ssim_pct_05), {80.91, 99.63}},
      {"fig7.ssim05-urban-static", "Fig. 7b", "urban static SSIM >= 0.5 (%)",
       "83.07%", {u_sta}, ssim_pct_05, about_pct(83.07)},
      {"fig7.ssim05-urban-static-worst", "Fig. 7b",
       "urban static / next-worst SSIM >= 0.5", "static urban worst",
       {u_sta, u_gcc, u_scr, r_gcc, r_scr, r_sta},
       over_lowest_other(ssim_pct_05), kBelow1},
      {"fig7.ssim09-urban", "Fig. 7b", "urban SSIM >= 0.9 (%), all methods",
       "~90%", {u_gcc, u_scr, u_sta}, pct_at_least<&R::ssim_samples, 0.9>,
       about_pct(90.0), kDeviation},
      {"fig7.play300-urban-gcc", "Fig. 7c", "urban GCC playback < 300 ms (%)",
       "~90%", {u_gcc}, play_pct_below_300, about_pct(90.0)},
      {"fig7.play300-urban-static", "Fig. 7c",
       "urban static playback < 300 ms (%)", "~90%", {u_sta},
       play_pct_below_300, about_pct(90.0), kDeviation},
      {"fig7.play300-urban-scream", "Fig. 7c",
       "urban SCReAM playback < 300 ms (%)", "~38%", {u_scr},
       play_pct_below_300, about_pct(38.0)},
      {"fig7.play300-rural-scream", "Fig. 7c",
       "rural SCReAM playback < 300 ms (%)", "~85%", {r_scr},
       play_pct_below_300, about_pct(85.0), kDeviation},
      {"fig7.play300-rural-gcc", "Fig. 7c", "rural GCC playback < 300 ms (%)",
       "55-85%", {r_gcc}, play_pct_below_300, {55.0, 85.0}},
      {"fig7.play300-rural-gcc-lowest", "Fig. 7c",
       "rural playback < 300 ms, GCC / next-lowest", "GCC lowest",
       {r_gcc, r_scr, r_sta}, over_lowest_other(play_pct_below_300), kBelow1,
       kDeviation},

      // Fig. 8: the latency spike precedes the handover.
      {"fig8.pre-ho-spike", "Fig. 8a", "HOs after a > 2x OWD spike (%)",
       "spikes precede HOs", {"fig8-flight"}, pct_ho_after_spike,
       {50.0, 100.0}},

      // Fig. 9: max/min OWD ratio in the 1 s windows around air handovers.
      {"fig9.before-mean", "Fig. 9", "before-HO ratio, mean", "~8x", video,
       before_mean, about(8.0)},
      {"fig9.after-mean", "Fig. 9", "after-HO ratio, mean", "~5x", video,
       after_mean, about(5.0)},
      {"fig9.before-max", "Fig. 9", "before-HO ratio, largest",
       "outliers to 37x", video, before_max, about(37.0)},
      {"fig9.order", "Fig. 9", "mean ratio, before / after HO", "8 > 5", video,
       before_over_after, kAbove1, kDeviation},

      // Fig. 10: rural operators, P2 vs P1.
      {"fig10.p2-capacity", "Fig. 10a", "SCReAM goodput, P2 / P1", "P2 > P1",
       {"rural-p2-air-scream", r_scr}, ratio(goodput), kAbove1},
      {"fig10.p2-handovers", "Fig. 10b", "air HO/s, P2 / P1", "P2 > P1",
       {"rural-p2-air-probe", ra}, ratio(ho_rate), kAbove1, kDeviation},

      // Fig. 12: video over P2 vs P1, with the 64-packet ack window.
      {"fig12.goodput-gcc", "Fig. 12a", "GCC goodput, P2 / P1", "P2 > P1",
       {p2_gcc, p1_gcc}, ratio(goodput), kAbove1},
      {"fig12.goodput-scream", "Fig. 12a", "SCReAM goodput, P2 / P1", "P2 > P1",
       {p2_scr, p1_scr}, ratio(goodput), kAbove1},
      {"fig12.ssim-gcc", "Fig. 12d", "GCC median SSIM, P2 / P1", "P2 > P1",
       {p2_gcc, p1_gcc}, ratio(ssim_median), kAbove1},
      {"fig12.ssim-scream", "Fig. 12d", "SCReAM median SSIM, P2 / P1",
       "P2 > P1", {p2_scr, p1_scr}, ratio(ssim_median), kAbove1},
      {"fig12.scream-latency", "Fig. 12c", "SCReAM playback < 300 ms, P2 / P1",
       "worse at P2", {p2_scr, p1_scr}, ratio(play_pct_below_300), kBelow1},
      {"fig12.scream-fps", "Fig. 12b", "SCReAM time at 30 FPS, P2 / P1",
       "worse at P2", {p2_scr, p1_scr}, ratio(fps_pct_30), kBelow1},

      // Fig. 13: RTT by altitude band, no cross traffic.
      {"fig13.median-flat", "Fig. 13", "median RTT < 100 m, max / min band",
       "no clear trend", {ua, ra}, rtt_median_spread, about(1.0)},
      {"fig13.outliers-urban", "Fig. 13a",
       "urban RTT > 100 ms, 101-140 m / 0-100 m", "more above 100 m", {ua},
       rtt_outliers_high_over_low, kAbove1},
      {"fig13.outliers-rural", "Fig. 13b",
       "rural RTT > 100 ms, 101-140 m / 0-100 m", "more above 100 m", {ra},
       rtt_outliers_high_over_low, kAbove1},

      // Sec. 4.2.1: urban stall rates, ramp-up, and the static stream's PER.
      {"stalls.urban-static", "Sec. 4.2.1", "urban static stalls/min", "0.11",
       {u_sta}, stalls, about(0.11), kDeviation},
      {"stalls.urban-scream", "Sec. 4.2.1", "urban SCReAM stalls/min", "0.89",
       {u_scr}, stalls, about(0.89), kDeviation},
      {"stalls.urban-gcc", "Sec. 4.2.1", "urban GCC stalls/min", "1.37",
       {u_gcc}, stalls, about(1.37), kDeviation},
      {"stalls.static-scream", "Sec. 4.2.1",
       "urban stalls/min, static / SCReAM", "0.11 < 0.89", {u_sta, u_scr},
       ratio(stalls), kBelow1},
      {"rampup.gcc", "Sec. 4.2.1", "urban GCC ramp-up to ~25 Mbps (s)", "~12 s",
       {u_gcc}, ramp_up_s, about(12.0)},
      {"rampup.scream", "Sec. 4.2.1", "urban SCReAM ramp-up to ~25 Mbps (s)",
       "~25 s", {u_scr}, ramp_up_s, about(25.0)},
      {"rampup.order", "Sec. 4.2.1", "ramp-up, GCC / SCReAM", "12 s < 25 s",
       {u_gcc, u_scr}, ratio(ramp_up_s), kBelow1, kDeviation},
      {"per.urban-static", "Sec. 4.2.3", "urban static PER (%)", "0.06-0.07%",
       {u_sta}, per_pct, {0.06, 0.07}, kDeviation},

      // Sec. 4.2.1: SCReAM's RFC 8888 ack window, 256 vs the default 64.
      {"ackwin.misloss-urban", "Sec. 4.2.1", "urban misloss pkts, 256 / 64",
       "256 mislabels fewer", {u_scr, u_scr64}, ratio(misloss), kBelow1},
      {"ackwin.misloss-rural", "Sec. 4.2.1", "rural misloss pkts, 256 / 64",
       "256 mislabels fewer", {r_scr, p1_scr}, ratio(misloss), kBelow1},
      {"ackwin.goodput-urban", "Sec. 4.2.1", "urban SCReAM goodput, 256 / 64",
       "64 needlessly lowers rate", {u_scr, u_scr64}, ratio(goodput), kAbove1},

      // Sec. A.4: drop-on-latency jitter buffer (urban GCC).
      {"a4.play-p95", "Sec. A.4", "playback p95, drop / default",
       "newest frame, lower latency", {u_drop, u_gcc}, ratio(play_p95),
       kBelow1},
      {"a4.frames-played", "Sec. A.4", "frames played, drop / default",
       "late frames dropped", {u_drop, u_gcc}, ratio(frames_played), kBelow1},
      {"a4.stalls", "Sec. A.4", "stalls/min, drop / default",
       "dropped frames leave gaps", {u_drop, u_gcc}, ratio(stalls), kAbove1},

      // Sec. 5: CoDel-style AQM on the urban uplink, and DAPS handover.
      {"aqm.static-p99", "Sec. 5", "static OWD p99, CoDel / FIFO",
       "AQM against bufferbloat", {"aqm-codel-static", "aqm-fifo-static"},
       ratio(owd_p99), kBelow1},
      {"aqm.gcc-p99", "Sec. 5", "GCC OWD p99, CoDel / FIFO",
       "AQM against bufferbloat", {"aqm-codel-gcc", "aqm-fifo-gcc"},
       ratio(owd_p99), kBelow1},
      {"aqm.static-per", "Sec. 5", "static PER, CoDel / FIFO",
       "late packets become drops", {"aqm-codel-static", "aqm-fifo-static"},
       ratio(per_pct), kAbove1},
      {"aqm.gcc-goodput", "Sec. 5", "GCC goodput, CoDel / FIFO",
       "~1 (adaptive rate)", {"aqm-codel-gcc", "aqm-fifo-gcc"}, ratio(goodput),
       about(1.0)},
      {"daps.p99", "Sec. 5", "GCC OWD p99, DAPS / break-before-make",
       "removes HO spikes", {"daps-on", "daps-off"}, ratio(owd_p99), kBelow1},
  };
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  try {
    const auto cells = make_cells();
    const auto claims = make_claims();
    std::vector<std::string> labels;
    for (const auto& cell : cells) labels.push_back(cell.label);
    bench::validate_claims(claims, labels);

    std::vector<R> reports;
    const auto runs = run_cells(cells, reports);
    std::cout << "rpv_repro: " << claims.size() << " claims over "
              << cells.size() << " cells, " << reports.size()
              << " sessions simulated\n\n";
    return bench::check_claims(claims, runs, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
