// Extension (paper Section 5): multipath transport over two operators.
// The paper motivates multipath (MPTCP/MP-QUIC style, or redundant duplication
// as in its reference [9]) to mask single-operator outages; this bench
// compares single-link rural delivery (P1) against duplicated delivery over
// P1+P2 for every method.
#include "bench_common.hpp"

#include "exec/thread_pool.hpp"
#include "experiment/scenario.hpp"
#include "pipeline/session.hpp"
#include <string>

int main(int argc, char** argv) {
  using namespace rpv;
  bench::parse_args(argc, argv);
  bench::print_header("Extension — multipath (P1+P2) vs single path (P1)",
                      "IMC'22 Section 5 discussion; reference [9]");

  metrics::TextTable table{{"method", "path", "latency<300ms (%)",
                            "OWD p99 (ms)", "stalls/min", "SSIM>=0.5 (%)",
                            "PER (%)"}};

  for (const auto cc : {pipeline::CcKind::kStatic, pipeline::CcKind::kGcc}) {
    const auto runs = static_cast<std::size_t>(bench::runs_or(4));
    const std::uint64_t seed0 = bench::seed_or(3000);

    std::vector<experiment::Scenario> scenarios;
    for (std::uint64_t k = 0; k < runs; ++k) {
      experiment::Scenario s;
      s.env = experiment::Environment::kRuralP1;
      s.cc = cc;
      s.seed = seed0 + k;
      scenarios.push_back(s);
    }
    const auto single = bench::run_scenarios(scenarios);

    // The multipath arms wire two layouts into one bonded Session, which a
    // Campaign cannot express; shard (run, policy) pairs across the pool.
    std::vector<pipeline::SessionReport> dup(runs), sched(runs);
    exec::parallel_for_index(runs * 2, bench::options().jobs,
                             [&](std::size_t task) {
      const std::size_t k = task / 2;
      const auto policy = task % 2 == 0 ? bond::Policy::kDuplicate
                                        : bond::Policy::kScheduled;
      const experiment::Scenario& s = scenarios[k];
      sim::Rng rng{s.seed * 0x9E3779B97F4A7C15ULL + 0x1234567};
      auto layout_a = experiment::make_layout(s, rng);
      experiment::Scenario s2 = s;
      s2.env = experiment::Environment::kRuralP2;
      auto layout_b = experiment::make_layout(s2, rng);
      auto traj = experiment::make_trajectory(s, rng);
      auto cfg = experiment::make_session_config(s);
      pipeline::Session mp{cfg,       std::move(layout_a),
                           std::move(layout_b), &traj,
                           "rural-mp", policy};
      (policy == bond::Policy::kDuplicate ? dup : sched)[k] = mp.run();
    });

    for (const auto* label :
         {"single(P1)", "duplicate(P1+P2)", "scheduled(P1+P2)"}) {
      const std::string l = label;
      const auto& rs = l == "single(P1)" ? single
                       : l == "duplicate(P1+P2)" ? dup
                                                 : sched;
      const auto latency = experiment::pool_playback_latency(rs);
      const auto owd = experiment::pool_owd(rs);
      const auto ssim = experiment::pool_ssim(rs);
      table.add_row(
          {pipeline::cc_name(cc), label,
           metrics::TextTable::num(100.0 * latency.fraction_below(300.0), 1),
           metrics::TextTable::num(owd.quantile(0.99), 0),
           metrics::TextTable::num(experiment::mean_stalls_per_minute(rs), 2),
           metrics::TextTable::num(100.0 * ssim.fraction_at_least(0.5), 2),
           metrics::TextTable::num(100.0 * experiment::mean_per(rs), 3)});
    }
  }

  std::cout << "\n" << table.render();
  std::cout << "\nExpected shape: duplication over uncorrelated operators "
               "masks per-operator outages — fewer stalls, a shorter OWD "
               "tail, and near-zero effective loss (paper ref [9] reports up "
               "to 33% video-quality improvement from link diversity).\n";
  return 0;
}
