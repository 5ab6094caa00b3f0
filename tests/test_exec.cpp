// rpv::exec — thread pool, parallel campaign determinism, report JSON round
// trips, the run-artifact store, and the bench CLI parser and claim evaluator.
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "bench_common.hpp"
#include "exec/campaign_engine.hpp"
#include "exec/run_artifact.hpp"
#include "exec/thread_pool.hpp"
#include "experiment/runner.hpp"
#include "json/json.hpp"
#include "pipeline/report_json.hpp"

namespace rpv {
namespace {

// --- ThreadPool / parallel_for_index ---

TEST(ThreadPool, RunsEverySubmittedTask) {
  exec::ThreadPool pool{4};
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  exec::ThreadPool pool{2};
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { ++count; });
  pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ResolveJobs) {
  EXPECT_EQ(exec::resolve_jobs(3), 3);
  EXPECT_GE(exec::resolve_jobs(0), 1);
  EXPECT_GE(exec::resolve_jobs(-1), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const int jobs : {1, 2, 8}) {
    std::vector<int> hits(257, 0);
    exec::parallel_for_index(hits.size(), jobs,
                             [&](std::size_t i) { hits[i]++; });
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      exec::parallel_for_index(16, 4,
                               [](std::size_t i) {
                                 if (i == 7) throw std::runtime_error{"boom"};
                               }),
      std::runtime_error);
}

// --- Campaign determinism: parallel == serial, byte for byte ---

experiment::Campaign small_campaign() {
  experiment::Campaign c;
  c.scenario.env = experiment::Environment::kRuralP1;
  c.scenario.cc = pipeline::CcKind::kStatic;
  c.scenario.seed = 77;
  c.runs = 3;
  return c;
}

std::vector<std::string> report_bytes(
    const std::vector<pipeline::SessionReport>& rs) {
  std::vector<std::string> out;
  out.reserve(rs.size());
  for (const auto& r : rs) out.push_back(pipeline::report_to_json(r).dump());
  return out;
}

// The reference implementation the engine is checked against: a plain
// serial loop of run_scenario over the campaign's seeds.
std::vector<std::string> serial_reference(const experiment::Campaign& c) {
  std::vector<pipeline::SessionReport> rs;
  for (const auto seed : exec::campaign_seeds(c)) {
    auto s = c.scenario;
    s.seed = seed;
    rs.push_back(experiment::run_scenario(s));
  }
  return report_bytes(rs);
}

TEST(CampaignEngine, ParallelReportsAreByteIdenticalToSerial) {
  const auto c = small_campaign();
  const auto serial =
      report_bytes(exec::CampaignEngine{{.jobs = 1}}.run(c).reports);
  ASSERT_EQ(serial.size(), 3u);
  for (const int jobs : {2, 8}) {
    const auto parallel =
        report_bytes(exec::CampaignEngine{{.jobs = jobs}}.run(c).reports);
    ASSERT_EQ(parallel.size(), serial.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "jobs=" << jobs << " run=" << i;
    }
  }
}

// The serial runner the engine replaced survives as serial_reference.
TEST(CampaignEngine, EngineMatchesLegacySerialRunner) {
  const auto c = small_campaign();
  const exec::CampaignEngine engine{{.jobs = 4}};
  const auto result = engine.run(c);
  EXPECT_EQ(result.seeds, exec::campaign_seeds(c));
  ASSERT_EQ(result.seeds.size(), 3u);
  EXPECT_EQ(result.seeds[1], c.scenario.seed + 7919);
  EXPECT_EQ(report_bytes(result.reports), serial_reference(c));
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(CampaignEngine, ValidatesCampaignAndGrid) {
  auto c = small_campaign();
  const exec::CampaignEngine engine;
  c.runs = 0;
  EXPECT_THROW((void)engine.run(c), std::invalid_argument);
  c.runs = -3;
  EXPECT_THROW((void)engine.run(c), std::invalid_argument);
  EXPECT_THROW((void)engine.run_grid({}, 2, 1), std::invalid_argument);
  const auto cells = exec::expand_grid({}, experiment::Scenario{});
  EXPECT_THROW((void)engine.run_grid(cells, 0, 1), std::invalid_argument);
}

TEST(CampaignEngine, ExpandGridCrossProduct) {
  exec::GridAxes axes;
  axes.envs = {experiment::Environment::kUrban,
               experiment::Environment::kRuralP1};
  axes.ccs = {pipeline::CcKind::kGcc, pipeline::CcKind::kScream,
              pipeline::CcKind::kStatic};
  const auto cells = exec::expand_grid(axes);
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].label, "urban-air-gcc");
  EXPECT_EQ(cells[0].scenario.env, experiment::Environment::kUrban);
  EXPECT_EQ(cells[5].label, "rural-p1-air-static");
  EXPECT_EQ(cells[5].scenario.cc, pipeline::CcKind::kStatic);
  // Empty axes collapse to the base scenario's value.
  experiment::Scenario base;
  base.mobility = experiment::Mobility::kGround;
  const auto single = exec::expand_grid({}, base);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].scenario.mobility, experiment::Mobility::kGround);
}

// --- SessionReport JSON round trip ---

pipeline::SessionReport faulted_report() {
  // A scenario that populates the optional report sections too: faults +
  // resilience (fault_outcomes, PLI/watchdog counters), probes
  // (rtt_by_altitude), and the C2 channel.
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.cc = pipeline::CcKind::kGcc;
  s.seed = 4051;
  s.c2 = true;
  s.probe_interval = sim::Duration::millis(500);
  s.resilience = true;
  s.model_reference_loss = true;
  s.faults.wan_outage(120.0, 2.0);
  s.faults.capacity_collapse(200.0, 1.0, 0.1);
  return experiment::run_scenario(s);
}

TEST(ReportJson, RoundTripIsByteStableAndLossless) {
  const auto r = faulted_report();
  const auto doc = pipeline::report_to_json(r);
  const std::string bytes = doc.dump();
  const auto back = pipeline::report_from_json(json::parse(bytes));
  // Byte-stable: serializing the loaded report reproduces the same bytes.
  EXPECT_EQ(pipeline::report_to_json(back).dump(), bytes);
  // Spot checks across field categories.
  EXPECT_EQ(back.cc_name, r.cc_name);
  EXPECT_EQ(back.environment, r.environment);
  EXPECT_EQ(back.duration.us(), r.duration.us());
  EXPECT_EQ(back.owd_ms, r.owd_ms);
  EXPECT_EQ(back.ssim_samples, r.ssim_samples);
  EXPECT_EQ(back.packets_sent, r.packets_sent);
  EXPECT_EQ(back.stall_count, r.stall_count);
  EXPECT_EQ(back.handovers.count(), r.handovers.count());
  EXPECT_EQ(back.het_ms, r.het_ms);
  EXPECT_EQ(back.rtt_by_altitude, r.rtt_by_altitude);
  EXPECT_EQ(back.command_latency_ms, r.command_latency_ms);
  ASSERT_EQ(back.fault_outcomes.size(), r.fault_outcomes.size());
  ASSERT_GE(back.fault_outcomes.size(), 2u);
  for (std::size_t i = 0; i < r.fault_outcomes.size(); ++i) {
    EXPECT_EQ(back.fault_outcomes[i].event.kind, r.fault_outcomes[i].event.kind);
    EXPECT_EQ(back.fault_outcomes[i].recovery_ms,
              r.fault_outcomes[i].recovery_ms);
  }
  ASSERT_EQ(back.owd_trace_ms.count(), r.owd_trace_ms.count());
  if (!r.owd_trace_ms.empty()) {
    EXPECT_EQ(back.owd_trace_ms.samples().back().t.us(),
              r.owd_trace_ms.samples().back().t.us());
    EXPECT_EQ(back.owd_trace_ms.samples().back().value,
              r.owd_trace_ms.samples().back().value);
  }
}

TEST(ReportJson, RejectsWrongSchema) {
  auto doc = pipeline::report_to_json(pipeline::SessionReport{});
  doc.set("schema", std::int64_t{999});
  EXPECT_THROW((void)pipeline::report_from_json(doc), std::runtime_error);
  EXPECT_THROW((void)pipeline::report_from_json(json::parse("{}")),
               std::runtime_error);
}

// --- Artifact store ---

class RunArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path{::testing::TempDir()} /
           ("rpv_exec_store_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(RunArtifactTest, WriteThenLoadRoundTripsCampaign) {
  exec::GridAxes axes;
  axes.envs = {experiment::Environment::kRuralP1};
  axes.mobilities = {experiment::Mobility::kAir,
                     experiment::Mobility::kGround};
  experiment::Scenario base;
  base.cc = pipeline::CcKind::kNone;
  base.probe_interval = sim::Duration::millis(200);
  const auto cells = exec::expand_grid(axes, base);
  ASSERT_EQ(cells.size(), 2u);

  const exec::CampaignEngine engine{{.jobs = 2}};
  const auto result = engine.run_grid(cells, /*runs=*/2, /*base_seed=*/31);

  exec::CampaignManifest manifest;
  manifest.name = "probe-mini";
  manifest.git_describe = exec::current_git_describe();
  manifest.runs_per_cell = 2;
  manifest.jobs = result.jobs;
  manifest.wall_seconds = result.wall_seconds;
  const exec::RunArtifactStore store{dir_};
  const auto campaign_dir = store.write_campaign(manifest, result);

  // Manifest contents.
  EXPECT_TRUE(std::filesystem::exists(campaign_dir / "manifest.json"));
  const auto doc =
      json::parse(*json::read_file((campaign_dir / "manifest.json").string()));
  EXPECT_EQ(doc.at("schema").as_i64(), 1);
  EXPECT_EQ(doc.at("name").as_string(), "probe-mini");
  EXPECT_FALSE(doc.at("git").as_string().empty());
  EXPECT_EQ(doc.at("runs_per_cell").as_i64(), 2);
  EXPECT_EQ(doc.at("jobs").as_i64(), result.jobs);
  ASSERT_EQ(doc.at("cells").items().size(), 2u);
  const auto& cell0 = doc.at("cells").items()[0];
  EXPECT_EQ(cell0.at("label").as_string(), "rural-p1-air-probe");
  EXPECT_EQ(cell0.at("scenario").at("environment").as_string(), "rural-p1");
  EXPECT_EQ(cell0.at("scenario").at("probe_interval_us").as_i64(), 200000);
  ASSERT_EQ(cell0.at("runs").items().size(), 2u);
  EXPECT_EQ(cell0.at("runs").items()[0].at("seed").as_u64(), 31u);
  EXPECT_EQ(cell0.at("runs").items()[1].at("seed").as_u64(), 31u + 7919u);
  for (const auto& rj : cell0.at("runs").items()) {
    EXPECT_TRUE(std::filesystem::exists(campaign_dir /
                                        rj.at("file").as_string()));
  }

  // Loader: stored reports reproduce the in-memory ones byte for byte.
  const auto loaded = exec::RunArtifactStore::load_campaign(campaign_dir);
  ASSERT_EQ(loaded.cells.size(), result.cells.size());
  for (std::size_t c = 0; c < loaded.cells.size(); ++c) {
    EXPECT_EQ(loaded.cells[c].cell.label, result.cells[c].cell.label);
    EXPECT_EQ(loaded.cells[c].seeds, result.cells[c].seeds);
    ASSERT_EQ(loaded.cells[c].reports.size(), result.cells[c].reports.size());
    for (std::size_t i = 0; i < loaded.cells[c].reports.size(); ++i) {
      EXPECT_EQ(pipeline::report_to_json(loaded.cells[c].reports[i]).dump(),
                pipeline::report_to_json(result.cells[c].reports[i]).dump());
    }
  }
}

TEST_F(RunArtifactTest, RejectsBadCampaignNames) {
  const exec::RunArtifactStore store{dir_};
  exec::CampaignManifest manifest;
  manifest.name = "../escape";
  EXPECT_THROW((void)store.write_campaign(manifest, {}),
               std::invalid_argument);
  manifest.name = "";
  EXPECT_THROW((void)store.write_campaign(manifest, {}),
               std::invalid_argument);
}

TEST_F(RunArtifactTest, LoadFromMissingDirectoryThrows) {
  EXPECT_THROW((void)exec::RunArtifactStore::load_campaign(dir_ / "nope"),
               std::runtime_error);
}

// --- Bench CLI option parsing (bench_common.hpp) ---

TEST(BenchOptions, ParsesValidFlags) {
  const auto opts =
      bench::parse_options({"--runs", "4", "--seed", "99", "--jobs", "2"});
  ASSERT_TRUE(opts.runs.has_value());
  EXPECT_EQ(*opts.runs, 4);
  ASSERT_TRUE(opts.seed.has_value());
  EXPECT_EQ(*opts.seed, 99u);
  EXPECT_EQ(opts.jobs, 2);
  // Defaults survive when nothing is passed.
  const auto empty = bench::parse_options({});
  EXPECT_FALSE(empty.runs.has_value());
  EXPECT_FALSE(empty.seed.has_value());
  EXPECT_EQ(empty.jobs, 0);
}

TEST(BenchOptions, RejectsNegativeCountsAndSeeds) {
  EXPECT_THROW((void)bench::parse_options({"--runs", "-3"}),
               std::invalid_argument);
  EXPECT_THROW((void)bench::parse_options({"--runs", "0"}),
               std::invalid_argument);
  EXPECT_THROW((void)bench::parse_options({"--seed", "-5"}),
               std::invalid_argument);
  EXPECT_THROW((void)bench::parse_options({"--jobs", "-1"}),
               std::invalid_argument);
  // Values past INT_MAX used to be truncated by a cast to int: 2^32 + 1 ran
  // one run, 2^32 + 2 two jobs, and 3e9 a negative run count.
  EXPECT_THROW((void)bench::parse_options({"--runs", "4294967297"}),
               std::invalid_argument);
  EXPECT_THROW((void)bench::parse_options({"--jobs", "4294967298"}),
               std::invalid_argument);
  EXPECT_THROW((void)bench::parse_options({"--runs", "3000000000"}),
               std::invalid_argument);
  // --jobs 0 means "one worker per hardware thread" and stays legal.
  EXPECT_EQ(bench::parse_options({"--jobs", "0"}).jobs, 0);
}

TEST(BenchOptions, RejectsMalformedAndUnknownArguments) {
  EXPECT_THROW((void)bench::parse_options({"--runs"}), std::invalid_argument);
  EXPECT_THROW((void)bench::parse_options({"--runs", "five"}),
               std::invalid_argument);
  EXPECT_THROW((void)bench::parse_options({"--runs", "3x"}),
               std::invalid_argument);
  EXPECT_THROW((void)bench::parse_options({"--bogus"}), std::invalid_argument);
}

TEST(ParseInt, AcceptsWholeIntegersInRangeOnly) {
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(parse_int("--jobs", "-2", -2, 2), -2);
  EXPECT_EQ(parse_int("--seed", "9223372036854775807", 0, kMax), kMax);
  for (const char* bad : {"", "3x", " 3", "+3", "0x10", "1.5", "0", "101",
                          "9223372036854775808"}) {
    EXPECT_THROW((void)parse_int("--runs", bad, 1, 100), std::invalid_argument)
        << "'" << bad << "'";
  }
}

// --- Paper-claim evaluator (bench_common.hpp, rpv_repro) ---

bench::Claim claim(std::string id, double measured, bench::Band band,
                   bench::Expect expect = bench::Expect::kPass) {
  return {std::move(id), "", "", "", {"cell"},
          [measured](const std::vector<bench::Runs>&) { return measured; },
          band, expect};
}

TEST(Claims, BandEdgesAreInclusiveAndDeviationsInsideAreXpass) {
  using bench::Verdict;
  const auto pass = claim("a", 0.0, {1.0, 2.0});
  const auto dev = claim("b", 0.0, {1.0, 2.0}, bench::Expect::kKnownDeviation);
  for (const double edge : {1.0, 2.0}) {
    EXPECT_EQ(bench::judge(pass, edge), Verdict::kPass);
    EXPECT_EQ(bench::judge(dev, edge), Verdict::kXpass);
  }
  for (const double out : {std::nextafter(1.0, 0.0), std::nextafter(2.0, 3.0),
                           std::nan("")}) {
    EXPECT_EQ(bench::judge(pass, out), Verdict::kFail);
    EXPECT_EQ(bench::judge(dev, out), Verdict::kKnownDeviation);
  }
}

TEST(Claims, FailAndXpassMakeTheExitStatusNonZero) {
  const auto dev = bench::Expect::kKnownDeviation;
  const auto pass = claim("pass", 1.5, {1.0, 2.0});
  const auto known = claim("known", 5.0, {1.0, 2.0}, dev);
  const auto fail = claim("fail", 5.0, {1.0, 2.0});
  const auto xpass = claim("xpass", 1.5, {1.0, 2.0}, dev);
  std::ostringstream out;
  const auto status = [&](const std::vector<bench::Claim>& claims) {
    return bench::check_claims(claims, {{"cell", {}}}, out);
  };
  EXPECT_EQ(status({pass, known}), 0);
  EXPECT_NE(status({pass, known, fail}), 0);
  EXPECT_NE(status({pass, known, xpass}), 0);
  for (const char* verdict : {"pass", "known-deviation", "FAIL", "XPASS"}) {
    EXPECT_NE(out.str().find(verdict), std::string::npos) << verdict;
  }
}

TEST(Claims, DuplicatesAndUnknownCellsFailValidation) {
  const std::vector<std::string> cells{"cell"};
  const auto a = claim("a", 1.0, {0.0, 2.0});
  auto unknown = claim("b", 1.0, {0.0, 2.0});
  unknown.cells.push_back("nope");
  EXPECT_NO_THROW(bench::validate_claims({a}, cells));
  EXPECT_THROW(bench::validate_claims({a, a}, cells), std::invalid_argument);
  EXPECT_THROW(bench::validate_claims({a, unknown}, cells),
               std::invalid_argument);
  EXPECT_THROW(bench::validate_claims({a}, {"cell", "cell"}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rpv
