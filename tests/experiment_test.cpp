#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>

#include "harness/table.hpp"

namespace pmc {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig c;
  c.a = 4;
  c.d = 2;
  c.r = 2;
  c.fanout = 3;
  c.pd = 0.5;
  c.loss = 0.0;
  c.runs = 5;
  c.seed = 11;
  return c;
}

TEST(ExperimentConfig, GroupSizeIsAPowD) {
  EXPECT_EQ(tiny_config().group_size(), 16u);
  ExperimentConfig big;
  big.a = 22;
  big.d = 3;
  EXPECT_EQ(big.group_size(), 10648u);
}

TEST(ExperimentConfig, AnalysisParamsMirrorConfig) {
  const auto c = tiny_config();
  const auto p = c.analysis_params();
  EXPECT_EQ(p.a, c.a);
  EXPECT_EQ(p.d, c.d);
  EXPECT_EQ(p.r, c.r);
  EXPECT_DOUBLE_EQ(p.pd, c.pd);
  EXPECT_DOUBLE_EQ(p.env.loss, c.loss);
}

TEST(ExperimentConfig, PmcastConfigMirrorsConfig) {
  const auto c = tiny_config();
  const auto pc = c.pmcast_config();
  EXPECT_EQ(pc.tree.depth, c.d);
  EXPECT_EQ(pc.tree.redundancy, c.r);
  EXPECT_EQ(pc.fanout, c.fanout);
}

TEST(Experiment, PmcastMetricsInRange) {
  const auto result = run_pmcast_experiment(tiny_config());
  EXPECT_EQ(result.delivery.count(), 5u);
  EXPECT_GE(result.delivery.min(), 0.0);
  EXPECT_LE(result.delivery.max(), 1.0);
  EXPECT_GE(result.false_reception.min(), 0.0);
  EXPECT_LE(result.false_reception.max(), 1.0);
  EXPECT_GT(result.messages_per_process.mean(), 0.0);
}

TEST(Experiment, PmcastHighPdDeliversWell) {
  auto c = tiny_config();
  c.pd = 1.0;
  c.runs = 3;
  const auto result = run_pmcast_experiment(c);
  EXPECT_GT(result.delivery.mean(), 0.9);
}

TEST(Experiment, InterestedFractionTracksPd) {
  auto c = tiny_config();
  c.a = 8;  // 64 processes for a tighter estimate
  c.pd = 0.4;
  c.runs = 30;
  const auto result = run_pmcast_experiment(c);
  EXPECT_NEAR(result.interested_fraction.mean(), 0.4, 0.12);
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto r1 = run_pmcast_experiment(tiny_config());
  const auto r2 = run_pmcast_experiment(tiny_config());
  EXPECT_DOUBLE_EQ(r1.delivery.mean(), r2.delivery.mean());
  EXPECT_DOUBLE_EQ(r1.messages_per_process.mean(),
                   r2.messages_per_process.mean());
}

TEST(Experiment, DifferentSeedsDiffer) {
  auto c2 = tiny_config();
  c2.seed = 999;
  const auto r1 = run_pmcast_experiment(tiny_config());
  const auto r2 = run_pmcast_experiment(c2);
  // Message counts are fine-grained enough to almost surely differ.
  EXPECT_NE(r1.messages_per_process.mean(), r2.messages_per_process.mean());
}

TEST(Experiment, FloodingHasNearTotalReception) {
  auto c = tiny_config();
  c.pd = 0.3;
  const auto result = run_flooding_experiment(c);
  EXPECT_GT(result.false_reception.mean(), 0.8);
  EXPECT_GT(result.delivery.mean(), 0.9);
}

TEST(Experiment, GenuineHasZeroFalseReception) {
  auto c = tiny_config();
  c.pd = 0.3;
  const auto result = run_genuine_experiment(c, /*view_size=*/8);
  EXPECT_DOUBLE_EQ(result.false_reception.mean(), 0.0);
}

TEST(Experiment, PmcastFalseReceptionBetweenBaselines) {
  auto c = tiny_config();
  c.a = 5;
  c.pd = 0.3;
  c.runs = 10;
  const auto pm = run_pmcast_experiment(c);
  const auto fl = run_flooding_experiment(c);
  const auto ge = run_genuine_experiment(c, 10);
  EXPECT_LE(pm.false_reception.mean(), fl.false_reception.mean());
  EXPECT_GE(pm.false_reception.mean(), ge.false_reception.mean());
}

TEST(Experiment, CrashFractionLowersDeliveryAtMost) {
  auto safe = tiny_config();
  safe.runs = 10;
  auto crashy = safe;
  crashy.crash_fraction = 0.3;
  const auto r_safe = run_pmcast_experiment(safe);
  const auto r_crashy = run_pmcast_experiment(crashy);
  // Crashes cannot *help*; allow noise.
  EXPECT_GE(r_safe.delivery.mean() + 0.15, r_crashy.delivery.mean());
}

/// The bit patterns of every ExperimentResult mean: delivery, false
/// reception, rounds, messages per process, interested fraction.
std::array<std::uint64_t, 5> mean_bits(const ExperimentResult& r) {
  return {std::bit_cast<std::uint64_t>(r.delivery.mean()),
          std::bit_cast<std::uint64_t>(r.false_reception.mean()),
          std::bit_cast<std::uint64_t>(r.rounds.mean()),
          std::bit_cast<std::uint64_t>(r.messages_per_process.mean()),
          std::bit_cast<std::uint64_t>(r.interested_fraction.mean())};
}

TEST(ExperimentGolden, MeansKeepTheirBits) {
  // The static-tree path beyond the figure benchmark's one configuration:
  // each mechanism PmcastNode switches on, and the three baselines. The
  // values are the program's own, pinned so that a change to how nodes
  // are built, gossip or sample shows as a changed bit, not as a
  // statistically plausible drift.
  ExperimentConfig base;
  base.a = 6;
  base.d = 3;
  base.r = 2;
  base.fanout = 2;
  base.pd = 0.3;
  base.loss = 0.05;
  base.runs = 4;
  base.seed = 2027;
  const auto with = [&](auto change) {
    ExperimentConfig c = base;
    change(c);
    return c;
  };
  const struct {
    const char* name;
    ExperimentResult result;
    std::array<std::uint64_t, 5> bits;
  } rows[] = {
      {"tuning h=4",
       run_pmcast_experiment(with([](auto& c) { c.tuning_threshold = 4; })),
       {0x3fef85bb39503d22ULL, 0x3feb6f668e9f8bf7ULL, 0x4028000000000000ULL,
        0x401204bda12f684cULL, 0x3fd38e38e38e38e4ULL}},
      {"leaf flooding",
       run_pmcast_experiment(with([](auto& c) { c.leaf_flood_density = 0.5; })),
       {0x3fe92bc77d3d08f0ULL, 0x3fd53d650803fdd2ULL, 0x4026000000000000ULL,
        0x3ffffb425ed097b4ULL, 0x3fd38e38e38e38e4ULL}},
      {"recovery rounds",
       run_pmcast_experiment(with([](auto& c) { c.recovery_rounds = 3; })),
       {0x3ff0000000000000ULL, 0x3fd53d650803fdd2ULL, 0x402c842c3c9eecc0ULL,
        0x4012612f684bda13ULL, 0x3fd38e38e38e38e4ULL}},
      {"shortcut off",
       run_pmcast_experiment(
           with([](auto& c) { c.local_interest_shortcut = false; })),
       {0x3fe8910ff7fa32daULL, 0x3fd53d650803fdd2ULL, 0x4028000000000000ULL,
        0x4000ded097b425eeULL, 0x3fd38e38e38e38e4ULL}},
      {"crashes",
       run_pmcast_experiment(with([](auto& c) { c.crash_fraction = 0.1; })),
       {0x3fe9f7f2904c0331ULL, 0x3fd33175b2d0e018ULL, 0x4042e16872b020c4ULL,
        0x3fff3425ed097b42ULL, 0x3fcfda12f684bda0ULL}},
      {"treecast", run_treecast_experiment(base),
       {0x3fe99cc8d9fcec59ULL, 0x3fc0504de2f82beaULL, 0x3f95daceee0f3cb4ULL,
        0x3fd6bda12f684bdaULL, 0x3fd38e38e38e38e4ULL}},
      {"flooding", run_flooding_experiment(base),
       {0x3fefc1b5e9d23a0bULL, 0x3ff0000000000000ULL, 0x4022000000000000ULL,
        0x40165684bda12f68ULL, 0x3fd38e38e38e38e4ULL}},
      // The view size table_baselines and pmcast_sim use.
      {"genuine", run_genuine_experiment(base, 20),
       {0x3fededb9aa6cec92ULL, 0x0000000000000000ULL, 0x4020000000000000ULL,
        0x3ff5ed097b425ed1ULL, 0x3fd38e38e38e38e4ULL}},
  };
  for (const auto& row : rows) {
    const auto got = mean_bits(row.result);
    EXPECT_EQ(got, row.bits) << row.name << ": {" << std::hex << std::showbase
                             << got[0] << ", " << got[1] << ", " << got[2]
                             << ", " << got[3] << ", " << got[4] << "}";
  }
}

TEST(EnvSizeT, ParsesAndFallsBack) {
  ::unsetenv("PMC_TEST_ENVVAR");
  EXPECT_EQ(env_size_t("PMC_TEST_ENVVAR", 7), 7u);
  ::setenv("PMC_TEST_ENVVAR", "42", 1);
  EXPECT_EQ(env_size_t("PMC_TEST_ENVVAR", 7), 42u);
  ::setenv("PMC_TEST_ENVVAR", "", 1);
  EXPECT_EQ(env_size_t("PMC_TEST_ENVVAR", 7), 7u);
  // Anything else that is not a positive integer is rejected, not ignored.
  for (const char* bad : {"-3", "abc", "2x", "0", "99999999999999999999999"}) {
    ::setenv("PMC_TEST_ENVVAR", bad, 1);
    EXPECT_THROW(env_size_t("PMC_TEST_ENVVAR", 7), std::invalid_argument)
        << bad;
  }
  ::unsetenv("PMC_TEST_ENVVAR");
}

TEST(TablePrinter, AlignsColumns) {
  Table t({"x", "value"});
  t.add_row({"1", Table::num(0.5, 2)});
  t.add_row({"22", Table::num(1.25, 2)});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("0.50"), std::string::npos);
  EXPECT_NE(text.find("1.25"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(TablePrinter, RowArityEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(ExperimentConfigValidation, AcceptsDefaultsAndTinyConfig) {
  EXPECT_NO_THROW(ExperimentConfig{}.validate());
  EXPECT_NO_THROW(tiny_config().validate());
}

TEST(ExperimentConfigValidation, RejectsOutOfRangeEnvironment) {
  {
    auto c = tiny_config();
    c.loss = 1.0;  // ε = 1 would lose every message
    EXPECT_THROW(c.validate(), std::logic_error);
  }
  {
    auto c = tiny_config();
    c.loss = -0.1;
    EXPECT_THROW(c.validate(), std::logic_error);
  }
  {
    auto c = tiny_config();
    c.crash_fraction = 1.0;  // τ = 1 would crash everyone
    EXPECT_THROW(c.validate(), std::logic_error);
  }
  {
    auto c = tiny_config();
    c.pd = 1.2;
    EXPECT_THROW(c.validate(), std::logic_error);
  }
  {
    auto c = tiny_config();
    c.a = 70000;  // exceeds AddrComponent — would silently truncate
    EXPECT_THROW(c.validate(), std::logic_error);
  }
}

TEST(ExperimentConfigValidation, RejectsZeroSizes) {
  for (auto mutate : {+[](ExperimentConfig& c) { c.a = 0; },
                      +[](ExperimentConfig& c) { c.d = 0; },
                      +[](ExperimentConfig& c) { c.r = 0; },
                      +[](ExperimentConfig& c) { c.fanout = 0; },
                      +[](ExperimentConfig& c) { c.runs = 0; },
                      +[](ExperimentConfig& c) { c.period = 0; }}) {
    auto c = tiny_config();
    mutate(c);
    EXPECT_THROW(c.validate(), std::logic_error);
  }
}

TEST(ExperimentConfigValidation, RunnersRejectInvalidConfigs) {
  auto c = tiny_config();
  c.crash_fraction = 1.5;
  EXPECT_THROW(run_pmcast_experiment(c), std::logic_error);
  EXPECT_THROW(run_flooding_experiment(c), std::logic_error);
  EXPECT_THROW(run_genuine_experiment(c, 8), std::logic_error);
  EXPECT_THROW(run_treecast_experiment(c), std::logic_error);
  EXPECT_THROW(run_genuine_experiment(tiny_config(), 0), std::logic_error);
}

}  // namespace
}  // namespace pmc
