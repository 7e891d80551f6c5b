// Parameterized property suites: invariants that must hold across the whole
// (a, d, R, F, pd, seed) parameter grid, run via TEST_P sweeps.
#include <gtest/gtest.h>

#include "analysis/tree_analysis.hpp"
#include "cluster_helpers.hpp"

namespace pmc {
namespace {

using testing::make_cluster;

struct GridParams {
  std::size_t a;
  std::size_t d;
  std::size_t r;
  std::size_t fanout;
  double pd;
  std::uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const GridParams& p) {
    return os << "a" << p.a << "_d" << p.d << "_R" << p.r << "_F" << p.fanout
              << "_pd" << static_cast<int>(p.pd * 100) << "_s" << p.seed;
  }
};

class PmcastGrid : public ::testing::TestWithParam<GridParams> {
 protected:
  testing::Cluster run_one(const Event& e, ProcessId publisher) {
    const auto& p = GetParam();
    PmcastConfig config;
    config.fanout = p.fanout;
    config.period = sim_ms(100);
    auto c = make_cluster(p.a, p.d, p.r, p.pd, config, 0.0, p.seed);
    c.nodes[publisher]->pmcast(e);
    c.runtime->run_until_idle();
    return c;
  }
};

TEST_P(PmcastGrid, RunQuiescesAndBoundsMessages) {
  const Event e = make_event_at(0, 0, 0.42);
  auto c = run_one(e, 0);
  EXPECT_TRUE(c.runtime->scheduler().empty());
  for (const auto& node : c.nodes) {
    const auto& s = node->stats();
    EXPECT_LE(s.sent, node->gossip_stats().rounds_run * GetParam().fanout);
    EXPECT_LE(s.delivered, 1u);
  }
}

TEST_P(PmcastGrid, UninterestedNonDelegatesUntouched) {
  // The pmcast guarantee: with exact interest regrouping, a process that is
  // neither interested nor anyone's delegate never hears about the event.
  const Event e = make_event_at(0, 0, 0.77);
  auto c = run_one(e, 0);
  for (const auto& node : c.nodes) {
    if (node->id() == 0 || node->interested_in(e)) continue;
    if (!c.is_delegate(node->address())) {
      EXPECT_FALSE(node->has_received(e.id()));
    }
  }
}

TEST_P(PmcastGrid, DeliveredImpliesInterested) {
  const Event e = make_event_at(0, 0, 0.31);
  auto c = run_one(e, 0);
  for (const auto& node : c.nodes) {
    if (node->has_delivered(e.id())) {
      EXPECT_TRUE(node->interested_in(e));
    }
  }
}

TEST_P(PmcastGrid, DeterministicReplay) {
  const Event e = make_event_at(0, 0, 0.6);
  auto c1 = run_one(e, 0);
  auto c2 = run_one(e, 0);
  EXPECT_EQ(c1.runtime->network().counters().sent,
            c2.runtime->network().counters().sent);
  for (std::size_t i = 0; i < c1.nodes.size(); ++i)
    EXPECT_EQ(c1.nodes[i]->has_delivered(e.id()),
              c2.nodes[i]->has_delivered(e.id()));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PmcastGrid,
    ::testing::Values(
        GridParams{3, 2, 1, 2, 0.3, 1}, GridParams{3, 2, 2, 3, 1.0, 2},
        GridParams{4, 2, 3, 2, 0.5, 3}, GridParams{3, 3, 2, 3, 0.7, 4},
        GridParams{4, 3, 2, 2, 0.2, 5}, GridParams{5, 2, 2, 4, 0.9, 6},
        GridParams{2, 4, 2, 2, 0.8, 7}, GridParams{6, 2, 3, 3, 0.1, 8},
        GridParams{5, 3, 3, 3, 0.4, 9}, GridParams{8, 1, 2, 3, 0.5, 10}),
    [](const ::testing::TestParamInfo<GridParams>& param_info) {
      std::ostringstream os;
      os << param_info.param;
      return os.str();
    });

// --- Interest regrouping properties over random subscription workloads ----

class RegroupGrid : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegroupGrid, SummaryNeverFalseNegative) {
  Rng rng(GetParam());
  std::vector<Subscription> subs;
  const std::size_t count = 5 + rng.next_below(30);
  for (std::size_t i = 0; i < count; ++i) {
    switch (rng.next_below(4)) {
      case 0:
        subs.push_back(interval_subscription(rng.next_double(),
                                             rng.next_double() * 0.5));
        break;
      case 1:
        subs.push_back(Subscription::parse(
            "b > " + std::to_string(static_cast<int>(rng.next_below(10)))));
        break;
      case 2:
        subs.push_back(Subscription::parse(
            "b == " + std::to_string(static_cast<int>(rng.next_below(5))) +
            " && u < " + std::to_string(rng.next_double())));
        break;
      default:
        subs.push_back(Subscription::parse(
            "e == \"name" + std::to_string(rng.next_below(4)) + "\""));
        break;
    }
  }
  InterestSummary summary;
  for (const auto& s : subs) summary.merge(InterestSummary::from(s));

  for (int trial = 0; trial < 500; ++trial) {
    Event e;
    e.with(kUniformAttr, rng.next_double())
        .with("b", static_cast<std::int64_t>(rng.next_below(12)))
        .with("e", "name" + std::to_string(rng.next_below(6)));
    bool any = false;
    for (const auto& s : subs) any = any || s.match(e);
    if (any) {
      ASSERT_TRUE(summary.match(e));
    }
  }
}

TEST_P(RegroupGrid, CoarsenedSummaryStillSound) {
  Rng rng(GetParam() ^ 0xfeed);
  InterestSummary summary;
  std::vector<Subscription> subs;
  for (int i = 0; i < 12; ++i) {
    subs.push_back(Subscription::parse(
        "b == " + std::to_string(i) + " && u >= " +
        std::to_string(i * 0.05) + " && u < " + std::to_string(i * 0.05 + 0.1)));
    summary.merge(InterestSummary::from(subs.back()));
  }
  auto coarse = summary;
  coarse.coarsen();
  for (int trial = 0; trial < 500; ++trial) {
    Event e;
    e.with("b", static_cast<std::int64_t>(rng.next_below(14)))
        .with(kUniformAttr, rng.next_double());
    bool any = false;
    for (const auto& s : subs) any = any || s.match(e);
    if (any) {
      ASSERT_TRUE(coarse.match(e));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegroupGrid,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u,
                                           88u));

// --- Analysis invariants across the parameter grid ------------------------

struct AnalysisParamsCase {
  std::size_t a, d, r;
  double fanout, pd, loss;
};

class AnalysisGrid : public ::testing::TestWithParam<AnalysisParamsCase> {};

TEST_P(AnalysisGrid, ResultWellFormed) {
  const auto& c = GetParam();
  TreeAnalysisParams p;
  p.a = c.a;
  p.d = c.d;
  p.r = c.r;
  p.fanout = c.fanout;
  p.pd = c.pd;
  p.env.loss = c.loss;
  const auto result = analyze_tree(p);
  ASSERT_EQ(result.depths.size(), c.d);
  EXPECT_GE(result.reliability, 0.0);
  EXPECT_LE(result.reliability, 1.0);
  EXPECT_GE(result.total_rounds, 0.0);
  for (const auto& depth : result.depths) {
    EXPECT_GE(depth.pi, c.pd - 1e-12);  // union over represented processes
    EXPECT_LE(depth.pi, 1.0 + 1e-12);
    EXPECT_GE(depth.ri, 0.0);
    EXPECT_LE(depth.ri, 1.0 + 1e-12);
    EXPECT_LE(depth.expected_infected, depth.interested + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AnalysisGrid,
    ::testing::Values(AnalysisParamsCase{22, 3, 3, 2, 0.5, 0.05},
                      AnalysisParamsCase{22, 3, 3, 2, 0.05, 0.05},
                      AnalysisParamsCase{10, 3, 4, 3, 0.2, 0.0},
                      AnalysisParamsCase{40, 3, 4, 3, 0.5, 0.1},
                      AnalysisParamsCase{5, 4, 2, 2, 0.8, 0.02},
                      AnalysisParamsCase{100, 2, 3, 4, 0.3, 0.05},
                      AnalysisParamsCase{7, 1, 1, 2, 0.6, 0.0},
                      AnalysisParamsCase{22, 3, 1, 1, 0.4, 0.2}));

}  // namespace
}  // namespace pmc
