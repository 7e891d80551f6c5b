// Scenario engine: script parsing/round-tripping, config and script
// validation (contract violations throw), and the engine's behavioral
// guarantees — joins complete, crashes get detected, partitions block and
// heal, loss bursts restore, publishes deliver — all reproducibly.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <variant>

#include "harness/scenario.hpp"

namespace pmc {
namespace {

ChurnConfig small_config(std::uint64_t seed = 11) {
  ChurnConfig c;
  c.a = 4;
  c.d = 2;
  c.r = 2;
  c.pd = 0.5;
  c.initial_fill = 0.75;
  c.period = sim_ms(50);
  c.suspicion_timeout = sim_ms(400);
  c.seed = seed;
  return c;
}

// ---------------------------------------------------------------------------
// Script validation (satellite: config validation via contract.hpp)
// ---------------------------------------------------------------------------

TEST(ScenarioScript, ValidScriptPasses) {
  EXPECT_NO_THROW(ScenarioScript::demo().validate());
}

TEST(ScenarioScript, RejectsLossOutOfRange) {
  ScenarioScript s;
  s.add(sim_ms(100), LossBurst{1.5, sim_ms(100)});
  EXPECT_THROW(s.validate(), std::logic_error);
  ScenarioScript neg;
  neg.add(sim_ms(100), LossBurst{-0.1, sim_ms(100)});
  EXPECT_THROW(neg.validate(), std::logic_error);
}

TEST(ScenarioScript, RejectsZeroCountsAndDurations) {
  {
    ScenarioScript s;
    s.add(sim_ms(100), CrashNodes{0});
    EXPECT_THROW(s.validate(), std::logic_error);
  }
  {
    ScenarioScript s;
    s.add(sim_ms(100), LossBurst{0.5, 0});
    EXPECT_THROW(s.validate(), std::logic_error);
  }
}

TEST(ScenarioScript, RejectsUnsortedOrNegativeTimes) {
  {
    ScenarioScript s;
    s.add(sim_ms(200), Join{1});
    s.add(sim_ms(100), Join{1});  // out of order
    EXPECT_THROW(s.validate(), std::logic_error);
  }
  {
    ScenarioScript s;
    s.add(-1, Join{1});
    EXPECT_THROW(s.validate(), std::logic_error);
  }
}

TEST(ScenarioScript, RejectsHealBeforePartition) {
  ScenarioScript s;
  s.add(sim_ms(500), Partition{{0}, sim_ms(400)});
  EXPECT_THROW(s.validate(), std::logic_error);
}

TEST(ScenarioScript, RejectsRecoverBeforeCrash) {
  {
    ScenarioScript s;
    s.add(sim_ms(100), RecoverNodes{1});
    EXPECT_THROW(s.validate(), std::logic_error);
  }
  {
    // More recoveries than crashes scheduled before them.
    ScenarioScript s;
    s.add(sim_ms(100), CrashNodes{1});
    s.add(sim_ms(200), RecoverNodes{2});
    EXPECT_THROW(s.validate(), std::logic_error);
  }
  {
    ScenarioScript s;
    s.add(sim_ms(100), CrashNodes{2});
    s.add(sim_ms(200), RecoverNodes{2});
    EXPECT_NO_THROW(s.validate());
  }
}

TEST(ScenarioScript, AppendedTimelineMayRecoverEarlierCrashes) {
  // play() credits crashes scheduled by earlier timelines of the same run,
  // so a follow-up script can recover them even though it contains no
  // CrashNodes of its own.
  ChurnSim sim(small_config());
  ScenarioScript first;
  first.add(sim_ms(100), CrashNodes{2});
  sim.play(first);
  sim.run_for(sim_ms(500));

  ScenarioScript second;
  second.add(sim_ms(800), RecoverNodes{2});
  EXPECT_THROW(second.validate(), std::logic_error);  // standalone: invalid
  EXPECT_NO_THROW(sim.play(second));                  // appended: credited
  sim.run_for(sim_ms(2000));
  EXPECT_EQ(sim.counters().recoveries, 2u);

  ScenarioScript third;  // but the credit is spent now
  third.add(sim_ms(3000), RecoverNodes{1});
  EXPECT_THROW(sim.play(third), std::logic_error);
}

TEST(ScenarioScript, TimelineVerdictDoesNotDependOnHowPlayIsSplit) {
  // play() credits a rack failure's zone when it validates the action, so
  // a recovery of its victims is accepted whether it comes in the same
  // script or in a later play() call — and both runs end byte-identical.
  auto config = small_config();
  config.initial_fill = 1.0;
  const RackFailure rack{{0}};  // a=4, d=2: a 4-process zone

  ChurnSim one(config);
  ScenarioScript whole;
  whole.add(sim_ms(100), rack);
  whole.add(sim_ms(500), RecoverNodes{2});
  // Standalone, there is no address space to size the zone by.
  EXPECT_THROW(whole.validate(), std::logic_error);
  ASSERT_NO_THROW(one.play(whole));
  one.run_for(sim_ms(2000));

  ChurnSim split(config);
  ScenarioScript first;
  first.add(sim_ms(100), rack);
  ScenarioScript second;
  second.add(sim_ms(500), RecoverNodes{2});
  split.play(first);
  ASSERT_NO_THROW(split.play(second));
  split.run_for(sim_ms(2000));

  EXPECT_EQ(one.counters().crashes, 4u);
  EXPECT_EQ(one.counters().recoveries, 2u);
  EXPECT_EQ(one.summary(), split.summary());
}

TEST(ScenarioScript, PlayRejectsPartitionSideOutsideAddressSpace) {
  ChurnSim sim(small_config());  // a = 4: valid top components are 0..3
  ScenarioScript s;
  s.add(sim_ms(100), Partition{{4}, sim_ms(500)});
  EXPECT_THROW(sim.play(s), std::logic_error);
}

TEST(ScenarioScript, PlayRejectsActionsInThePast) {
  ChurnSim sim(small_config());
  sim.run_for(sim_ms(500));
  ScenarioScript s;
  s.add(sim_ms(100), Join{1});  // valid on its own, but now() is 500ms
  EXPECT_THROW(sim.play(s), std::logic_error);
}

TEST(ScenarioScript, RejectedPlayLeavesNoStateBehind) {
  // A rejected script must not leave phantom crash credit or partially
  // scheduled actions: play() validates everything before mutating.
  ChurnSim sim(small_config());
  sim.run_for(sim_ms(500));
  ScenarioScript bad;
  bad.add(sim_ms(100), CrashNodes{2});  // in the past -> whole script rejected
  EXPECT_THROW(sim.play(bad), std::logic_error);

  ScenarioScript recover;  // must NOT be creditable against the rejected crash
  recover.add(sim_ms(1000), RecoverNodes{2});
  EXPECT_THROW(sim.play(recover), std::logic_error);

  sim.run_for(sim_ms(2000));  // and the rejected crash never fires
  EXPECT_EQ(sim.counters().crashes, 0u);
  EXPECT_EQ(sim.live_count(), 12u);
}

TEST(ScenarioScript, ParseRejectsOverflowingTimeWithLineNumber) {
  try {
    ScenarioScript::parse("at 99999999999999999999ms join 1\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(ChurnConfigValidation, RejectsNonsense) {
  {
    auto c = small_config();
    c.loss = 1.0;  // ε must stay below 1
    EXPECT_THROW(c.validate(), std::logic_error);
  }
  {
    auto c = small_config();
    c.initial_fill = 0.0;
    EXPECT_THROW(c.validate(), std::logic_error);
  }
  {
    auto c = small_config();
    c.pd = 1.5;
    EXPECT_THROW(c.validate(), std::logic_error);
  }
  {
    auto c = small_config();
    c.period = 0;
    EXPECT_THROW(c.validate(), std::logic_error);
  }
  {
    auto c = small_config();
    c.a = 70000;  // exceeds AddrComponent — would silently truncate
    EXPECT_THROW(c.validate(), std::logic_error);
  }
  {
    auto c = small_config();
    c.a = 300;
    c.d = 40;  // capacity saturates far past any sane engine run
    EXPECT_THROW(c.validate(), std::logic_error);
  }
}

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

TEST(ScenarioScript, ParsesTextFormat) {
  const auto s = ScenarioScript::parse(
      "# a comment\n"
      "at 200ms join 2\n"
      "\n"
      "at 1s partition 0,1 heal 1800ms   # trailing comment\n"
      "at 1200ms loss 0.35 for 400ms\n"
      "at 1500ms publish 6 every 25ms\n"
      "at 2s crash 1\n"
      "at 2500ms recover 1\n"
      "at 3s leave 2\n");
  ASSERT_EQ(s.size(), 7u);
  EXPECT_NO_THROW(s.validate());
  EXPECT_TRUE(std::holds_alternative<Join>(s.actions()[0].op));
  EXPECT_EQ(s.actions()[0].at, sim_ms(200));
  const auto& p = std::get<Partition>(s.actions()[1].op);
  EXPECT_EQ(p.side, (std::vector<AddrComponent>{0, 1}));
  EXPECT_EQ(p.heal_at, sim_ms(1800));
  const auto& l = std::get<LossBurst>(s.actions()[2].op);
  EXPECT_DOUBLE_EQ(l.eps, 0.35);
  EXPECT_EQ(l.duration, sim_ms(400));
  const auto& pub = std::get<PublishBurst>(s.actions()[3].op);
  EXPECT_EQ(pub.count, 6u);
  EXPECT_EQ(pub.spacing, sim_ms(25));
}

TEST(ScenarioScript, TextRoundTrip) {
  const auto demo = ScenarioScript::demo();
  const auto reparsed = ScenarioScript::parse(demo.to_string());
  EXPECT_EQ(reparsed.to_string(), demo.to_string());
  ASSERT_EQ(reparsed.size(), demo.size());
}

TEST(ScenarioScript, LossEpsRoundTripsExactly) {
  // to_string must emit enough digits that parsing reproduces the exact
  // double, not a 6-digit approximation.
  ScenarioScript s;
  s.add(sim_ms(100), LossBurst{0.123456789012345, sim_ms(200)});
  const auto reparsed = ScenarioScript::parse(s.to_string());
  const auto& op = std::get<LossBurst>(reparsed.actions()[0].op);
  EXPECT_EQ(op.eps, 0.123456789012345);
}

TEST(ScenarioScript, RejectsOverlappingLossBursts) {
  // An earlier burst's restore would silently truncate a longer concurrent
  // one, so overlap is rejected — both within a script and across play().
  {
    ScenarioScript s;
    s.add(0, LossBurst{0.9, sim_sec(1)});
    s.add(sim_ms(200), LossBurst{0.5, sim_ms(100)});
    EXPECT_THROW(s.validate(), std::logic_error);
  }
  {
    ScenarioScript s;  // back-to-back is fine
    s.add(0, LossBurst{0.9, sim_ms(200)});
    s.add(sim_ms(200), LossBurst{0.5, sim_ms(100)});
    EXPECT_NO_THROW(s.validate());
  }
  ChurnSim sim(small_config());
  ScenarioScript first;
  first.add(sim_ms(100), LossBurst{0.9, sim_sec(2)});
  sim.play(first);
  ScenarioScript second;
  second.add(sim_ms(500), LossBurst{0.5, sim_ms(100)});  // inside the first
  EXPECT_THROW(sim.play(second), std::logic_error);
}

TEST(ScenarioScript, BackToBackLossBurstsBothApply) {
  // The second burst's set_loss runs before the first burst's same-time
  // restore (FIFO tie-break); the epoch check must keep the second ε in
  // force for its whole window instead of letting the stale restore win.
  auto config = small_config();
  config.loss = 0.0;
  ChurnSim sim(config);
  ScenarioScript s;
  s.add(sim_ms(200), LossBurst{0.9, sim_ms(200)});
  s.add(sim_ms(400), LossBurst{0.5, sim_ms(200)});
  sim.play(s);
  sim.run_until(sim_ms(300));
  EXPECT_DOUBLE_EQ(sim.runtime().network().config().loss_probability, 0.9);
  sim.run_until(sim_ms(500));
  EXPECT_DOUBLE_EQ(sim.runtime().network().config().loss_probability, 0.5);
  sim.run_until(sim_ms(700));
  EXPECT_DOUBLE_EQ(sim.runtime().network().config().loss_probability, 0.0);
  EXPECT_EQ(sim.counters().loss_bursts, 2u);
  EXPECT_EQ(sim.counters().loss_restores, 1u);  // only the live epoch's
}

TEST(ScenarioScript, RejectsTimelineArithmeticOverflow) {
  {
    ScenarioScript s;  // (count-1) * spacing would overflow SimTime
    s.add(0, PublishBurst{3, sim_us(4611686018427387904LL)});
    EXPECT_THROW(s.validate(), std::logic_error);
  }
  {
    ScenarioScript s;  // at + duration would overflow SimTime
    s.add(sim_us(2), LossBurst{0.5,
                               std::numeric_limits<SimTime>::max() - 1});
    EXPECT_THROW(s.validate(), std::logic_error);
  }
}

TEST(ScenarioScript, RejectsTrailingTokens) {
  // Qualifiers the action cannot express must fail loudly, not vanish.
  EXPECT_THROW(ScenarioScript::parse("at 1s crash 3 heal 2s\n"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioScript::parse("at 1s join 2 every 25ms\n"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioScript::parse("at 1s partition 0 heal 2s extra\n"),
               std::invalid_argument);
}

TEST(ScenarioScript, ParseSimTimeSharedSyntax) {
  EXPECT_EQ(parse_sim_time("750us"), sim_us(750));
  EXPECT_EQ(parse_sim_time("500ms"), sim_ms(500));
  EXPECT_EQ(parse_sim_time("2s"), sim_sec(2));
  EXPECT_EQ(parse_sim_time("42"), sim_us(42));
  EXPECT_THROW(parse_sim_time("s"), std::invalid_argument);
  EXPECT_THROW(parse_sim_time("-5ms"), std::invalid_argument);
  EXPECT_THROW(parse_sim_time("10min"), std::invalid_argument);
  // The unit multiplication must not overflow either (UB otherwise).
  EXPECT_THROW(parse_sim_time("9999999999999999999s"),
               std::invalid_argument);
  EXPECT_THROW(parse_sim_time("9223372036854775s"), std::invalid_argument);
}

TEST(StrictParse, CountsAndRealsFillTheWholeToken) {
  // The parsers scripts, flags and environment variables share. Each row:
  // a token, what parse_count reads from it and what parse_real reads.
  constexpr auto kNo = std::nullopt;
  const struct {
    const char* token;
    std::optional<std::uint64_t> count;
    std::optional<double> real;
  } rows[] = {
      {"0", 0, 0.0},
      {"7", 7, 7.0},
      {"18446744073709551615", std::numeric_limits<std::uint64_t>::max(),
       18446744073709551615.0},
      {"18446744073709551616", kNo, 18446744073709551616.0},
      {"", kNo, kNo},
      {"-1", kNo, -1.0},  // a real's sign is its range check's business
      {"+1", kNo, kNo},  // no '+', as for a count
      {" 1", kNo, kNo},
      {"1 ", kNo, kNo},
      {"1x", kNo, kNo},
      {"0x10", kNo, kNo},  // reals are decimal
      {"0.5", kNo, 0.5},
      {"1e-3", kNo, 1e-3},
      {"0.5x", kNo, kNo},
      {" 0.5", kNo, kNo},
      {"nan", kNo, kNo},
      {"inf", kNo, kNo},
  };
  for (const auto& row : rows) {
    EXPECT_EQ(parse_count(row.token), row.count) << "'" << row.token << "'";
    EXPECT_EQ(parse_real(row.token), row.real) << "'" << row.token << "'";
  }
}

TEST(ScenarioScript, RejectsCountsWithTrailingGarbage) {
  EXPECT_THROW(ScenarioScript::parse("at 1s crash 3ms\n"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioScript::parse("at 1s partition 4294967296 heal 2s\n"),
               std::invalid_argument);  // would truncate to component 0
}

TEST(ScenarioScript, RejectsMalformedLossNumber) {
  // A typo'd eps must fail loudly, not silently parse as 0.0 (which would
  // invert the tested condition).
  EXPECT_THROW(ScenarioScript::parse("at 100ms loss O.35 for 400ms\n"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioScript::parse("at 100ms loss 0.35x for 400ms\n"),
               std::invalid_argument);
  // nan and inf fail here, as they do for a flag, before validate().
  EXPECT_THROW(ScenarioScript::parse("at 100ms loss nan for 400ms\n"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioScript::parse("at 1s latency lognormal 2ms inf\n"),
               std::invalid_argument);
}

TEST(ScenarioScript, ParseErrorsCarryLineNumbers) {
  try {
    ScenarioScript::parse("at 100ms join 1\nat 200ms frobnicate 3\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(ScenarioScript::parse("at 100xx join 1\n"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioScript::parse("join 1\n"), std::invalid_argument);
  EXPECT_THROW(ScenarioScript::parse("at 100ms partition 0 mend 1s\n"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Engine behavior
// ---------------------------------------------------------------------------

TEST(ChurnSim, FoundersConvergeAndJoinsComplete) {
  ChurnSim sim(small_config());
  EXPECT_EQ(sim.live_count(), 12u);  // 0.75 * 16
  ScenarioScript s;
  s.add(sim_ms(100), Join{2});
  s.add(sim_ms(250), Join{2});
  sim.play(s);
  sim.run_for(sim_ms(1500));
  EXPECT_EQ(sim.live_count(), 16u);
  EXPECT_EQ(sim.joined_count(), 16u);  // every join completed
  EXPECT_EQ(sim.counters().joins_requested, 4u);
  EXPECT_GT(sim.summary().joins_served, 0u);
}

TEST(ChurnSim, CrashesAreDetectedByNeighbors) {
  ChurnSim sim(small_config());
  ScenarioScript s;
  s.add(sim_ms(300), CrashNodes{2});
  sim.play(s);
  sim.run_for(sim_ms(2500));  // >> suspicion timeout
  EXPECT_EQ(sim.counters().crashes, 2u);
  EXPECT_EQ(sim.live_count(), 10u);
  // Failure detection tombstoned the silent processes somewhere.
  EXPECT_GT(sim.summary().membership_tombstones, 0u);
}

TEST(ChurnSim, PartitionFiltersTrafficAndHeals) {
  ChurnSim sim(small_config());
  ScenarioScript s;
  s.add(sim_ms(200), Partition{{0, 1}, sim_ms(900)});
  sim.play(s);
  sim.run_until(sim_ms(800));
  const auto mid = sim.summary();
  EXPECT_EQ(mid.counters.partitions, 1u);
  EXPECT_EQ(mid.counters.heals, 0u);
  EXPECT_GT(mid.network.filtered, 0u);  // the split actually bites
  sim.run_until(sim_ms(1500));
  const auto end = sim.summary();
  EXPECT_EQ(end.counters.heals, 1u);
  // After the heal, traffic flows again: filtered stops growing.
  const auto filtered_at_heal = end.network.filtered;
  sim.run_for(sim_ms(500));
  EXPECT_EQ(sim.summary().network.filtered, filtered_at_heal);
}

TEST(ChurnSim, LossBurstRaisesAndRestoresLoss) {
  auto config = small_config();
  config.loss = 0.0;
  ChurnSim sim(config);
  ScenarioScript s;
  s.add(sim_ms(200), LossBurst{0.5, sim_ms(400)});
  sim.play(s);
  sim.run_until(sim_ms(400));
  EXPECT_DOUBLE_EQ(sim.runtime().network().config().loss_probability, 0.5);
  EXPECT_GT(sim.summary().network.lost, 0u);
  sim.run_until(sim_ms(1000));
  EXPECT_DOUBLE_EQ(sim.runtime().network().config().loss_probability, 0.0);
  EXPECT_EQ(sim.counters().loss_bursts, 1u);
  EXPECT_EQ(sim.counters().loss_restores, 1u);
}

TEST(ChurnSim, PublishBurstsDeliverToInterestedProcesses) {
  ChurnSim sim(small_config());
  ScenarioScript s;
  s.add(sim_ms(300), PublishBurst{5, sim_ms(20)});
  sim.play(s);
  sim.run_for(sim_ms(2000));
  EXPECT_EQ(sim.counters().published, 5u);
  EXPECT_GT(sim.counters().delivered, 0u);
}

TEST(ChurnSim, RecoveredProcessesRejoin) {
  ChurnSim sim(small_config());
  ScenarioScript s;
  s.add(sim_ms(200), CrashNodes{3});
  s.add(sim_ms(1200), RecoverNodes{2});
  sim.play(s);
  sim.run_for(sim_ms(3000));
  EXPECT_EQ(sim.counters().crashes, 3u);
  EXPECT_EQ(sim.counters().recoveries, 2u);
  EXPECT_EQ(sim.live_count(), 11u);  // 12 - 3 + 2
}

TEST(ChurnSim, DemoScenarioReportsNonzeroChurnCounts) {
  // The acceptance scenario: staggered joins + crash burst + partition/heal
  // + loss spike, all in one run, every counter nonzero.
  ChurnSim sim(small_config(7));
  sim.play(ScenarioScript::demo());
  sim.run_until(sim_ms(3500));
  const auto s = sim.summary();
  EXPECT_GT(s.counters.joins_requested, 0u);
  EXPECT_GT(s.counters.crashes, 0u);
  EXPECT_GT(s.counters.recoveries, 0u);
  EXPECT_GT(s.counters.leaves, 0u);
  EXPECT_EQ(s.counters.partitions, 1u);
  EXPECT_EQ(s.counters.heals, 1u);
  EXPECT_GT(s.counters.published, 0u);
  EXPECT_GT(s.counters.delivered, 0u);
  EXPECT_GT(s.joins_served, 0u);
}

TEST(ChurnSim, JoinersSurviveTheirContactCrashing) {
  // A joiner whose contact crashes before serving the request is stranded
  // on a dead pid; the engine re-targets pending joiners after every crash
  // burst, so the join must still complete.
  auto config = small_config();
  config.initial_fill = 0.5;  // 8 founders, plenty of vacancies
  ChurnSim sim(config);
  ScenarioScript s;
  s.add(sim_ms(200), Join{4});
  s.add(sim_ms(230), CrashNodes{4});  // likely hits at least one contact
  sim.play(s);
  sim.run_for(sim_ms(4000));
  EXPECT_EQ(sim.joined_count(), sim.live_count());
  EXPECT_EQ(sim.live_count(), 8u);  // 8 + 4 - 4
}

TEST(ChurnSim, JoinersSurviveTheirContactLeaving) {
  // Same guarantee when the contact departs gracefully instead of
  // crashing (leave() also ends fail-stop).
  auto config = small_config();
  config.initial_fill = 0.5;
  ChurnSim sim(config);
  ScenarioScript s;
  s.add(sim_ms(200), Join{4});
  s.add(sim_ms(230), Leave{4});
  sim.play(s);
  sim.run_for(sim_ms(4000));
  EXPECT_EQ(sim.joined_count(), sim.live_count());
  EXPECT_EQ(sim.live_count(), 8u);
}

// ---------------------------------------------------------------------------
// Adversarial verbs: parsing, validation, round-trip, engine semantics
// ---------------------------------------------------------------------------

TEST(ScenarioScript, ParsesAdversarialVerbs) {
  const auto s = ScenarioScript::parse(
      "at 100ms latency lognormal 2ms 0.8\n"
      "at 200ms asym 0,1 to 2 heal 1800ms\n"
      "at 300ms flap 0 period 200ms duty 0.4 until 2s\n"
      "at 400ms rack 1,0\n"
      "at 500ms joinstorm 16 over 250ms\n"
      "at 600ms joinstorm 4\n"
      "at 700ms duplicate 0.4 for 300ms\n"
      "at 800ms replay traces/outage.scn\n"
      "at 900ms latency uniform\n");
  ASSERT_EQ(s.size(), 9u);
  const auto& lat = std::get<LatencyProfile>(s.actions()[0].op);
  EXPECT_EQ(lat.median, sim_ms(2));
  EXPECT_DOUBLE_EQ(lat.sigma, 0.8);
  const auto& asym = std::get<AsymPartition>(s.actions()[1].op);
  EXPECT_EQ(asym.from_side, (std::vector<AddrComponent>{0, 1}));
  EXPECT_EQ(asym.to_side, (std::vector<AddrComponent>{2}));
  EXPECT_EQ(asym.heal_at, sim_ms(1800));
  const auto& flap = std::get<Flap>(s.actions()[2].op);
  EXPECT_EQ(flap.side, (std::vector<AddrComponent>{0}));
  EXPECT_EQ(flap.period, sim_ms(200));
  EXPECT_DOUBLE_EQ(flap.duty, 0.4);
  EXPECT_EQ(flap.until, sim_sec(2));
  const auto& rack = std::get<RackFailure>(s.actions()[3].op);
  EXPECT_EQ(rack.prefix, (std::vector<AddrComponent>{1, 0}));
  const auto& storm = std::get<JoinStorm>(s.actions()[4].op);
  EXPECT_EQ(storm.count, 16u);
  EXPECT_EQ(storm.over, sim_ms(250));
  EXPECT_EQ(std::get<JoinStorm>(s.actions()[5].op).over, 0);
  const auto& dup = std::get<DuplicateBurst>(s.actions()[6].op);
  EXPECT_DOUBLE_EQ(dup.prob, 0.4);
  EXPECT_EQ(dup.duration, sim_ms(300));
  EXPECT_EQ(std::get<TraceReplay>(s.actions()[7].op).path,
            "traces/outage.scn");
  const auto& uniform = std::get<LatencyProfile>(s.actions()[8].op);
  EXPECT_EQ(uniform.median, 0);
}

TEST(ScenarioScript, AdversarialVerbsRoundTrip) {
  // Every verb, including the forms that leave an optional field out,
  // prints back exactly as written.
  const std::string text =
      "at 50ms crash 2\n"
      "at 60ms recover 1\n"
      "at 70ms join 3\n"
      "at 80ms leave 1\n"
      "at 90ms partition 0,1 heal 1s\n"
      "at 100ms latency lognormal 2ms 0.8\n"
      "at 110ms loss 0.35 for 400ms\n"
      "at 120ms publish 6 every 25ms\n"
      "at 130ms publish 3\n"
      "at 200ms asym 0,1 to 2 heal 1800ms\n"
      "at 300ms flap 0 period 200ms duty 0.4 until 2s\n"
      "at 400ms rack 1,0\n"
      "at 500ms joinstorm 16 over 250ms\n"
      "at 600ms joinstorm 4\n"
      "at 700ms duplicate 0.4 for 300ms\n"
      "at 800ms replay traces/outage.scn\n"
      "at 900ms latency uniform\n";
  const auto s = ScenarioScript::parse(text);
  std::set<std::size_t> kinds;
  for (const auto& action : s.actions()) kinds.insert(action.op.index());
  EXPECT_EQ(kinds.size(), std::variant_size_v<ScenarioOp>);
  EXPECT_EQ(s.to_string(), text);
}

TEST(ScenarioScript, RejectsMalformedAdversarialVerbs) {
  // Wrong arity / missing keywords.
  EXPECT_THROW(ScenarioScript::parse("at 1s asym 0 heal 2s\n"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioScript::parse("at 1s asym 0 to 1\n"),
               std::invalid_argument);
  EXPECT_THROW(
      ScenarioScript::parse("at 1s flap 0 period 200ms duty 0.4\n"),
      std::invalid_argument);
  EXPECT_THROW(ScenarioScript::parse("at 1s duplicate 0.4\n"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioScript::parse("at 1s latency lognormal 2ms\n"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioScript::parse("at 1s rack\n"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioScript::parse("at 1s replay\n"),
               std::invalid_argument);
  // Malformed numbers must fail loudly, like the loss verb.
  EXPECT_THROW(
      ScenarioScript::parse("at 1s flap 0 period 200ms duty O.4 until 2s\n"),
      std::invalid_argument);
  EXPECT_THROW(ScenarioScript::parse("at 1s duplicate 0.4x for 300ms\n"),
               std::invalid_argument);
}

TEST(ScenarioScript, RejectsAdversarialContractBreaches) {
  {
    ScenarioScript s;  // heal before the cut
    AsymPartition p;
    p.from_side = {0};
    p.to_side = {1};
    p.heal_at = sim_ms(100);
    s.add(sim_ms(500), p);
    EXPECT_THROW(s.validate(), std::logic_error);
  }
  {
    ScenarioScript s;  // duty outside (0, 1)
    Flap f;
    f.side = {0};
    f.duty = 1.0;
    f.until = sim_ms(900);
    s.add(sim_ms(500), f);
    EXPECT_THROW(s.validate(), std::logic_error);
  }
  {
    ScenarioScript s;  // sigma above the lognormal sanity bound
    s.add(sim_ms(100), LatencyProfile{sim_ms(2), 5.0});
    EXPECT_THROW(s.validate(), std::logic_error);
  }
  {
    ScenarioScript s;  // cap 16 * median leaves no room for the send time
    s.add(sim_ms(100),
          LatencyProfile{std::numeric_limits<SimTime>::max() / 16, 1.0});
    EXPECT_THROW(s.validate(), std::logic_error);
  }
  {
    ScenarioScript s;  // overlapping duplicate bursts
    s.add(sim_ms(100), DuplicateBurst{0.5, sim_ms(300)});
    s.add(sim_ms(200), DuplicateBurst{0.5, sim_ms(300)});
    EXPECT_THROW(s.validate(), std::logic_error);
  }
  {
    ScenarioScript s;  // replay path with whitespace can't round-trip
    s.add(sim_ms(100), TraceReplay{"bad path.scn"});
    EXPECT_THROW(s.validate(), std::logic_error);
  }
}

TEST(ChurnSim, RackFailureCrashesExactlyTheZone) {
  auto config = small_config();
  config.initial_fill = 1.0;
  ChurnSim sim(config);
  const std::size_t before = sim.live_count();
  ScenarioScript s;
  RackFailure r;
  r.prefix = {0};
  s.add(sim_ms(200), r);
  sim.play(s);
  sim.run_for(sim_ms(400));
  // a=4, d=2, full fill: the rack under top-level component 0 is 4 wide.
  EXPECT_EQ(sim.counters().rack_failures, 1u);
  EXPECT_EQ(sim.counters().crashes, 4u);
  EXPECT_EQ(sim.live_count(), before - 4);
}

TEST(ChurnSim, JoinStormCompletes) {
  auto config = small_config();
  config.initial_fill = 0.5;
  ChurnSim sim(config);
  ScenarioScript s;
  s.add(sim_ms(200), JoinStorm{6, sim_ms(250)});
  sim.play(s);
  sim.run_for(sim_ms(5000));
  EXPECT_EQ(sim.counters().join_storms, 1u);
  EXPECT_GE(sim.counters().joins_requested, 6u);
  EXPECT_EQ(sim.joined_count(), sim.live_count());
  EXPECT_EQ(sim.live_count(), 14u);  // 8 founders + 6 stormers
}

TEST(ChurnSim, DuplicateBurstRaisesAndRestores) {
  ChurnSim sim(small_config());
  ScenarioScript s;
  s.add(sim_ms(200), DuplicateBurst{0.6, sim_ms(600)});
  s.add(sim_ms(300), PublishBurst{4, sim_ms(30)});
  sim.play(s);
  sim.run_for(sim_ms(2500));
  const auto summary = sim.summary();
  EXPECT_EQ(summary.counters.dup_bursts, 1u);
  EXPECT_EQ(summary.counters.dup_restores, 1u);
  EXPECT_GT(summary.network.duplicated, 0u);
  EXPECT_GT(summary.dup_suppressed, 0u);
  // Exactly-once held anyway.
  EXPECT_LE(summary.counters.delivered,
            summary.counters.expected_deliveries);
}

TEST(ChurnSim, TraceReplayExpandsWithOffset) {
  const std::string path =
      ::testing::TempDir() + "pmc_trace_replay_test.scn";
  {
    std::ofstream out(path);
    out << "at 100ms join 1\n"
        << "at 300ms publish 2 every 10ms\n";
  }
  ChurnSim sim(small_config());
  ScenarioScript s;
  s.add(sim_ms(500), TraceReplay{path});
  sim.play(s);
  sim.run_for(sim_ms(3000));
  // The child timeline runs shifted by the replay's time: join at 600ms,
  // publishes at 800/810ms.
  EXPECT_EQ(sim.counters().joins_requested, 1u);
  EXPECT_EQ(sim.counters().published, 2u);
  EXPECT_EQ(sim.joined_count(), sim.live_count());
  std::remove(path.c_str());
}

TEST(ChurnSim, TraceReplayShiftsDeadlines) {
  // heal/until are absolute times in the child file: replayed at 500ms,
  // the cuts installed at 600ms heal at 800, 900 and 1000ms.
  const std::string path =
      ::testing::TempDir() + "pmc_trace_deadline_test.scn";
  {
    std::ofstream out(path);
    out << "at 100ms partition 0 heal 300ms\n"
        << "at 100ms asym 1 to 2 heal 400ms\n"
        << "at 100ms flap 3 period 50ms duty 0.5 until 500ms\n";
  }
  ChurnSim sim(small_config());
  ScenarioScript s;
  s.add(sim_ms(500), TraceReplay{path});
  sim.play(s);
  sim.run_until(sim_ms(799));
  EXPECT_EQ(sim.counters().partitions, 1u);
  EXPECT_EQ(sim.counters().asym_partitions, 1u);
  EXPECT_EQ(sim.counters().flaps, 1u);
  EXPECT_EQ(sim.counters().heals, 0u);
  sim.run_until(sim_ms(801));
  EXPECT_EQ(sim.counters().heals, 1u);
  sim.run_until(sim_ms(901));
  EXPECT_EQ(sim.counters().heals, 2u);
  sim.run_until(sim_ms(1001));
  EXPECT_EQ(sim.counters().heals, 3u);
  std::remove(path.c_str());
}

TEST(ChurnSim, TraceReplayRejectsMissingAndNestedFiles) {
  {
    ChurnSim sim(small_config());
    ScenarioScript s;
    s.add(sim_ms(500), TraceReplay{"/nonexistent/trace.scn"});
    EXPECT_THROW(sim.play(s), std::logic_error);
  }
  {
    const std::string nested =
        ::testing::TempDir() + "pmc_trace_nested_test.scn";
    std::ofstream(nested) << "at 100ms replay " << nested << "\n";
    ChurnSim sim(small_config());
    ScenarioScript s;
    s.add(sim_ms(500), TraceReplay{nested});
    EXPECT_THROW(sim.play(s), std::logic_error);
    std::remove(nested.c_str());
  }
}

TEST(ChurnSim, WireTranscodeScenarioStillWorks) {
  // Every message of a churn scenario crosses the frozen wire format.
  auto config = small_config();
  config.wire_transcode = true;
  ChurnSim sim(config);
  ScenarioScript s;
  s.add(sim_ms(200), Join{1});
  s.add(sim_ms(400), PublishBurst{3, sim_ms(20)});
  s.add(sim_ms(600), CrashNodes{1});
  sim.play(s);
  sim.run_for(sim_ms(2000));
  EXPECT_EQ(sim.joined_count(), sim.live_count());
  EXPECT_GT(sim.counters().delivered, 0u);
}

}  // namespace
}  // namespace pmc
