#include "sim/runtime.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace pmc {
namespace {

struct Ping final : MessageBase {};

/// Test process: counts messages and ticks; can echo messages back.
class Probe final : public Process {
 public:
  Probe(Runtime& rt, ProcessId id) : Process(rt, id) {}

  int messages = 0;
  int ticks = 0;
  bool echo = false;
  SimTime last_tick_at = -1;

  void start_ticking(SimTime period) { arm_periodic(period); }
  void stop_ticking() { disarm_periodic(); }
  void send_ping(ProcessId to) { send(to, std::make_shared<Ping>()); }
  using Process::periodic_armed;

 protected:
  void on_message(ProcessId from, const MessagePtr&) override {
    ++messages;
    if (echo) send(from, std::make_shared<Ping>());
  }
  void on_period() override {
    ++ticks;
    last_tick_at = runtime().now();
    if (ticks >= 5) disarm_periodic();
  }
};

TEST(Runtime, ProcessesExchangeMessages) {
  Runtime rt;
  Probe a(rt, 0), b(rt, 1);
  a.send_ping(1);
  rt.run_until_idle();
  EXPECT_EQ(b.messages, 1);
  EXPECT_EQ(a.messages, 0);
}

TEST(Runtime, EchoRoundTrip) {
  Runtime rt;
  Probe a(rt, 0), b(rt, 1);
  b.echo = true;
  a.send_ping(1);
  rt.run_until_idle();
  EXPECT_EQ(b.messages, 1);
  EXPECT_EQ(a.messages, 1);
}

TEST(Runtime, PeriodicTicksAlignToPeriodBoundaries) {
  Runtime rt;
  Probe a(rt, 0);
  a.start_ticking(sim_ms(10));
  rt.run_until_idle();
  EXPECT_EQ(a.ticks, 5);
  // Last tick at the 5th boundary.
  EXPECT_EQ(a.last_tick_at, sim_ms(50));
}

TEST(Runtime, DisarmStopsTicks) {
  Runtime rt;
  Probe a(rt, 0);
  a.start_ticking(sim_ms(10));
  rt.run_for(sim_ms(25));
  EXPECT_EQ(a.ticks, 2);
  a.stop_ticking();
  rt.run_for(sim_ms(100));
  EXPECT_EQ(a.ticks, 2);
}

TEST(Runtime, CrashStopsMessagesAndTicks) {
  Runtime rt;
  Probe a(rt, 0), b(rt, 1);
  b.start_ticking(sim_ms(10));
  b.crash();
  a.send_ping(1);
  rt.run_until_idle();
  EXPECT_EQ(b.messages, 0);
  EXPECT_EQ(b.ticks, 0);
  EXPECT_FALSE(b.alive());
}

TEST(Runtime, CrashIsIdempotent) {
  Runtime rt;
  Probe a(rt, 0);
  a.crash();
  a.crash();
  EXPECT_FALSE(a.alive());
}

TEST(Runtime, ScheduleCrashesWithinHorizon) {
  Runtime rt;
  std::vector<std::unique_ptr<Probe>> procs;
  for (ProcessId i = 0; i < 20; ++i)
    procs.push_back(std::make_unique<Probe>(rt, i));
  std::vector<Process*> victims;
  for (std::size_t i = 0; i < 10; ++i) victims.push_back(procs[i].get());
  rt.schedule_crashes(victims, sim_ms(100));
  rt.run_until_idle();
  EXPECT_LE(rt.now(), sim_ms(100));
  for (std::size_t i = 0; i < 10; ++i) EXPECT_FALSE(procs[i]->alive());
  for (std::size_t i = 10; i < 20; ++i) EXPECT_TRUE(procs[i]->alive());
}

TEST(Runtime, MakeRngStreamsDiffer) {
  Runtime rt;
  Rng a = rt.make_rng();
  Rng b = rt.make_rng();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Runtime, SameSeedSameBehaviour) {
  const auto run = [](std::uint64_t seed) {
    Runtime rt(NetworkConfig{}, seed);
    Rng r = rt.make_rng();
    return r.next_u64();
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Runtime, DestructorDetaches) {
  // A message to a destroyed process counts dead instead of reaching it.
  Runtime rt;
  Probe a(rt, 0);
  {
    Probe tmp(rt, 3);
  }
  a.send_ping(3);
  rt.run_until_idle();
  EXPECT_EQ(rt.network().counters().dead_target, 1u);
  EXPECT_EQ(rt.network().counters().delivered, 0u);
}

TEST(Runtime, ArmPeriodicOnCrashedProcessThrows) {
  Runtime rt;
  Probe a(rt, 0);
  a.crash();
  EXPECT_THROW(a.start_ticking(sim_ms(10)), std::logic_error);
}

TEST(Runtime, RunForAdvancesTime) {
  Runtime rt;
  rt.run_for(sim_ms(42));
  EXPECT_EQ(rt.now(), sim_ms(42));
}

}  // namespace
}  // namespace pmc
