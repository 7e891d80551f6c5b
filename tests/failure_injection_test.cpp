// Failure-injection suites: partitions, blackouts, targeted delegate
// wipeouts, and regressions for scheduler/timer interactions under
// cancellation — the failure modes a gossip protocol must degrade
// gracefully under (bounded lifetime, no livelock, no false delivery).
#include <gtest/gtest.h>

#include "cluster_helpers.hpp"

namespace pmc {
namespace {

using testing::default_config;
using testing::make_cluster;

TEST(FailureInjection, PartitionedSubtreeMissesEventOthersUnaffected) {
  // Cut subtree 2 off from everyone else for the whole run. pmcast has no
  // retransmission once an event's rounds expire, so subtree-2 processes
  // miss the event while the rest of the group delivers normally.
  auto c = make_cluster(3, 2, 2, 1.0, default_config(), 0.0, 7);
  const auto subtree_of = [&](ProcessId pid) {
    return c.members[pid].address.component(0);
  };
  c.runtime->network().add_link_filter(
      [&](ProcessId from, ProcessId to) {
        return (subtree_of(from) == 2) == (subtree_of(to) == 2);
      });
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[0]->pmcast(e);  // publisher in subtree 0
  c.runtime->run_until_idle();

  std::size_t cut_received = 0, rest_delivered = 0, rest_total = 0;
  for (const auto& n : c.nodes) {
    if (n->address().component(0) == 2) {
      if (n->has_received(e.id())) ++cut_received;
    } else {
      ++rest_total;
      if (n->has_delivered(e.id())) ++rest_delivered;
    }
  }
  EXPECT_EQ(cut_received, 0u);
  EXPECT_GE(rest_delivered, rest_total - 1);
  EXPECT_TRUE(c.runtime->scheduler().empty());  // no livelock on the cut
}

TEST(FailureInjection, TotalBlackoutStillQuiesces) {
  // Every message dropped: bounded gossip rounds must still drain the
  // buffers (passive garbage collection survives a dead network).
  auto c = make_cluster(3, 2, 2, 1.0, default_config(), 0.0, 8);
  c.runtime->network().add_link_filter(
      [](ProcessId, ProcessId) { return false; });
  c.nodes[4]->pmcast(make_event_at(4, 0, 0.5));
  c.runtime->run_until_idle();
  EXPECT_TRUE(c.runtime->scheduler().empty());
  std::size_t received = 0;
  for (const auto& n : c.nodes)
    if (n->id() != 4 && n->has_received(EventId{4, 0})) ++received;
  EXPECT_EQ(received, 0u);
}

TEST(FailureInjection, AllDelegatesOfSubgroupCrashed) {
  // Killing every delegate of one leaf subgroup makes that subgroup
  // unreachable, but the rest of the group must still deliver.
  auto c = make_cluster(4, 2, 2, 1.0, default_config(), 0.0, 9);
  // Subgroup 3's delegates are its R = 2 smallest members: 3.0 and 3.1.
  c.nodes[c.pid_of(Address::parse("3.0"))]->crash();
  c.nodes[c.pid_of(Address::parse("3.1"))]->crash();
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[0]->pmcast(e);
  c.runtime->run_until_idle();
  std::size_t others_delivered = 0, others_total = 0;
  for (const auto& n : c.nodes) {
    if (!n->alive() || n->address().component(0) == 3) continue;
    ++others_total;
    if (n->has_delivered(e.id())) ++others_delivered;
  }
  EXPECT_GE(others_delivered, others_total - 1);
  // Non-delegate members of subgroup 3 cannot be reached (their only
  // entry points are gone).
  EXPECT_FALSE(
      c.nodes[c.pid_of(Address::parse("3.2"))]->has_received(e.id()));
}

TEST(FailureInjection, HeavyLossDegradesButDoesNotWedge) {
  PmcastConfig config = default_config();
  config.env.loss = 0.5;  // the algorithm compensates with rounds
  auto c = make_cluster(4, 2, 3, 1.0, config, /*loss=*/0.5, 10);
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[0]->pmcast(e);
  c.runtime->run_until_idle();
  EXPECT_TRUE(c.runtime->scheduler().empty());
  std::size_t delivered = 0;
  for (const auto& n : c.nodes)
    if (n->has_delivered(e.id())) ++delivered;
  // Half the messages die; with the loss-adjusted round bound most
  // processes are still infected.
  EXPECT_GE(delivered, c.nodes.size() / 2);
}

TEST(FailureInjection, PublisherCrashesMidDissemination) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config(), 0.0, 11);
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[0]->pmcast(e);
  // Let one gossip period elapse, then kill the publisher.
  c.runtime->run_for(sim_ms(150));
  c.nodes[0]->crash();
  c.runtime->run_until_idle();
  std::size_t delivered = 0;
  for (const auto& n : c.nodes)
    if (n->alive() && n->has_delivered(e.id())) ++delivered;
  // The first round already seeded other processes; they finish the job.
  EXPECT_GE(delivered, 6u);
}

TEST(FailureInjection, CrashWithInFlightMessages) {
  // Messages addressed to a process that crashes while they are in flight
  // are counted dead, not delivered, and nothing dangles.
  auto c = make_cluster(3, 2, 2, 1.0, default_config(), 0.0, 12);
  c.nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  c.runtime->run_for(sim_ms(100) + sim_us(50));  // mid-latency window
  for (ProcessId pid = 1; pid < 4; ++pid) c.nodes[pid]->crash();
  c.runtime->run_until_idle();
  EXPECT_TRUE(c.runtime->scheduler().empty());
  const auto& counters = c.runtime->network().counters();
  EXPECT_EQ(counters.delivered + counters.lost + counters.dead_target +
                counters.filtered,
            counters.sent);
}

// --- Scheduler/timer regressions -------------------------------------------

/// Regression for the live-token accounting bug: disarming the periodic
/// timer from inside on_period used to cancel the already-executed token
/// and corrupt the pending-event counter.
class SelfDisarmProbe final : public Process {
 public:
  SelfDisarmProbe(Runtime& rt, ProcessId id) : Process(rt, id) {
    arm_periodic(sim_ms(10));
  }
  int ticks = 0;

 protected:
  void on_message(ProcessId, const MessagePtr&) override {}
  void on_period() override {
    ++ticks;
    disarm_periodic();  // stop after the first tick — from inside the tick
  }
};

TEST(SchedulerRegression, DisarmInsideTickKeepsAccountingExact) {
  Runtime rt;
  SelfDisarmProbe a(rt, 0), b(rt, 1);
  rt.run_until_idle();
  EXPECT_EQ(a.ticks, 1);
  EXPECT_EQ(b.ticks, 1);
  EXPECT_TRUE(rt.scheduler().empty());
  EXPECT_EQ(rt.scheduler().pending(), 0u);
}

/// Re-arming with a different period from inside the tick takes effect.
class RearmProbe final : public Process {
 public:
  RearmProbe(Runtime& rt, ProcessId id) : Process(rt, id) {
    arm_periodic(sim_ms(10));
  }
  std::vector<SimTime> tick_times;

 protected:
  void on_message(ProcessId, const MessagePtr&) override {}
  void on_period() override {
    tick_times.push_back(runtime().now());
    if (tick_times.size() == 1) arm_periodic(sim_ms(30));
    if (tick_times.size() >= 3) disarm_periodic();
  }
};

TEST(SchedulerRegression, RearmInsideTickChangesPeriod) {
  Runtime rt;
  RearmProbe p(rt, 0);
  rt.run_until_idle();
  ASSERT_EQ(p.tick_times.size(), 3u);
  EXPECT_EQ(p.tick_times[0], sim_ms(10));
  EXPECT_EQ(p.tick_times[1], sim_ms(30));  // aligned to the new period
  EXPECT_EQ(p.tick_times[2], sim_ms(60));
}

TEST(SchedulerRegression, CancelExecutedTokenIsNoOp) {
  Scheduler s;
  EventToken token = 0;
  token = s.schedule_at(sim_ms(1), [] {});
  s.schedule_at(sim_ms(2), [] {});
  s.run_until(sim_ms(1));
  s.cancel(token);  // already executed — must not affect the other event
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(s.executed(), 2u);
}

TEST(FailureInjection, DeterministicUnderCrashSchedule) {
  const auto run = [] {
    auto c = make_cluster(4, 2, 2, 0.7, default_config(), 0.05, 13);
    std::vector<Process*> victims{c.nodes[3].get(), c.nodes[9].get()};
    c.runtime->schedule_crashes(victims, sim_ms(500));
    c.nodes[0]->pmcast(make_event_at(0, 0, 0.4));
    c.runtime->run_until_idle();
    return c.runtime->network().counters().sent;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace pmc
