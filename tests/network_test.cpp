#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "handler_box.hpp"

namespace pmc {
namespace {

struct TestMsg final : MessageBase {
  int payload = 0;
  explicit TestMsg(int p) : payload(p) {}
};

struct Fixture {
  Scheduler sched;
  NetworkConfig config;
  testing::HandlerBox handlers;
  explicit Fixture(double loss = 0.0) {
    config.loss_probability = loss;
    config.latency_min = sim_us(100);
    config.latency_max = sim_us(500);
  }
  Network make() { return Network(sched, config, Rng(77)); }
};

TEST(Network, DeliversToAttachedHandler) {
  Fixture f;
  auto net = f.make();
  int received = -1;
  ProcessId from_seen = kNoProcess;
  f.handlers.attach(net, 1, [&](ProcessId from, const MessagePtr& m) {
    from_seen = from;
    received = dynamic_cast<const TestMsg&>(*m).payload;
  });
  net.send(0, 1, std::make_shared<TestMsg>(42));
  f.sched.run();
  EXPECT_EQ(received, 42);
  EXPECT_EQ(from_seen, 0u);
  EXPECT_EQ(net.counters().sent, 1u);
  EXPECT_EQ(net.counters().delivered, 1u);
}

TEST(Network, LatencyWithinConfiguredBounds) {
  Fixture f;
  auto net = f.make();
  SimTime delivered_at = -1;
  f.handlers.attach(net, 1, [&](ProcessId, const MessagePtr&) {
    delivered_at = f.sched.now();
  });
  net.send(0, 1, std::make_shared<TestMsg>(1));
  f.sched.run();
  EXPECT_GE(delivered_at, sim_us(100));
  EXPECT_LE(delivered_at, sim_us(500));
}

TEST(Network, UnattachedTargetCountsDead) {
  Fixture f;
  auto net = f.make();
  net.send(0, 9, std::make_shared<TestMsg>(1));
  f.sched.run();
  EXPECT_EQ(net.counters().dead_target, 1u);
  EXPECT_EQ(net.counters().delivered, 0u);
}

TEST(Network, DetachStopsDelivery) {
  Fixture f;
  auto net = f.make();
  int received = 0;
  f.handlers.attach(net, 1, [&](ProcessId, const MessagePtr&) { ++received; });
  net.send(0, 1, std::make_shared<TestMsg>(1));
  net.detach(1);
  f.sched.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.counters().dead_target, 1u);
}

TEST(Network, DetachAfterDeliveryInFlight) {
  // Crash between send and delivery: the message must be dropped.
  Fixture f;
  auto net = f.make();
  int received = 0;
  f.handlers.attach(net, 1, [&](ProcessId, const MessagePtr&) { ++received; });
  net.send(0, 1, std::make_shared<TestMsg>(1));
  f.sched.schedule_at(sim_us(50), [&] { net.detach(1); });  // before latency
  f.sched.run();
  EXPECT_EQ(received, 0);
}

TEST(Network, FullLossDropsEverything) {
  Fixture f(1.0);
  auto net = f.make();
  int received = 0;
  f.handlers.attach(net, 1, [&](ProcessId, const MessagePtr&) { ++received; });
  for (int i = 0; i < 100; ++i) net.send(0, 1, std::make_shared<TestMsg>(i));
  f.sched.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.counters().lost, 100u);
}

TEST(Network, PartialLossApproximatesEpsilon) {
  Fixture f(0.3);
  auto net = f.make();
  int received = 0;
  f.handlers.attach(net, 1, [&](ProcessId, const MessagePtr&) { ++received; });
  const int n = 20000;
  for (int i = 0; i < n; ++i) net.send(0, 1, std::make_shared<TestMsg>(i));
  f.sched.run();
  EXPECT_NEAR(received / static_cast<double>(n), 0.7, 0.02);
}

TEST(Network, LinkFilterModelsPartition) {
  Fixture f;
  auto net = f.make();
  int received = 0;
  f.handlers.attach(net, 1, [&](ProcessId, const MessagePtr&) { ++received; });
  f.handlers.attach(net, 2, [&](ProcessId, const MessagePtr&) { ++received; });
  const auto cut = net.add_link_filter([](ProcessId from, ProcessId to) {
    return !(from == 0 && to == 1);  // 0 -> 1 partitioned
  });
  net.send(0, 1, std::make_shared<TestMsg>(1));
  net.send(0, 2, std::make_shared<TestMsg>(2));
  f.sched.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net.counters().filtered, 1u);
  net.remove_link_filter(cut);
  net.send(0, 1, std::make_shared<TestMsg>(3));
  f.sched.run();
  EXPECT_EQ(received, 2);
}

TEST(Network, ReattachOverridesHandler) {
  Fixture f;
  auto net = f.make();
  int a = 0, b = 0;
  f.handlers.attach(net, 1, [&](ProcessId, const MessagePtr&) { ++a; });
  f.handlers.attach(net, 1, [&](ProcessId, const MessagePtr&) { ++b; });
  net.send(0, 1, std::make_shared<TestMsg>(1));
  f.sched.run();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
}

TEST(Network, ResetCounters) {
  Fixture f;
  auto net = f.make();
  f.handlers.attach(net, 1, [](ProcessId, const MessagePtr&) {});
  net.send(0, 1, std::make_shared<TestMsg>(1));
  f.sched.run();
  net.reset_counters();
  EXPECT_EQ(net.counters().sent, 0u);
  EXPECT_EQ(net.counters().delivered, 0u);
}

TEST(Network, BadConfigRejected) {
  Scheduler sched;
  NetworkConfig bad;
  bad.loss_probability = 1.5;
  EXPECT_THROW(Network(sched, bad, Rng(1)), std::logic_error);
  NetworkConfig bad2;
  bad2.latency_min = sim_us(500);
  bad2.latency_max = sim_us(100);
  EXPECT_THROW(Network(sched, bad2, Rng(1)), std::logic_error);
}

// --- send_multi: one fan-out must be draw-for-draw equivalent to N sends ---

struct DeliveryLog {
  std::vector<std::tuple<ProcessId, SimTime, int>> rows;  // (to, when, payload)
};

void attach_loggers(Fixture& f, Network& net, DeliveryLog& log,
                    ProcessId first, ProcessId last) {
  for (ProcessId id = first; id <= last; ++id) {
    f.handlers.attach(
        net, id, [&log, &sched = f.sched, id](ProcessId, const MessagePtr& m) {
          log.rows.emplace_back(id, sched.now(),
                                dynamic_cast<const TestMsg&>(*m).payload);
        });
  }
}

TEST(Network, SendMultiMatchesIndividualSends) {
  // Same seed, same sender, same destinations: N send() calls on one
  // network and one send_multi() on the other must lose the same messages
  // and deliver the survivors at the same times.
  Fixture f(0.3);
  auto a = f.make();
  auto b = f.make();
  DeliveryLog log_a, log_b;
  attach_loggers(f, a, log_a, 1, 40);
  attach_loggers(f, b, log_b, 1, 40);

  std::vector<ProcessId> targets;
  for (ProcessId id = 1; id <= 40; ++id) targets.push_back(id);
  for (ProcessId id = 1; id <= 40; ++id)
    a.send(0, id, std::make_shared<TestMsg>(7));
  b.send_multi(0, targets, std::make_shared<TestMsg>(7));
  f.sched.run();

  EXPECT_EQ(log_a.rows, log_b.rows);
  EXPECT_EQ(a.counters(), b.counters());
  EXPECT_GT(a.counters().delivered, 0u);  // the comparison is non-vacuous
  EXPECT_GT(a.counters().lost, 0u);
}

TEST(Network, SendMultiAdvancesTheSameSenderSequence) {
  // A send() after the fan-out must see the same labeled stream state on
  // both networks (the fan-out consumed one sequence number per target).
  Fixture f(0.5);
  auto a = f.make();
  auto b = f.make();
  DeliveryLog log_a, log_b;
  attach_loggers(f, a, log_a, 1, 9);
  attach_loggers(f, b, log_b, 1, 9);

  const std::vector<ProcessId> targets{1, 2, 3, 4, 5, 6, 7, 8};
  for (const auto id : targets) a.send(0, id, std::make_shared<TestMsg>(1));
  b.send_multi(0, targets, std::make_shared<TestMsg>(1));
  for (int i = 0; i < 16; ++i) {
    a.send(0, 9, std::make_shared<TestMsg>(i));
    b.send(0, 9, std::make_shared<TestMsg>(i));
  }
  f.sched.run();
  EXPECT_EQ(log_a.rows, log_b.rows);
  EXPECT_EQ(a.counters(), b.counters());
}

TEST(Network, SendMultiRespectsPerDestinationFilters) {
  // Filtered destinations are dropped without consuming a draw, exactly as
  // N send() calls would; the surviving destinations' draws line up.
  Fixture f(0.2);
  auto a = f.make();
  auto b = f.make();
  DeliveryLog log_a, log_b;
  attach_loggers(f, a, log_a, 1, 20);
  attach_loggers(f, b, log_b, 1, 20);
  const auto drop_even = [](ProcessId, ProcessId to) { return to % 2 == 1; };
  a.add_link_filter(drop_even);
  b.add_link_filter(drop_even);

  std::vector<ProcessId> targets;
  for (ProcessId id = 1; id <= 20; ++id) targets.push_back(id);
  for (const auto id : targets) a.send(0, id, std::make_shared<TestMsg>(3));
  b.send_multi(0, targets, std::make_shared<TestMsg>(3));
  f.sched.run();
  EXPECT_EQ(log_a.rows, log_b.rows);
  EXPECT_EQ(a.counters(), b.counters());
  EXPECT_EQ(a.counters().filtered, 10u);
}

TEST(Network, SendMultiRunsPureTranscoderOncePerFanout) {
  Fixture f;
  auto net = f.make();
  int received = 0;
  f.handlers.attach(net, 1, [&](ProcessId, const MessagePtr&) { ++received; });
  f.handlers.attach(net, 2, [&](ProcessId, const MessagePtr&) { ++received; });
  int transcodes = 0;
  net.set_transcoder([&transcodes](const MessagePtr& m) {
    ++transcodes;
    return m;
  });
  const std::vector<ProcessId> targets{1, 2};
  net.send_multi(0, targets, std::make_shared<TestMsg>(1));
  f.sched.run();
  EXPECT_EQ(transcodes, 1);
  EXPECT_EQ(received, 2);
}

TEST(Network, SendMultiSharesOnePayload) {
  Fixture f;
  auto net = f.make();
  std::vector<const MessageBase*> seen;
  for (ProcessId id = 1; id <= 3; ++id)
    f.handlers.attach(net, id, [&seen](ProcessId, const MessagePtr& m) {
      seen.push_back(m.get());
    });
  const std::vector<ProcessId> targets{1, 2, 3};
  net.send_multi(0, targets, std::make_shared<TestMsg>(9));
  f.sched.run();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], seen[1]);  // one payload object, shared, not copied
  EXPECT_EQ(seen[1], seen[2]);
}

TEST(Network, ReserveDoesNotChangeDraws) {
  // reserve_range(0, n) is purely an allocation hint: the labeled draw
  // streams (and so every loss/latency outcome) are unchanged.
  Fixture f(0.4);
  auto a = f.make();
  auto b = f.make();
  b.reserve_range(0, 64);
  DeliveryLog log_a, log_b;
  attach_loggers(f, a, log_a, 1, 10);
  attach_loggers(f, b, log_b, 1, 10);
  for (int i = 0; i < 50; ++i) {
    a.send(i % 7, 1 + (i % 10), std::make_shared<TestMsg>(i));
    b.send(i % 7, 1 + (i % 10), std::make_shared<TestMsg>(i));
  }
  f.sched.run();
  EXPECT_EQ(log_a.rows, log_b.rows);
  EXPECT_EQ(a.counters(), b.counters());
}

TEST(Network, ZeroLatencySpanIsFixedDelay) {
  Scheduler sched;
  NetworkConfig cfg;
  cfg.latency_min = cfg.latency_max = sim_us(250);
  Network net(sched, cfg, Rng(1));
  testing::HandlerBox handlers;
  SimTime at = -1;
  handlers.attach(net, 1,
                  [&](ProcessId, const MessagePtr&) { at = sched.now(); });
  net.send(0, 1, std::make_shared<TestMsg>(1));
  sched.run();
  EXPECT_EQ(at, sim_us(250));
}

}  // namespace
}  // namespace pmc
