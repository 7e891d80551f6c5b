// MICRO — engineering micro-benchmarks (google-benchmark): the operations on
// pmcast's hot paths and the ablations of the design choices listed in
// docs/ARCHITECTURE.md ("Deviations from the paper").
//  * subscription matching (individual and regrouped summaries),
//  * interest regrouping (exact interval union) and coarsened matching,
//  * delegate election,
//  * GroupTree construction,
//  * interning: pooling summaries and looking addresses up,
//  * the wire round trip, stateless and through a runtime's codec,
//  * Markov-chain / Pittel analysis evaluation,
//  * one full simulated dissemination at a mid-size scale.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/markov.hpp"
#include "analysis/tree_analysis.hpp"
#include "bench_common.hpp"
#include "harness/experiment.hpp"
#include "membership/election.hpp"
#include "membership/sync.hpp"
#include "membership/tree.hpp"
#include "pmcast/node.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "wire/messages.hpp"

namespace {

using namespace pmc;

void BM_SubscriptionMatch(benchmark::State& state) {
  const auto sub = Subscription::parse(
      "b > 1 && 20.0 < c && c < 30.0 && z <= 50000");
  Event e;
  e.with("b", 2).with("c", 25.0).with("z", 1000);
  for (auto _ : state) benchmark::DoNotOptimize(sub.match(e));
}
BENCHMARK(BM_SubscriptionMatch);

void BM_SummaryMatch(benchmark::State& state) {
  // A regrouped summary over `range(0)` interval subscriptions: matching is
  // a binary search over the merged interval set.
  Rng rng(1);
  InterestSummary summary;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    summary.merge(InterestSummary::from(
        interval_subscription(rng.next_double(), 0.05)));
  const Event e = make_event_at(0, 0, 0.5);
  for (auto _ : state) benchmark::DoNotOptimize(summary.match(e));
}
BENCHMARK(BM_SummaryMatch)->Arg(8)->Arg(64)->Arg(512);

void BM_NaiveDisjunctionMatch(benchmark::State& state) {
  // Ablation baseline: matching the same interests WITHOUT regrouping is a
  // linear scan over all subscriptions (what Sec. 2.3 tells us to avoid).
  Rng rng(1);
  std::vector<Subscription> subs;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    subs.push_back(interval_subscription(rng.next_double(), 0.05));
  const Event e = make_event_at(0, 0, 0.5);
  for (auto _ : state) {
    bool any = false;
    for (const auto& s : subs) any = any || s.match(e);
    benchmark::DoNotOptimize(any);
  }
}
BENCHMARK(BM_NaiveDisjunctionMatch)->Arg(8)->Arg(64)->Arg(512);

void BM_InterestRegrouping(benchmark::State& state) {
  Rng rng(2);
  std::vector<Subscription> subs;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    subs.push_back(interval_subscription(rng.next_double(), 0.1));
  for (auto _ : state) {
    InterestSummary summary;
    for (const auto& s : subs) summary.merge(InterestSummary::from(s));
    benchmark::DoNotOptimize(summary.complexity());
  }
}
BENCHMARK(BM_InterestRegrouping)->Arg(8)->Arg(64)->Arg(256);

void BM_DelegateElection(benchmark::State& state) {
  // The id election every protocol path runs, over interned addresses.
  Rng rng(3);
  const auto space = AddressSpace::regular(64, 3);
  AddrInternTable table;
  std::vector<AddrId> members;
  for (const auto& a :
       space.sample(static_cast<std::size_t>(state.range(0)), rng))
    members.push_back(table.intern(a));
  std::vector<AddrId> delegates;
  for (auto _ : state) {
    elect_delegate_ids(members, 3, table, delegates);
    benchmark::DoNotOptimize(delegates.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DelegateElection)->Arg(16)->Arg(128)->Arg(1024);

void BM_GroupTreeBuild(benchmark::State& state) {
  const auto a = static_cast<AddrComponent>(state.range(0));
  Rng rng(4);
  const auto members =
      uniform_interest_members(AddressSpace::regular(a, 3), 0.5, rng);
  TreeConfig tc;
  tc.depth = 3;
  tc.redundancy = 3;
  for (auto _ : state) {
    Interns interns;
    GroupTree tree(tc, members, interns);
    benchmark::DoNotOptimize(tree.view_at(Prefix::root()).size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(members.size()));
}
BENCHMARK(BM_GroupTreeBuild)->Arg(6)->Arg(12)->Arg(22)->Unit(benchmark::kMillisecond);

// --- Interning through the flat index -------------------------------------

void BM_InternPoolIntern(benchmark::State& state) {
  // A per-call tree build's pooling: `n` summaries, a quarter of them
  // distinct, into a fresh pool that dies with the call.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  std::vector<InterestSummary> distinct;
  for (std::size_t i = 0; i < n / 4; ++i)
    distinct.push_back(InterestSummary::from(
        interval_subscription(rng.next_double(), 0.05)));
  for (auto _ : state) {
    InternPool<InterestSummary> pool;
    for (std::size_t i = 0; i < n; ++i)
      benchmark::DoNotOptimize(pool.intern(distinct[i % distinct.size()]));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_InternPoolIntern)->Arg(1024)->Arg(16384);

void BM_AddrInternFind(benchmark::State& state) {
  // The wire codec's lookup of every address it decodes: a prefix-trie walk
  // of d index probes, in random address order.
  const auto all =
      AddressSpace::regular(static_cast<AddrComponent>(state.range(0)), 3)
          .enumerate();
  AddrInternTable table;
  table.reserve(all.size(), 3);
  for (const auto& a : all) table.intern(a);
  Rng rng(13);
  std::vector<const Address*> order;
  for (std::size_t i = 0; i < 4096; ++i)
    order.push_back(&all[rng.next_below(all.size())]);
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(table.find(*order[i++ % order.size()]));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AddrInternFind)->Arg(16)->Arg(22);

// --- Membership hot loops over the struct-of-arrays DepthView -------------

/// Fills `v` with `n` rows, 2 delegates each, interests drawn from a small
/// recurring set (realistic: subscriptions repeat, which is what lets the
/// view pool them).
void fill_view(std::size_t n, Interns& interns, DepthView& v) {
  Rng rng(9);
  std::vector<std::shared_ptr<const InterestSummary>> summaries;
  for (int i = 0; i < 64; ++i)
    summaries.push_back(interns.summaries.intern(
        InterestSummary::from(interval_subscription(rng.next_double(), 0.05))));
  v.bind(interns);
  for (std::size_t i = 0; i < n; ++i) {
    const auto infix = static_cast<AddrComponent>(i);
    const AddrId delegates[] = {
        interns.addrs.intern(Address(std::vector<AddrComponent>{infix, 0})),
        interns.addrs.intern(Address(std::vector<AddrComponent>{infix, 1})),
    };
    v.upsert_pooled(infix, delegates, summaries[i % summaries.size()], 3,
                    i + 1, true);
  }
}

void BM_RecompactScanSoA(benchmark::State& state) {
  // compact_subgroup, the rule SyncNode::recompact_own_rows and GroupTree
  // share: merge live interests, elect from the live rows' delegates, sum
  // process counts.
  Interns interns;
  DepthView v;
  fill_view(static_cast<std::size_t>(state.range(0)), interns, v);
  InterestSummary summary;
  std::vector<AddrId> candidates, delegates;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compact_subgroup(v, 2, summary, candidates, delegates));
    benchmark::DoNotOptimize(delegates.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecompactScanSoA)->Arg(1024)->Arg(16384);

// --- Wire round trip --------------------------------------------------------

/// A MembershipUpdate of `state.range(0)` fill_view rows through the frozen
/// bytes: decode_message(encode_message(m)), which returns the decoded form,
/// or the runtime's wire::Codec, which returns its ids and pooled summaries
/// (its memo is warm after the first iteration).
void BM_WireRoundTrip(benchmark::State& state, bool runtime_codec) {
  Interns interns;
  DepthView v;
  fill_view(static_cast<std::size_t>(state.range(0)), interns, v);
  auto update = std::make_shared<MembershipUpdateMsg>();
  update->sender = AddrRef(interns, v.first_delegate(0));
  update->rows = RowBatch(interns);
  for (std::size_t i = 0; i < v.size(); ++i) update->rows.append(1, v, i);
  const MessagePtr msg = update;
  wire::Codec codec(interns);
  for (auto _ : state) {
    const MessagePtr out =
        runtime_codec ? codec.transcode(msg)
                      : wire::decode_message(wire::encode_message(*msg));
    benchmark::DoNotOptimize(out.get());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_WireRoundTrip, stateless, false)->Arg(1024);
BENCHMARK_CAPTURE(BM_WireRoundTrip, codec, true)->Arg(1024);

// --- Scheduler: calendar queue vs indexed heap ----------------------------

/// The simulator's dominant scheduler workload: every in-flight message is
/// one schedule+run, and every periodic timer is a schedule/cancel/reschedule
/// churn. Models both: `n` events scheduled at pseudo-random times, every
/// second one cancelled and replaced, then the queue drained.
template <class SchedulerT>
void scheduler_churn(SchedulerT& sched, std::size_t n,
                     std::uint64_t& sink) {
  std::vector<std::uint64_t> tokens;
  tokens.reserve(n);
  Rng rng(42);
  const SimTime base = sched.now();
  for (std::size_t i = 0; i < n; ++i) {
    const SimTime at = base + static_cast<SimTime>(rng.next_below(1000));
    tokens.push_back(
        sched.schedule_at(at, [&sink] { benchmark::DoNotOptimize(++sink); }));
  }
  for (std::size_t i = 0; i < n; i += 2) {
    sched.cancel(tokens[i]);
    const SimTime at = base + static_cast<SimTime>(rng.next_below(1000));
    sched.schedule_at(at, [&sink] { benchmark::DoNotOptimize(++sink); });
  }
  sched.run();
}

void BM_SchedulerReferenceHeap(benchmark::State& state) {
  // The indexed binary heap the simulator first shipped with, now the
  // behavioral oracle (sim/reference_scheduler.hpp) and the scheduler
  // gate's yardstick.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    ReferenceScheduler sched;
    scheduler_churn(sched, n, sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n + n / 2));
}
BENCHMARK(BM_SchedulerReferenceHeap)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_SchedulerCalendarQueue(benchmark::State& state) {
  // The production scheduler: two-level calendar queue with same-time
  // cohort batching (this is the figure the perf-smoke CI job gates on).
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    CalendarScheduler sched;
    scheduler_churn(sched, n, sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n + n / 2));
}
BENCHMARK(BM_SchedulerCalendarQueue)->Arg(1024)->Arg(16384)->Arg(131072);

// --- Network send path: per-send cost, single vs shared fan-out ------------

struct SendSink {
  std::uint64_t count = 0;
};

void network_send_bench(benchmark::State& state, bool multi) {
  constexpr std::size_t kTargets = 64;
  Scheduler sched;
  Network net(sched, NetworkConfig{}, Rng(11));
  net.reserve_range(0, kTargets);
  SendSink sink;
  std::vector<ProcessId> targets;
  for (ProcessId id = 0; id < kTargets; ++id) {
    net.attach(id, &sink, [](void* s, ProcessId, const MessagePtr&) {
      ++static_cast<SendSink*>(s)->count;
    });
    if (id != 0) targets.push_back(id);
  }
  const MessagePtr msg = std::make_shared<MessageBase>();
  for (auto _ : state) {
    if (multi) {
      net.send_multi(0, targets, msg);
    } else {
      for (const auto to : targets) net.send(0, to, msg);
    }
    sched.run();  // drain the deliveries
  }
  benchmark::DoNotOptimize(sink.count);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(targets.size()));
}

void BM_NetworkSendSingle(benchmark::State& state) {
  network_send_bench(state, /*multi=*/false);
}
BENCHMARK(BM_NetworkSendSingle);

void BM_NetworkSendMulti(benchmark::State& state) {
  network_send_bench(state, /*multi=*/true);
}
BENCHMARK(BM_NetworkSendMulti);

void BM_PittelEstimate(benchmark::State& state) {
  const RoundEstimator est;
  EnvParams env;
  env.loss = 0.05;
  double n = 10648.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.faulty(n, 2.0, env));
  }
}
BENCHMARK(BM_PittelEstimate);

void BM_MarkovChainExpectation(benchmark::State& state) {
  const auto chain = InfectionChain::flat(
      static_cast<std::size_t>(state.range(0)), 2.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(chain.expected_infected(10, 1));
}
BENCHMARK(BM_MarkovChainExpectation)->Arg(22)->Arg(66)->Arg(200);

void BM_TreeAnalysis(benchmark::State& state) {
  TreeAnalysisParams p;
  p.a = 22;
  p.d = 3;
  p.r = 3;
  p.fanout = 2;
  p.pd = 0.5;
  p.env.loss = 0.05;
  for (auto _ : state) benchmark::DoNotOptimize(analyze_tree(p));
}
BENCHMARK(BM_TreeAnalysis);

void BM_FullDisseminationRun(benchmark::State& state) {
  // One complete single-event dissemination at n = a^3 per iteration
  // (tree construction amortized by the harness across runs).
  const auto a = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 100;
  for (auto _ : state) {
    ExperimentConfig config;
    config.a = a;
    config.d = 3;
    config.r = 3;
    config.fanout = 2;
    config.pd = 0.5;
    config.loss = 0.05;
    config.runs = 1;
    config.seed = seed++;
    benchmark::DoNotOptimize(run_pmcast_experiment(config));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a * a * a));
}
BENCHMARK(BM_FullDisseminationRun)->Arg(8)->Arg(12)->Unit(benchmark::kMillisecond);

/// Mirrors every finished run into the pmcast-bench-v1 JSON (one "micro"
/// table: name, items_per_second, real ns/op) so the perf-smoke CI job and
/// the committed BENCH_*.json snapshots share one schema with the table
/// benches.
class JsonCollector final : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context&) override { return true; }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;  // skip aggregates
      double items_per_second = 0.0;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) items_per_second = it->second;
      const double ns_per_op =
          run.iterations > 0
              ? run.real_accumulated_time * 1e9 /
                    static_cast<double>(run.iterations)
              : 0.0;
      rows_.push_back({run.benchmark_name(),
                       pmc::Table::num(items_per_second, 1),
                       pmc::Table::num(ns_per_op, 1)});
    }
  }

  void flush_to(pmc::bench::JsonWriter& json) const {
    json.add_table("micro", {"name", "items_per_second", "real_ns_per_op"},
                   rows_);
  }

 private:
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects flags
// it does not know, so `--json <file>` is peeled off the command line
// before Initialize() sees it.
int main(int argc, char** argv) {
  pmc::bench::JsonWriter json(argc, argv, "micro_benchmarks");
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      ++i;  // skip the flag and its value
      continue;
    }
    args.push_back(argv[i]);
  }
  // The library refuses a custom file reporter unless --benchmark_out is
  // set; the collector never writes to that stream, so route it nowhere.
  // detlint:allow(thread-confinement) argv storage built once in main before any threads
  static std::string dev_null = "--benchmark_out=/dev/null";
  if (json.enabled()) args.push_back(dev_null.data());
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;
  if (json.enabled()) {
    JsonCollector collector;
    benchmark::RunSpecifiedBenchmarks(nullptr, &collector);
    collector.flush_to(json);
    json.write();
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
