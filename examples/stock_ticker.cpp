// Stock ticker: the content-based publish/subscribe workload that motivates
// the paper (think of the Swiss Exchange system its introduction cites).
//
// 512 trader processes in an 8x8x8 tree subscribe to quotes by symbol and
// price band, e.g. 'symbol == "NOVN" && price > 55.0'. An exchange feed
// publishes a stream of quotes; pmcast routes each quote to the traders
// whose filters match, without flooding the rest of the group. The example
// prints per-symbol delivery statistics and the bandwidth split.
#include <iostream>
#include <map>

#include "pmcast/pmcast.hpp"

int main() {
  using namespace pmc;

  const char* symbols[] = {"NOVN", "NESN", "UBSG", "ROG"};
  const double base_price[] = {90.0, 110.0, 25.0, 270.0};

  // 512 traders; each watches one symbol above a personal price threshold.
  const auto space = AddressSpace::regular(8, 3);
  Rng rng(7);
  std::vector<Member> members;
  for (const auto& address : space.enumerate()) {
    const std::size_t s = rng.next_below(4);
    const double threshold = base_price[s] * (0.9 + 0.2 * rng.next_double());
    auto predicate = Predicate::conj(
        {Predicate::compare("symbol", CmpOp::Eq, Value(symbols[s])),
         Predicate::compare("price", CmpOp::Gt, Value(threshold))});
    members.push_back(Member{address, Subscription(std::move(predicate))});
  }

  TreeConfig tree_config;
  tree_config.depth = 3;
  tree_config.redundancy = 3;
  Interns interns;
  GroupTree tree(tree_config, members, interns);

  NetworkConfig net;
  net.loss_probability = 0.02;
  Runtime runtime(net, 99);

  std::vector<ProcessId> directory;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const AddrId id = interns.addrs.intern(members[i].address);
    if (directory.size() <= id) directory.resize(id + 1, kNoProcess);
    directory[id] = static_cast<ProcessId>(i);
  }
  const auto lookup = [&directory](AddrId id) {
    return id < directory.size() ? directory[id] : kNoProcess;
  };

  PmcastConfig config;
  config.tree = tree_config;
  config.fanout = 3;

  std::map<std::string, std::size_t> deliveries;
  std::vector<std::unique_ptr<PmcastNode>> nodes;
  for (std::size_t i = 0; i < members.size(); ++i) {
    nodes.push_back(std::make_unique<PmcastNode>(
        runtime, static_cast<ProcessId>(i), config, members[i].address,
        members[i].subscription, tree.tables_for(members[i].address),
        lookup));
    nodes.back()->set_deliver_handler([&deliveries](const Event& e) {
      ++deliveries[e.get("symbol")->as_string()];
    });
  }

  // The exchange feed: 40 quotes with prices wandering around the base.
  std::cout << "Publishing 40 quotes across " << members.size()
            << " traders...\n";
  std::map<std::string, std::size_t> interested_totals;
  for (std::uint64_t seq = 0; seq < 40; ++seq) {
    const std::size_t s = rng.next_below(4);
    const double price = base_price[s] * (0.85 + 0.3 * rng.next_double());
    Event quote(EventId{/*publisher=*/0, seq});
    quote.with("symbol", symbols[s]).with("price", price)
         .with("volume", static_cast<std::int64_t>(rng.next_below(10000)));
    // The exchange's audience count: every trader whose filter matches.
    auto& interested = interested_totals[symbols[s]];
    for (const auto& m : members)
      if (m.subscription.match(quote)) ++interested;
    nodes[rng.next_below(nodes.size())]->pmcast(quote);
    runtime.run_until_idle();
  }

  std::cout << "\nsymbol  delivered  interested  ratio\n";
  for (const auto& [symbol, interested] : interested_totals) {
    const auto delivered = deliveries[symbol];
    std::cout << symbol << "  " << delivered << "  " << interested << "  "
              << (interested ? static_cast<double>(delivered) /
                                   static_cast<double>(interested)
                             : 1.0)
              << "\n";
  }
  std::cout << "\nTotal gossip messages: "
            << runtime.network().counters().sent
            << " (a broadcast would have sent >= "
            << 40 * (members.size() - 1) << " deliveries alone)\n";
  return 0;
}
