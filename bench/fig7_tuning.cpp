// FIG7 — paper Figure 7: "Tuned vs Untuned Algorithm".
// Delivery probability vs p_d for the original pmcast and the Sec. 5.3
// tuned variant: when fewer than h view members are interested at a depth,
// the first h members of the view are treated as interested, artificially
// enlarging the audience so Pittel's estimate stops starving tiny
// multicasts. Same configuration as Figure 4 (a=22, d=3, R=3, F=2).
//
// Expected shape (paper): the tuned ("Improved") curve dominates the
// untuned ("Original") one at small p_d and they coincide for large p_d;
// the price is a higher uninterested-reception rate (last two columns).
#include "bench_common.hpp"

int main() {
  using namespace pmc;
  const std::size_t runs = bench::runs_per_point(15);
  constexpr std::size_t h = 10;  // Sec. 5.3 tuning threshold
  bench::print_header(
      "FIG7", "Tuned vs untuned delivery probability vs p_d",
      "n=10648 (a=22, d=3), R=3, F=2, eps=0.05, h=" + std::to_string(h) +
          ", runs/point=" + std::to_string(runs));

  Table table({"p_d", "original", "improved(h)", "falserec(orig)",
               "falserec(h)"});
  for (const double pd :
       {0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.7, 0.9}) {
    ExperimentConfig config;
    config.a = 22;
    config.d = 3;
    config.r = 3;
    config.fanout = 2;
    config.pd = pd;
    config.loss = 0.05;
    config.runs = runs;
    config.seed = 45;
    const auto untuned = run_pmcast_experiment(config);
    config.tuning_threshold = h;
    const auto tuned = run_pmcast_experiment(config);
    table.add_row({Table::num(pd, 2), bench::pm(untuned.delivery, 3),
                   bench::pm(tuned.delivery, 3),
                   Table::num(untuned.false_reception.mean(), 3),
                   Table::num(tuned.false_reception.mean(), 3)});
  }
  table.print(std::cout);
  std::cout << "\nShape check: 'improved' >= 'original' at small p_d, equal"
               " for large p_d; false reception grows under tuning.\n";
  return 0;
}
