// pmcast_sim — command-line experiment driver.
//
// Runs pmcast (or a baseline) on a regular tree with the uniform-interest
// workload and prints delivery/reception/cost metrics next to the Sec. 4
// analysis prediction. Everything the figure benches sweep is exposed as a
// flag, so new parameter points can be explored without recompiling:
//
//   pmcast_sim --a 22 --d 3 --R 3 --F 2 --pd 0.5 --loss 0.05 --runs 20
//   pmcast_sim --algorithm flooding --a 12 --d 3 --pd 0.2
//   pmcast_sim --analysis-only --a 22 --d 3 --pd 0.1
//
// Scenario mode drives the churn/fault engine instead of the single-event
// harness: a text script of timed actions (joins, leaves, crashes,
// recoveries, partitions, loss bursts, publish bursts) runs over a dynamic
// group. `--scenario demo` uses the built-in churn demo; any other value is
// read as a script file (see README "Writing scenarios"):
//
//   pmcast_sim --scenario demo --a 4 --d 2 --seed 7
//   pmcast_sim --scenario storm.scn --fill 0.8 --horizon 5s --repro-check
//
// Sharded mode hosts K independent pmcast groups (topic shards), each on
// its own runtime with its own membership stack and optionally its own
// script, plus cross-shard publishers whose events enter every shard they
// span (see docs/ARCHITECTURE.md):
//
//   pmcast_sim --shards 16 --repro-check
//   pmcast_sim --shards 4 --shard-scenario demo --cross 2 --cross-span 3
//   pmcast_sim --shards 8 --shard-scenario 0:storm.scn --horizon 5s
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/tree_analysis.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "harness/shard.hpp"
#include "harness/table.hpp"

namespace {

using namespace pmc;

struct Options {
  ExperimentConfig experiment;
  std::string algorithm = "pmcast";  // pmcast | flooding | genuine
  std::size_t genuine_view = 20;
  bool analysis_only = false;

  // Scenario mode.
  std::string scenario;  ///< "demo", or a script file path; empty = off
  double fill = 0.75;
  SimTime horizon = sim_ms(3500);
  bool repro_check = false;
  bool wire_transcode = false;
  bool adaptive = false;  ///< online ε/τ estimation (scenario/sharded)
  double adaptive_alpha = 0.3;

  // Sharded mode.
  std::size_t shards = 0;  ///< 0 = off; K hosts K topic shards
  /// "demo"/"file" (every shard) or "<idx>:demo|file" (one shard);
  /// repeatable.
  std::vector<std::string> shard_scenarios;
  std::size_t cross_publishers = 0;
  std::size_t cross_span = 2;
  std::size_t cross_events = 8;
  SimTime cross_spacing = sim_ms(100);
  std::size_t threads = 1;  ///< worker lanes; 0 = one per hardware core
  // Scenario mode defaults the group to a=4, d=2, R=2; only flags the user
  // actually passed override those (tracked per flag — a lone --a must not
  // drag in the experiment harness's d=3/R=3).
  bool a_set = false;
  bool d_set = false;
  bool r_set = false;
  /// Experiment-only flags seen on the command line; scenario and sharded
  /// mode reject them instead of silently ignoring what the user asked
  /// for.
  std::vector<std::string> experiment_only_flags;
  /// Scenario and sharded flags seen; experiment mode rejects them.
  std::vector<std::string> group_only_flags;
  /// Sharded-only flags seen; rejected unless --shards is given.
  std::vector<std::string> sharded_only_flags;
};

void print_usage() {
  std::cout <<
      "pmcast_sim — probabilistic multicast experiment driver\n\n"
      "usage: pmcast_sim [flags]\n\n"
      "tree / workload:\n"
      "  --a N            subgroups per node (default 22)\n"
      "  --d N            tree depth, n = a^d (default 3)\n"
      "  --R N            delegates per subgroup (default 3)\n"
      "  --pd X           fraction of interested processes (default 0.5)\n"
      "  --clustered      per-leaf clustered interests instead of uniform\n"
      "environment:\n"
      "  --loss X         message loss probability eps (default 0.05)\n"
      "  --crash X        fraction crashing during a run (default 0)\n"
      "algorithm:\n"
      "  --algorithm S    pmcast | flooding | genuine (default pmcast)\n"
      "  --F N            gossip fanout (default 2)\n"
      "  --c X            Pittel constant (default 0)\n"
      "  --h N            tuning threshold, 0 = untuned (default 0)\n"
      "  --flood X        leaf-flood density threshold, >1 = off\n"
      "  --coarsen N      coarsen rows at depth <= N (default 0 = off)\n"
      "  --no-shortcut    disable the local-interest shortcut\n"
      "  --view N         genuine baseline partial-view size (default 20)\n"
      "measurement:\n"
      "  --runs N         independent runs (default 20)\n"
      "  --seed N         base seed (default 42)\n"
      "  --analysis-only  print only the Sec. 4 prediction (no simulation)\n"
      "scenario mode (churn/fault engine over a dynamic group):\n"
      "  --scenario S     'demo' or a script file; enables scenario mode\n"
      "                   (group defaults to --a 4 --d 2 --R 2 unless set)\n"
      "  --fill X         initially populated fraction of a^d (default 0.75)\n"
      "  --horizon T      run length, e.g. 3500ms / 5s; bare = us\n"
      "  --wire           serialize every message through the wire codec\n"
      "  --adaptive[=A]   online eps/tau estimation feeding the Eq. 11\n"
      "                   round bound (EWMA weight A in (0,1], default "
      "0.3);\n"
      "                   needs --scenario or --shards\n"
      "  --repro-check    run twice, compare summaries byte-for-byte\n"
      "sharded mode (K topic shards, one runtime each; see "
      "docs/SCENARIOS.md):\n"
      "  --shards K       host K independent groups; per-shard tree from\n"
      "                   --a/--d/--R (defaults a=4, d=2, R=2)\n"
      "  --shard-scenario S\n"
      "                   'demo' or a script file for every shard, or\n"
      "                   '<i>:demo|file' for shard i only; repeatable\n"
      "  --cross N        cross-shard publishers (default 0)\n"
      "  --cross-span M   shards each cross publisher spans (default 2)\n"
      "  --cross-events N events per cross publisher (default 8)\n"
      "  --cross-every T  spacing between a publisher's events (default "
      "100ms)\n"
      "  --threads N      worker threads driving the shards (default 1;\n"
      "                   0 = one per core); any N is byte-identical, and\n"
      "                   --repro-check compares the run against N=1\n"
      "\n"
      "--fill/--horizon/--wire/--adaptive/--repro-check/--seed/--pd/--loss/\n"
      "--F apply to scenario and sharded mode; the remaining experiment\n"
      "flags are rejected there. Experiment mode in turn rejects --fill,\n"
      "--horizon, --wire, --repro-check and --adaptive (exit 2).\n"
      "--help / -h prints this and exits 0, whatever else is given.\n";
}

/// Reads a numeric flag's value with the shared strict parsers, a count
/// for an integer field and a real for a double one: "--cross abc" errors
/// out instead of becoming 0 publishers, "--runs -1" instead of wrapping
/// to 2^64 - 1, and "--pd 0.5x" instead of running as 0.5. Ranges are
/// checked after parsing.
template <typename T>
bool parse_flag(const std::string& flag, const char* value, T& out) {
  std::optional<T> parsed;
  if constexpr (std::is_floating_point_v<T>) {
    parsed = parse_real(value);
  } else {
    static_assert(sizeof(T) == sizeof(std::uint64_t));
    parsed = parse_count(value);
  }
  if (!parsed) {
    std::cerr << "bad " << flag << ": expected a number, got '" << value
              << "'\n";
    return false;
  }
  out = *parsed;
  return true;
}

bool parse_args(int argc, char** argv, Options& out) {
  auto& e = out.experiment;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // --help/-h never reaches here: main() pre-scans argv and exits first.
    if (flag == "--a") {
      if (!parse_flag(flag, next(), e.a)) return false;
      out.a_set = true;
    }
    else if (flag == "--d") {
      if (!parse_flag(flag, next(), e.d)) return false;
      out.d_set = true;
    }
    else if (flag == "--R") {
      if (!parse_flag(flag, next(), e.r)) return false;
      out.r_set = true;
    }
    else if (flag == "--F") {
      if (!parse_flag(flag, next(), e.fanout)) return false;
    }
    else if (flag == "--pd") {
      if (!parse_flag(flag, next(), e.pd)) return false;
    }
    else if (flag == "--loss") {
      if (!parse_flag(flag, next(), e.loss)) return false;
    }
    else if (flag == "--crash") {
      if (!parse_flag(flag, next(), e.crash_fraction)) return false;
      out.experiment_only_flags.push_back(flag);
    }
    else if (flag == "--c") {
      if (!parse_flag(flag, next(), e.pittel_c)) return false;
      out.experiment_only_flags.push_back(flag);
    }
    else if (flag == "--h") {
      if (!parse_flag(flag, next(), e.tuning_threshold)) return false;
      out.experiment_only_flags.push_back(flag);
    }
    else if (flag == "--flood") {
      if (!parse_flag(flag, next(), e.leaf_flood_density)) return false;
      out.experiment_only_flags.push_back(flag);
    }
    else if (flag == "--coarsen") {
      if (!parse_flag(flag, next(), e.coarsen_depth_leq)) return false;
      out.experiment_only_flags.push_back(flag);
    }
    else if (flag == "--no-shortcut") {
      e.local_interest_shortcut = false;
      out.experiment_only_flags.push_back(flag);
    }
    else if (flag == "--clustered") {
      e.clustered = true;
      out.experiment_only_flags.push_back(flag);
    }
    else if (flag == "--runs") {
      if (!parse_flag(flag, next(), e.runs)) return false;
      out.experiment_only_flags.push_back(flag);
    }
    else if (flag == "--seed") {
      if (!parse_flag(flag, next(), e.seed)) return false;
    }
    else if (flag == "--algorithm") {
      out.algorithm = next();
      out.experiment_only_flags.push_back(flag);
    }
    else if (flag == "--view") {
      if (!parse_flag(flag, next(), out.genuine_view)) return false;
      if (out.genuine_view < 1) {
        std::cerr << "bad --view: must be >= 1\n";
        return false;
      }
      out.experiment_only_flags.push_back(flag);
    }
    else if (flag == "--analysis-only") {
      out.analysis_only = true;
      out.experiment_only_flags.push_back(flag);
    }
    else if (flag == "--scenario") out.scenario = next();
    else if (flag == "--fill") {
      if (!parse_flag(flag, next(), out.fill)) return false;
      out.group_only_flags.push_back(flag);
    }
    else if (flag == "--horizon") {
      try {
        out.horizon = parse_sim_time(next());  // same syntax as scripts
      } catch (const std::invalid_argument& err) {
        std::cerr << "bad --horizon: " << err.what() << "\n";
        return false;
      }
      if (out.horizon <= 0) {
        std::cerr << "bad --horizon: must be positive\n";
        return false;
      }
      out.group_only_flags.push_back(flag);
    }
    else if (flag == "--wire") {
      out.wire_transcode = true;
      out.group_only_flags.push_back(flag);
    }
    else if (flag == "--adaptive" || flag.starts_with("--adaptive=")) {
      out.adaptive = true;
      out.group_only_flags.push_back(flag);
      // ChurnConfig::validate() checks the weight's (0, 1] range.
      const auto eq = flag.find('=');
      if (eq != std::string::npos &&
          !parse_flag("--adaptive", flag.c_str() + eq + 1, out.adaptive_alpha))
        return false;
    }
    else if (flag == "--repro-check") {
      out.repro_check = true;
      out.group_only_flags.push_back(flag);
    }
    else if (flag == "--shards") {
      if (!parse_flag(flag, next(), out.shards)) return false;
      if (out.shards < 1) {
        std::cerr << "bad --shards: must be >= 1\n";
        return false;
      }
    }
    else if (flag == "--shard-scenario") {
      out.shard_scenarios.emplace_back(next());
      out.sharded_only_flags.push_back(flag);
    }
    else if (flag == "--cross") {
      if (!parse_flag(flag, next(), out.cross_publishers)) return false;
      out.sharded_only_flags.push_back(flag);
    }
    else if (flag == "--cross-span") {
      if (!parse_flag(flag, next(), out.cross_span)) return false;
      out.sharded_only_flags.push_back(flag);
    }
    else if (flag == "--cross-events") {
      if (!parse_flag(flag, next(), out.cross_events)) return false;
      out.sharded_only_flags.push_back(flag);
    }
    else if (flag == "--cross-every") {
      try {
        out.cross_spacing = parse_sim_time(next());
      } catch (const std::invalid_argument& err) {
        std::cerr << "bad --cross-every: " << err.what() << "\n";
        return false;
      }
      out.sharded_only_flags.push_back(flag);
    }
    else if (flag == "--threads") {
      if (!parse_flag(flag, next(), out.threads)) return false;
      out.sharded_only_flags.push_back(flag);
    }
    else {
      std::cerr << "unknown flag: " << flag << " (try --help)\n";
      return false;
    }
  }
  if (out.algorithm != "pmcast" && out.algorithm != "flooding" &&
      out.algorithm != "genuine") {
    std::cerr << "unknown algorithm: " << out.algorithm << "\n";
    return false;
  }
  if (!out.scenario.empty() && out.shards > 0) {
    std::cerr << "--scenario and --shards are mutually exclusive; use "
                 "--shard-scenario to script the shards\n";
    return false;
  }
  // Silently ignoring what the user asked for would misreport the run.
  const auto reject = [](const char* what,
                         const std::vector<std::string>& flags) {
    std::cerr << what;
    for (const auto& f : flags) std::cerr << " " << f;
    std::cerr << "\n";
    return false;
  };
  const bool experiment = out.scenario.empty() && out.shards == 0;
  if (out.shards == 0 && !out.sharded_only_flags.empty())
    return reject("flags that require --shards:", out.sharded_only_flags);
  if (experiment && !out.group_only_flags.empty())
    return reject("flags that require --scenario or --shards:",
                  out.group_only_flags);
  if (!experiment && !out.experiment_only_flags.empty())
    return reject(out.shards > 0 ? "flags not applicable in --shards mode:"
                                 : "flags not applicable in --scenario mode:",
                  out.experiment_only_flags);
  return true;
}

/// Ranges are checked once, by the run's own config: false (after
/// printing what is out of range) when `config.validate()` rejects it.
template <typename Config>
bool valid(const Config& config) {
  try {
    config.validate();
    return true;
  } catch (const std::logic_error& err) {
    std::cerr << "invalid parameter values: " << err.what() << "\n";
    return false;
  }
}

/// The group config of scenario and sharded mode: a=4, d=2, R=2 unless
/// the flags set them.
ChurnConfig group_config(const Options& options) {
  ChurnConfig config;
  if (options.a_set) config.a = options.experiment.a;
  if (options.d_set) config.d = options.experiment.d;
  if (options.r_set) config.r = options.experiment.r;
  config.pd = options.experiment.pd;
  config.fanout = options.experiment.fanout;
  config.loss = options.experiment.loss;
  config.initial_fill = options.fill;
  config.seed = options.experiment.seed;
  config.wire_transcode = options.wire_transcode;
  config.adaptive = options.adaptive;
  config.adaptive_alpha = options.adaptive_alpha;
  return config;
}

/// Loads "demo" or a script file into `script`; prints the reason and
/// returns false on failure.
bool load_script(const std::string& spec, ScenarioScript& script) {
  if (spec == "demo") {
    script = ScenarioScript::demo();
    return true;
  }
  std::ifstream in(spec);
  if (!in) {
    std::cerr << "cannot open scenario file: " << spec << "\n";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    script = ScenarioScript::parse(text.str());
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return false;
  }
  return true;
}

int run_scenario(const Options& options) {
  const ChurnConfig config = group_config(options);
  if (!valid(config)) return 2;
  ScenarioScript script;
  if (!load_script(options.scenario, script)) return 2;

  const auto run_once = [&] {
    ChurnSim sim(config);
    sim.play(script);
    sim.run_until(options.horizon);
    return sim.summary();
  };

  std::cout << "scenario: " << script.size() << " actions over "
            << options.horizon / sim_ms(1) << " ms, capacity "
            << config.capacity() << " (fill " << config.initial_fill
            << "), eps=" << config.loss << ", seed="
            << config.seed << (config.wire_transcode ? ", wire codec" : "");
  if (config.adaptive)
    std::cout << ", adaptive (alpha=" << config.adaptive_alpha << ")";
  std::cout << "\n" << script.to_string() << "\n";
  try {
    const auto summary = run_once();
    std::cout << summary.to_string() << "\n";
    if (options.repro_check) {
      const auto second = run_once();
      const bool identical = second == summary;
      std::cout << "repro-check: "
                << (identical ? "identical summaries" : "MISMATCH") << "\n";
      return identical ? 0 : 1;
    }
  } catch (const std::logic_error& e) {
    std::cerr << "invalid scenario or config: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

/// One parsed --shard-scenario entry: a script for every shard, or for one.
struct ShardScript {
  ScenarioScript script;
  std::size_t shard = 0;
  bool all = false;
};

/// Parses "--shard-scenario" specs: "demo"/"file" (all shards) or
/// "<idx>:demo|file" (one shard). Returns false after printing the reason.
bool parse_shard_scripts(const Options& options,
                         std::vector<ShardScript>& out) {
  for (const auto& spec : options.shard_scenarios) {
    ShardScript entry;
    std::string path = spec;
    const auto colon = spec.find(':');
    // "<digits>:rest" addresses one shard; anything else is a path (keeps
    // e.g. Windows-style paths or plain files with colons later in them
    // from being misread as shard indices).
    if (colon != std::string::npos && colon > 0 &&
        spec.find_first_not_of("0123456789") == colon) {
      if (!parse_flag("--shard-scenario", spec.substr(0, colon).c_str(),
                      entry.shard))
        return false;
      if (entry.shard >= options.shards) {
        std::cerr << "bad --shard-scenario '" << spec << "': shard index "
                  << entry.shard << " out of range (--shards "
                  << options.shards << ")\n";
        return false;
      }
      path = spec.substr(colon + 1);
    } else {
      entry.all = true;
    }
    if (!load_script(path, entry.script)) return false;
    out.push_back(std::move(entry));
  }
  return true;
}

int run_sharded(const Options& options) {
  ShardedConfig config;
  config.shards = options.shards;
  config.shard = group_config(options);
  config.cross.publishers = options.cross_publishers;
  config.cross.span = options.cross_span;
  config.cross.events = options.cross_events;
  config.cross.spacing = options.cross_spacing;
  config.threads = options.threads;
  if (!valid(config)) return 2;
  std::vector<ShardScript> scripts;
  if (!parse_shard_scripts(options, scripts)) return 2;

  const auto run_once = [&](std::size_t threads) {
    ShardedConfig run_config = config;
    run_config.threads = threads;
    ShardedSim sim(run_config);
    for (const auto& entry : scripts) {
      if (entry.all) {
        sim.play_all(entry.script);
      } else {
        sim.play(entry.shard, entry.script);
      }
    }
    sim.run_until(options.horizon);
    return sim.summary();
  };

  std::cout << "sharded: " << config.shards << " shards x capacity "
            << config.shard.capacity() << " (fill "
            << config.shard.initial_fill << "), " << scripts.size()
            << " script(s), " << config.cross.publishers
            << " cross publisher(s) spanning " << config.cross.span
            << ", horizon " << options.horizon / sim_ms(1)
            << " ms, eps=" << config.shard.loss << ", seed="
            << config.shard.seed << ", threads=" << config.threads
            << (config.shard.wire_transcode ? ", wire codec" : "");
  if (config.shard.adaptive)
    std::cout << ", adaptive (alpha=" << config.shard.adaptive_alpha << ")";
  std::cout << "\n";
  try {
    const auto summary = run_once(config.threads);
    std::cout << summary.to_string() << "\n";
    if (options.repro_check) {
      // A threaded run is checked against the serial reference: one lane
      // running the same run_until inline, in shard index order. threads=1
      // degenerates to the old same-config replay.
      const auto second = run_once(1);
      const bool identical = second == summary;
      std::cout << "repro-check: "
                << (identical ? "identical summaries (aggregate + per-shard)"
                              : "MISMATCH")
                << (config.threads != 1 ? " [threads vs serial]" : "")
                << "\n";
      return identical ? 0 : 1;
    }
  } catch (const std::logic_error& e) {
    std::cerr << "invalid scenario or config: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

void print_analysis(const ExperimentConfig& e) {
  const auto result = analyze_tree(e.analysis_params());
  std::cout << "\nSec. 4 analysis:\n";
  Table t({"depth", "p_i", "m_i", "T_i", "E[s_Ti]", "r_i", "E[g_i]"});
  for (const auto& d : result.depths) {
    t.add_row({Table::integer(d.depth), Table::num(d.pi),
               Table::num(d.mi, 0), Table::num(d.rounds, 2),
               Table::num(d.expected_infected, 2), Table::num(d.ri),
               Table::num(d.expected_gi, 1)});
  }
  t.print(std::cout);
  std::cout << "total rounds (Eq. 13):   " << Table::num(result.total_rounds, 2)
            << "\nexpected infected:       "
            << Table::num(result.expected_infected, 1)
            << "\npredicted reliability:   "
            << Table::num(result.reliability) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // --help wins over everything, including flag-combination errors: asking
  // for usage must always print it and exit 0.
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      print_usage();
      return 0;
    }
  }
  Options options;
  if (!parse_args(argc, argv, options)) return 2;
  if (options.shards > 0) return run_sharded(options);
  if (!options.scenario.empty()) return run_scenario(options);
  const auto& e = options.experiment;
  if (!valid(e)) return 2;

  std::cout << "pmcast_sim: n = " << e.group_size() << " (a=" << e.a
            << ", d=" << e.d << "), R=" << e.r << ", F=" << e.fanout
            << ", pd=" << e.pd << ", eps=" << e.loss
            << ", tau=" << e.crash_fraction << ", algorithm="
            << options.algorithm << "\n";

  if (options.analysis_only) {
    print_analysis(e);
    return 0;
  }

  ExperimentResult result;
  if (options.algorithm == "pmcast") {
    result = run_pmcast_experiment(e);
  } else if (options.algorithm == "flooding") {
    result = run_flooding_experiment(e);
  } else {
    result = run_genuine_experiment(e, options.genuine_view);
  }

  std::cout << "\nsimulation (" << e.runs << " runs):\n";
  Table t({"metric", "mean", "ci95", "min", "max"});
  const auto row = [&](const char* name, const Accumulator& s,
                       int precision) {
    t.add_row({name, Table::num(s.mean(), precision),
               Table::num(s.ci95_halfwidth(), precision),
               Table::num(s.min(), precision),
               Table::num(s.max(), precision)});
  };
  row("delivery", result.delivery, 4);
  row("false reception", result.false_reception, 4);
  row("rounds", result.rounds, 1);
  row("messages/process", result.messages_per_process, 2);
  row("interested fraction", result.interested_fraction, 3);
  t.print(std::cout);

  if (options.algorithm == "pmcast") print_analysis(e);
  return 0;
}
