// Experiment runner: repeated single-event dissemination runs over a fixed
// group, with per-run metrics aggregated into Summaries. This is the
// machinery behind every figure bench (docs/BENCHMARKS.md maps each figure
// to its binary).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/tree_analysis.hpp"
#include "common/stats.hpp"
#include "harness/workload.hpp"
#include "pmcast/config.hpp"

namespace pmc {

struct ExperimentConfig {
  // Tree shape (regular, n = a^d).
  std::size_t a = 22;
  std::size_t d = 3;
  std::size_t r = 3;

  // Algorithm parameters.
  std::size_t fanout = 2;
  double pittel_c = 0.0;
  std::size_t tuning_threshold = 0;     ///< Sec. 5.3 h; 0 = untuned
  bool local_interest_shortcut = true;
  double leaf_flood_density = 2.0;      ///< Sec. 6 leaf flooding; >1 = off
  std::size_t coarsen_depth_leq = 0;    ///< Sec. 6 root coarsening; 0 = off
  std::size_t recovery_rounds = 0;      ///< digest recovery; 0 = off

  // Workload.
  double pd = 0.5;            ///< fraction of interested processes
  bool clustered = false;     ///< clustered instead of uniform interests
  double cluster_jitter = 0.2;

  // Environment (ground truth; also given to the algorithm as estimate).
  double loss = 0.05;           ///< ε
  double crash_fraction = 0.0;  ///< τ = f/n — fraction crashed during run
  SimTime period = sim_ms(100);

  // Measurement.
  std::size_t runs = 20;
  std::uint64_t seed = 42;

  std::size_t group_size() const;
  TreeAnalysisParams analysis_params() const;
  PmcastConfig pmcast_config() const;

  /// Rejects out-of-range parameters via PMC_EXPECTS (std::logic_error):
  /// loss or crash_fraction outside [0, 1), pd outside [0, 1], zero sizes,
  /// fanouts, run counts or periods. Every run_* entry point calls this.
  void validate() const;
};

/// Per-point aggregated results (across config.runs independent runs).
struct ExperimentResult {
  Accumulator delivery;         ///< delivered / interested, per run
  Accumulator false_reception;  ///< uninterested receivers / uninterested
  Accumulator rounds;           ///< completed gossip periods to quiescence
  Accumulator messages_per_process;
  Accumulator interested_fraction;  ///< sanity: concentrates around pd
};

/// Runs pmcast `config.runs` times (one event per run) and aggregates.
ExperimentResult run_pmcast_experiment(const ExperimentConfig& config);

/// Same group and workload, flooding-broadcast baseline.
ExperimentResult run_flooding_experiment(const ExperimentConfig& config);

/// Same group and workload, genuine-multicast baseline with partial views
/// of `view_size` (>= 1) uniformly random members.
ExperimentResult run_genuine_experiment(const ExperimentConfig& config,
                                        std::size_t view_size);

/// Same group and workload, Astrolabe-style deterministic tree multicast
/// (one forward per interested subgroup; efficient but fragile).
ExperimentResult run_treecast_experiment(const ExperimentConfig& config);

/// Reads a positive integer override from the environment (e.g. PMCAST_RUNS)
/// so benches can be scaled up without recompiling; `fallback` when the
/// variable is unset or empty. Any other value must be all digits, at
/// least 1 and in range, else std::invalid_argument ("bad NAME: ...").
std::size_t env_size_t(const char* name, std::size_t fallback);

}  // namespace pmc
