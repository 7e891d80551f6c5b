// Sharded multi-group runtime: K independent pmcast groups ("topic
// shards") driven together, optionally on a worker thread pool.
//
// The paper argues pmcast's membership and dissemination costs stay
// bounded as the system grows; the way a deployment actually grows past
// one group is by hosting many of them — one per topic — side by side.
// ShardedSim realizes that: every shard runs the full dynamic-group stack
// of ChurnSim (SyncNode anti-entropy membership feeding a PmcastNode per
// live process), owns its own Runtime — scheduler, network, intern
// tables — over a disjoint pid range, and may be driven by its own
// ScenarioScript. Cross-shard publishers model subscribers
// whose topic spans several shards: the same event (same id, same
// attribute) enters every shard the publisher spans.
//
// Isolation is a hard invariant, not an accident of scheduling: every
// random draw a shard makes is labeled with the shard's salt
// (Runtime::make_stream), process RNGs are labeled by (pid, incarnation),
// and the network derives loss/latency draws from (sender, sender
// sequence) — so adding a scenario action to shard A provably leaves
// shard B's per-shard summary byte-identical (tests/shard_test.cpp).
// Loss bursts and partitions act on the shard's own network, so they
// cannot leak by construction.
//
// Threading and determinism: isolation is also what makes deterministic
// parallelism safe. Shards share nothing while they run — cross-shard
// publishers reach a shard only through injections pre-scheduled in that
// shard's own queue, drawing on that shard's own publisher-pick stream —
// so run_until hands every shard to a WorkerPool lane and each lane
// advances its stripe straight to the deadline. Every per-shard input
// (RNG streams, event order, injections) is independent of which lane ran
// which shard and of how the caller slices time into run_until calls, so a
// T-thread run produces byte-identical per-shard and aggregate summaries
// to threads = 1 (the serial reference, which runs the same call inline in
// index order). tests/repro_golden_test.cpp pins the fingerprints at
// T = 1, 2, and 8.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "sim/worker_pool.hpp"

namespace pmc {

/// Cross-shard publisher workload: `publishers` logical publishers, each
/// spanning `span` consecutive shards (publisher p covers shards
/// p % K, (p+1) % K, …), each publishing `events` events `spacing` apart
/// starting at `start`. The same event (same id, same attribute) enters
/// every spanned shard through a pre-scheduled injection in that shard's
/// own event queue.
struct CrossPublisherConfig {
  std::size_t publishers = 0;
  std::size_t span = 2;
  std::size_t events = 8;
  SimTime start = sim_ms(300);
  SimTime spacing = sim_ms(100);
};

struct ShardedConfig {
  /// Number of topic shards (independent groups).
  std::size_t shards = 4;
  /// Template for every shard: tree shape, fill, protocol parameters, base
  /// ε, and the master seed. Each shard derives its own subscription seed
  /// and RNG-stream salt from (seed, shard index).
  ChurnConfig shard;
  /// Per-shard override of the template's `adaptive` flag: when non-empty,
  /// exactly the listed shard indices run the online ε/τ estimator and
  /// every other shard stays static (the isolation tests flip estimation
  /// on for one shard and assert the others' summaries are untouched).
  /// Empty = every shard follows the template.
  std::vector<std::size_t> adaptive_shards;
  CrossPublisherConfig cross;

  /// Worker threads driving the shards: 1 = serial (the reference), 0 =
  /// one per hardware core. Results are byte-identical for every value —
  /// the thread count decides wall-clock, never outcomes.
  std::size_t threads = 1;

  /// Processes hosted across all shards (2 protocol nodes per address).
  std::size_t total_capacity() const;
  void validate() const;  ///< PMC_EXPECTS on every range above
};

/// Byte-comparable digest of a sharded run: one GroupSummary per shard, a
/// field-wise aggregate, and the summed network/scheduler counters.
struct ShardedSummary {
  std::vector<GroupSummary> shards;
  GroupSummary aggregate;  ///< sums; latency merged; fp over shard fps
  NetworkCounters network;
  std::uint64_t scheduler_executed = 0;
  std::uint64_t cross_published = 0;  ///< cross injections that landed
  std::uint64_t fingerprint = 0;

  friend bool operator==(const ShardedSummary&, const ShardedSummary&) =
      default;
  /// Aggregate line; with `per_shard`, one indented line per shard below.
  std::string to_string(bool per_shard = true) const;
};

/// Hosts `config.shards` independent dynamic groups, each on its own
/// Runtime, and advances them side by side on up to `config.threads`
/// lanes. Shard s occupies pids [s * 2 * capacity, (s+1) * 2 * capacity)
/// — globally unique, so every labeled draw matches the single-runtime
/// engine this replaced.
class ShardedSim {
 public:
  explicit ShardedSim(ShardedConfig config);
  ~ShardedSim();

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  ChurnSim& shard(std::size_t idx);
  const ChurnSim& shard(std::size_t idx) const;

  /// Resolved worker lanes (after threads = 0 and the shard-count cap).
  std::size_t thread_count() const noexcept { return pool_->thread_count(); }

  /// Plays `script` on one shard (validated against that shard's state).
  void play(std::size_t shard_idx, const ScenarioScript& script);
  /// Plays `script` on every shard (each with its own salted streams, so
  /// the same script unfolds differently per shard).
  void play_all(const ScenarioScript& script);

  void run_for(SimTime duration);
  /// One WorkerPool batch: every shard runs to `deadline` on its lane. A
  /// deadline at or before now() is a no-op.
  void run_until(SimTime deadline);
  SimTime now() const noexcept { return now_; }

  /// Shard `idx`'s runtime (its scheduler, network, and stream factory).
  Runtime& shard_runtime(std::size_t idx);
  const ShardedConfig& config() const noexcept { return config_; }
  std::uint64_t cross_published() const noexcept;

  ShardedSummary summary() const;

 private:
  /// One shard's cross-publisher state, touched only from that shard's
  /// own execution context (its lane during a run); summary() reads it
  /// after the pool returns.
  struct ShardCross {
    Rng picks;  ///< publisher-pick stream, label (kRouterPickSalt, s)
    std::uint64_t landed = 0;   ///< injections that reached a live member
    std::uint64_t runs = 0;     ///< injection callbacks executed
    std::uint64_t primary = 0;  ///< …on the event's first spanned shard
  };

  void schedule_cross_publishers();

  ShardedConfig config_;
  SimTime now_ = 0;
  /// Each shard owns its runtime (scheduler + network + stream factory)
  /// and intern tables: all shards enumerate the same address space in the
  /// same order, so per-shard tables assign identical AddrIds — and being
  /// private, they are mutable mid-run without any cross-lane traffic.
  std::vector<std::unique_ptr<ChurnSim>> shards_;
  std::vector<ShardCross> cross_;
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace pmc
