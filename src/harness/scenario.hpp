// Deterministic churn & fault scenario engine.
//
// A ScenarioScript is a timeline of typed fault/churn actions — crashes,
// recoveries, joins, graceful leaves, partitions with a scheduled heal,
// loss bursts and publish bursts — that a ChurnSim executes at their
// scheduled sim-times. The engine turns the single-shot figure harness into
// a general workload driver over a *changing* group: every live process
// runs the full deployment stack (SyncNode anti-entropy membership feeding
// a PmcastNode that reads the SyncNode's own view tables, with membership
// rows piggybacked on event gossip, optionally through the wire codec).
//
// Determinism: every action draws from its own RNG stream derived from the
// run seed and the action's (time, kind, ordinal) label — never from a
// shared sequential stream — so inserting one action never perturbs the
// draws of unrelated actions, and two runs with the same seed and script
// produce byte-identical summaries (tests/scenario_test.cpp,
// tests/determinism_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "addr/space.hpp"
#include "analysis/env_estimator.hpp"
#include "event/event.hpp"
#include "membership/sync.hpp"
#include "pmcast/node.hpp"
#include "sim/runtime.hpp"

namespace pmc {

// ---------------------------------------------------------------------------
// Script
// ---------------------------------------------------------------------------

/// Fail-stop crash of `count` uniformly chosen live processes.
struct CrashNodes {
  std::size_t count = 1;
};

/// Rejoin of up to `count` previously crashed processes (oldest crash
/// first), each re-entering through the join protocol at its old address.
struct RecoverNodes {
  std::size_t count = 1;
};

/// `count` fresh processes join at vacant addresses through the scripted
/// join path (JoinRequest routed to an immediate neighbor, ViewTransfer).
struct Join {
  std::size_t count = 1;
};

/// Graceful departure of `count` uniformly chosen live processes (LeaveMsg
/// to the immediate neighbors, then fail-stop).
struct Leave {
  std::size_t count = 1;
};

/// Splits the group: processes whose top-level address component is in
/// `side` cannot exchange messages with the rest until `heal_at` (absolute
/// sim-time). Concurrent partitions compose (layered link filters).
struct Partition {
  std::vector<AddrComponent> side;
  SimTime heal_at = 0;
};

/// Raises the network loss probability to `eps` for `duration`, then
/// restores the scenario's base loss.
struct LossBurst {
  double eps = 0.5;
  SimTime duration = sim_ms(100);
};

/// Publishes `count` events from uniformly chosen live publishers, spaced
/// `spacing` apart (0 = all at once).
struct PublishBurst {
  std::size_t count = 1;
  SimTime spacing = 0;
};

/// Installs a LogNormal WAN latency profile (median / log-space sigma) on
/// the group's network; median == 0 restores the uniform default. The
/// clamp window is [0, 16 * median] so the heavy tail cannot outlive a
/// run. Text form: `latency lognormal 2ms 0.8` / `latency uniform`.
struct LatencyProfile {
  SimTime median = 0;  ///< 0 = restore the uniform [min, max] draw
  double sigma = 0.0;
};

/// One-directional partition: messages from processes whose top-level
/// address component is in `from_side` towards processes whose component
/// is in `to_side` are dropped until `heal_at`; the reverse direction
/// passes. Text form: `asym 0,1 to 2 heal 1800ms`.
struct AsymPartition {
  std::vector<AddrComponent> from_side;
  std::vector<AddrComponent> to_side;
  SimTime heal_at = 0;
};

/// Flapping partition: processes whose top-level component is in `side`
/// are cut off from the rest for the first `duty` fraction of every
/// `period`, reconnected for the remainder, until `until` (absolute).
/// Text form: `flap 0 period 200ms duty 0.4 until 2s`.
struct Flap {
  std::vector<AddrComponent> side;
  SimTime period = sim_ms(200);
  double duty = 0.5;
  SimTime until = 0;
};

/// Correlated rack failure: every live process whose address starts with
/// `prefix` (components 0..k-1) fail-stops at once — the crash burst is
/// correlated over an address zone, not sampled. Text form: `rack 0` /
/// `rack 0,2`.
struct RackFailure {
  std::vector<AddrComponent> prefix;
};

/// Flash crowd: `count` fresh joins spread evenly over `over`
/// (0 = all at once). Text form: `joinstorm 16 over 200ms`.
struct JoinStorm {
  std::size_t count = 1;
  SimTime over = 0;
};

/// Raises the network duplication probability to `prob` for `duration`,
/// then restores 0. Text form: `duplicate 0.4 for 300ms`.
struct DuplicateBurst {
  double prob = 0.5;
  SimTime duration = sim_ms(100);
};

/// Replays the churn timeline parsed from `path` (the scenario text
/// format), every child action offset by this action's time. Expanded by
/// ChurnSim::play before validation/scheduling; nesting is rejected. The
/// path must be whitespace- and '#'-free (the text format could not
/// round-trip it otherwise). Text form: `replay traces/outage.scn`.
struct TraceReplay {
  std::string path;
};

/// New alternatives are appended at the END: an action's RNG stream label
/// hashes op.index() (see ChurnSim::play), so reordering the variant would
/// relabel every existing script's draws.
using ScenarioOp =
    std::variant<CrashNodes, RecoverNodes, Join, Leave, Partition, LossBurst,
                 PublishBurst, LatencyProfile, AsymPartition, Flap,
                 RackFailure, JoinStorm, DuplicateBurst, TraceReplay>;

/// Parses a sim-time token ("750us", "500ms", "2s"; bare digits mean µs) —
/// the same syntax scenario scripts use. Throws std::invalid_argument on
/// malformed input.
SimTime parse_sim_time(const std::string& token);

/// The strict readers of one whole token that scripts, command-line flags
/// and PMCAST_* variables share; each caller words its own error. A count
/// is one or more decimal digits and nothing else, at most 2^64 - 1.
std::optional<std::uint64_t> parse_count(const std::string& token);
/// One finite decimal number ("0.5", "-1", "1e-3") filling the whole
/// token: no leading blank, no '+', no hexadecimal form, no "nan" or
/// "inf", whatever the locale.
std::optional<double> parse_real(const std::string& token);

struct ScenarioAction {
  SimTime at = 0;
  ScenarioOp op;
};

/// A validated, reproducible timeline of scenario actions. Build with the
/// fluent add() API or parse() from the text format (see README):
///
///   # staggered joins, a crash burst, a healed partition, a loss spike
///   at 200ms join 2
///   at 900ms crash 3
///   at 1s partition 0,1 heal 1800ms
///   at 1200ms loss 0.35 for 400ms
///   at 1500ms publish 6 every 25ms
///   at 2s recover 2
class ScenarioScript {
 public:
  ScenarioScript& add(SimTime at, ScenarioOp op);

  const std::vector<ScenarioAction>& actions() const noexcept {
    return actions_;
  }
  bool empty() const noexcept { return actions_.empty(); }
  std::size_t size() const noexcept { return actions_.size(); }

  /// Rejects nonsense scripts via PMC_EXPECTS (throws std::logic_error):
  /// out-of-range probabilities, non-positive counts/durations, actions
  /// out of order, deadlines at or before their action, overlapping
  /// bursts, and recoveries exceeding the crashes scheduled before them.
  void validate() const;

  /// Parses the text format; throws std::invalid_argument (with the line
  /// number) on syntax errors. The result still must pass validate().
  static ScenarioScript parse(const std::string& text);

  /// The canonical churn demo: staggered joins + crash burst +
  /// partition/heal + loss spike + publish bursts (used by examples/churn
  /// and `pmcast_sim --scenario demo`).
  static ScenarioScript demo();

  /// Renders back to the text format; parse(to_string()) reproduces the
  /// script exactly.
  std::string to_string() const;

 private:
  friend class ChurnSim;
  friend struct ScenarioEffects;

  /// What validating one action hands to the next: the earliest time the
  /// next action may take, the crash credit recoveries draw on, and where
  /// the last loss and duplication bursts end (bursts may not overlap). With
  /// `space` set (ChurnSim::play), fault zones must lie inside the address
  /// space, and a rack failure credits its zone's capacity.
  struct Ledger {
    SimTime not_before = 0;
    std::uint64_t crash_credit = 0;
    SimTime loss_busy_until = 0;
    SimTime dup_busy_until = 0;
    const AddressSpace* space = nullptr;
  };

  /// validate(), continued from `ledger`; returns the ledger after the last
  /// action. ChurnSim::play passes its own and adopts the result, so
  /// timelines appended over several play() calls get the verdict they
  /// would get as one.
  Ledger validate_from(Ledger ledger) const;

  std::vector<ScenarioAction> actions_;
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

struct ChurnConfig {
  // Address space (capacity a^d) and tree shape.
  std::size_t a = 4;
  std::size_t d = 2;
  std::size_t r = 2;

  /// Fraction of interested processes (uniform interval subscriptions).
  double pd = 0.5;
  /// Fraction of the address space populated by founders; the rest stays
  /// vacant for scripted joins.
  double initial_fill = 0.75;

  // Environment.
  double loss = 0.0;  ///< base ε; LossBurst actions deviate from this

  // Protocol parameters.
  SimTime period = sim_ms(50);  ///< gossip period of both layers
  SimTime suspicion_timeout = sim_ms(500);
  bool confirm_suspicion = false;
  std::size_t fanout = 3;
  std::size_t recovery_rounds = 0;
  /// Graceful-degradation caps passed through to every PmcastNode
  /// (PmcastConfig::max_retained / max_buffered); 0 = unbounded, the
  /// pre-cap behaviour.
  std::size_t max_retained = 0;
  std::size_t max_buffered = 0;
  /// Capped exponential backoff (with labeled-stream jitter) on the
  /// joiners' join-request retries (SyncConfig::join_backoff).
  bool join_backoff = false;
  /// Run every message through the frozen wire format, as a socket
  /// deployment would: the runtime's wire::Codec encodes each message to
  /// the bytes encode_message writes and reads every byte back, decoding
  /// into this runtime's ids and pooled summaries.
  bool wire_transcode = false;

  /// Online ε/τ estimation (analysis/env_estimator.hpp): every node runs
  /// an EnvEstimator fed by digest feedback (SyncConfig::ack_digests is
  /// forced on) and observed view churn, and its pmcast layer re-evaluates
  /// the Eq. 11 round bound with the live estimate instead of the static
  /// `loss` prior. Deterministic: estimation is pure counter arithmetic.
  bool adaptive = false;
  /// EWMA weight per estimator sampling window (4 gossip periods), in
  /// (0, 1].
  double adaptive_alpha = 0.3;

  std::uint64_t seed = 42;

  std::size_t capacity() const;
  void validate() const;  ///< PMC_EXPECTS on every range above
};

/// What happened, aggregated over the whole run.
struct ChurnCounters {
  std::uint64_t joins_requested = 0;  ///< joiners spawned (Join + Recover)
  std::uint64_t crashes = 0;
  std::uint64_t leaves = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t partitions = 0;
  std::uint64_t heals = 0;  ///< partition/asym/flap filters removed
  std::uint64_t loss_bursts = 0;
  std::uint64_t loss_restores = 0;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;  ///< HPDELIVER calls across all processes
  /// Deliveries owed at publish time: for every published event, the live
  /// processes whose subscription matched it when it entered the group.
  /// Pure bookkeeping (no draws), so counting it never moves a replay;
  /// delivered / expected_deliveries is the figure sweeps' delivery ratio,
  /// and delivered <= expected_deliveries is the exactly-once identity the
  /// --gate-figures check enforces under duplication.
  std::uint64_t expected_deliveries = 0;
  std::uint64_t asym_partitions = 0;
  std::uint64_t flaps = 0;
  std::uint64_t rack_failures = 0;   ///< RackFailure actions (crashes
                                     ///< counts the victims)
  std::uint64_t join_storms = 0;
  std::uint64_t dup_bursts = 0;
  std::uint64_t dup_restores = 0;
  std::uint64_t latency_profiles = 0;  ///< LatencyProfile actions applied
  std::uint64_t skipped = 0;    ///< action shortfall (e.g. no live target)

  friend bool operator==(const ChurnCounters&, const ChurnCounters&) =
      default;

  /// Field-wise sum (sharded runs aggregate per-shard counters).
  ChurnCounters& operator+=(const ChurnCounters& o) {
    joins_requested += o.joins_requested;
    crashes += o.crashes;
    leaves += o.leaves;
    recoveries += o.recoveries;
    partitions += o.partitions;
    heals += o.heals;
    loss_bursts += o.loss_bursts;
    loss_restores += o.loss_restores;
    published += o.published;
    delivered += o.delivered;
    expected_deliveries += o.expected_deliveries;
    asym_partitions += o.asym_partitions;
    flaps += o.flaps;
    rack_failures += o.rack_failures;
    join_storms += o.join_storms;
    dup_bursts += o.dup_bursts;
    dup_restores += o.dup_restores;
    latency_profiles += o.latency_profiles;
    skipped += o.skipped;
    return *this;
  }
};

/// The group-local half of a run digest: everything one dynamic group can
/// account for without touching runtime-wide state (network counters,
/// scheduler progress). This is the per-shard summary of a sharded run —
/// byte-comparable, so shard-isolation tests can assert that shard B's
/// GroupSummary is unchanged when shard A's script gains an action.
struct GroupSummary {
  ChurnCounters counters;
  std::size_t live = 0;    ///< live processes at summary time
  std::size_t joined = 0;  ///< live processes whose join completed
  std::uint64_t membership_tombstones = 0;  ///< summed over live processes
  std::uint64_t joins_served = 0;           ///< view transfers sent
  /// Publish→deliver latency over this group's deliveries, in integer
  /// sim-time so the digest stays byte-comparable (no float formatting).
  std::uint64_t latency_samples = 0;
  SimTime latency_total = 0;
  SimTime latency_max = 0;
  /// Adaptive environment estimation (ChurnConfig::adaptive): the live
  /// nodes' mean ε̂/τ̂ in parts-per-million (integers keep the digest
  /// byte-comparable), and the estimator windows folded in across them.
  /// All zero when estimation is off.
  std::uint64_t env_loss_ppm = 0;
  std::uint64_t env_crash_ppm = 0;
  std::uint64_t env_windows = 0;
  /// Eq. 11 bound collapses observed across all processes
  /// (PmcastNode::GossipStats::bound_collapsed).
  std::uint64_t bound_collapsed = 0;
  /// Duplicate gossips/payloads discarded by the receivers' seen-set
  /// (summed SubscriberNode::Stats::dup_suppressed) — the exactly-once
  /// ledger the duplication injector is audited against.
  std::uint64_t dup_suppressed = 0;
  /// Events shed by the graceful-degradation caps (max_retained /
  /// max_buffered), summed over live processes.
  std::uint64_t shed_events = 0;
  /// FNV-1a over every slot's per-node statistics.
  std::uint64_t fingerprint = 0;

  friend bool operator==(const GroupSummary&, const GroupSummary&) = default;
  double latency_mean_ms() const;
  std::string to_string() const;
};

/// A byte-comparable end-of-run digest: the group-local summary plus the
/// runtime-wide counters (network, scheduler). Two runs with the same
/// config and script must compare equal (operator==). `fingerprint`
/// extends the group fingerprint over the network and scheduler counters.
struct ChurnSummary : GroupSummary {
  NetworkCounters network;
  std::uint64_t scheduler_executed = 0;

  friend bool operator==(const ChurnSummary&, const ChurnSummary&) = default;
  std::string to_string() const;
};

/// Continues fingerprint `h` over the runtime-wide counters that end every
/// run digest, in the frozen order of docs/DETERMINISM.md §7: the
/// network's sent, delivered, lost, filtered and dead_target, then
/// `scheduler_executed`.
std::uint64_t fingerprint_runtime(std::uint64_t h,
                                  const NetworkCounters& network,
                                  std::uint64_t scheduler_executed);

/// Where a group sits among co-hosted groups (topic shards, see
/// harness/shard.hpp): its pids start at `pid_base`, every labeled stream
/// is salted with `stream_salt` (0 leaves the labels as they are), and its
/// runtime is seeded with `runtime_seed` and its scheduler wheel has
/// 2^`bucket_count_log2` buckets.
struct GroupPlacement {
  ProcessId pid_base = 0;
  std::uint64_t stream_salt = 0;
  std::optional<std::uint64_t> runtime_seed;  ///< unset: ChurnConfig::seed
  std::uint32_t bucket_count_log2 = 12;
};

/// Hosts a dynamic group on its own Runtime and executes scenario scripts
/// against it. Every populated address owns a SyncNode (pid = pid_base +
/// slot) and a PmcastNode (pid = pid_base + capacity + slot) wired together
/// by piggybacking; the PmcastNode reads the SyncNode's view tables
/// (MembershipView::tables_for). SyncNodes gossip forever, so
/// the engine runs for explicit horizons (run_for/run_until) rather than to
/// quiescence. A shard's salted streams and pid offset keep its draws — and
/// the fingerprints that hash them — independent of which other groups
/// exist.
class ChurnSim {
 public:
  explicit ChurnSim(ChurnConfig config, GroupPlacement placement = {});

  ~ChurnSim();

  ChurnSim(const ChurnSim&) = delete;
  ChurnSim& operator=(const ChurnSim&) = delete;

  /// Validates `script` and schedules every action (all must lie at or
  /// after now()). May be called repeatedly to append further timelines.
  void play(const ScenarioScript& script);

  void run_for(SimTime duration);
  void run_until(SimTime deadline);
  SimTime now() const noexcept;

  Runtime& runtime() noexcept { return rt_; }
  Interns& interns() noexcept { return interns_; }
  const ChurnConfig& config() const noexcept { return config_; }
  const ChurnCounters& counters() const noexcept { return counters_; }

  /// First pid of this group's range; the group occupies
  /// [pid_base(), pid_base() + 2 * capacity).
  ProcessId pid_base() const noexcept { return pid_base_; }

  /// Entry point for cross-shard publishers: publishes the event (id, u)
  /// from a live member picked with `rng` (the caller's stream, so this
  /// group's own draws are untouched). Returns false (and counts a skip)
  /// when the group has no live member.
  bool publish_external(const EventId& id, double u, Rng& rng);

  std::size_t live_count() const noexcept;
  std::size_t joined_count() const noexcept;

  /// Group-local digest (per-shard summary in a sharded run).
  GroupSummary group_summary() const;
  /// group_summary() plus the runtime-wide network/scheduler counters.
  ChurnSummary summary() const;

 private:
  /// Last-seen SyncNode counters, so one estimator sampling window feeds
  /// only the deltas accrued since the previous window.
  struct EnvCursor {
    std::uint64_t digests_sent = 0;
    std::uint64_t digest_acks = 0;
    std::uint64_t deaths_observed = 0;
  };

  struct Slot {
    Address address;
    Subscription subscription;
    /// Destroyed after `pm`, which reads its view tables.
    std::unique_ptr<SyncNode> sync;
    std::unique_ptr<PmcastNode> pm;
    /// Per-node online ε/τ estimator (ChurnConfig::adaptive); reset with
    /// each incarnation, like the protocol nodes it observes.
    std::unique_ptr<EnvEstimator> estimator;
    EnvCursor env_cursor;
    bool live = false;
  };

  // Scenario verbs (scenario.cpp) apply themselves to the engine.
  template <class Op>
  friend struct ScenarioVerb;
  friend struct ScenarioEffects;

  ProcessId sync_pid(std::size_t slot) const noexcept;
  ProcessId pm_pid(std::size_t slot) const noexcept;
  /// The slot owning interned address `id`; kNoSlot for foreign ids.
  std::size_t slot_for(AddrId id) const noexcept;
  /// Labeled stream salted with this group's shard tag (no-op salt for a
  /// standalone group).
  Rng stream(std::uint64_t tag) const;
  Directory sync_directory();
  Directory pm_directory();

  /// (Re)creates both protocol nodes in `slot`. A founder starts from its
  /// `bootstrap` view; a joiner (no bootstrap) enters through the join
  /// protocol via `contact`.
  void spawn(std::size_t slot, std::optional<MembershipView> bootstrap,
             ProcessId contact);

  /// One estimator sampling window: feeds every live slot's estimator the
  /// feedback/churn deltas since the last window, then re-schedules itself
  /// one window (4 gossip periods) later. Pure counter arithmetic — no RNG
  /// draws — so co-hosted shards are provably unaffected.
  void sample_environment();

  std::vector<std::size_t> live_slots() const;
  /// The slots a join can fill, in slot (= address) order.
  std::vector<std::size_t> vacant_slots() const;
  /// Publishes `e` from `slot`, first counting the deliveries it is owed.
  void publish_from(std::size_t slot, Event e);

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  ChurnConfig config_;
  AddressSpace space_;
  // Declared before everything that refers to them, so they outlive it.
  Runtime rt_;
  Interns interns_;
  ProcessId pid_base_ = 0;
  std::uint64_t stream_salt_ = 0;  ///< 0 for a standalone group
  std::vector<Slot> slots_;
  /// Dense AddrId -> slot directory (every slot address is interned up
  /// front, so protocol-node lookups are a bounds check + array read).
  std::vector<std::size_t> slot_of_id_;
  std::vector<std::size_t> crashed_pool_;  ///< recover candidates, FIFO
  /// Per-(time, kind) ordinals for action stream labels; persists across
  /// play() calls so appended timelines never reuse a label.
  std::map<std::pair<SimTime, std::size_t>, std::uint64_t> action_ordinals_;
  /// Validation state across every play() call: crash credit and burst
  /// windows of the timelines accepted so far.
  ScenarioScript::Ledger ledger_{.space = &space_};
  /// Bumped by every loss / duplication burst; a restore only fires if its
  /// epoch is current (see ScenarioEffects::restore_after).
  std::uint64_t loss_epoch_ = 0;
  std::uint64_t dup_epoch_ = 0;
  std::uint64_t publish_seq_ = 0;
  ChurnCounters counters_;
  /// Publish times by event id, for delivery-latency accounting. Entries
  /// are kept for the whole run (publish counts are scenario-scale).
  std::unordered_map<EventId, SimTime, EventIdHash> publish_times_;
  std::uint64_t latency_samples_ = 0;
  SimTime latency_total_ = 0;
  SimTime latency_max_ = 0;
};

}  // namespace pmc
