// Simulated unreliable network (paper Sec. 4.1's model, plus an
// adversarial-WAN layer): every message is independently lost with
// probability ε; delivery latency defaults to uniform in [latency_min,
// latency_max] (which the analysis requires to stay below the gossip
// period P) but an installed LogNormal WAN profile (set_latency) replaces
// that draw on every link. Deterministic duplication and reordering injectors
// can clone a message or stretch its latency, and any number of link
// filters can be layered to model concurrent partitions; a filter sees
// (from, to), so one-directional (asymmetric) and time-varying (flapping)
// partitions are ordinary filters.
//
// Draw streams (docs/DETERMINISM.md §1): every per-message decision hashes
// off the same labeled seed, (network seed, sender, sender's send count) —
// below, "msg_seed". The legacy loss + uniform-latency pair consumes
// Rng(msg_seed) exactly as it always has; each injector derives its own
// stream from it and only when enabled:
//   * WAN latency:    Rng(fnv1a(msg_seed, kLatencyDrawLabel))
//   * duplication:    Rng(fnv1a(msg_seed, kDuplicateDrawLabel))
//   * reordering:     Rng(fnv1a(msg_seed, kReorderDrawLabel))
// So runs with the injectors off are byte-identical to runs on builds that
// predate them, and toggling one injector never shifts another's draws.
//
// The send path is built to stay allocation-free per message: receive
// handlers are a fixed (context, function-pointer) dispatch table instead
// of std::functions, the per-sender half of the labeled draw hash is
// memoized, the delivery callback fits the scheduler's inline callback
// storage, and send_multi() fans one shared payload out to many
// destinations without re-running per-message setup.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sim/scheduler.hpp"

namespace pmc {

using ProcessId = std::uint32_t;
constexpr ProcessId kNoProcess = 0xffffffffU;

/// Kind tag carried by every message so receivers dispatch with a switch
/// instead of a dynamic_cast chain. Values 1..13 are also the wire codec's
/// one-byte message tag, so they are frozen (wire/messages.cpp). Treecast
/// (14) is sim-only: it has no wire encoding, and encode_message rejects it.
enum class MsgKind : std::uint8_t {
  Other = 0,  ///< untagged payloads (tests, ad-hoc messages)
  Gossip = 1,
  MembershipDigest = 2,
  MembershipUpdate = 3,
  JoinRequest = 4,
  ViewTransfer = 5,
  Leave = 6,
  FloodGossip = 7,
  GenuineGossip = 8,
  SuspectQuery = 9,
  SuspectReply = 10,
  EventDigest = 11,
  EventRequest = 12,
  EventPayload = 13,
  Treecast = 14,
};

/// Base class for simulated message payloads. Payloads are immutable and
/// shared between in-flight copies (a gossip to F destinations enqueues F
/// references, not F copies). Subclasses stamp their kind in their default
/// constructor; receivers trust the tag and static_cast down.
struct MessageBase {
  constexpr explicit MessageBase(MsgKind k = MsgKind::Other) noexcept
      : kind(k) {}
  virtual ~MessageBase() = default;

  const MsgKind kind;
};
using MessagePtr = std::shared_ptr<const MessageBase>;

/// A LogNormal WAN latency profile: median * exp(sigma * N(0,1)), rounded
/// to integer sim-time and clamped to [floor, cap]. `median` is the 50th
/// percentile (the knob reads directly off a WAN RTT chart); sigma is the
/// log-space spread — 0.5 gives a p99 of ~3.2x the median, the heavy tail
/// WAN paths actually show.
struct LogNormalLatency {
  SimTime median = 0;
  double sigma = 0.0;
  SimTime floor = 0;
  SimTime cap = 0;
};

struct NetworkConfig {
  double loss_probability = 0.0;  ///< ε — independent per message
  SimTime latency_min = sim_us(100);
  SimTime latency_max = sim_us(900);
};

struct NetworkCounters {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;       ///< dropped by ε
  std::uint64_t filtered = 0;   ///< dropped by a link filter (partition)
  std::uint64_t dead_target = 0;  ///< target crashed or unregistered
  /// Injector activity (zero whenever the injectors are off, so digests of
  /// calm runs are unchanged). A duplicated copy that arrives also counts
  /// as delivered; a reordered message counts once here and once on
  /// whichever of delivered/dead_target it lands on.
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;

  NetworkCounters& operator+=(const NetworkCounters& o) noexcept {
    sent += o.sent;
    delivered += o.delivered;
    lost += o.lost;
    filtered += o.filtered;
    dead_target += o.dead_target;
    duplicated += o.duplicated;
    reordered += o.reordered;
    return *this;
  }

  friend bool operator==(const NetworkCounters&, const NetworkCounters&) =
      default;
};

class Network {
 public:
  /// Devirtualized receive dispatch: one raw function pointer plus an
  /// opaque context, so delivering a message is a single indirect call
  /// with no std::function indirection or allocation. Process attaches a
  /// captureless-lambda thunk over `this`.
  using DispatchFn = void (*)(void* ctx, ProcessId from, const MessagePtr&);
  using LinkFilter = std::function<bool(ProcessId from, ProcessId to)>;

  Network(Scheduler& sched, NetworkConfig config, Rng rng);

  /// Declares that this network hosts the pid range [pid_base, pid_base +
  /// count) and pre-sizes the handler and per-sender draw-state tables for
  /// it. The tables are indexed relative to pid_base, so a shard hosting
  /// pids [s * 2C, (s+1) * 2C) allocates 2C slots instead of (s+1) * 2C.
  /// Purely an optimization otherwise — the tables still grow on demand —
  /// but a harness that knows its population up front (e.g. a group's
  /// 2 * capacity protocol nodes) avoids every mid-run resize this way.
  /// Draw labels still hash the *global* pid — rebasing changes where state
  /// lives, never which stream a sender uses. Must be called before any
  /// attach/send (the tables must be empty).
  /// Every sender must lie in [pid_base, pid_base + 2^26); a message *to*
  /// a pid outside the table is counted dead on arrival.
  void reserve_range(ProcessId pid_base, std::size_t count);

  /// Registers the receive dispatch for `id`; overrides any previous one.
  void attach(ProcessId id, void* ctx, DispatchFn fn);
  /// Removes the handler (in-flight messages to `id` are counted dead).
  void detach(ProcessId id);

  /// Sends `msg` from `from` to `to`; loss and latency are applied here.
  /// The one-destination case of send_multi.
  void send(ProcessId from, ProcessId to, MessagePtr msg);

  /// Fans `msg` out to every pid in `to`, drawing loss and latency per
  /// destination from exactly the same labeled streams N individual send()
  /// calls would use (tests/network_test.cpp asserts the equivalence), but
  /// sharing the payload and the per-sender setup, and running the
  /// transcoder at most once for the whole fan-out. Requires the installed
  /// transcoder (if any) to return a message that depends only on the
  /// message it is given — true for the wire codec round trip, which
  /// depends only on the message bytes, memos and all.
  void send_multi(ProcessId from, std::span<const ProcessId> to,
                  MessagePtr msg);

  /// Changes ε mid-run (scenario loss bursts). Messages already in flight
  /// are unaffected; only subsequent send() calls draw against the new ε.
  void set_loss(double eps);

  /// When set, the profile replaces the uniform [latency_min, latency_max]
  /// draw on every link. A message's first copy draws it from a
  /// per-message stream labeled (msg_seed, kLatencyDrawLabel), so
  /// installing a profile never perturbs the loss draw, and std::nullopt
  /// restores the legacy latencies exactly. Requires median > 0, sigma in
  /// [0, 4] and 0 <= floor <= cap.
  void set_latency(std::optional<LogNormalLatency> profile);

  /// Duplication injector: each message that passes loss is cloned with
  /// probability `prob`; the clone draws its own latency (from the
  /// duplicate's labeled stream), so copies may arrive in either order.
  /// 0 disables (default) and leaves every draw stream untouched.
  void set_duplication(double prob);

  /// Reordering injector: with probability `prob` a message's latency is
  /// stretched by an extra uniform delay in [0, window], letting later
  /// sends overtake it. 0 disables (default); draws come from the
  /// reorder-labeled stream only when enabled.
  void set_reorder(double prob, SimTime window);

  /// Link filters simulate partitions: a message passes only if *every*
  /// installed filter returns true for (from, to), so concurrent
  /// partitions layer. A filter sees the direction, so asymmetric
  /// (one-way) partitions are expressed directly; it may also read a
  /// scheduler clock to flap. Returns a token for remove_link_filter
  /// (partition heal).
  using FilterToken = std::uint64_t;
  FilterToken add_link_filter(LinkFilter filter);
  /// Removes a layered filter; a no-op for unknown/already-removed tokens.
  void remove_link_filter(FilterToken token);

  /// When set, every message passes through this hook before delivery —
  /// e.g. a serialize-then-parse round trip through the wire codec, so
  /// tests exercise the exact bytes a deployment would put on a socket.
  /// Returning nullptr drops the message (counted as filtered). Its output
  /// must depend only on the message (send_multi runs it once per fan-out);
  /// it may memoize, as a runtime's wire::Codec does, as long as a memo
  /// never changes what it returns.
  using Transcoder = std::function<MessagePtr(const MessagePtr&)>;
  void set_transcoder(Transcoder transcoder) {
    transcoder_ = std::move(transcoder);
  }

  const NetworkCounters& counters() const noexcept { return counters_; }
  void reset_counters() noexcept { counters_ = NetworkCounters{}; }

  Scheduler& scheduler() noexcept { return sched_; }
  const NetworkConfig& config() const noexcept { return config_; }

 private:
  struct HandlerSlot {
    DispatchFn fn = nullptr;
    void* ctx = nullptr;
  };
  /// Per-sender draw state: the send count, and the memoized sender half
  /// of the labeled draw hash (it depends only on (draw_seed_, sender), so
  /// hashing it again for every message would be pure waste).
  struct SenderState {
    std::uint64_t prefix = 0;
    std::uint64_t seq = 0;
  };

  /// True when (from, to) passes every installed link filter.
  bool passes_filters(ProcessId from, ProcessId to) const;
  /// The labeled per-message draw seed for `from`'s next send (advances
  /// the sender's sequence).
  std::uint64_t next_draw_seed(ProcessId from);
  /// Applies the loss/latency draws (and the injectors) and schedules
  /// delivery.
  void deliver_after_draw(ProcessId from, ProcessId to, MessagePtr msg);
  /// One latency draw from `rng`: the installed WAN profile, else the
  /// uniform [latency_min, latency_max] draw.
  SimTime draw_latency(Rng& rng) const;
  void schedule_delivery(ProcessId from, ProcessId to, SimTime latency,
                         MessagePtr msg);
  void ensure_sender_states(std::size_t count);

  Scheduler& sched_;
  NetworkConfig config_;
  /// Loss/latency draws are not pulled from one shared stream: the draw for
  /// a message is derived from (draw_seed_, sender, sender's send count),
  /// so one process sending more never perturbs the draws another
  /// process's messages see. Co-hosted groups (topic shards) depend on
  /// this for isolation; within one group it also makes per-link behavior
  /// independent of global send interleaving.
  std::uint64_t draw_seed_;
  /// First pid of the dense tables; handlers_/senders_ index (pid - base).
  ProcessId pid_base_ = 0;
  std::vector<SenderState> senders_;  // indexed by pid - pid_base_
  std::vector<HandlerSlot> handlers_;  // indexed by ProcessId
  std::vector<std::pair<FilterToken, LinkFilter>> filters_;
  FilterToken next_filter_token_ = 1;
  Transcoder transcoder_;
  std::optional<LogNormalLatency> latency_;
  double duplicate_probability_ = 0.0;
  double reorder_probability_ = 0.0;
  SimTime reorder_window_ = 0;
  NetworkCounters counters_;
};

}  // namespace pmc
