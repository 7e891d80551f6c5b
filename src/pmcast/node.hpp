// The pmcast dissemination node — paper Fig. 3.
//
// A node buffers each known event per depth as (event, rate, round). Every
// period P it walks the buffers depth by depth:
//   * while round < T(interested, F*rate) it draws F random members of its
//     depth view and gossips the event to those that are interested
//     (delegates whose subgroup's regrouped interests match);
//   * once the rounds at a depth are exhausted the entry moves to the next
//     depth with a freshly computed matching rate (GETRATE), until it falls
//     off depth d — the paper's "passive garbage collection".
// Receivers deliver the event iff their own subscription matches.
//
// Where this departs from the paper's pseudocode, and why, is listed in
// docs/ARCHITECTURE.md ("Deviations from the paper").
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/contract.hpp"
#include "common/flat_map.hpp"
#include "event/event.hpp"
#include "membership/view.hpp"
#include "pmcast/config.hpp"
#include "pmcast/subscriber.hpp"

namespace pmc {

/// The gossip wire message (Fig. 3's SEND(event, rate, round, depth)).
/// `piggyback` optionally carries membership rows (Sec. 2.3) together with
/// the sender's address so the receiver can scope them. The batch is shared
/// and immutable: every gossip a sender addresses at one depth limit in one
/// view state points at the same batch (SyncNode::rows_to_share).
struct GossipMsg final : MessageBase {
  GossipMsg() noexcept : MessageBase(MsgKind::Gossip) {}

  std::shared_ptr<const Event> event;
  double rate = 0.0;
  std::uint32_t round = 0;
  std::uint32_t depth = 0;
  /// The sender has already addressed every interested member (Sec. 6 leaf
  /// flood): the receiver delivers (and may retain for recovery) but never
  /// re-buffers the event for gossip. An explicit flag — the exhausted
  /// state used to be smuggled as round = uint32::max, which an adaptive
  /// round bound must never see in live arithmetic.
  bool no_regossip = false;
  AddrRef sender;  ///< set when piggyback is non-empty
  std::shared_ptr<const RowBatch> piggyback;

  bool has_piggyback() const noexcept {
    return piggyback != nullptr && !piggyback->empty();
  }
};

/// Recovery digests (optional, PmcastConfig::recovery_rounds): ids of
/// retained events the sender believes the target is interested in.
struct EventDigestMsg final : MessageBase {
  EventDigestMsg() noexcept : MessageBase(MsgKind::EventDigest) {}

  std::vector<EventId> ids;
};

/// Request for retransmission of events missing at the requester.
struct EventRequestMsg final : MessageBase {
  EventRequestMsg() noexcept : MessageBase(MsgKind::EventRequest) {}

  std::vector<EventId> ids;
};

/// Retransmitted payloads answering an EventRequestMsg.
struct EventPayloadMsg final : MessageBase {
  EventPayloadMsg() noexcept : MessageBase(MsgKind::EventPayload) {}

  std::vector<std::shared_ptr<const Event>> events;
};

/// Deterministic, event-derived start index for the Sec. 5.3 tuning padding:
/// when fewer than h view members are interested, members starting at this
/// index are promoted. Every process computes the same index from the event
/// id alone (so a subgroup pads consistently without agreement), but the
/// index varies across events, so the padding does not systematically favor
/// the low-index view rows.
std::size_t tuning_start_index(const EventId& id, std::size_t n);

/// Receiving, delivering and the received/delivered/sent/dup_suppressed
/// counters are SubscriberNode's, as for every baseline; `sent` counts the
/// gossip copies handed to the network, one per target.
class PmcastNode final : public SubscriberNode {
 public:
  /// `tables` are the node's d view tables, depth i at index i-1
  /// (GroupTree::tables_for or MembershipView::tables_for), all bound to
  /// one Interns, whose ids `directory` resolves. The tables must outlive
  /// the node.
  PmcastNode(Runtime& rt, ProcessId pid, PmcastConfig config,
             const Address& self, Subscription subscription,
             std::span<const DepthView* const> tables, Directory directory);

  /// Multicasts an event (Fig. 3's PMCAST). The originator participates at
  /// every depth starting from the root; if it is itself interested, the
  /// event is delivered locally.
  void pmcast(Event event);

  /// Membership piggybacking (paper Sec. 2.3): when both hooks are set,
  /// every outgoing gossip carries source(target) rows and every incoming
  /// gossip's rows are handed to sink(sender, rows) — typically wired to
  /// SyncNode::rows_to_share / SyncNode::absorb_rows, so membership spreads
  /// with events instead of (only) dedicated gossips.
  using PiggybackSource =
      std::function<std::shared_ptr<const RowBatch>(AddrId target)>;
  using PiggybackSink =
      std::function<void(const AddrRef& sender, const RowBatch&)>;
  void set_piggyback(PiggybackSource source, PiggybackSink sink) {
    piggyback_source_ = std::move(source);
    piggyback_sink_ = std::move(sink);
  }

  /// Live ε/τ source for the Eq. 11 bound: when set, every per-depth
  /// bound evaluation consults it instead of the static config.env —
  /// typically wired to EnvEstimator::estimate of the node's estimator.
  /// The source must return valid faulty() inputs (ε, τ in [0, 1], no
  /// NaN); EnvEstimator guarantees that.
  using EnvSource = std::function<EnvParams()>;
  void set_env_source(EnvSource source) { env_source_ = std::move(source); }

  /// The ε/τ the next bound evaluation will use (prior or live estimate).
  EnvParams live_env() const {
    return env_source_ ? env_source_() : config_.env;
  }

  Address address() const { return interns().addrs.resolve(self_id_); }

  /// The protocol's own counters, beside SubscriberNode::stats().
  struct GossipStats {
    std::uint64_t published = 0;
    std::uint64_t rounds_run = 0;  ///< per-depth gossip rounds executed
    /// Entries retired after zero rounds at a depth that still had an
    /// interested audience: the discounted Eq. 11 bound collapsed
    /// (n(1-ε)(1-τ) <= 1 or fanout discounted to 0). Observable instead of
    /// a silent delivery loss — the dominant failure mode at small
    /// matching rates and saturated loss estimates.
    std::uint64_t bound_collapsed = 0;
    std::uint64_t leaf_floods = 0;  ///< Sec. 6 leaf-flood activations
    std::uint64_t digests_sent = 0;
    std::uint64_t recoveries = 0;  ///< events obtained via retransmission
    /// Events shed by the PmcastConfig::max_retained / max_buffered caps.
    std::uint64_t shed_events = 0;
  };
  const GossipStats& gossip_stats() const noexcept { return gossip_stats_; }

 protected:
  void on_message(ProcessId from, const MessagePtr& msg) override;
  void on_period() override;

 private:
  /// One view member that could be gossiped to: its id, and whether it is
  /// interested, in the id's top bit. Four bytes, half an {id, bool} pair:
  /// every buffered entry holds a list of them. Ids are dense from 0, so a
  /// runtime would need 2^31 addresses to reach that bit.
  class Candidate {
   public:
    Candidate() = default;
    Candidate(AddrId id, bool interested)
        : bits_(id | (interested ? kInterested : 0U)) {
      PMC_EXPECTS((id & kInterested) == 0);
    }
    AddrId id() const noexcept { return bits_ & ~kInterested; }
    bool interested() const noexcept { return (bits_ & kInterested) != 0; }
    void mark_interested() noexcept { bits_ |= kInterested; }

   private:
    static constexpr std::uint32_t kInterested = 0x80000000U;
    std::uint32_t bits_ = 0;
  };

  /// The stamp of a candidate list not built yet: no table reports it.
  static constexpr std::uint64_t kUnbuilt = ~std::uint64_t{0};

  struct Entry {
    std::shared_ptr<const Event> event;
    double rate = 0.0;
    /// The members gossip draws from at the entry's depth (candidates_at),
    /// `candidate_count` of them, and the mutations() of the table they
    /// were built from. A list depends only on the table, the event, the
    /// node's own id and h, so a static view builds it once per event and
    /// depth; a live table that mutated rebuilds it before the next round,
    /// in the same array while the new list fits (the array is at least
    /// `candidate_count` long). An owned array, not a vector: 16 bytes
    /// less per entry, and a group buffers many entries per process.
    std::unique_ptr<Candidate[]> candidates;
    std::uint64_t built_at = kUnbuilt;
    std::uint32_t candidate_count = 0;
    std::uint32_t round = 0;

    std::span<const Candidate> candidate_list() const {
      return {candidates.get(), candidate_count};
    }
  };

  /// One depth of the tree as this node sees it: its view table, fixed at
  /// construction, and the events buffered for gossip there.
  struct Depth {
    const DepthView* table = nullptr;
    std::vector<Entry> entries;
  };

  /// Enumerates the view members at `depth` (excluding self) into the
  /// entry's candidate list, marking each as interested per its row's
  /// regrouped interests, with the Sec. 5.3 tuning applied, and stamps the
  /// list with the table's mutations(). Returns the effective matching
  /// rate.
  double candidates_at(std::size_t depth, Entry& entry) const;

  const DepthView& table(std::size_t depth) const {
    return *depths_[depth - 1].table;
  }
  /// The intern state the tables are expressed in.
  Interns& interns() const { return depths_.front().table->interns(); }

  /// A new entry for `event` at `depth`, at round 0 with Fig. 3's GETRATE
  /// (the effective matching rate there) and the candidate list that rate
  /// came from.
  Entry fresh_entry(std::size_t depth,
                    std::shared_ptr<const Event> event) const;

  void buffer_event(std::size_t depth, Entry entry);
  void gossip_entries_at(std::size_t depth);
  /// Gossips `entry`'s event at `depth` to the interested, resolvable
  /// candidates pick_scratch_ indexes, in that order. A flood (Sec. 6) is
  /// one no_regossip message without rows; in a round, consecutive targets
  /// that get one piggyback batch share one message.
  void send_gossip(std::size_t depth, const Entry& entry, bool flood);
  bool buffers_empty() const noexcept;
  std::size_t buffered_total() const noexcept;

  /// Starts (or refreshes) the recovery phase for a retained event.
  void retain_for_recovery(std::shared_ptr<const Event> event);
  /// One period of digest gossip for every event still in recovery.
  void run_recovery_round();
  void handle_digest(ProcessId from, const EventDigestMsg& m);
  void handle_request(ProcessId from, const EventRequestMsg& m);
  void handle_payload(const EventPayloadMsg& m);

  PmcastConfig config_;
  AddrId self_id_ = kNoAddr;  ///< the node's address, in the tables' Interns
  Directory directory_;
  RoundEstimator estimator_;
  EnvSource env_source_;
  PiggybackSource piggyback_source_;
  PiggybackSink piggyback_sink_;

  std::vector<Depth> depths_;  // index 0 <-> depth 1

  /// Resolved pids of the targets one gossip message goes to, so it goes
  /// out through Network::send_multi instead of one copy per target.
  std::vector<ProcessId> target_scratch_;
  /// The indices each gossip or digest round picks (a flood lists all).
  std::vector<std::size_t> pick_scratch_;

  /// Events retained for digest recovery, with remaining digest rounds.
  /// A FlatMap so recovery digests enumerate ids in EventId order — with an
  /// unordered_map the digest wire bytes would leak hash-bucket order
  /// (detlint iteration-order). The store holds at most a few rounds' worth
  /// of events, where the sorted vector also beats the bucket array.
  struct Retained {
    std::shared_ptr<const Event> event;
    std::size_t rounds_left = 0;
  };
  FlatMap<EventId, Retained> store_;

  GossipStats gossip_stats_;
};

}  // namespace pmc
