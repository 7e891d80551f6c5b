// Decentralized membership management (paper Sec. 2.3).
//
// Every SyncNode owns a MembershipView whose rows carry logical versions.
// Periodically it gossips a *digest* — (depth, infix, version) for every row
// — to a few known processes; a receiver replies with full rows for every
// line where its own version is newer ("gossip pull": the gossiper gets
// updated). Views therefore converge without any coordinator.
//
// Joining: the joiner asks any contact already in the group; the contact
// routes the request towards the "lowest" delegates it knows for the
// joiner's address (recursively), until an immediate neighbor inserts the
// joiner and transfers its view.
//
// Leaving: the leaver informs neighbors, which tombstone its row (alive =
// false, bumped version); the tombstone then spreads via anti-entropy.
//
// Failure detection: each process tracks the last time it heard from its
// immediate (leaf-depth) neighbors, and from no one else (only they are
// ever read back); silence beyond a timeout tombstones the suspect
// locally, and anti-entropy propagates the suspicion.
//
// Row recomputation: delegates periodically recompact the row describing
// their own subgroup at each depth they represent (interest regrouping,
// process count, delegate list) from the next-deeper table, with the
// compact_subgroup rule GroupTree builds its rows with (election.hpp), and
// bump the version when the row materially changed. The recompaction is a
// pure function of the two adjacent tables, so it is skipped outright while
// neither table mutated since the last pass (the steady-state common case).
//
// Hot-path state is interned: peers, neighbors and contact tables hold
// AddrIds, membership rows travel as a RowBatch of this runtime's ids and
// pooled summaries, and every process address a message carries (senders,
// joiner, leaver, suspect) is an AddrRef holding this runtime's id
// (view.hpp). Only the wire layer turns ids into Addresses (a runtime's
// codec decodes back into its ids), and a receiver interns a decoded
// address only when it keeps it. Derived state is cached
// on the tables' mutations() counters: recompaction, the peer list and the
// piggyback batch each rebuild only after a table they read changed. The
// codec and all protocol bytes are unchanged by the representation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "membership/tree.hpp"
#include "membership/view.hpp"
#include "sim/runtime.hpp"

namespace pmc {

// ---------------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------------

struct RowDigest {
  std::uint32_t depth = 0;
  AddrComponent infix = 0;
  std::uint64_t version = 0;
};

struct MembershipDigestMsg final : MessageBase {
  MembershipDigestMsg() noexcept : MessageBase(MsgKind::MembershipDigest) {}

  AddrRef sender;
  ProcessId sender_pid = kNoProcess;
  std::vector<RowDigest> digests;
};

struct MembershipUpdateMsg final : MessageBase {
  MembershipUpdateMsg() noexcept : MessageBase(MsgKind::MembershipUpdate) {}

  AddrRef sender;
  RowBatch rows;
};

struct JoinRequestMsg final : MessageBase {
  JoinRequestMsg() noexcept : MessageBase(MsgKind::JoinRequest) {}

  AddrRef joiner;
  ProcessId joiner_pid = kNoProcess;
  Subscription subscription;
  std::uint32_t hops = 0;  ///< guards against routing loops
};

struct ViewTransferMsg final : MessageBase {
  ViewTransferMsg() noexcept : MessageBase(MsgKind::ViewTransfer) {}

  AddrRef sender;
  RowBatch rows;  ///< rows valid for the joiner
};

struct LeaveMsg final : MessageBase {
  LeaveMsg() noexcept : MessageBase(MsgKind::Leave) {}

  AddrRef leaver;
};

/// Sec. 6's per-depth mechanism (3): before excluding a silent neighbor,
/// ask another leaf neighbor whether it has heard from the suspect — a
/// lightweight agreement that filters one-sided connectivity glitches.
struct SuspectQueryMsg final : MessageBase {
  SuspectQueryMsg() noexcept : MessageBase(MsgKind::SuspectQuery) {}

  AddrRef sender;
  AddrRef suspect;
};

struct SuspectReplyMsg final : MessageBase {
  SuspectReplyMsg() noexcept : MessageBase(MsgKind::SuspectReply) {}

  AddrRef sender;
  AddrRef suspect;
  bool heard_recently = false;
};

// ---------------------------------------------------------------------------
// SyncNode
// ---------------------------------------------------------------------------

struct SyncConfig {
  TreeConfig tree;
  SimTime gossip_period = sim_ms(100);
  std::size_t gossip_fanout = 2;
  /// Silence from an immediate neighbor beyond this tombstones it.
  SimTime suspicion_timeout = sim_ms(1000);
  /// A joiner re-sends its join request every period until a view transfer
  /// arrives, giving up after this many retries (the contact may be dead —
  /// see retarget_join). 0 retries forever.
  std::uint32_t max_join_retries = 240;
  /// Capped exponential backoff on those retries: the k-th retry waits
  /// min(2^k, 8) gossip periods plus a jitter drawn from the joiner's own
  /// labeled stream (uniform in [0, wait / 2] — labeled, so enabling
  /// backoff on one joiner never moves any other process's draws). Off by
  /// default: the legacy every-period retry cadence (and every existing
  /// run fingerprint) is unchanged. retarget_join resets the schedule
  /// along with the budget.
  bool join_backoff = false;
  /// When true, a timed-out neighbor is only tombstoned after a second
  /// leaf neighbor confirms it has not heard from the suspect either
  /// (Sec. 6's leaf-level agreement before exclusion).
  bool confirm_suspicion = false;
  /// Answer every membership digest, even when no row is newer (an empty
  /// MembershipUpdate as a pure ack): the periodic digest gossip doubles
  /// as loss probes, and the sent-vs-acked ratio feeds the online ε
  /// estimator (analysis/env_estimator.hpp). Off by default (the paper's
  /// pull-only anti-entropy).
  bool ack_digests = false;
};

class SyncNode final : public Process {
 public:
  /// A founding member: starts with a bootstrap view (e.g. from GroupTree).
  /// `directory` resolves the ids of the view's Interns.
  SyncNode(Runtime& rt, ProcessId pid, SyncConfig config, MembershipView view,
           Subscription subscription, Directory directory);

  /// A joining process: starts with an empty view and contacts `contact`.
  SyncNode(Runtime& rt, ProcessId pid, SyncConfig config, Address self,
           Subscription subscription, ProcessId contact, Interns& interns,
           Directory directory);

  const Address& address() const noexcept { return view_.self(); }
  const MembershipView& view() const noexcept { return view_; }
  const Subscription& subscription() const noexcept { return subscription_; }
  bool joined() const noexcept { return joined_; }

  /// Counters over the membership protocol's observable work, used by the
  /// scenario engine to report join/leave/failure-detection activity.
  struct Stats {
    std::uint64_t digests_sent = 0;     ///< anti-entropy digests gossiped
    std::uint64_t updates_sent = 0;     ///< row (or ack) replies to digests
    /// MembershipUpdate messages received. Updates only ever answer our
    /// own digests (gossip pull), so with ack_digests on the pair
    /// (digests_sent, digest_acks) is the sent-vs-acked feedback an
    /// EnvEstimator turns into a loss estimate.
    std::uint64_t digest_acks = 0;
    /// Rows observed transitioning alive -> dead in our view, whether
    /// tombstoned locally (timeout, leave) or absorbed via anti-entropy —
    /// the incarnation churn an EnvEstimator turns into a crash estimate.
    std::uint64_t deaths_observed = 0;
    std::uint64_t join_retries = 0;     ///< own join request re-sent
    std::uint64_t joins_forwarded = 0;  ///< join requests routed closer
    std::uint64_t joins_served = 0;     ///< view transfers sent to joiners
    std::uint64_t tombstones = 0;       ///< rows tombstoned locally
    std::uint64_t rebuttals = 0;        ///< own false tombstone rebutted
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Graceful departure: informs immediate neighbors, then crashes the
  /// process object (it stops participating).
  void leave();

  /// Points a still-unjoined joiner at a fresh contact (the original one
  /// may have crashed before serving the request) and resets its retry
  /// budget. A no-op once joined.
  void retarget_join(ProcessId contact);

  /// Piggybacking support (Sec. 2.3: "membership information can be
  /// piggybacked when gossiping events"): the rows worth attaching to a
  /// message for `other`, and ingestion of rows that arrived piggybacked.
  /// The rows depend only on the depth limit min(shared prefix + 1, d), so
  /// every target at one limit gets the same immutable batch until a table
  /// in that range mutates (see shared_rows_).
  std::shared_ptr<const RowBatch> rows_to_share(AddrId other);
  void absorb_rows(const AddrRef& sender, const RowBatch& rows);

 protected:
  void on_message(ProcessId from, const MessagePtr& msg) override;
  void on_period() override;

 private:
  void send_join_request();
  /// Arms the next backed-off retry (SyncConfig::join_backoff).
  void schedule_next_join_retry();
  void handle_digest(ProcessId from, const MembershipDigestMsg& m);
  void handle_update(const MembershipUpdateMsg& m);
  void handle_join(ProcessId from, const JoinRequestMsg& m);
  void handle_view_transfer(const ViewTransferMsg& m);
  void handle_leave(const LeaveMsg& m);
  void handle_suspect_query(ProcessId from, const SuspectQueryMsg& m);
  void handle_suspect_reply(const SuspectReplyMsg& m);
  void tombstone_row(DepthView& leaf, std::size_t i);

  /// Applies a row of `batch` if it is newer; returns true when the view
  /// changed.
  bool apply_row(std::uint32_t depth, const ViewRow& row,
                 const RowBatch& batch);
  /// Depths of this view relevant for a process with address `other`:
  /// 1..min(common prefix + 1, d).
  std::size_t share_limit(AddrId other) const;
  /// Every row of depths 1..limit, sized before it is filled.
  RowBatch rows_up_to(std::size_t limit) const;
  /// Stores a row built here for `self` or a joiner (id of this runtime),
  /// alive, with a fresh version.
  void put_process_row(std::size_t depth, AddrComponent infix, AddrId process,
                       const Subscription& subscription);
  std::vector<RowDigest> make_digest() const;
  /// Recompacts own-subgroup rows at every depth where self is a delegate.
  void recompact_own_rows();
  void check_neighbor_timeouts();
  /// Length of the prefix `a` shares with this process.
  std::size_t shared_prefix(const AddrRef& a) const;
  /// This runtime's id for `a`, interning a decoded address.
  AddrId intern(const AddrRef& a) const;
  /// This runtime's id for `a`, or kNoAddr for a decoded address it never
  /// interned (which then has no contact, suspicion or grace entry).
  AddrId find(const AddrRef& a) const;
  /// Records direct contact from `sender` if it is a leaf neighbour (it
  /// shares `shared` >= d-1 components with this process).
  void note_contact(const AddrRef& sender, std::size_t shared);
  /// All (address, pid-resolvable) gossip candidates, excluding self —
  /// depth-ascending, row order, first sighting wins. Rebuilt only when a
  /// table mutated since the last call (see peers_).
  const std::vector<AddrId>& known_peers() const;
  void send_to(AddrId a, MessagePtr msg);
  std::uint64_t next_version() { return ++version_counter_; }
  AddrInternTable& addrs() const noexcept { return view_.interns().addrs; }

  SyncConfig config_;
  MembershipView view_;
  Subscription subscription_;
  Directory directory_;
  bool joined_ = false;
  /// The contact a joining process asked; the join request is re-sent every
  /// period until a view transfer arrives (the single send would otherwise
  /// be lost forever to ε or a not-yet-joined contact).
  ProcessId join_contact_ = kNoProcess;
  /// Retries spent on the current contact; reset by retarget_join.
  std::uint32_t join_retry_budget_ = 0;
  /// Earliest time the next backed-off join retry may fire, and the
  /// joiner's labeled jitter stream (both used only with join_backoff;
  /// the stream is assigned from Runtime::make_stream in the joiner
  /// constructor, per the labeled-stream discipline).
  SimTime join_next_retry_at_ = 0;
  Rng join_jitter_rng_;
  std::uint64_t version_counter_ = 0;
  std::size_t ping_cursor_ = 0;  // round-robin over immediate neighbors
  /// Times of *direct* contact (messages actually received from a process).
  /// Suspect queries are answered from this map only — never from grace —
  /// otherwise two suspecting processes can keep a dead neighbor "alive" by
  /// echoing each other's second-hand confidence.
  ///
  /// Only leaf neighbours (senders sharing our depth-(d-1) prefix) are
  /// recorded, because only they are ever read back: the timeout check
  /// looks up the first delegates of leaf rows, and a suspect query names
  /// the querier's leaf neighbour, which shares the confirmer's leaf
  /// subgroup. That is exact while every leaf row describes a member of our
  /// leaf subgroup, and every row the protocol builds does: handle_join
  /// writes depth d only when the prefixes agree, a digest reply carries
  /// depth-d rows only to such a sender, absorb_rows admits depth-d rows
  /// only from one, and a view transfer carries only rows_up_to(the depth
  /// the contact and the joiner share).
  FlatMap<AddrId, SimTime> last_contact_;
  /// Deadline extensions granted by positive confirmations.
  FlatMap<AddrId, SimTime> grace_until_;
  FlatMap<AddrId, SimTime> pending_suspicions_;
  /// Resolved pids for the periodic digest fan-out, so one shared digest
  /// goes out through Network::send_multi instead of per-target copies.
  std::vector<ProcessId> digest_targets_;
  /// The peer list known_peers() last built, and the sum of every table's
  /// mutations() it was built from. The counters only grow, so an equal sum
  /// means no table changed and the list (and its order, which the RNG
  /// indexes) still holds.
  mutable std::vector<AddrId> peers_;
  mutable std::uint64_t peers_stamp_ = ~std::uint64_t{0};
  /// The last piggyback batch built per depth limit (index limit-1), held
  /// weakly so the cache never outlives the messages that carry a batch,
  /// with the sum of mutations() over depths 1..limit it was built from.
  struct SharedRows {
    std::weak_ptr<const RowBatch> batch;
    std::uint64_t stamp = 0;
  };
  std::vector<SharedRows> shared_rows_;
  // Reusable scratch buffers (the sync path allocates nothing in steady
  // state).
  std::vector<AddrId> neighbor_scratch_;
  std::vector<AddrId> suspect_scratch_;
  std::vector<AddrId> candidate_scratch_;
  std::vector<AddrId> delegate_scratch_;
  /// A received digest stable-sorted by (depth, infix), when it was not.
  std::vector<RowDigest> digest_scratch_;
  /// Per-depth (deeper-table, own-table) mutation counters observed by the
  /// last recompaction pass; index = depth-1. The pass is skipped while both
  /// counters are unchanged.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> recompact_cache_;
  Stats stats_;
};

}  // namespace pmc
