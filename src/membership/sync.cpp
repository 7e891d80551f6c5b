#include "membership/sync.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "common/contract.hpp"
#include "common/hash.hpp"
#include "membership/election.hpp"

namespace pmc {

namespace {

constexpr std::uint64_t kNeverRecompacted = ~std::uint64_t{0};

/// Label of a joiner's backoff-jitter stream (SyncConfig::join_backoff):
/// (salt, pid), so each joiner jitters independently and enabling backoff
/// never touches any other labeled stream.
constexpr std::uint64_t kJoinBackoffSalt = 0xba0cf0ff;

/// Join requests stop being forwarded after this many hops (a guard
/// against routing loops).
constexpr std::uint32_t kMaxJoinHops = 16;

/// Join-retry backoff: ceiling on the factor, in gossip periods, and the
/// jitter's fraction of the backed-off wait.
constexpr std::uint64_t kJoinBackoffCap = 8;
constexpr double kJoinBackoffJitter = 0.5;

/// Spreads consecutive ids over known_peers' dedup set.
constexpr std::uint64_t kFibonacciMul = 0x9e3779b97f4a7c15ULL;

}  // namespace

SyncNode::SyncNode(Runtime& rt, ProcessId pid, SyncConfig config,
                   MembershipView view, Subscription subscription,
                   Directory directory)
    : Process(rt, pid),
      config_(config),
      view_(std::move(view)),
      subscription_(std::move(subscription)),
      directory_(std::move(directory)),
      joined_(true) {
  config_.tree.validate();
  PMC_EXPECTS(directory_ != nullptr);
  // Continue from the highest version present so local edits sort after
  // everything already in the bootstrap view (Lamport-style).
  for (std::size_t depth = 1; depth <= config_.tree.depth; ++depth) {
    const DepthView& dv = view_.view(depth);
    for (std::size_t i = 0; i < dv.size(); ++i)
      version_counter_ = std::max(version_counter_, dv.version(i));
  }
  recompact_cache_.assign(config_.tree.depth,
                          {kNeverRecompacted, kNeverRecompacted});
  arm_periodic(config_.gossip_period);
}

SyncNode::SyncNode(Runtime& rt, ProcessId pid, SyncConfig config, Address self,
                   Subscription subscription, ProcessId contact,
                   Interns& interns, Directory directory)
    : Process(rt, pid),
      config_(config),
      view_(std::move(self), config.tree, interns),
      subscription_(std::move(subscription)),
      directory_(std::move(directory)),
      join_contact_(contact) {
  PMC_EXPECTS(directory_ != nullptr);
  recompact_cache_.assign(config_.tree.depth,
                          {kNeverRecompacted, kNeverRecompacted});
  if (config_.join_backoff)
    join_jitter_rng_ =
        rt.make_stream(fnv1a_u64(kFnv1aBasis ^ kJoinBackoffSalt, pid));
  send_join_request();
  if (config_.join_backoff) schedule_next_join_retry();
  arm_periodic(config_.gossip_period);
}

void SyncNode::send_join_request() {
  auto join = std::make_shared<JoinRequestMsg>();
  join->joiner = AddrRef(view_.interns(), view_.self_id());
  join->joiner_pid = id();
  join->subscription = subscription_;
  send(join_contact_, std::move(join));
}

void SyncNode::schedule_next_join_retry() {
  // The k-th retry (k = budget spent) waits min(2^k, cap) gossip periods,
  // plus jitter uniform in [0, wait * jitter]: concurrent joiners hitting
  // the same revived contact (a flash crowd, scenario JoinStorm) spread out
  // instead of thundering in lockstep. Pure integer schedule; the jitter
  // draw comes from this joiner's own labeled stream.
  const std::uint32_t shift = std::min<std::uint32_t>(join_retry_budget_, 31);
  const std::uint64_t factor =
      std::min(std::uint64_t{1} << shift, kJoinBackoffCap);
  SimTime wait = config_.gossip_period * static_cast<SimTime>(factor);
  const SimTime span =
      static_cast<SimTime>(static_cast<double>(wait) * kJoinBackoffJitter);
  if (span > 0)
    wait += static_cast<SimTime>(
        join_jitter_rng_.next_below(static_cast<std::uint64_t>(span) + 1));
  join_next_retry_at_ = runtime().now() + wait;
}

void SyncNode::retarget_join(ProcessId contact) {
  if (joined_) return;
  join_contact_ = contact;
  join_retry_budget_ = 0;
  send_join_request();
  if (config_.join_backoff) schedule_next_join_retry();
}

void SyncNode::leave() {
  auto msg = std::make_shared<LeaveMsg>();
  msg->leaver = AddrRef(view_.interns(), view_.self_id());
  // Inform the immediate (leaf-depth) neighbors.
  const DepthView& leaf = view_.view(config_.tree.depth);
  for (std::size_t i = 0; i < leaf.size(); ++i) {
    if (!leaf.alive(i) || leaf.delegates(i).empty()) continue;
    const AddrId neighbor = leaf.first_delegate(i);
    if (neighbor == view_.self_id()) continue;
    send_to(neighbor, msg);
  }
  crash();  // fail-stop semantics: the process simply stops participating
}

void SyncNode::on_message(ProcessId from, const MessagePtr& msg) {
  switch (msg->kind) {
    case MsgKind::MembershipDigest:
      handle_digest(from, static_cast<const MembershipDigestMsg&>(*msg));
      break;
    case MsgKind::MembershipUpdate:
      handle_update(static_cast<const MembershipUpdateMsg&>(*msg));
      break;
    case MsgKind::JoinRequest:
      handle_join(from, static_cast<const JoinRequestMsg&>(*msg));
      break;
    case MsgKind::ViewTransfer:
      handle_view_transfer(static_cast<const ViewTransferMsg&>(*msg));
      break;
    case MsgKind::Leave:
      handle_leave(static_cast<const LeaveMsg&>(*msg));
      break;
    case MsgKind::SuspectQuery:
      handle_suspect_query(from, static_cast<const SuspectQueryMsg&>(*msg));
      break;
    case MsgKind::SuspectReply:
      handle_suspect_reply(static_cast<const SuspectReplyMsg&>(*msg));
      break;
    default:
      break;
  }
}

void SyncNode::on_period() {
  if (!joined_) {
    // Still waiting for the view transfer: the request (or its reply) may
    // have been lost to ε, or the contact may not have joined yet itself —
    // retry until an answer arrives. Duplicate requests are harmless (the
    // server's row upsert and our transfer handling are idempotent). The
    // budget bounds traffic towards a contact that died before serving us;
    // retarget_join() grants a fresh contact and budget.
    // With join_backoff the periodic tick only acts once the backed-off
    // deadline has passed; the tick cadence itself stays every period, so
    // the schedule is a filter over the legacy one (never earlier).
    if (config_.join_backoff && runtime().now() < join_next_retry_at_)
      return;
    if (config_.max_join_retries == 0 ||
        join_retry_budget_ < config_.max_join_retries) {
      send_join_request();
      ++join_retry_budget_;
      ++stats_.join_retries;
      if (config_.join_backoff) schedule_next_join_retry();
    }
    return;
  }
  recompact_own_rows();
  check_neighbor_timeouts();

  const auto& peers = known_peers();
  if (peers.empty()) return;
  auto digest = std::make_shared<MembershipDigestMsg>();
  digest->sender = AddrRef(view_.interns(), view_.self_id());
  digest->sender_pid = id();
  digest->digests = make_digest();
  // The same digest goes to every target: resolve the whole fan-out first
  // and put it on the wire as one send_multi (shared payload, one
  // transcode, per-destination draws), instead of per-target sends.
  // digests_sent still counts *attempts*, like the per-target path did.
  // The picks (indices into `peers`) land in digest_targets_ itself and
  // are overwritten in place by their pids: no buffer of their own, which
  // every node would carry.
  const std::size_t fanout = std::min(config_.gossip_fanout, peers.size());
  rng().sample_without_replacement(peers.size(), fanout, digest_targets_);
  std::size_t resolved = 0;
  for (std::size_t k = 0; k < digest_targets_.size(); ++k) {
    const ProcessId pid = directory_(peers[digest_targets_[k]]);
    if (pid != kNoProcess) digest_targets_[resolved++] = pid;
    ++stats_.digests_sent;
  }
  digest_targets_.resize(resolved);

  // Leaf subgroups actively ping each other (paper Sec. 6): one extra
  // digest per period to a round-robin immediate neighbor keeps the
  // last-contact table fresh and failure detection accurate.
  neighbor_scratch_.clear();
  const DepthView& leaf = view_.view(config_.tree.depth);
  for (std::size_t i = 0; i < leaf.size(); ++i) {
    if (!leaf.alive(i) || leaf.delegates(i).empty()) continue;
    const AddrId neighbor = leaf.first_delegate(i);
    if (neighbor == view_.self_id()) continue;
    neighbor_scratch_.push_back(neighbor);
  }
  if (!neighbor_scratch_.empty()) {
    const AddrId ping =
        neighbor_scratch_[ping_cursor_++ % neighbor_scratch_.size()];
    const ProcessId pid = directory_(ping);
    if (pid != kNoProcess) digest_targets_.push_back(pid);
    ++stats_.digests_sent;
  }
  if (!digest_targets_.empty()) send_multi(digest_targets_, digest);
}

void SyncNode::handle_digest(ProcessId from, const MembershipDigestMsg& m) {
  const std::size_t prefix = shared_prefix(m.sender);
  note_contact(m.sender, prefix);
  // Reply with every line where our version is strictly newer, plus lines
  // the gossiper does not know at all — restricted to depths the two of us
  // share (tables above the common prefix are about different subgroups).
  const std::size_t limit = std::min(prefix + 1, config_.tree.depth);
  // One merge walk over the view and the digest, both in (depth, infix)
  // order. make_digest emits that order; a digest in any other order (the
  // decoder accepts any) is stable-sorted first, so the first entry for a
  // key still wins, as a linear search would pick it.
  const auto key_less = [](const RowDigest& a, const RowDigest& b) {
    return a.depth != b.depth ? a.depth < b.depth : a.infix < b.infix;
  };
  std::span<const RowDigest> digests = m.digests;
  if (!std::is_sorted(digests.begin(), digests.end(), key_less)) {
    digest_scratch_.assign(digests.begin(), digests.end());
    std::stable_sort(digest_scratch_.begin(), digest_scratch_.end(),
                     key_less);
    digests = digest_scratch_;
  }
  // Two passes of one walk: the first counts what the reply carries, the
  // second fills a reply sized to exactly that (replies in flight at a
  // period boundary hold their batches, so no walk-sized reservation).
  const auto walk = [&](auto&& take) {
    auto next = digests.begin();
    for (std::size_t depth = 1; depth <= limit; ++depth) {
      const DepthView& dv = view_.view(depth);
      for (std::size_t i = 0; i < dv.size(); ++i) {
        const RowDigest key{static_cast<std::uint32_t>(depth), dv.infix(i), 0};
        while (next != digests.end() && key_less(*next, key)) ++next;
        const bool known = next != digests.end() && !key_less(key, *next);
        if (!known || next->version < dv.version(i)) take(dv, depth, i);
      }
    }
  };
  std::size_t rows = 0;
  std::size_t delegates = 0;
  walk([&](const DepthView& dv, std::size_t, std::size_t i) {
    ++rows;
    delegates += dv.delegates(i).size();
  });
  // With ack_digests every digest is answered — an empty update is a pure
  // ack — so the gossiper can meter the round-trip loss (sent vs. acked).
  if (rows == 0 && !config_.ack_digests) return;
  auto reply = std::make_shared<MembershipUpdateMsg>();
  reply->sender = AddrRef(view_.interns(), view_.self_id());
  reply->rows = RowBatch(view_.interns());
  reply->rows.rows.reserve(rows);
  reply->rows.pool.reserve(delegates);
  walk([&](const DepthView& dv, std::size_t depth, std::size_t i) {
    reply->rows.append(static_cast<std::uint32_t>(depth), dv, i);
  });
  send(from, std::move(reply));
  ++stats_.updates_sent;
}

void SyncNode::handle_update(const MembershipUpdateMsg& m) {
  note_contact(m.sender, shared_prefix(m.sender));
  // Every update answers one of our digests (gossip pull), so it doubles
  // as the ack half of the loss-feedback pair (see Stats::digest_acks).
  ++stats_.digest_acks;
  absorb_rows(m.sender, m.rows);
}

void SyncNode::absorb_rows(const AddrRef& sender, const RowBatch& rows) {
  const std::size_t shared = shared_prefix(sender) + 1;
  for (const auto& dr : rows) {
    if (dr.depth < 1 || dr.depth > config_.tree.depth) continue;
    if (dr.depth > shared) continue;  // not our subgroup's table
    apply_row(dr.depth, dr.row, rows);
  }
}

void SyncNode::handle_join(ProcessId from, const JoinRequestMsg& m) {
  (void)from;
  if (!joined_) return;
  const std::size_t shared = shared_prefix(m.joiner);

  // Try to route closer: a delegate of a deeper subgroup on the joiner's
  // path knows strictly more of the joiner's neighborhood than we do.
  if (shared + 1 < config_.tree.depth && m.hops < kMaxJoinHops) {
    const DepthView& dv = view_.view(shared + 1);
    const std::size_t i = dv.find_index(m.joiner.component(shared));
    if (i != DepthView::npos && dv.alive(i) && !dv.delegates(i).empty() &&
        dv.first_delegate(i) != view_.self_id()) {
      auto fwd = std::make_shared<JoinRequestMsg>(m);
      fwd->hops = m.hops + 1;
      send_to(dv.first_delegate(i), std::move(fwd));
      ++stats_.joins_forwarded;
      return;
    }
  }

  // We are (or act as) an immediate neighbor: insert the joiner and send it
  // everything we know that is valid for its address.
  const AddrId joiner = intern(m.joiner);
  put_process_row(std::min(shared + 1, config_.tree.depth),
                  m.joiner.component(std::min(shared, config_.tree.depth - 1)),
                  joiner, m.subscription);

  auto transfer = std::make_shared<ViewTransferMsg>();
  transfer->sender = AddrRef(view_.interns(), view_.self_id());
  transfer->rows = rows_up_to(share_limit(joiner));
  send(m.joiner_pid, std::move(transfer));
  ++stats_.joins_served;
}

void SyncNode::handle_view_transfer(const ViewTransferMsg& m) {
  note_contact(m.sender, shared_prefix(m.sender));
  for (const auto& dr : m.rows) {
    if (dr.depth < 1 || dr.depth > config_.tree.depth) continue;
    apply_row(dr.depth, dr.row, m.rows);
  }
  if (!joined_) {
    joined_ = true;
    // Make ourselves visible: our own leaf row, versioned locally.
    put_process_row(config_.tree.depth,
                    view_.self().component(config_.tree.depth - 1),
                    view_.self_id(), subscription_);
  }
}

void SyncNode::put_process_row(std::size_t depth, AddrComponent infix,
                               AddrId process,
                               const Subscription& subscription) {
  view_.view(depth).upsert_pooled(
      infix, {&process, 1},
      view_.interns().summaries.intern(InterestSummary::from(subscription)),
      1, next_version(), true);
}

void SyncNode::handle_leave(const LeaveMsg& m) {
  // Tombstone the leaver's leaf row; anti-entropy spreads it.
  const std::size_t shared = shared_prefix(m.leaver);
  const std::size_t depth = std::min(shared + 1, config_.tree.depth);
  DepthView& dv = view_.view(depth);
  const std::size_t i = dv.find_index(m.leaver.component(depth - 1));
  if (i == DepthView::npos || !dv.alive(i)) return;
  tombstone_row(dv, i);
}

bool SyncNode::apply_row(std::uint32_t depth, const ViewRow& row,
                         const RowBatch& batch) {
  version_counter_ = std::max(version_counter_, row.version);
  // Rebut false suspicion: a live process that learns of its own tombstone
  // republishes its leaf row with a higher version.
  const auto delegates = batch.delegates(row);
  if (!row.alive && depth == config_.tree.depth && !delegates.empty() &&
      (batch.interns != nullptr
           ? delegates.front() == view_.self_id()
           : batch.address(delegates.front()) == view_.self())) {
    ViewRow alive_row = row;
    alive_row.alive = true;
    alive_row.version = next_version();
    ++stats_.rebuttals;
    return view_.view(depth).upsert(alive_row, batch);
  }
  DepthView& dv = view_.view(depth);
  // A known-live row absorbed as a tombstone is observed incarnation
  // churn: the raw signal behind the online crash-rate estimate. Only a
  // tombstone needs the row it replaces.
  bool was_alive = false;
  if (!row.alive) {
    const std::size_t current = dv.find_index(row.infix);
    was_alive = current != DepthView::npos && dv.alive(current);
  }
  const bool changed = dv.upsert(row, batch);
  if (changed && was_alive) ++stats_.deaths_observed;
  return changed;
}

std::size_t SyncNode::share_limit(AddrId other) const {
  return std::min(addrs().common_prefix_length(view_.self_id(), other) + 1,
                  config_.tree.depth);
}

RowBatch SyncNode::rows_up_to(std::size_t limit) const {
  std::size_t rows = 0;
  std::size_t delegates = 0;
  for (std::size_t depth = 1; depth <= limit; ++depth) {
    rows += view_.view(depth).size();
    delegates += view_.view(depth).delegate_count();
  }
  RowBatch out(view_.interns());
  out.rows.reserve(rows);
  out.pool.reserve(delegates);
  for (std::size_t depth = 1; depth <= limit; ++depth) {
    const DepthView& dv = view_.view(depth);
    for (std::size_t i = 0; i < dv.size(); ++i)
      out.append(static_cast<std::uint32_t>(depth), dv, i);
  }
  return out;
}

std::shared_ptr<const RowBatch> SyncNode::rows_to_share(AddrId other) {
  const std::size_t limit = share_limit(other);
  std::uint64_t stamp = 0;
  for (std::size_t depth = 1; depth <= limit; ++depth)
    stamp += view_.view(depth).mutations();
  if (shared_rows_.empty()) shared_rows_.resize(config_.tree.depth);
  SharedRows& slot = shared_rows_[limit - 1];
  if (slot.stamp == stamp) {
    if (auto batch = slot.batch.lock()) return batch;
  }
  // Not make_shared: the weak slot would keep that one block, batch
  // included, alive until the slot is next rebuilt.
  std::shared_ptr<const RowBatch> batch(new RowBatch(rows_up_to(limit)));
  slot = {batch, stamp};
  return batch;
}

std::vector<RowDigest> SyncNode::make_digest() const {
  std::size_t rows = 0;
  for (std::size_t depth = 1; depth <= config_.tree.depth; ++depth)
    rows += view_.view(depth).size();
  std::vector<RowDigest> out;
  out.reserve(rows);
  for (std::size_t depth = 1; depth <= config_.tree.depth; ++depth) {
    const DepthView& dv = view_.view(depth);
    for (std::size_t i = 0; i < dv.size(); ++i)
      out.push_back(RowDigest{static_cast<std::uint32_t>(depth), dv.infix(i),
                              dv.version(i)});
  }
  return out;
}

void SyncNode::recompact_own_rows() {
  // From the leaf upward: the row describing our subgroup of depth i (in the
  // depth-i table) is compacted from our depth-(i+1) table (paper Sec. 2.3).
  // Only delegates publish these rows; everyone else just consumes them.
  if (config_.tree.depth < 2) return;
  for (std::size_t depth = config_.tree.depth - 1; depth >= 1; --depth) {
    const DepthView& deeper = view_.view(depth + 1);
    DepthView& own = view_.view(depth);
    // The compaction is a pure function of (deeper table, own table): while
    // neither mutated since the pass that established the cache, re-running
    // it would conclude "nothing changed" — skip it outright.
    auto& cache = recompact_cache_[depth - 1];
    if (cache.first == deeper.mutations() && cache.second == own.mutations())
      continue;
    InterestSummary summary;
    const std::uint64_t count =
        compact_subgroup(deeper, config_.tree.redundancy, summary,
                         candidate_scratch_, delegate_scratch_);
    // Publish only if we are one of the delegates of our own subgroup, and
    // only when the row materially changed.
    if (count != 0 &&
        std::ranges::find(delegate_scratch_, view_.self_id()) !=
            delegate_scratch_.end()) {
      const AddrComponent own_infix = view_.self().component(depth - 1);
      const std::size_t current = own.find_index(own_infix);
      const bool unchanged =
          current != DepthView::npos && own.alive(current) &&
          std::ranges::equal(own.delegates(current), delegate_scratch_) &&
          own.process_count(current) == count &&
          own.interests(current) == summary;
      if (!unchanged)
        own.upsert_pooled(own_infix, delegate_scratch_,
                          view_.interns().summaries.intern(std::move(summary)),
                          count, next_version(), true);
    }
    cache = {deeper.mutations(), own.mutations()};
  }
}

void SyncNode::check_neighbor_timeouts() {
  const SimTime now = runtime().now();
  DepthView& leaf = view_.view(config_.tree.depth);
  suspect_scratch_.clear();
  for (std::size_t i = 0; i < leaf.size(); ++i) {
    if (!leaf.alive(i) || leaf.delegates(i).empty()) continue;
    const AddrId neighbor = leaf.first_delegate(i);
    if (neighbor == view_.self_id()) continue;
    const auto it = last_contact_.find(neighbor);
    SimTime last = it == last_contact_.end() ? SimTime{0} : it->second;
    const auto grace = grace_until_.find(neighbor);
    if (grace != grace_until_.end()) last = std::max(last, grace->second);
    if (now - last <= config_.suspicion_timeout) continue;
    if (it == last_contact_.end() && now <= config_.suspicion_timeout)
      continue;  // grace period right after startup
    suspect_scratch_.push_back(neighbor);
  }

  for (const AddrId suspect : suspect_scratch_) {
    const auto tombstone_suspect = [&] {
      const std::size_t i = leaf.find_index(
          addrs().component(suspect, config_.tree.depth - 1));
      if (i != DepthView::npos && leaf.alive(i)) tombstone_row(leaf, i);
    };
    if (!config_.confirm_suspicion) {
      tombstone_suspect();
      continue;
    }
    // Agreement-before-exclusion: ask one other live neighbor first.
    const auto pending = pending_suspicions_.find(suspect);
    if (pending != pending_suspicions_.end()) {
      // No confirmation arrived for a whole timeout: the confirmer may be
      // gone too; fall back to unilateral exclusion.
      if (now - pending->second > config_.suspicion_timeout) {
        pending_suspicions_.erase(pending);
        tombstone_suspect();
      }
      continue;
    }
    AddrId confirmer = kNoAddr;
    for (std::size_t i = 0; i < leaf.size(); ++i) {
      if (!leaf.alive(i) || leaf.delegates(i).empty()) continue;
      const AddrId candidate = leaf.first_delegate(i);
      if (candidate == view_.self_id() || candidate == suspect) continue;
      confirmer = candidate;
      break;
    }
    if (confirmer == kNoAddr) {
      tombstone_suspect();  // nobody to ask
      continue;
    }
    auto query = std::make_shared<SuspectQueryMsg>();
    query->sender = AddrRef(view_.interns(), view_.self_id());
    query->suspect = AddrRef(view_.interns(), suspect);
    send_to(confirmer, std::move(query));
    pending_suspicions_.insert_or_assign(suspect, now);
  }
}

void SyncNode::handle_suspect_query(ProcessId from,
                                    const SuspectQueryMsg& m) {
  note_contact(m.sender, shared_prefix(m.sender));
  const auto it = last_contact_.find(find(m.suspect));
  const bool heard =
      it != last_contact_.end() &&
      runtime().now() - it->second <= config_.suspicion_timeout;
  auto reply = std::make_shared<SuspectReplyMsg>();
  reply->sender = AddrRef(view_.interns(), view_.self_id());
  reply->suspect = m.suspect;
  reply->heard_recently = heard;
  send(from, std::move(reply));
}

void SyncNode::handle_suspect_reply(const SuspectReplyMsg& m) {
  note_contact(m.sender, shared_prefix(m.sender));
  const AddrId suspect = find(m.suspect);
  const auto it = pending_suspicions_.find(suspect);
  if (it == pending_suspicions_.end()) return;  // stale reply
  pending_suspicions_.erase(it);
  if (m.heard_recently) {
    // The suspect is alive elsewhere: extend our deadline — but only as a
    // grace note, never as direct contact (see grace_until_ comment).
    grace_until_.insert_or_assign(suspect, runtime().now());
  } else {
    DepthView& leaf = view_.view(config_.tree.depth);
    const std::size_t i = leaf.find_index(
        addrs().component(suspect, config_.tree.depth - 1));
    if (i != DepthView::npos && leaf.alive(i)) tombstone_row(leaf, i);
  }
}

void SyncNode::tombstone_row(DepthView& leaf, std::size_t i) {
  const std::uint64_t v = std::max(next_version(), leaf.version(i) + 1);
  version_counter_ = std::max(version_counter_, v);
  leaf.upsert_pooled(leaf.infix(i), leaf.delegates(i), leaf.interests_ptr(i),
                     leaf.process_count(i), v, false);
  ++stats_.tombstones;
  ++stats_.deaths_observed;
}

std::size_t SyncNode::shared_prefix(const AddrRef& a) const {
  if (a.interns == nullptr)
    return view_.self().common_prefix_length(a.decoded);
  PMC_EXPECTS(a.interns == &view_.interns());
  return addrs().common_prefix_length(view_.self_id(), a.id);
}

AddrId SyncNode::intern(const AddrRef& a) const {
  if (a.interns == nullptr) return addrs().intern(a.decoded);
  PMC_EXPECTS(a.interns == &view_.interns());
  return a.id;
}

AddrId SyncNode::find(const AddrRef& a) const {
  if (a.interns == nullptr) return addrs().find(a.decoded);
  PMC_EXPECTS(a.interns == &view_.interns());
  return a.id;
}

void SyncNode::note_contact(const AddrRef& sender, std::size_t shared) {
  if (shared + 1 < config_.tree.depth) return;  // not a leaf neighbour
  last_contact_.insert_or_assign(intern(sender), runtime().now());
}

const std::vector<AddrId>& SyncNode::known_peers() const {
  std::uint64_t stamp = 0;
  for (std::size_t depth = 1; depth <= config_.tree.depth; ++depth)
    stamp += view_.view(depth).mutations();
  if (stamp == peers_stamp_) return peers_;
  peers_stamp_ = stamp;
  peers_.clear();
  // First sighting wins, found through an open-addressing set of the ids
  // taken so far: linear in the view's delegate count. The set lives only
  // for this rebuild, sized to at least twice that count, so no node keeps
  // a table of its own.
  std::size_t delegates = 0;
  for (std::size_t depth = 1; depth <= config_.tree.depth; ++depth)
    delegates += view_.view(depth).delegate_count();
  std::vector<AddrId> taken(std::bit_ceil(2 * delegates + 1), kNoAddr);
  const std::size_t mask = taken.size() - 1;
  for (std::size_t depth = 1; depth <= config_.tree.depth; ++depth) {
    const DepthView& dv = view_.view(depth);
    for (std::size_t i = 0; i < dv.size(); ++i) {
      if (!dv.alive(i)) continue;
      for (const AddrId d : dv.delegates(i)) {
        if (d == view_.self_id()) continue;
        std::size_t slot = ((d * kFibonacciMul) >> 32) & mask;
        while (taken[slot] != kNoAddr && taken[slot] != d)
          slot = (slot + 1) & mask;
        if (taken[slot] == d) continue;
        taken[slot] = d;
        peers_.push_back(d);
      }
    }
  }
  return peers_;
}

void SyncNode::send_to(AddrId a, MessagePtr msg) {
  const ProcessId pid = directory_(a);
  if (pid == kNoProcess) return;
  send(pid, std::move(msg));
}

}  // namespace pmc
