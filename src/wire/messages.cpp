#include "wire/messages.hpp"

#include <limits>

namespace pmc::wire {

namespace {

constexpr std::uint64_t kMaxCollection = 1 << 20;  // sanity bound on counts

/// Sanity cap on gossip rounds: legitimate rounds are O(log n) (Pittel's
/// bound), so anything near integer range is a corrupted frame or a relic
/// of the retired round = uint32::max "do not re-gossip" sentinel (now the
/// explicit GossipMsg::no_regossip flag). Enforced on both directions so a
/// sentinel can neither leave nor enter round arithmetic.
constexpr std::uint64_t kMaxGossipRound = 1 << 20;

/// Tree depths on the wire are 1-based and fit in a byte.
constexpr std::uint64_t kMaxDepth = 0xff;

/// Reads a varint that must lie in [lo, hi] and narrows it to T. A value
/// out of range is a corrupt or hostile frame; truncating it instead would
/// decode a different, valid-looking message (pid 2^32 + 7 as pid 7).
template <typename T>
T checked_varint(Reader& r, const char* what, std::uint64_t lo = 0,
                 std::uint64_t hi = std::numeric_limits<T>::max()) {
  const std::uint64_t v = r.varint();
  if (v < lo || v > hi) throw DecodeError(what);
  return static_cast<T>(v);
}

std::uint64_t checked_count(Reader& r) {
  return checked_varint<std::uint64_t>(r, "collection too large", 0,
                                       kMaxCollection);
}

}  // namespace

// -- Value -------------------------------------------------------------------

void encode(Writer& w, const Value& v) {
  switch (v.kind()) {
    case ValueKind::Int:
      w.u8(0);
      w.svarint(v.as_int());
      break;
    case ValueKind::Float:
      w.u8(1);
      w.f64(v.as_double());
      break;
    case ValueKind::String:
      w.u8(2);
      w.str(v.as_string());
      break;
  }
}

Value decode_value(Reader& r) {
  switch (r.u8()) {
    case 0: return Value(r.svarint());
    case 1: return Value(r.f64());
    case 2: return Value(r.str());
    default: throw DecodeError("bad value kind");
  }
}

// -- Event -------------------------------------------------------------------

void encode(Writer& w, const Event& e) {
  w.varint(e.id().publisher);
  w.varint(e.id().sequence);
  w.varint(e.attributes().size());
  for (const auto& a : e.attributes()) {
    w.str(a.name);
    encode(w, a.value);
  }
}

Event decode_event(Reader& r) {
  EventId id;
  id.publisher = r.varint();
  id.sequence = r.varint();
  Event e(id);
  const auto n = checked_count(r);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = r.str();
    if (name.empty()) throw DecodeError("empty attribute name");
    e.with(std::move(name), decode_value(r));
  }
  return e;
}

// -- Predicate ----------------------------------------------------------------

void encode(Writer& w, const PredicatePtr& p) {
  using Kind = Predicate::Kind;
  switch (p->kind()) {
    case Kind::True: w.u8(0); break;
    case Kind::False: w.u8(1); break;
    case Kind::Compare:
      w.u8(2);
      w.str(p->attr());
      w.u8(static_cast<std::uint8_t>(p->op()));
      encode(w, p->value());
      break;
    case Kind::And:
    case Kind::Or:
      w.u8(p->kind() == Kind::And ? 3 : 4);
      w.varint(p->children().size());
      for (const auto& c : p->children()) encode(w, c);
      break;
    case Kind::Not:
      w.u8(5);
      encode(w, p->child());
      break;
  }
}

PredicatePtr decode_predicate(Reader& r, std::size_t max_depth) {
  if (max_depth == 0) throw DecodeError("predicate too deep");
  const std::uint8_t tag = r.u8();
  switch (tag) {
    case 0: return Predicate::wildcard();
    case 1: return Predicate::never();
    case 2: {
      std::string attr = r.str();
      if (attr.empty()) throw DecodeError("empty attribute in comparison");
      const std::uint8_t op = r.u8();
      if (op > static_cast<std::uint8_t>(CmpOp::Ge))
        throw DecodeError("bad comparison operator");
      return Predicate::compare(std::move(attr), static_cast<CmpOp>(op),
                                decode_value(r));
    }
    case 3:
    case 4: {
      // Rebuilding through the conj/disj factories re-applies constant
      // folding and flattening: the decoded tree is canonical, equivalent.
      const auto n = checked_count(r);
      std::vector<PredicatePtr> children;
      children.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i)
        children.push_back(decode_predicate(r, max_depth - 1));
      return tag == 3 ? Predicate::conj(std::move(children))
                      : Predicate::disj(std::move(children));
    }
    case 5:
      return Predicate::negation(decode_predicate(r, max_depth - 1));
    default: throw DecodeError("bad predicate tag");
  }
  throw DecodeError("unreachable predicate tag");
}

// -- Subscription -------------------------------------------------------------

void encode(Writer& w, const Subscription& s) { encode(w, s.predicate()); }

Subscription decode_subscription(Reader& r) {
  return Subscription(decode_predicate(r));
}

// -- Interval / IntervalSet ----------------------------------------------------

void encode(Writer& w, const Interval& iv) {
  w.f64(iv.lo);
  w.f64(iv.hi);
  w.boolean(iv.lo_open);
  w.boolean(iv.hi_open);
}

Interval decode_interval(Reader& r) {
  Interval iv;
  iv.lo = r.f64();
  iv.hi = r.f64();
  iv.lo_open = r.boolean();
  iv.hi_open = r.boolean();
  return iv;
}

void encode(Writer& w, const IntervalSet& set) {
  w.varint(set.intervals().size());
  for (const auto& iv : set.intervals()) encode(w, iv);
}

IntervalSet decode_interval_set(Reader& r) {
  IntervalSet set;
  const auto n = checked_count(r);
  for (std::uint64_t i = 0; i < n; ++i) set.insert(decode_interval(r));
  return set;
}

// -- Clause ---------------------------------------------------------------------

void encode(Writer& w, const Clause& c) {
  w.varint(c.numeric().size());
  for (const auto& [attr, iv] : c.numeric()) {
    w.str(attr);
    encode(w, iv);
  }
  w.varint(c.strings().size());
  for (const auto& [attr, allowed] : c.strings()) {
    w.str(attr);
    w.varint(allowed.size());
    for (const auto& s : allowed) w.str(s);
  }
}

Clause decode_clause(Reader& r) {
  Clause c;
  const auto numeric = checked_count(r);
  for (std::uint64_t i = 0; i < numeric; ++i) {
    std::string attr = r.str();
    c.constrain_numeric(attr, decode_interval(r));
  }
  const auto strings = checked_count(r);
  for (std::uint64_t i = 0; i < strings; ++i) {
    std::string attr = r.str();
    const auto count = checked_count(r);
    std::vector<std::string> allowed;
    allowed.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t j = 0; j < count; ++j) allowed.push_back(r.str());
    c.constrain_string(attr, std::move(allowed));
  }
  return c;
}

// -- InterestSummary ---------------------------------------------------------

void encode(Writer& w, const InterestSummary& s) {
  w.boolean(s.is_wildcard());
  w.varint(s.numeric_unions().size());
  for (const auto& [attr, set] : s.numeric_unions()) {
    w.str(attr);
    encode(w, set);
  }
  w.varint(s.string_unions().size());
  for (const auto& [attr, allowed] : s.string_unions()) {
    w.str(attr);
    w.varint(allowed.size());
    for (const auto& v : allowed) w.str(v);
  }
  w.varint(s.clauses().size());
  for (const auto& c : s.clauses()) encode(w, c);
  w.varint(s.opaque().size());
  for (const auto& p : s.opaque()) encode(w, p);
}

InterestSummary decode_summary(Reader& r) {
  const bool wildcard = r.boolean();
  std::map<std::string, IntervalSet> numeric;
  const auto numeric_count = checked_count(r);
  for (std::uint64_t i = 0; i < numeric_count; ++i) {
    std::string attr = r.str();
    numeric.emplace(std::move(attr), decode_interval_set(r));
  }
  std::map<std::string, std::vector<std::string>> strings;
  const auto string_count = checked_count(r);
  for (std::uint64_t i = 0; i < string_count; ++i) {
    std::string attr = r.str();
    const auto count = checked_count(r);
    std::vector<std::string> allowed;
    for (std::uint64_t j = 0; j < count; ++j) allowed.push_back(r.str());
    strings.emplace(std::move(attr), std::move(allowed));
  }
  std::vector<Clause> clauses;
  const auto clause_count = checked_count(r);
  for (std::uint64_t i = 0; i < clause_count; ++i)
    clauses.push_back(decode_clause(r));
  std::vector<PredicatePtr> opaque;
  const auto opaque_count = checked_count(r);
  for (std::uint64_t i = 0; i < opaque_count; ++i)
    opaque.push_back(decode_predicate(r));
  return InterestSummary::reassemble(wildcard, std::move(numeric),
                                     std::move(strings), std::move(clauses),
                                     std::move(opaque));
}

// -- Address / ViewRow ---------------------------------------------------------

void encode(Writer& w, const Address& a) {
  w.varint(a.depth());
  for (const auto c : a.components()) w.varint(c);
}

Address decode_address(Reader& r) {
  const auto depth = checked_count(r);
  if (depth == 0) throw DecodeError("empty address");
  std::vector<AddrComponent> comps;
  comps.reserve(static_cast<std::size_t>(depth));
  for (std::uint64_t i = 0; i < depth; ++i)
    comps.push_back(
        checked_varint<AddrComponent>(r, "address component out of range"));
  return Address(std::move(comps));
}

void encode(Writer& w, const AddrRef& a) { encode(w, a.address()); }

AddrRef decode_addr_ref(Reader& r) { return AddrRef(decode_address(r)); }

void encode(Writer& w, const ViewRow& row, const RowBatch& batch) {
  w.varint(row.infix);
  const auto delegates = batch.delegates(row);
  w.varint(delegates.size());
  for (const AddrId d : delegates) encode(w, batch.address(d));
  PMC_EXPECTS(row.interests != nullptr);
  encode(w, *row.interests);
  w.varint(row.process_count);
  w.varint(row.version);
  w.boolean(row.alive);
}

ViewRow decode_view_row(Reader& r, RowBatch& batch) {
  PMC_EXPECTS(batch.interns == nullptr);
  ViewRow row;
  row.infix = checked_varint<AddrComponent>(r, "infix out of range");
  const auto delegates = checked_count(r);
  row.delegates_begin = static_cast<std::uint32_t>(batch.pool.size());
  row.delegates_len = static_cast<std::uint32_t>(delegates);
  for (std::uint64_t i = 0; i < delegates; ++i) {
    batch.pool.push_back(static_cast<AddrId>(batch.addresses.size()));
    batch.addresses.push_back(decode_address(r));
  }
  row.interests = std::make_shared<const InterestSummary>(decode_summary(r));
  row.process_count = r.varint();
  row.version = r.varint();
  row.alive = r.boolean();
  return row;
}

// -- Envelope --------------------------------------------------------------------

namespace {

void encode_depth_rows(Writer& w, const RowBatch& batch) {
  w.varint(batch.rows.size());
  for (const auto& dr : batch) {
    w.varint(dr.depth);
    encode(w, dr.row, batch);
  }
}

RowBatch decode_depth_rows(Reader& r) {
  RowBatch batch;
  const auto n = checked_count(r);
  for (std::uint64_t i = 0; i < n; ++i) {
    DepthRow dr;
    dr.depth = checked_varint<std::uint32_t>(r, "bad row depth", 1, kMaxDepth);
    dr.row = decode_view_row(r, batch);
    batch.rows.push_back(std::move(dr));
  }
  return batch;
}

}  // namespace

std::vector<std::uint8_t> encode_message(const MessageBase& msg) {
  Writer w;
  // The kind byte is the wire tag: one shared write, and the per-kind
  // cases only encode bodies.
  w.u8(static_cast<std::uint8_t>(msg.kind));
  switch (msg.kind) {
    case MsgKind::Gossip: {
      const auto& gossip = static_cast<const GossipMsg&>(msg);
      if (gossip.round > kMaxGossipRound)
        throw std::logic_error(
            "encode_message: gossip round beyond sanity cap (sentinel?)");
      encode(w, *gossip.event);
      w.f64(gossip.rate);
      w.varint(gossip.round);
      w.varint(gossip.depth);
      w.boolean(gossip.no_regossip);
      const bool piggybacked = gossip.has_piggyback();
      w.boolean(piggybacked);
      if (piggybacked) {
        encode(w, gossip.sender);
        encode_depth_rows(w, *gossip.piggyback);
      }
      break;
    }
    case MsgKind::MembershipDigest: {
      const auto& digest = static_cast<const MembershipDigestMsg&>(msg);
      encode(w, digest.sender);
      w.varint(digest.sender_pid);
      w.varint(digest.digests.size());
      for (const auto& d : digest.digests) {
        w.varint(d.depth);
        w.varint(d.infix);
        w.varint(d.version);
      }
      break;
    }
    case MsgKind::MembershipUpdate: {
      const auto& update = static_cast<const MembershipUpdateMsg&>(msg);
      encode(w, update.sender);
      encode_depth_rows(w, update.rows);
      break;
    }
    case MsgKind::JoinRequest: {
      const auto& join = static_cast<const JoinRequestMsg&>(msg);
      encode(w, join.joiner);
      w.varint(join.joiner_pid);
      encode(w, join.subscription);
      w.varint(join.hops);
      break;
    }
    case MsgKind::ViewTransfer: {
      const auto& transfer = static_cast<const ViewTransferMsg&>(msg);
      encode(w, transfer.sender);
      encode_depth_rows(w, transfer.rows);
      break;
    }
    case MsgKind::Leave: {
      const auto& leave = static_cast<const LeaveMsg&>(msg);
      encode(w, leave.leaver);
      break;
    }
    case MsgKind::FloodGossip: {
      const auto& flood = static_cast<const FloodGossipMsg&>(msg);
      encode(w, *flood.event);
      w.varint(flood.round);
      break;
    }
    case MsgKind::GenuineGossip: {
      const auto& genuine = static_cast<const GenuineGossipMsg&>(msg);
      encode(w, *genuine.event);
      w.varint(genuine.round);
      break;
    }
    case MsgKind::SuspectQuery: {
      const auto& query = static_cast<const SuspectQueryMsg&>(msg);
      encode(w, query.sender);
      encode(w, query.suspect);
      break;
    }
    case MsgKind::SuspectReply: {
      const auto& reply = static_cast<const SuspectReplyMsg&>(msg);
      encode(w, reply.sender);
      encode(w, reply.suspect);
      w.boolean(reply.heard_recently);
      break;
    }
    case MsgKind::EventDigest: {
      const auto& digest = static_cast<const EventDigestMsg&>(msg);
      w.varint(digest.ids.size());
      for (const auto& id : digest.ids) {
        w.varint(id.publisher);
        w.varint(id.sequence);
      }
      break;
    }
    case MsgKind::EventRequest: {
      const auto& request = static_cast<const EventRequestMsg&>(msg);
      w.varint(request.ids.size());
      for (const auto& id : request.ids) {
        w.varint(id.publisher);
        w.varint(id.sequence);
      }
      break;
    }
    case MsgKind::EventPayload: {
      const auto& payload = static_cast<const EventPayloadMsg&>(msg);
      w.varint(payload.events.size());
      for (const auto& event : payload.events) encode(w, *event);
      break;
    }
    default:
      throw std::logic_error("encode_message: unknown message type");
  }
  return std::move(w).take();
}

MessagePtr decode_message(std::span<const std::uint8_t> data) {
  Reader r(data);
  const auto tag = static_cast<MsgKind>(r.u8());
  MessagePtr out;
  switch (tag) {
    case MsgKind::Gossip: {
      auto msg = std::make_shared<GossipMsg>();
      msg->event = std::make_shared<const Event>(decode_event(r));
      msg->rate = r.f64();
      if (!(msg->rate >= 0.0 && msg->rate <= 1.0))
        throw DecodeError("rate out of range");
      msg->round = checked_varint<std::uint32_t>(
          r, "gossip round beyond sanity cap", 0, kMaxGossipRound);
      msg->depth =
          checked_varint<std::uint32_t>(r, "bad gossip depth", 1, kMaxDepth);
      msg->no_regossip = r.boolean();
      if (r.boolean()) {
        msg->sender = decode_addr_ref(r);
        msg->piggyback = std::make_shared<const RowBatch>(decode_depth_rows(r));
      }
      out = std::move(msg);
      break;
    }
    case MsgKind::MembershipDigest: {
      auto msg = std::make_shared<MembershipDigestMsg>();
      msg->sender = decode_addr_ref(r);
      msg->sender_pid =
          checked_varint<ProcessId>(r, "digest sender pid out of range");
      const auto n = checked_count(r);
      for (std::uint64_t i = 0; i < n; ++i) {
        RowDigest d;
        d.depth =
            checked_varint<std::uint32_t>(r, "bad digest depth", 1, kMaxDepth);
        d.infix = checked_varint<AddrComponent>(r, "digest infix out of range");
        d.version = r.varint();
        msg->digests.push_back(d);
      }
      out = std::move(msg);
      break;
    }
    case MsgKind::MembershipUpdate: {
      auto msg = std::make_shared<MembershipUpdateMsg>();
      msg->sender = decode_addr_ref(r);
      msg->rows = decode_depth_rows(r);
      out = std::move(msg);
      break;
    }
    case MsgKind::JoinRequest: {
      auto msg = std::make_shared<JoinRequestMsg>();
      msg->joiner = decode_addr_ref(r);
      msg->joiner_pid = checked_varint<ProcessId>(r, "joiner pid out of range");
      msg->subscription = decode_subscription(r);
      msg->hops = checked_varint<std::uint32_t>(r, "join hops out of range");
      out = std::move(msg);
      break;
    }
    case MsgKind::ViewTransfer: {
      auto msg = std::make_shared<ViewTransferMsg>();
      msg->sender = decode_addr_ref(r);
      msg->rows = decode_depth_rows(r);
      out = std::move(msg);
      break;
    }
    case MsgKind::Leave: {
      auto msg = std::make_shared<LeaveMsg>();
      msg->leaver = decode_addr_ref(r);
      out = std::move(msg);
      break;
    }
    case MsgKind::FloodGossip: {
      auto msg = std::make_shared<FloodGossipMsg>();
      msg->event = std::make_shared<const Event>(decode_event(r));
      msg->round = checked_varint<std::uint32_t>(r, "flood round out of range");
      out = std::move(msg);
      break;
    }
    case MsgKind::GenuineGossip: {
      auto msg = std::make_shared<GenuineGossipMsg>();
      msg->event = std::make_shared<const Event>(decode_event(r));
      msg->round =
          checked_varint<std::uint32_t>(r, "genuine round out of range");
      out = std::move(msg);
      break;
    }
    case MsgKind::SuspectQuery: {
      auto msg = std::make_shared<SuspectQueryMsg>();
      msg->sender = decode_addr_ref(r);
      msg->suspect = decode_addr_ref(r);
      out = std::move(msg);
      break;
    }
    case MsgKind::SuspectReply: {
      auto msg = std::make_shared<SuspectReplyMsg>();
      msg->sender = decode_addr_ref(r);
      msg->suspect = decode_addr_ref(r);
      msg->heard_recently = r.boolean();
      out = std::move(msg);
      break;
    }
    case MsgKind::EventDigest:
    case MsgKind::EventRequest: {
      const auto n = checked_count(r);
      std::vector<EventId> ids;
      ids.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        EventId id;
        id.publisher = r.varint();
        id.sequence = r.varint();
        ids.push_back(id);
      }
      if (tag == MsgKind::EventDigest) {
        auto msg = std::make_shared<EventDigestMsg>();
        msg->ids = std::move(ids);
        out = std::move(msg);
      } else {
        auto msg = std::make_shared<EventRequestMsg>();
        msg->ids = std::move(ids);
        out = std::move(msg);
      }
      break;
    }
    case MsgKind::EventPayload: {
      auto msg = std::make_shared<EventPayloadMsg>();
      const auto n = checked_count(r);
      for (std::uint64_t i = 0; i < n; ++i)
        msg->events.push_back(
            std::make_shared<const Event>(decode_event(r)));
      out = std::move(msg);
      break;
    }
    default: throw DecodeError("unknown message tag");
  }
  r.expect_end();
  return out;
}

}  // namespace pmc::wire
