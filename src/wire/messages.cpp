#include "wire/messages.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/hash.hpp"

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

/// Makes room in `v` for `count` more elements read from `r`. Each takes
/// at least a byte, so the reservation is capped by the bytes left: honest
/// input never reserves more than it fills, and a hostile count cannot
/// reserve more than its frame's size.
template <typename T>
void reserve_more(std::vector<T>& v, std::uint64_t count, const Reader& r) {
  const auto more = static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining()));
  if (v.capacity() - v.size() < more) v.reserve(v.size() + more);
}

/// What a walk that builds nothing (kBuild false) reads in place of a
/// value: the summary grammar below runs both ways.
struct Skipped {};

template <bool kBuild>
auto read_text(Reader& r) {
  if constexpr (kBuild) {
    return r.str();
  } else {
    r.skip_str();
    return Skipped{};
  }
}

/// A counted list of strings (a string union or a clause's whitelist).
template <bool kBuild>
auto read_texts(Reader& r) {
  const auto count = checked_count(r);
  std::conditional_t<kBuild, std::vector<std::string>, Skipped> out;
  for (std::uint64_t i = 0; i < count; ++i) {
    auto text = read_text<kBuild>(r);
    if constexpr (kBuild) out.push_back(std::move(text));
  }
  return out;
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

namespace {

template <bool kBuild>
auto read_interval_set(Reader& r) {
  std::conditional_t<kBuild, IntervalSet, Skipped> set;
  const auto n = checked_count(r);
  for (std::uint64_t i = 0; i < n; ++i) {
    const Interval iv = decode_interval(r);
    if constexpr (kBuild) set.insert(iv);
  }
  return set;
}

}  // namespace

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

namespace {

template <bool kBuild>
auto read_clause(Reader& r) {
  std::conditional_t<kBuild, Clause, Skipped> c;
  const auto numeric = checked_count(r);
  for (std::uint64_t i = 0; i < numeric; ++i) {
    auto attr = read_text<kBuild>(r);
    const Interval iv = decode_interval(r);
    if constexpr (kBuild) c.constrain_numeric(attr, iv);
  }
  const auto strings = checked_count(r);
  for (std::uint64_t i = 0; i < strings; ++i) {
    auto attr = read_text<kBuild>(r);
    auto allowed = read_texts<kBuild>(r);
    if constexpr (kBuild) c.constrain_string(attr, std::move(allowed));
  }
  return c;
}

}  // namespace

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

namespace {

/// The summary grammar, written once. With kBuild it returns the summary.
/// Without, it reads and range-checks the same bytes but builds nothing,
/// so the codec can find a summary's extent before it looks the bytes up;
/// it returns whether the summary is free of opaque predicates, and stops
/// at their count when it is not (the codec never memoizes those).
template <bool kBuild>
std::conditional_t<kBuild, InterestSummary, bool> read_summary(Reader& r) {
  [[maybe_unused]] const bool wildcard = r.boolean();
  // A repeated attribute keeps its first value.
  std::conditional_t<kBuild, FlatMap<std::string, IntervalSet>, Skipped>
      numeric;
  const auto numeric_count = checked_count(r);
  for (std::uint64_t i = 0; i < numeric_count; ++i) {
    auto attr = read_text<kBuild>(r);
    auto set = read_interval_set<kBuild>(r);
    if constexpr (kBuild) numeric.try_emplace(attr, std::move(set));
  }
  std::conditional_t<kBuild,
                     FlatMap<std::string, std::vector<std::string>>, Skipped>
      strings;
  const auto string_count = checked_count(r);
  for (std::uint64_t i = 0; i < string_count; ++i) {
    auto attr = read_text<kBuild>(r);
    auto allowed = read_texts<kBuild>(r);
    if constexpr (kBuild) strings.try_emplace(attr, std::move(allowed));
  }
  std::conditional_t<kBuild, std::vector<Clause>, Skipped> clauses;
  const auto clause_count = checked_count(r);
  for (std::uint64_t i = 0; i < clause_count; ++i) {
    auto clause = read_clause<kBuild>(r);
    if constexpr (kBuild) clauses.push_back(std::move(clause));
  }
  const auto opaque_count = checked_count(r);
  if constexpr (kBuild) {
    std::vector<PredicatePtr> opaque;
    for (std::uint64_t i = 0; i < opaque_count; ++i)
      opaque.push_back(decode_predicate(r));
    return InterestSummary::reassemble(wildcard, std::move(numeric),
                                       std::move(strings), std::move(clauses),
                                       std::move(opaque));
  } else {
    return opaque_count == 0;
  }
}

}  // namespace

InterestSummary decode_summary(Reader& r) { return read_summary<true>(r); }

// -- Address / ViewRow ---------------------------------------------------------

namespace {

/// The address grammar: its components, range-checked, into `out`.
void read_components(Reader& r, std::vector<AddrComponent>& out) {
  const auto depth = checked_count(r);
  if (depth == 0) throw DecodeError("empty address");
  out.clear();
  reserve_more(out, depth, r);
  for (std::uint64_t i = 0; i < depth; ++i)
    out.push_back(
        checked_varint<AddrComponent>(r, "address component out of range"));
}

}  // namespace

void encode(Writer& w, const Address& a) {
  w.varint(a.depth());
  for (const auto c : a.components()) w.varint(c);
}

Address decode_address(Reader& r) {
  std::vector<AddrComponent> comps;
  read_components(r, comps);
  return Address(std::move(comps));
}

void encode(Writer& w, const AddrRef& a) { encode(w, a.address()); }

AddrRef decode_addr_ref(Reader& r) { return AddrRef(decode_address(r)); }

// -- Envelope --------------------------------------------------------------------

/// The message envelope and the row grammar, written once: encode_message
/// and decode_message run them without a codec, Codec::encode and
/// Codec::decode with one.
struct Envelope {
  /// A row of `batch`. With a codec and pooled summaries (an in-memory
  /// batch), the summary's bytes come from the codec's memo.
  static void write_row(Writer& w, const ViewRow& row, const RowBatch& batch,
                        Codec* codec) {
    w.varint(row.infix);
    const auto delegates = batch.delegates(row);
    w.varint(delegates.size());
    for (const AddrId d : delegates) encode(w, batch.address(d));
    PMC_EXPECTS(row.interests != nullptr);
    if (codec != nullptr && batch.interns != nullptr) {
      codec->encode_pooled(w, row.interests);
    } else {
      encode(w, *row.interests);
    }
    w.varint(row.process_count);
    w.varint(row.version);
    w.boolean(row.alive);
  }

  static void write_rows(Writer& w, const RowBatch& batch, Codec* codec) {
    w.varint(batch.rows.size());
    for (const auto& dr : batch) {
      w.varint(dr.depth);
      write_row(w, dr.row, batch, codec);
    }
  }

  /// A row into `batch`, `rows_left` rows before the batch ends (this one
  /// included). Without a codec it is in the decoded form: its delegates
  /// join the batch's address list and its summary is fresh. With one it
  /// is in the codec's runtime's form, and false means the row names an
  /// address that runtime never interned or a summary with opaque
  /// predicates, so the batch must be read again without the codec.
  static bool read_row(Reader& r, RowBatch& batch, ViewRow& row,
                       std::uint64_t rows_left, Codec* codec) {
    row.infix = checked_varint<AddrComponent>(r, "infix out of range");
    const auto delegates = checked_count(r);
    // Room for as many delegates in each row left: a batch lists its rows
    // by depth, R delegates each above the leaves and one in a leaf, so
    // its pool is usually reserved once, at the first row.
    reserve_more(batch.pool, delegates * rows_left, r);
    if (codec == nullptr)
      reserve_more(batch.addresses, delegates * rows_left, r);
    row.delegates_begin = static_cast<std::uint32_t>(batch.pool.size());
    row.delegates_len = static_cast<std::uint32_t>(delegates);
    for (std::uint64_t i = 0; i < delegates; ++i) {
      AddrId id = kNoAddr;
      if (codec == nullptr) {
        id = static_cast<AddrId>(batch.addresses.size());
        batch.addresses.push_back(decode_address(r));
      } else {
        id = codec->find_address(r);
        if (id == kNoAddr) return false;
      }
      batch.pool.push_back(id);
    }
    row.interests =
        codec == nullptr
            ? std::make_shared<const InterestSummary>(decode_summary(r))
            : codec->decode_pooled(r);
    if (row.interests == nullptr) return false;
    row.process_count = r.varint();
    row.version = r.varint();
    row.alive = r.boolean();
    return true;
  }

  static bool read_rows(Reader& r, RowBatch& batch, Codec* codec) {
    const auto n = checked_count(r);
    reserve_more(batch.rows, n, r);
    for (std::uint64_t i = 0; i < n; ++i) {
      DepthRow dr;
      dr.depth =
          checked_varint<std::uint32_t>(r, "bad row depth", 1, kMaxDepth);
      if (!read_row(r, batch, dr.row, n - i, codec)) return false;
      batch.rows.push_back(std::move(dr));
    }
    return true;
  }

  static RowBatch decode_rows(Reader& r, Codec* codec) {
    if (codec != nullptr) {
      const Reader start = r;
      RowBatch batch(*codec->interns_);
      if (read_rows(r, batch, codec)) return batch;
      ++codec->stats_.decoded_batches;
      r = start;
    }
    RowBatch batch;
    read_rows(r, batch, nullptr);
    return batch;
  }

  static AddrRef decode_addr_ref(Reader& r, Codec* codec) {
    return codec != nullptr ? codec->decode_addr_ref(r)
                            : wire::decode_addr_ref(r);
  }

  static void write(Writer& w, const MessageBase& msg, Codec* codec);
  static MessagePtr read(std::span<const std::uint8_t> data, Codec* codec);
};

void Envelope::write(Writer& w, const MessageBase& msg, Codec* codec) {
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
        write_rows(w, *gossip.piggyback, codec);
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
      write_rows(w, update.rows, codec);
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
      write_rows(w, transfer.rows, codec);
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
}

MessagePtr Envelope::read(std::span<const std::uint8_t> data, Codec* codec) {
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
        msg->sender = decode_addr_ref(r, codec);
        msg->piggyback = std::make_shared<const RowBatch>(decode_rows(r, codec));
      }
      out = std::move(msg);
      break;
    }
    case MsgKind::MembershipDigest: {
      auto msg = std::make_shared<MembershipDigestMsg>();
      msg->sender = decode_addr_ref(r, codec);
      msg->sender_pid =
          checked_varint<ProcessId>(r, "digest sender pid out of range");
      const auto n = checked_count(r);
      reserve_more(msg->digests, n, r);
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
      msg->sender = decode_addr_ref(r, codec);
      msg->rows = decode_rows(r, codec);
      out = std::move(msg);
      break;
    }
    case MsgKind::JoinRequest: {
      auto msg = std::make_shared<JoinRequestMsg>();
      msg->joiner = decode_addr_ref(r, codec);
      msg->joiner_pid = checked_varint<ProcessId>(r, "joiner pid out of range");
      msg->subscription = decode_subscription(r);
      msg->hops = checked_varint<std::uint32_t>(r, "join hops out of range");
      out = std::move(msg);
      break;
    }
    case MsgKind::ViewTransfer: {
      auto msg = std::make_shared<ViewTransferMsg>();
      msg->sender = decode_addr_ref(r, codec);
      msg->rows = decode_rows(r, codec);
      out = std::move(msg);
      break;
    }
    case MsgKind::Leave: {
      auto msg = std::make_shared<LeaveMsg>();
      msg->leaver = decode_addr_ref(r, codec);
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
      msg->sender = decode_addr_ref(r, codec);
      msg->suspect = decode_addr_ref(r, codec);
      out = std::move(msg);
      break;
    }
    case MsgKind::SuspectReply: {
      auto msg = std::make_shared<SuspectReplyMsg>();
      msg->sender = decode_addr_ref(r, codec);
      msg->suspect = decode_addr_ref(r, codec);
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

std::vector<std::uint8_t> encode_message(const MessageBase& msg) {
  Writer w;
  Envelope::write(w, msg, nullptr);
  return std::move(w).take();
}

MessagePtr decode_message(std::span<const std::uint8_t> data) {
  return Envelope::read(data, nullptr);
}

// -- Codec -----------------------------------------------------------------------

namespace {

/// Hash of a summary's bytes, a word at a time (only picks a memo slot).
std::uint64_t hash_bytes(std::span<const std::uint8_t> bytes) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = kFnv1aBasis ^ bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  h = (h ^ tail) * kMul;
  return h ^ (h >> 29);
}

/// A pooled summary's memo key: its address, which the memo's handle keeps
/// to one value for the codec's whole life.
std::uint64_t handle_key(const InterestSummary* summary) {
  // detlint:allow(pointer-hash) picks a memo slot only: the memo is never iterated, serialized or fingerprinted
  return reinterpret_cast<std::uintptr_t>(summary);
}

}  // namespace

std::vector<std::uint8_t> Codec::encode(const MessageBase& msg) {
  Writer w;
  Envelope::write(w, msg, this);
  return std::move(w).take();
}

MessagePtr Codec::decode(std::span<const std::uint8_t> data) {
  return Envelope::read(data, this);
}

MessagePtr Codec::transcode(const MessagePtr& msg) {
  buffer_.clear();
  Envelope::write(buffer_, *msg, this);
  return Envelope::read(buffer_.data(), this);
}

Codec::Memo Codec::keep(std::span<const std::uint8_t> bytes,
                        std::shared_ptr<const InterestSummary> handle) {
  const Memo memo{std::move(handle),
                  static_cast<std::uint32_t>(bytes_.size()),
                  static_cast<std::uint32_t>(bytes.size())};
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  return memo;
}

void Codec::encode_pooled(
    Writer& w, const std::shared_ptr<const InterestSummary>& summary) {
  const std::uint64_t key = handle_key(summary.get());
  const std::uint32_t entry = encoded_index_.find(
      key, [&](std::uint32_t e) { return encoded_[e].handle == summary; });
  if (entry != FlatIndex::npos) {
    ++stats_.encode_hits;
    w.raw(bytes_of(encoded_[entry]));
    return;
  }
  ++stats_.encode_misses;
  const std::size_t begin = w.size();
  wire::encode(w, *summary);
  encoded_.push_back(keep(std::span(w.data()).subspan(begin), summary));
  encoded_index_.add(key, [this](std::uint32_t e) {
    return handle_key(encoded_[e].handle.get());
  });
}

AddrId Codec::find_address(Reader& r) {
  read_components(r, components_);
  return interns_->addrs.find(components_);
}

AddrRef Codec::decode_addr_ref(Reader& r) {
  const AddrId id = find_address(r);
  if (id != kNoAddr) return AddrRef(*interns_, id);
  return AddrRef(Address(components_));
}

std::shared_ptr<const InterestSummary> Codec::decode_pooled(Reader& r) {
  const Reader start = r;
  if (!read_summary<false>(r)) return nullptr;
  const auto bytes = r.read_since(start);
  const std::uint64_t hash = hash_bytes(bytes);
  const std::uint32_t entry =
      decoded_index_.find(hash, [&](std::uint32_t e) {
        const auto held = bytes_of(decoded_[e]);
        return held.size() == bytes.size() &&
               std::memcmp(held.data(), bytes.data(), bytes.size()) == 0;
      });
  if (entry != FlatIndex::npos) {
    ++stats_.decode_hits;
    return decoded_[entry].handle;
  }
  ++stats_.decode_misses;
  Reader again = start;
  decoded_.push_back(
      keep(bytes, interns_->summaries.intern(read_summary<true>(again))));
  decoded_index_.add(hash, [this](std::uint32_t e) {
    return hash_bytes(bytes_of(decoded_[e]));
  });
  return decoded_.back().handle;
}

}  // namespace pmc::wire
