// Golden wire-format fixtures: one checked-in byte vector per encodable
// MsgKind (1-13). These bytes are the frozen format — if any of these tests
// fails after a code change, the change broke compatibility with deployed
// peers and must either be reverted or ship as a new, explicitly versioned
// format. Also: an encode→decode→re-encode property over randomized
// messages (byte-stability), and the guarantee that the sim-only Treecast
// tag is rejected at encode time.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "baselines/treecast.hpp"
#include "common/rng.hpp"
#include "harness/workload.hpp"
#include "wire/messages.hpp"

namespace pmc {
namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  return out;
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const auto b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

/// A fixture address: decoded (wire form) when `in` is null, else an id
/// interned in `in` (the in-memory form a runtime sends).
AddrRef ref(Interns* in, const char* text) {
  if (in == nullptr) return AddrRef(Address::parse(text));
  return AddrRef(*in, in->addrs.intern(Address::parse(text)));
}

/// The canonical one-row batch shared by the membership fixtures: in wire
/// form when `in` is null (its delegate indexes the batch's address list),
/// else in memory (an id of `in`, a pooled summary).
RowBatch canonical_rows(std::uint32_t depth, Interns* in) {
  ViewRow row;
  row.infix = 1;
  row.interests = std::make_shared<const InterestSummary>(
      InterestSummary::from(interval_subscription(0.25, 0.5)));
  row.process_count = 3;
  row.version = 9;
  row.alive = true;
  if (in == nullptr) {
    RowBatch batch;
    batch.addresses = {Address::parse("1.2")};
    const AddrId delegate = 0;
    batch.append(depth, std::move(row), {&delegate, 1});
    return batch;
  }
  RowBatch batch(*in);
  row.interests = in->summaries.intern(row.interests);
  const AddrId delegate = in->addrs.intern(Address::parse("1.2"));
  batch.append(depth, std::move(row), {&delegate, 1});
  return batch;
}

/// One canonical instance of every encodable message kind, constructed
/// exactly as when the fixtures were generated; with `in`, every address
/// and row batch in the in-memory form of that runtime instead.
std::vector<std::pair<std::string, std::shared_ptr<MessageBase>>>
canonical_messages(Interns* in = nullptr) {
  std::vector<std::pair<std::string, std::shared_ptr<MessageBase>>> out;
  {
    auto m = std::make_shared<GossipMsg>();
    m->event = std::make_shared<const Event>(make_event_at(7, 1, 0.25));
    m->rate = 0.5;
    m->round = 2;
    m->depth = 1;
    m->sender = ref(in, "1.1");
    m->piggyback = std::make_shared<const RowBatch>(canonical_rows(2, in));
    out.emplace_back("Gossip", std::move(m));
  }
  {
    auto m = std::make_shared<MembershipDigestMsg>();
    m->sender = ref(in, "1.2");
    m->sender_pid = 5;
    m->digests = {{1, 0, 10}, {2, 3, 20}};
    out.emplace_back("MembershipDigest", std::move(m));
  }
  {
    auto m = std::make_shared<MembershipUpdateMsg>();
    m->sender = ref(in, "0.1");
    m->rows = canonical_rows(1, in);
    out.emplace_back("MembershipUpdate", std::move(m));
  }
  {
    auto m = std::make_shared<JoinRequestMsg>();
    m->joiner = ref(in, "3.3");
    m->joiner_pid = 15;
    m->subscription = interval_subscription(0.25, 0.5);
    m->hops = 2;
    out.emplace_back("JoinRequest", std::move(m));
  }
  {
    auto m = std::make_shared<ViewTransferMsg>();
    m->sender = ref(in, "3.0");
    m->rows = canonical_rows(2, in);
    out.emplace_back("ViewTransfer", std::move(m));
  }
  {
    auto m = std::make_shared<LeaveMsg>();
    m->leaver = ref(in, "2.1");
    out.emplace_back("Leave", std::move(m));
  }
  {
    auto m = std::make_shared<FloodGossipMsg>();
    m->event = std::make_shared<const Event>(make_event_at(0, 1, 0.3));
    m->round = 4;
    out.emplace_back("FloodGossip", std::move(m));
  }
  {
    auto m = std::make_shared<GenuineGossipMsg>();
    m->event = std::make_shared<const Event>(make_event_at(0, 2, 0.6));
    m->round = 1;
    out.emplace_back("GenuineGossip", std::move(m));
  }
  {
    auto m = std::make_shared<SuspectQueryMsg>();
    m->sender = ref(in, "0.0");
    m->suspect = ref(in, "0.1");
    out.emplace_back("SuspectQuery", std::move(m));
  }
  {
    auto m = std::make_shared<SuspectReplyMsg>();
    m->sender = ref(in, "0.1");
    m->suspect = ref(in, "0.2");
    m->heard_recently = true;
    out.emplace_back("SuspectReply", std::move(m));
  }
  {
    auto m = std::make_shared<EventDigestMsg>();
    m->ids = {{1, 2}, {3, 4}};
    out.emplace_back("EventDigest", std::move(m));
  }
  {
    auto m = std::make_shared<EventRequestMsg>();
    m->ids = {{5, 6}};
    out.emplace_back("EventRequest", std::move(m));
  }
  {
    auto m = std::make_shared<EventPayloadMsg>();
    m->events.push_back(
        std::make_shared<const Event>(make_event_at(1, 2, 0.5)));
    out.emplace_back("EventPayload", std::move(m));
  }
  return out;
}

/// The frozen bytes, kind name -> hex. Generated once from the canonical
/// messages above; checked in, never regenerated silently.
///
/// DELIBERATE FORMAT BUMP (adaptive ε/τ PR): Gossip gained the explicit
/// `no_regossip` boolean between `depth` and the piggyback flag, replacing
/// the round = uint32::max "do not re-gossip" sentinel the leaf flood used
/// to smuggle through round arithmetic (decoders now also reject rounds
/// beyond a sanity cap, which would have rejected the old sentinel). Every
/// other message kind's bytes are unchanged.
const std::pair<const char*, const char*> kGoldenVectors[] = {
    {"Gossip",
     "01070101017501000000000000d03f000000000000e03f0201000102010101020101"
     "0201020001017501000000000000d03f000000000000e83f0001000000030901"},
    {"MembershipDigest", "02020102050201000a020314"},
    {"MembershipUpdate",
     "03020001010101010201020001017501000000000000d03f000000000000e83f0001"
     "000000030901"},
    {"JoinRequest",
     "040203030f03020201750501000000000000d03f0201750201000000000000e83f"
     "02"},
    {"ViewTransfer",
     "05020300010201010201020001017501000000000000d03f000000000000e83f0001"
     "000000030901"},
    {"Leave", "06020201"},
    {"FloodGossip", "07000101017501333333333333d33f04"},
    {"GenuineGossip", "08000201017501333333333333e33f01"},
    {"SuspectQuery", "09020000020001"},
    {"SuspectReply", "0a02000102000201"},
    {"EventDigest", "0b0201020304"},
    {"EventRequest", "0c010506"},
    {"EventPayload", "0d01010201017501000000000000e03f"},
};

TEST(WireGolden, CoversEveryEncodableKind) {
  // Kinds 1..13 are encodable; 0 (Other) and 14 (Treecast) are not.
  ASSERT_EQ(std::size(kGoldenVectors), 13u);
  const auto messages = canonical_messages();
  ASSERT_EQ(messages.size(), std::size(kGoldenVectors));
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(messages[i].first, kGoldenVectors[i].first);
    // The wire tag must equal the in-memory kind (and hence i + 1).
    const auto bytes = wire::encode_message(*messages[i].second);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(i + 1)) << messages[i].first;
    EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(messages[i].second->kind));
  }
}

TEST(WireGolden, EncodeMatchesFrozenBytes) {
  const auto messages = canonical_messages();
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const auto bytes = wire::encode_message(*messages[i].second);
    EXPECT_EQ(to_hex(bytes), kGoldenVectors[i].second)
        << "wire format changed for " << messages[i].first
        << " — this breaks deployed peers";
  }
}

TEST(WireGolden, InMemoryFormEncodesTheFrozenBytes) {
  // A runtime sends its addresses as interned ids and its rows as in-memory
  // batches; the codec must put the same frozen bytes on the wire.
  Interns interns;
  const auto messages = canonical_messages(&interns);
  ASSERT_EQ(messages.size(), std::size(kGoldenVectors));
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(to_hex(wire::encode_message(*messages[i].second)),
              kGoldenVectors[i].second)
        << "in-memory form of " << messages[i].first;
  }
}

TEST(WireGolden, FrozenBytesStillDecode) {
  // The decoder must accept bytes produced by any past version, and
  // re-encoding the decoded message must reproduce them exactly.
  for (const auto& [name, hex] : kGoldenVectors) {
    const auto bytes = from_hex(hex);
    MessagePtr decoded;
    ASSERT_NO_THROW(decoded = wire::decode_message(bytes)) << name;
    ASSERT_NE(decoded, nullptr) << name;
    EXPECT_EQ(to_hex(wire::encode_message(*decoded)), hex) << name;
  }
}

// ---------------------------------------------------------------------------
// Randomized round-trip property
// ---------------------------------------------------------------------------

Address random_address(Rng& rng) {
  std::vector<AddrComponent> comps(1 + rng.next_below(3));
  for (auto& c : comps) c = static_cast<AddrComponent>(rng.next_below(100));
  return Address(std::move(comps));
}

Event random_event(Rng& rng) {
  Event e(EventId{rng.next_u64() >> 40, rng.next_u64() >> 40});
  const std::size_t attrs = rng.next_below(4);
  for (std::size_t i = 0; i < attrs; ++i) {
    const std::string name(1, static_cast<char>('a' + i));
    switch (rng.next_below(3)) {
      case 0: e.with(name, static_cast<std::int64_t>(rng.next_below(1000)));
        break;
      case 1: e.with(name, rng.next_double()); break;
      default: e.with(name, rng.bernoulli(0.5) ? "x" : "yy"); break;
    }
  }
  return e;
}

/// Appends a random row of depth 1..4 to the wire-form `batch`.
void add_random_row(Rng& rng, RowBatch& batch) {
  const auto depth = 1 + static_cast<std::uint32_t>(rng.next_below(4));
  ViewRow row;
  row.infix = static_cast<AddrComponent>(rng.next_below(50));
  const std::size_t delegates = 1 + rng.next_below(3);
  std::vector<AddrId> ids;
  for (std::size_t i = 0; i < delegates; ++i) {
    ids.push_back(static_cast<AddrId>(batch.addresses.size()));
    batch.addresses.push_back(random_address(rng));
  }
  row.interests = std::make_shared<const InterestSummary>(
      InterestSummary::from(interval_subscription(rng.next_double(), 0.3)));
  row.process_count = rng.next_below(1000);
  row.version = rng.next_below(100000);
  row.alive = rng.bernoulli(0.8);
  batch.append(depth, std::move(row), ids);
}

std::shared_ptr<MessageBase> random_message(Rng& rng) {
  switch (1 + rng.next_below(13)) {
    case 1: {
      auto m = std::make_shared<GossipMsg>();
      m->event = std::make_shared<const Event>(random_event(rng));
      m->rate = rng.next_double();
      m->round = static_cast<std::uint32_t>(rng.next_below(64));
      m->depth = 1 + static_cast<std::uint32_t>(rng.next_below(4));
      m->no_regossip = rng.bernoulli(0.2);
      if (rng.bernoulli(0.5)) {
        m->sender = AddrRef(random_address(rng));
        RowBatch piggyback;
        add_random_row(rng, piggyback);
        m->piggyback = std::make_shared<const RowBatch>(std::move(piggyback));
      }
      return m;
    }
    case 2: {
      auto m = std::make_shared<MembershipDigestMsg>();
      m->sender = AddrRef(random_address(rng));
      m->sender_pid = static_cast<ProcessId>(rng.next_below(1000));
      const std::size_t n = rng.next_below(5);
      for (std::size_t i = 0; i < n; ++i)
        m->digests.push_back(
            RowDigest{1 + static_cast<std::uint32_t>(rng.next_below(4)),
                      static_cast<AddrComponent>(rng.next_below(50)),
                      rng.next_below(100000)});
      return m;
    }
    case 3: {
      auto m = std::make_shared<MembershipUpdateMsg>();
      m->sender = AddrRef(random_address(rng));
      const std::size_t n = rng.next_below(4);
      for (std::size_t i = 0; i < n; ++i) add_random_row(rng, m->rows);
      return m;
    }
    case 4: {
      auto m = std::make_shared<JoinRequestMsg>();
      m->joiner = AddrRef(random_address(rng));
      m->joiner_pid = static_cast<ProcessId>(rng.next_below(1000));
      m->subscription = interval_subscription(rng.next_double(), 0.4);
      m->hops = static_cast<std::uint32_t>(rng.next_below(16));
      return m;
    }
    case 5: {
      auto m = std::make_shared<ViewTransferMsg>();
      m->sender = AddrRef(random_address(rng));
      const std::size_t n = rng.next_below(4);
      for (std::size_t i = 0; i < n; ++i) add_random_row(rng, m->rows);
      return m;
    }
    case 6: {
      auto m = std::make_shared<LeaveMsg>();
      m->leaver = AddrRef(random_address(rng));
      return m;
    }
    case 7: {
      auto m = std::make_shared<FloodGossipMsg>();
      m->event = std::make_shared<const Event>(random_event(rng));
      m->round = static_cast<std::uint32_t>(rng.next_below(64));
      return m;
    }
    case 8: {
      auto m = std::make_shared<GenuineGossipMsg>();
      m->event = std::make_shared<const Event>(random_event(rng));
      m->round = static_cast<std::uint32_t>(rng.next_below(64));
      return m;
    }
    case 9: {
      auto m = std::make_shared<SuspectQueryMsg>();
      m->sender = AddrRef(random_address(rng));
      m->suspect = AddrRef(random_address(rng));
      return m;
    }
    case 10: {
      auto m = std::make_shared<SuspectReplyMsg>();
      m->sender = AddrRef(random_address(rng));
      m->suspect = AddrRef(random_address(rng));
      m->heard_recently = rng.bernoulli(0.5);
      return m;
    }
    case 11: {
      auto m = std::make_shared<EventDigestMsg>();
      const std::size_t n = rng.next_below(6);
      for (std::size_t i = 0; i < n; ++i)
        m->ids.push_back(EventId{rng.next_below(1000), rng.next_below(1000)});
      return m;
    }
    case 12: {
      auto m = std::make_shared<EventRequestMsg>();
      const std::size_t n = rng.next_below(6);
      for (std::size_t i = 0; i < n; ++i)
        m->ids.push_back(EventId{rng.next_below(1000), rng.next_below(1000)});
      return m;
    }
    default: {
      auto m = std::make_shared<EventPayloadMsg>();
      const std::size_t n = rng.next_below(4);
      for (std::size_t i = 0; i < n; ++i)
        m->events.push_back(std::make_shared<const Event>(random_event(rng)));
      return m;
    }
  }
}

TEST(WireGolden, RandomizedRoundTripIsByteStable) {
  // encode → decode → encode must be the identity on bytes: the decoder
  // loses nothing and the encoder is deterministic. (One decode may
  // canonicalize predicate trees, so the property is asserted from the
  // first re-encoding on, and additionally checked to be idempotent.)
  Rng rng(0x601de45ULL);
  for (int trial = 0; trial < 500; ++trial) {
    const auto msg = random_message(rng);
    const auto b1 = wire::encode_message(*msg);
    const auto m2 = wire::decode_message(b1);
    ASSERT_NE(m2, nullptr);
    EXPECT_EQ(m2->kind, msg->kind);
    const auto b2 = wire::encode_message(*m2);
    EXPECT_EQ(to_hex(b2), to_hex(b1)) << "trial " << trial;
    const auto m3 = wire::decode_message(b2);
    const auto b3 = wire::encode_message(*m3);
    EXPECT_EQ(to_hex(b3), to_hex(b2)) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// The per-runtime codec decodes what the stateless decode decodes
// ---------------------------------------------------------------------------

/// The form a message's rows and addresses came back in: "memory" when
/// every row batch and AddrRef is in `in`'s id space, "decoded" when none
/// is, "mixed" otherwise. Kinds without either are "memory".
std::string form_of(const MessageBase& m, const Interns& in) {
  std::vector<const Interns*> spaces;
  const auto add = [&](const AddrRef& a) { spaces.push_back(a.interns); };
  switch (m.kind) {
    case MsgKind::Gossip: {
      const auto& g = static_cast<const GossipMsg&>(m);
      if (g.has_piggyback()) {
        add(g.sender);
        spaces.push_back(g.piggyback->interns);
      }
      break;
    }
    case MsgKind::MembershipDigest:
      add(static_cast<const MembershipDigestMsg&>(m).sender);
      break;
    case MsgKind::MembershipUpdate:
      add(static_cast<const MembershipUpdateMsg&>(m).sender);
      spaces.push_back(static_cast<const MembershipUpdateMsg&>(m).rows.interns);
      break;
    case MsgKind::JoinRequest:
      add(static_cast<const JoinRequestMsg&>(m).joiner);
      break;
    case MsgKind::ViewTransfer:
      add(static_cast<const ViewTransferMsg&>(m).sender);
      spaces.push_back(static_cast<const ViewTransferMsg&>(m).rows.interns);
      break;
    case MsgKind::Leave:
      add(static_cast<const LeaveMsg&>(m).leaver);
      break;
    case MsgKind::SuspectQuery:
      add(static_cast<const SuspectQueryMsg&>(m).sender);
      add(static_cast<const SuspectQueryMsg&>(m).suspect);
      break;
    case MsgKind::SuspectReply:
      add(static_cast<const SuspectReplyMsg&>(m).sender);
      add(static_cast<const SuspectReplyMsg&>(m).suspect);
      break;
    default:
      break;
  }
  const auto ours = std::count(spaces.begin(), spaces.end(), &in);
  if (ours == static_cast<std::ptrdiff_t>(spaces.size())) return "memory";
  return ours == 0 ? "decoded" : "mixed";
}

/// Every address of depth 1 or 2 random_message can draw (components below
/// 100): rows and addresses made of those decode in the runtime's form,
/// and any naming a depth-3 address in the decoded form.
void intern_short_addresses(Interns& in) {
  for (AddrComponent a = 0; a < 100; ++a) {
    in.addrs.intern(Address(std::vector<AddrComponent>{a}));
    for (AddrComponent b = 0; b < 100; ++b)
      in.addrs.intern(Address(std::vector<AddrComponent>{a, b}));
  }
}

TEST(WireGolden, CodecDecodesWhatTheStatelessDecodeDoes) {
  // A runtime's codec writes encode_message's bytes and decodes them into
  // its own ids and pooled summaries; what it returns must re-encode to the
  // bytes the stateless decode's result re-encodes to, first with a cold
  // memo and again with a warm one.
  Interns interns;
  intern_short_addresses(interns);
  std::vector<std::shared_ptr<MessageBase>> messages;
  for (const auto& [name, m] : canonical_messages()) messages.push_back(m);
  for (const auto& [name, m] : canonical_messages(&interns))
    messages.push_back(m);
  Rng rng(0xc0dec5ULL);
  for (int i = 0; i < 2000; ++i) messages.push_back(random_message(rng));

  wire::Codec codec(interns);
  const std::size_t addresses = interns.addrs.size();
  std::map<std::string, int> forms;
  wire::Codec::Stats cold;
  for (const std::string pass : {"cold", "warm"}) {
    for (std::size_t i = 0; i < messages.size(); ++i) {
      const auto bytes = wire::encode_message(*messages[i]);
      ASSERT_EQ(to_hex(codec.encode(*messages[i])), to_hex(bytes))
          << pass << " message " << i;
      const auto ours = codec.decode(bytes);
      const auto stateless = wire::decode_message(bytes);
      const auto expected = to_hex(wire::encode_message(*stateless));
      EXPECT_EQ(to_hex(wire::encode_message(*ours)), expected)
          << pass << " message " << i;
      EXPECT_EQ(to_hex(codec.encode(*ours)), expected)
          << pass << " message " << i;
      ++forms[form_of(*ours, interns)];
    }
    if (pass == "cold") cold = codec.stats();
  }
  // The warm pass found every summary it had decoded before, and the
  // codec interned no address.
  EXPECT_GT(cold.decode_misses, 0u);
  EXPECT_EQ(codec.stats().decode_misses, cold.decode_misses);
  EXPECT_GT(codec.stats().decode_hits, cold.decode_hits);
  EXPECT_EQ(interns.addrs.size(), addresses);
  // Both forms (and messages mixing them) came back.
  EXPECT_GT(forms["memory"], 0);
  EXPECT_GT(forms["decoded"], 0);
  EXPECT_GT(forms["mixed"], 0);
  EXPECT_GT(codec.stats().decoded_batches, 0u);
}

TEST(WireGolden, NoRegossipFlagRoundTrips) {
  // The leaf flood's "do not re-gossip" state travels as an explicit flag
  // (it used to be round = uint32::max, which leaked a sentinel into round
  // arithmetic).
  auto m = std::make_shared<GossipMsg>();
  m->event = std::make_shared<const Event>(make_event_at(3, 9, 0.75));
  m->rate = 1.0;
  m->round = 0;
  m->depth = 2;
  m->no_regossip = true;
  const auto bytes = wire::encode_message(*m);
  const auto decoded = wire::decode_message(bytes);
  ASSERT_EQ(decoded->kind, MsgKind::Gossip);
  const auto& gossip = static_cast<const GossipMsg&>(*decoded);
  EXPECT_TRUE(gossip.no_regossip);
  EXPECT_EQ(gossip.round, 0u);
  EXPECT_EQ(to_hex(wire::encode_message(gossip)), to_hex(bytes));
}

TEST(WireGolden, SentinelRoundsRejectedBothWays) {
  // Rounds are O(log n); anything near integer range is a corrupted frame
  // or the retired sentinel. The encoder refuses to emit it and the
  // decoder refuses to accept it, so sentinel-sized values can never reach
  // a live bound comparison.
  auto m = std::make_shared<GossipMsg>();
  m->event = std::make_shared<const Event>(make_event_at(3, 9, 0.75));
  m->rate = 0.5;
  m->round = std::numeric_limits<std::uint32_t>::max();
  m->depth = 1;
  EXPECT_THROW(wire::encode_message(*m), std::logic_error);

  m->round = 1;
  auto bytes = wire::encode_message(*m);
  // Patch the round varint (1 byte, right after the 8-byte rate f64 that
  // follows the 14-byte single-attribute event) to a 5-byte uint32::max
  // varint.
  const std::size_t round_at = 1 + 14 + 8;
  ASSERT_EQ(bytes[round_at], 0x01);
  std::vector<std::uint8_t> patched(bytes.begin(),
                                    bytes.begin() +
                                        static_cast<std::ptrdiff_t>(round_at));
  for (int i = 0; i < 4; ++i) patched.push_back(0xff);
  patched.push_back(0x0f);
  patched.insert(patched.end(),
                 bytes.begin() + static_cast<std::ptrdiff_t>(round_at) + 1,
                 bytes.end());
  EXPECT_THROW(wire::decode_message(patched), DecodeError);
}

TEST(WireGolden, SimOnlyTreecastRejectedAtEncode) {
  // Treecast (kind 14) deliberately has no wire encoding: it exists only as
  // a simulation baseline. encode_message must refuse it rather than emit a
  // tag deployed peers would misparse.
  TreecastMsg msg;
  msg.event = std::make_shared<const Event>(make_event_at(0, 1, 0.5));
  msg.depth = 1;
  EXPECT_THROW(wire::encode_message(msg), std::logic_error);
}

TEST(WireGolden, UntaggedOtherRejectedAtEncode) {
  struct Plain final : MessageBase {};  // kind == MsgKind::Other
  EXPECT_THROW(wire::encode_message(Plain{}), std::logic_error);
}

}  // namespace
}  // namespace pmc
