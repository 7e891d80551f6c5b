#include "wire/messages.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "harness/workload.hpp"

namespace pmc {
namespace {

template <typename T, typename EncodeFn, typename DecodeFn>
T round_trip(const T& value, EncodeFn&& enc, DecodeFn&& dec) {
  Writer w;
  enc(w, value);
  Reader r(w.data());
  T out = dec(r);
  r.expect_end();
  return out;
}

TEST(Codec, VarintRoundTrip) {
  for (const std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL,
        0xffffffffULL, ~0ULL}) {
    Writer w;
    w.varint(v);
    Reader r(w.data());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(Codec, VarintCompactness) {
  Writer w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
  Writer w2;
  w2.varint(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Codec, SignedVarintRoundTrip) {
  const std::int64_t cases[] = {
      0, 1, -1, 63, -64, 1000000, -1000000,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : cases) {
    Writer w;
    w.svarint(v);
    Reader r(w.data());
    EXPECT_EQ(r.svarint(), v);
  }
}

TEST(Codec, DoubleRoundTripExact) {
  for (const double v : {0.0, -0.0, 1.5, -3.25e300, 1e-308,
                         std::numeric_limits<double>::infinity()}) {
    Writer w;
    w.f64(v);
    Reader r(w.data());
    const double out = r.f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(Codec, StringRoundTrip) {
  Writer w;
  w.str("hello");
  w.str("");
  w.str(std::string("\0binary\xff", 8));
  Reader r(w.data());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str().size(), 8u);
}

TEST(Codec, TruncatedInputThrows) {
  Writer w;
  w.f64(1.0);
  for (std::size_t cut = 0; cut < 8; ++cut) {
    Reader r(std::span(w.data().data(), cut));
    EXPECT_THROW(r.f64(), DecodeError);
  }
}

TEST(Codec, OverlongVarintThrows) {
  std::vector<std::uint8_t> bad(11, 0x80);
  Reader r(bad);
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Codec, BadBooleanThrows) {
  const std::uint8_t bad[] = {7};
  Reader r(bad);
  EXPECT_THROW(r.boolean(), DecodeError);
}

TEST(Codec, StringLengthBeyondInputThrows) {
  Writer w;
  w.varint(100);
  w.u8('x');
  Reader r(w.data());
  EXPECT_THROW(r.str(), DecodeError);
}

TEST(WireValue, AllKindsRoundTrip) {
  const Value values[] = {Value(42), Value(-7), Value(2.5), Value("Bob")};
  for (const Value& v : values) {
    const auto out = round_trip(v, [](Writer& w, const Value& x) {
      wire::encode(w, x);
    }, [](Reader& r) { return wire::decode_value(r); });
    EXPECT_EQ(out, v);
  }
}

TEST(WireEvent, RoundTripPreservesIdAndAttributes) {
  Event e(EventId{3, 99});
  e.with("b", 2).with("c", 41.5).with("e", "Bob").with("z", -5);
  const auto out = round_trip(e, [](Writer& w, const Event& x) {
    wire::encode(w, x);
  }, [](Reader& r) { return wire::decode_event(r); });
  EXPECT_EQ(out.id(), e.id());
  EXPECT_EQ(out.size(), e.size());
  EXPECT_EQ(out.get("b"), e.get("b"));
  EXPECT_EQ(out.get("e"), e.get("e"));
}

TEST(WirePredicate, SemanticRoundTrip) {
  const char* texts[] = {
      "true",
      "false",
      "b == 2",
      "b > 1 && 20.0 < c && c < 30.0 && z <= 50000",
      "e == \"Bob\" || e == \"Tom\"",
      "!(b == 2 && e == \"x\")",
      "(a == 1 || a == 2) && (b == 3 || b == 4)",
  };
  Rng rng(5);
  for (const auto* text : texts) {
    const auto original = Subscription::parse(text);
    const auto decoded = round_trip(
        original,
        [](Writer& w, const Subscription& s) { wire::encode(w, s); },
        [](Reader& r) { return wire::decode_subscription(r); });
    for (int trial = 0; trial < 200; ++trial) {
      Event e;
      e.with("a", static_cast<std::int64_t>(rng.next_below(5)))
          .with("b", static_cast<std::int64_t>(rng.next_below(6)))
          .with("c", rng.next_double() * 60.0)
          .with("z", static_cast<std::int64_t>(rng.next_below(100000)))
          .with("e", rng.bernoulli(0.5) ? "Bob" : "Tom");
      EXPECT_EQ(decoded.match(e), original.match(e)) << text;
    }
  }
}

TEST(WirePredicate, DepthBombRejected) {
  // 100 nested Not tags exceed the recursion limit.
  Writer w;
  for (int i = 0; i < 100; ++i) w.u8(5);
  w.u8(0);
  Reader r(w.data());
  EXPECT_THROW(wire::decode_predicate(r), DecodeError);
}

TEST(WireInterval, RoundTripPreservesBounds) {
  const Interval iv{0.25, 0.75, false, true};
  const auto out = round_trip(iv, [](Writer& w, const Interval& x) {
    wire::encode(w, x);
  }, [](Reader& r) { return wire::decode_interval(r); });
  EXPECT_EQ(out, iv);
}

TEST(WireIntervalSet, RoundTripCanonical) {
  // An interval set travels as a summary's union for one attribute.
  InterestSummary s =
      InterestSummary::from(Subscription::parse("x >= 0 && x <= 1"));
  s.merge(InterestSummary::from(Subscription::parse("x >= 5 && x < 7")));
  IntervalSet set;
  set.insert(Interval{0.0, 1.0, false, false});
  set.insert(Interval{5.0, 7.0, false, true});
  ASSERT_TRUE(s.numeric_unions().contains("x"));
  ASSERT_EQ(s.numeric_unions().find("x")->second, set);
  const auto out = round_trip(s, [](Writer& w, const InterestSummary& x) {
    wire::encode(w, x);
  }, [](Reader& r) { return wire::decode_summary(r); });
  ASSERT_TRUE(out.numeric_unions().contains("x"));
  EXPECT_EQ(out.numeric_unions().find("x")->second, set);
}

TEST(WireSummary, RepeatedAttributeKeepsTheFirstUnion) {
  // A summary whose bytes list attribute "u" twice decodes to its first
  // union, as it did when the unions were a std::map filled by emplace.
  IntervalSet first(Interval{0.0, 1.0, false, true});
  IntervalSet second(Interval{5.0, 6.0, false, false});
  Writer w;
  w.boolean(false);
  w.varint(2);
  w.str("u");
  wire::encode(w, first);
  w.str("u");
  wire::encode(w, second);
  w.varint(0);  // string unions
  w.varint(0);  // clauses
  w.varint(0);  // opaque predicates
  Reader r(w.data());
  const InterestSummary out = wire::decode_summary(r);
  r.expect_end();
  ASSERT_EQ(out.numeric_unions().size(), 1u);
  EXPECT_EQ(out.numeric_unions().find("u")->second, first);
}

TEST(WireSummary, ExactRoundTrip) {
  InterestSummary s = InterestSummary::from(
      Subscription::parse("b > 3 && 10.0 < c && c < 220.0"));
  s.merge(InterestSummary::from(Subscription::parse("u >= 0.1 && u < 0.4")));
  s.merge(InterestSummary::from(Subscription::parse("e == \"Bob\"")));
  s.merge(InterestSummary::from(Subscription::parse("e != \"x\"")));  // opaque
  const auto out = round_trip(s, [](Writer& w, const InterestSummary& x) {
    wire::encode(w, x);
  }, [](Reader& r) { return wire::decode_summary(r); });
  // Structural equality except opaque predicates (pointer identity differs),
  // so compare semantics over a grid.
  Rng rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    Event e;
    e.with("b", static_cast<std::int64_t>(rng.next_below(8)))
        .with("c", rng.next_double() * 250.0)
        .with("u", rng.next_double())
        .with("e", rng.bernoulli(0.3) ? "Bob" : "x");
    EXPECT_EQ(out.match(e), s.match(e));
  }
  EXPECT_EQ(out.is_wildcard(), s.is_wildcard());
  EXPECT_EQ(out.numeric_unions(), s.numeric_unions());
  EXPECT_EQ(out.string_unions(), s.string_unions());
}

TEST(WireAddress, RoundTrip) {
  const auto a = Address::parse("128.178.73.3");
  const auto out = round_trip(a, [](Writer& w, const Address& x) {
    wire::encode(w, x);
  }, [](Reader& r) { return wire::decode_address(r); });
  EXPECT_EQ(out, a);
}

TEST(WireViewRow, RoundTrip) {
  // A decoded batch: delegates index the batch's address list. The first
  // row has one delegate, and the second row, the one under test, two.
  MembershipUpdateMsg msg;
  msg.sender = AddrRef(Address::parse("9.9"));
  msg.rows.addresses = {Address::parse("9.9"), Address::parse("128.178.73.3"),
                        Address::parse("128.178.73.17")};
  ViewRow first;
  first.infix = 9;
  first.interests = std::make_shared<const InterestSummary>(
      InterestSummary::from(Subscription()));
  const AddrId first_ids[] = {0};
  msg.rows.append(1, first, first_ids);
  ViewRow row;
  row.infix = 73;
  row.interests = std::make_shared<const InterestSummary>(
      InterestSummary::from(Subscription::parse("b > 0")));
  row.process_count = 21;
  row.version = 99;
  row.alive = false;
  const AddrId ids[] = {1, 2};
  msg.rows.append(2, row, ids);
  const auto decoded = wire::decode_message(wire::encode_message(msg));
  const auto& rows = static_cast<const MembershipUpdateMsg&>(*decoded).rows;
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.interns, nullptr);
  const ViewRow& out = rows.rows[1].row;
  EXPECT_EQ(rows.rows[1].depth, 2u);
  EXPECT_EQ(out.infix, row.infix);
  // Decoding appends each row's delegates to the batch's address list and
  // their indices to its pool, and the row points at that slice.
  EXPECT_EQ(out.delegates_begin, 1u);
  EXPECT_EQ(out.delegates_len, 2u);
  EXPECT_EQ(rows.pool, (std::vector<AddrId>{0, 1, 2}));
  EXPECT_TRUE(std::ranges::equal(rows.delegates(out),
                                 std::vector<AddrId>{1, 2}));
  EXPECT_EQ(rows.addresses, msg.rows.addresses);
  EXPECT_EQ(out.process_count, row.process_count);
  EXPECT_EQ(out.version, row.version);
  EXPECT_EQ(out.alive, row.alive);
  EXPECT_EQ(*out.interests, *row.interests);
}

TEST(WireViewRow, BothBatchFormsEncodeAlike) {
  // An in-memory row names its delegates by the runtime's ids; encoding
  // resolves them, so it writes the bytes of the same row in wire form.
  // So does the message's sender, in either form.
  Interns interns;
  interns.addrs.intern(Address::parse("5.5"));  // ids differ from indices
  MembershipUpdateMsg local;
  local.rows = RowBatch(interns);
  MembershipUpdateMsg decoded;
  decoded.rows.addresses = {Address::parse("128.178.73.17"),
                            Address::parse("128.178.73.3")};
  ViewRow row;
  row.infix = 73;
  row.interests = interns.summaries.intern(
      InterestSummary::from(Subscription::parse("b > 0")));
  const AddrId runtime_ids[] = {
      interns.addrs.intern(decoded.rows.addresses[0]),
      interns.addrs.intern(decoded.rows.addresses[1])};
  const AddrId wire_ids[] = {0, 1};
  local.rows.append(1, row, runtime_ids);
  decoded.rows.append(1, row, wire_ids);
  local.sender = AddrRef(interns, runtime_ids[1]);
  decoded.sender = AddrRef(decoded.rows.addresses[1]);
  EXPECT_EQ(wire::encode_message(local), wire::encode_message(decoded));
}

TEST(WireMessage, GossipEnvelope) {
  GossipMsg msg;
  msg.event = std::make_shared<const Event>(make_event_at(1, 2, 0.5));
  msg.rate = 0.25;
  msg.round = 3;
  msg.depth = 2;
  const auto bytes = wire::encode_message(msg);
  const auto decoded = wire::decode_message(bytes);
  const auto* out = dynamic_cast<const GossipMsg*>(decoded.get());
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->event->id(), msg.event->id());
  EXPECT_DOUBLE_EQ(out->rate, 0.25);
  EXPECT_EQ(out->round, 3u);
  EXPECT_EQ(out->depth, 2u);
}

TEST(WireMessage, MembershipDigestEnvelope) {
  MembershipDigestMsg msg;
  msg.sender = AddrRef(Address::parse("1.2.3"));
  msg.sender_pid = 7;
  msg.digests = {{1, 0, 10}, {2, 5, 20}, {3, 9, 30}};
  const auto bytes = wire::encode_message(msg);
  const auto decoded = wire::decode_message(bytes);
  const auto* out = dynamic_cast<const MembershipDigestMsg*>(decoded.get());
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->sender.address(), msg.sender.address());
  EXPECT_EQ(out->sender.interns, nullptr);
  ASSERT_EQ(out->digests.size(), 3u);
  EXPECT_EQ(out->digests[1].infix, 5);
  EXPECT_EQ(out->digests[2].version, 30u);
}

TEST(WireMessage, AllEnvelopesRoundTrip) {
  std::vector<std::shared_ptr<MessageBase>> messages;
  {
    auto m = std::make_shared<MembershipUpdateMsg>();
    m->sender = AddrRef(Address::parse("0.1"));
    ViewRow row;
    row.infix = 1;
    row.interests = std::make_shared<const InterestSummary>(
        InterestSummary::from(Subscription()));
    row.process_count = 1;
    row.version = 5;
    m->rows.addresses = {Address::parse("0.1")};
    const AddrId delegate = 0;
    m->rows.append(2, row, {&delegate, 1});
    messages.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<JoinRequestMsg>();
    m->joiner = AddrRef(Address::parse("3.3"));
    m->joiner_pid = 15;
    m->subscription = Subscription::parse("u < 0.5");
    m->hops = 2;
    messages.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<ViewTransferMsg>();
    m->sender = AddrRef(Address::parse("3.0"));
    messages.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<LeaveMsg>();
    m->leaver = AddrRef(Address::parse("2.1"));
    messages.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<FloodGossipMsg>();
    m->event = std::make_shared<const Event>(make_event_at(0, 1, 0.3));
    m->round = 4;
    messages.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<GenuineGossipMsg>();
    m->event = std::make_shared<const Event>(make_event_at(0, 2, 0.6));
    m->round = 1;
    messages.push_back(std::move(m));
  }
  for (const auto& msg : messages) {
    const auto bytes = wire::encode_message(*msg);
    EXPECT_NO_THROW({
      const auto decoded = wire::decode_message(bytes);
      EXPECT_NE(decoded, nullptr);
    });
  }
}

TEST(WireMessage, UnknownTypeRejectedAtEncode) {
  struct Alien final : MessageBase {};
  EXPECT_THROW(wire::encode_message(Alien{}), std::logic_error);
}

TEST(WireMessage, TrailingBytesRejected) {
  LeaveMsg msg;
  msg.leaver = AddrRef(Address::parse("1.1"));
  auto bytes = wire::encode_message(msg);
  bytes.push_back(0x00);
  EXPECT_THROW(wire::decode_message(bytes), DecodeError);
}

TEST(WireMessage, NonWireKindsRejectedAtDecode) {
  // Only MsgKind values 1..13 are wire tags: a valid body behind tag 0
  // (Other), 14 (Treecast) or any larger byte must not decode.
  LeaveMsg msg;
  msg.leaver = AddrRef(Address::parse("1.1"));
  auto bytes = wire::encode_message(msg);
  for (const int tag : {0, 14, 15, 255}) {
    bytes[0] = static_cast<std::uint8_t>(tag);
    EXPECT_THROW(wire::decode_message(bytes), DecodeError) << tag;
  }
}

// Hand-built frames for the integer fields the decoder narrows to 32 bits
// (or to a depth byte): a value that does not fit must be rejected, never
// truncated into a different, valid-looking message.
constexpr std::uint64_t kPastU32 = (1ULL << 32) + 7;

std::vector<std::uint8_t> digest_frame(std::uint64_t sender_pid,
                                       std::uint64_t depth) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgKind::MembershipDigest));
  wire::encode(w, Address::parse("1.2"));
  w.varint(sender_pid);
  w.varint(1);  // one row digest
  w.varint(depth);
  w.varint(3);  // infix
  w.varint(9);  // version
  return std::move(w).take();
}

std::vector<std::uint8_t> join_frame(std::uint64_t joiner_pid,
                                     std::uint64_t hops) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgKind::JoinRequest));
  wire::encode(w, Address::parse("3.3"));
  w.varint(joiner_pid);
  wire::encode(w, Subscription::parse("u < 0.5"));
  w.varint(hops);
  return std::move(w).take();
}

std::vector<std::uint8_t> round_frame(MsgKind tag, std::uint64_t round) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(tag));
  wire::encode(w, make_event_at(0, 1, 0.3));
  w.varint(round);
  return std::move(w).take();
}

TEST(WireMessage, DigestSenderPidAndDepthMustFit) {
  const auto ok = wire::decode_message(digest_frame(5, 2));
  const auto* digest = dynamic_cast<const MembershipDigestMsg*>(ok.get());
  ASSERT_NE(digest, nullptr);
  EXPECT_EQ(digest->sender_pid, 5u);
  ASSERT_EQ(digest->digests.size(), 1u);
  EXPECT_EQ(digest->digests[0].depth, 2u);

  EXPECT_THROW(wire::decode_message(digest_frame(kPastU32, 2)), DecodeError);
  // Row digest depths share DepthRow's 1..255 range.
  EXPECT_THROW(wire::decode_message(digest_frame(5, 1ULL << 32)),
               DecodeError);
  EXPECT_THROW(wire::decode_message(digest_frame(5, 0)), DecodeError);
  EXPECT_THROW(wire::decode_message(digest_frame(5, 256)), DecodeError);
}

TEST(WireMessage, JoinRequestPidAndHopsMustFit) {
  const auto ok = wire::decode_message(join_frame(15, 2));
  const auto* join = dynamic_cast<const JoinRequestMsg*>(ok.get());
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->joiner_pid, 15u);
  EXPECT_EQ(join->hops, 2u);

  // Truncated, pid 2^32 + 7 would address the view transfer to pid 7.
  EXPECT_THROW(wire::decode_message(join_frame(kPastU32, 2)), DecodeError);
  EXPECT_THROW(wire::decode_message(join_frame(15, kPastU32)), DecodeError);
}

TEST(WireMessage, BaselineGossipRoundsMustFit) {
  const auto flood =
      wire::decode_message(round_frame(MsgKind::FloodGossip, 4));
  EXPECT_EQ(dynamic_cast<const FloodGossipMsg&>(*flood).round, 4u);
  const auto genuine =
      wire::decode_message(round_frame(MsgKind::GenuineGossip, 4));
  EXPECT_EQ(dynamic_cast<const GenuineGossipMsg&>(*genuine).round, 4u);

  for (const auto tag : {MsgKind::FloodGossip, MsgKind::GenuineGossip}) {
    EXPECT_THROW(wire::decode_message(round_frame(tag, kPastU32)),
                 DecodeError)
        << static_cast<int>(tag);
  }
}

/// Random junk must decode or throw DecodeError, never crash.
template <typename Decode>
void fuzz_random_bytes(Decode&& decode) {
  Rng rng(0xf0220ULL);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    try {
      (void)decode(std::span<const std::uint8_t>(junk));
    } catch (const DecodeError&) {
      // expected for almost every input
    }
  }
}

/// A MembershipUpdate from 1.2.3 carrying one row, delegated to 1.2.3.
std::vector<std::uint8_t> valid_update_frame() {
  MembershipUpdateMsg msg;
  msg.sender = AddrRef(Address::parse("1.2.3"));
  ViewRow row;
  row.infix = 2;
  row.interests = std::make_shared<const InterestSummary>(
      InterestSummary::from(Subscription::parse("b > 0")));
  row.process_count = 3;
  row.version = 8;
  msg.rows.addresses = {Address::parse("1.2.3")};
  const AddrId delegate = 0;
  msg.rows.append(1, row, {&delegate, 1});
  return wire::encode_message(msg);
}

/// Every proper prefix of `bytes` must throw DecodeError.
template <typename Decode>
void expect_truncations_rejected(const std::vector<std::uint8_t>& bytes,
                                 Decode&& decode) {
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    try {
      (void)decode(std::span(bytes.data(), cut));
      // Some prefixes may decode to a shorter valid message only if the
      // format were self-delimiting per field — with expect_end they can't.
      ADD_FAILURE() << "truncation at " << cut << " decoded successfully";
    } catch (const DecodeError&) {
    }
  }
}

TEST(WireMessage, FuzzRandomBytesNeverCrash) {
  // Decoders must reject garbage with DecodeError, never UB/crash.
  fuzz_random_bytes(wire::decode_message);
  SUCCEED();
}

TEST(WireMessage, FuzzTruncationsOfValidMessage) {
  expect_truncations_rejected(valid_update_frame(), wire::decode_message);
}

// -- The per-runtime codec -----------------------------------------------------

/// A codec on a runtime that interned 1.2.3, its memo warmed by the valid
/// frame (which it then decodes in the runtime's form).
struct WarmCodec {
  Interns interns;
  wire::Codec codec{interns};
  std::vector<std::uint8_t> frame = valid_update_frame();

  WarmCodec() {
    interns.addrs.intern(Address::parse("1.2.3"));
    const auto msg = codec.decode(frame);
    EXPECT_EQ(static_cast<const MembershipUpdateMsg&>(*msg).rows.interns,
              &interns);
    EXPECT_EQ(codec.stats().decode_misses, 1u);
  }
};

TEST(WireCodec, TruncationsThroughAWarmMemoAreRejected) {
  // The cuts past the frame's summary find it in the memo; the bytes
  // around it must still be read and checked.
  WarmCodec warm;
  expect_truncations_rejected(warm.frame,
                              [&](std::span<const std::uint8_t> b) {
                                return warm.codec.decode(b);
                              });
  EXPECT_GT(warm.codec.stats().decode_hits, 0u);
}

TEST(WireCodec, JunkThroughAWarmMemoNeverCrashes) {
  WarmCodec warm;
  fuzz_random_bytes(
      [&](std::span<const std::uint8_t> b) { return warm.codec.decode(b); });
  // The valid frame with one byte changed: the codec must reject exactly
  // what the stateless decode rejects, and decode the rest alike.
  Rng rng(0xb17f11ULL);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = warm.frame;
    bytes[rng.next_below(bytes.size())] =
        static_cast<std::uint8_t>(rng.next_below(256));
    MessagePtr stateless;
    try {
      stateless = wire::decode_message(bytes);
    } catch (const DecodeError&) {
    }
    if (stateless == nullptr) {
      EXPECT_THROW(warm.codec.decode(bytes), DecodeError) << "trial " << trial;
      continue;
    }
    MessagePtr ours;
    ASSERT_NO_THROW(ours = warm.codec.decode(bytes)) << "trial " << trial;
    EXPECT_EQ(wire::encode_message(*ours), wire::encode_message(*stateless))
        << "trial " << trial;
  }
}

TEST(WireCodec, OpaqueSummariesNeverShareAHandle) {
  // InterestSummary compares opaque predicates by pointer, so a shared
  // handle would make recompaction see "unchanged" where a fresh decode
  // does not: such a batch decodes as decode_message decodes it.
  Interns interns;
  const AddrId self = interns.addrs.intern(Address::parse("1.2"));
  MembershipUpdateMsg msg;
  msg.sender = AddrRef(interns, self);
  msg.rows = RowBatch(interns);
  ViewRow row;
  row.infix = 2;
  row.interests = interns.summaries.intern(
      InterestSummary::from(Subscription::parse("e != \"x\"")));
  ASSERT_FALSE(row.interests->opaque().empty());
  msg.rows.append(1, row, {&self, 1});
  wire::Codec codec(interns);
  const auto bytes = codec.encode(msg);
  EXPECT_EQ(bytes, wire::encode_message(msg));
  const auto first = codec.decode(bytes);
  const auto second = codec.decode(bytes);
  const auto& a = static_cast<const MembershipUpdateMsg&>(*first);
  const auto& b = static_cast<const MembershipUpdateMsg&>(*second);
  EXPECT_EQ(a.rows.interns, nullptr);
  EXPECT_EQ(b.rows.interns, nullptr);
  EXPECT_NE(a.rows.rows[0].row.interests, b.rows.rows[0].row.interests);
  EXPECT_EQ(codec.stats().decoded_batches, 2u);
  // The sender is still the runtime's id.
  EXPECT_EQ(a.sender.interns, &interns);
  EXPECT_EQ(a.sender.id, self);
}

TEST(WireCodec, AddressesNeverInternedStayDecoded) {
  // The codec finds addresses, it never interns them: ids are first-intern
  // order, and a receiver interns an address only when it keeps it.
  Interns interns;
  const AddrId sender = interns.addrs.intern(Address::parse("1.2"));
  MembershipUpdateMsg msg;
  msg.sender = AddrRef(Address::parse("1.2"));
  ViewRow row;
  row.infix = 7;
  row.interests = std::make_shared<const InterestSummary>(
      InterestSummary::from(Subscription::parse("b > 0")));
  msg.rows.addresses = {Address::parse("7.7")};
  const AddrId delegate = 0;
  msg.rows.append(1, row, {&delegate, 1});
  LeaveMsg leave;
  leave.leaver = AddrRef(Address::parse("7.7"));

  wire::Codec codec(interns);
  const std::size_t addresses = interns.addrs.size();
  const auto out = codec.decode(wire::encode_message(msg));
  const auto& update = static_cast<const MembershipUpdateMsg&>(*out);
  EXPECT_EQ(update.rows.interns, nullptr);
  ASSERT_EQ(update.rows.rows.size(), 1u);
  EXPECT_EQ(update.rows.address(
                update.rows.delegates(update.rows.rows[0].row).front()),
            Address::parse("7.7"));
  EXPECT_EQ(update.sender.interns, &interns);
  EXPECT_EQ(update.sender.id, sender);
  const auto gone = codec.decode(wire::encode_message(leave));
  const auto& left = static_cast<const LeaveMsg&>(*gone).leaver;
  EXPECT_EQ(left.interns, nullptr);
  EXPECT_EQ(left.address(), Address::parse("7.7"));
  EXPECT_EQ(interns.addrs.size(), addresses);

  // Once the runtime holds 7.7, the same bytes decode in its form, the
  // summary as the pool's own handle.
  const AddrId seven = interns.addrs.intern(Address::parse("7.7"));
  const auto again = codec.decode(wire::encode_message(msg));
  const auto& kept = static_cast<const MembershipUpdateMsg&>(*again).rows;
  EXPECT_EQ(kept.interns, &interns);
  EXPECT_EQ(kept.delegates(kept.rows[0].row).front(), seven);
  EXPECT_EQ(kept.rows[0].row.interests,
            interns.summaries.intern(*row.interests));
}

}  // namespace
}  // namespace pmc
