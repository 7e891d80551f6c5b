// Wire encoding of pmcast's domain types and protocol messages.
//
// Every protocol message (gossip, membership digest/update, join/leave,
// baseline gossips) round-trips through encode_message/decode_message with
// a one-byte type tag. Decoders validate everything (bounds, tags, depth
// limits on predicate trees) and throw DecodeError on malformed input.
#pragma once

#include <memory>

#include "baselines/flooding.hpp"
#include "baselines/genuine.hpp"
#include "membership/sync.hpp"
#include "pmcast/node.hpp"
#include "wire/codec.hpp"

namespace pmc::wire {

// -- Domain types -----------------------------------------------------------

void encode(Writer& w, const Value& v);
Value decode_value(Reader& r);

void encode(Writer& w, const Event& e);
Event decode_event(Reader& r);

void encode(Writer& w, const PredicatePtr& p);
/// `max_depth` bounds AST recursion against adversarial input.
PredicatePtr decode_predicate(Reader& r, std::size_t max_depth = 64);

void encode(Writer& w, const Subscription& s);
Subscription decode_subscription(Reader& r);

void encode(Writer& w, const Interval& iv);
Interval decode_interval(Reader& r);

void encode(Writer& w, const IntervalSet& set);
IntervalSet decode_interval_set(Reader& r);

void encode(Writer& w, const Clause& c);
Clause decode_clause(Reader& r);

void encode(Writer& w, const InterestSummary& s);
InterestSummary decode_summary(Reader& r);

void encode(Writer& w, const Address& a);
Address decode_address(Reader& r);

/// A message's process address, as the Address it names: either form
/// encodes to the same bytes, and the decoded form holds the Address.
void encode(Writer& w, const AddrRef& a);
AddrRef decode_addr_ref(Reader& r);

/// A row of `batch`: its delegate ids are resolved through the batch's id
/// space, so either batch form encodes to the same bytes.
void encode(Writer& w, const ViewRow& row, const RowBatch& batch);
/// Appends the row's delegate addresses and their indices to `batch` (a
/// decoded batch) and returns the row, which points at those indices.
ViewRow decode_view_row(Reader& r, RowBatch& batch);

// -- Protocol envelope ------------------------------------------------------

/// Serializes any of the known protocol messages, tagged with their MsgKind
/// byte; throws std::logic_error for unknown MessageBase subclasses.
std::vector<std::uint8_t> encode_message(const MessageBase& msg);

/// Parses a message envelope; throws DecodeError on malformed input.
MessagePtr decode_message(std::span<const std::uint8_t> data);

}  // namespace pmc::wire
