// Wire encoding of pmcast's domain types and protocol messages.
//
// Every protocol message (gossip, membership digest/update, join/leave,
// baseline gossips) round-trips through encode_message/decode_message with
// a one-byte type tag. Decoders validate everything (bounds, tags, depth
// limits on predicate trees) and throw DecodeError on malformed input.
//
// decode_message returns the decoded form (view.hpp): addresses as
// Addresses, summaries fresh. A Codec, one per runtime, puts the same bytes
// on the wire and reads them back with the same parser, but returns the
// runtime's in-memory form: its AddrIds and pooled summary handles.
#pragma once

#include <memory>

#include "baselines/flooding.hpp"
#include "baselines/genuine.hpp"
#include "common/flat_index.hpp"
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

void encode(Writer& w, const Clause& c);

void encode(Writer& w, const InterestSummary& s);
InterestSummary decode_summary(Reader& r);

void encode(Writer& w, const Address& a);
Address decode_address(Reader& r);

/// A message's process address, as the Address it names: either form
/// encodes to the same bytes, and the decoded form holds the Address.
void encode(Writer& w, const AddrRef& a);
AddrRef decode_addr_ref(Reader& r);

// -- Protocol envelope ------------------------------------------------------

/// Serializes any of the known protocol messages, tagged with their MsgKind
/// byte; throws std::logic_error for unknown MessageBase subclasses.
std::vector<std::uint8_t> encode_message(const MessageBase& msg);

/// Parses a message envelope; throws DecodeError on malformed input.
MessagePtr decode_message(std::span<const std::uint8_t> data);

// -- Per-runtime codec ------------------------------------------------------

/// The wire codec of one runtime, built on that runtime's Interns. It
/// writes the bytes encode_message writes and reads and range-checks every
/// byte back with decode_message's parser, but it keeps what repeats:
///  * Encoding writes each pooled summary's bytes once and copies them
///    after that. Summaries of decoded batches are not pooled, so they are
///    encoded as encode_message encodes them.
///  * Decoding resolves delegates and senders through
///    AddrInternTable::find, never intern (ids are first-intern order, and
///    a receiver interns an address only when it keeps it), and looks each
///    summary up by its exact bytes: a hit returns the pooled handle, a
///    miss decodes the summary, pools it and remembers its bytes. The
///    message comes back in the in-memory form (RowBatch::interns set,
///    every AddrRef an id), which SyncNode and DepthView::upsert take their
///    fast path on.
///  * A batch that names an address the runtime never interned, or holds a
///    summary with opaque predicates, decodes as decode_message decodes it,
///    and so does an AddrRef the runtime never interned. InterestSummary
///    compares opaque predicates by pointer, so a shared handle would
///    change recompaction's "unchanged" test.
/// The memos are the codec's own state, so each runtime (each shard) owns
/// one and shards still share nothing. What decode returns depends only on
/// the bytes: a memo only saves rebuilding a value the runtime holds.
class Codec {
 public:
  explicit Codec(Interns& interns) noexcept : interns_(&interns) {}
  Codec(const Codec&) = delete;
  Codec& operator=(const Codec&) = delete;

  /// encode_message's bytes.
  std::vector<std::uint8_t> encode(const MessageBase& msg);
  /// decode_message's checks, in this runtime's in-memory form.
  MessagePtr decode(std::span<const std::uint8_t> data);
  /// decode(encode(msg)) through one reused buffer: the round trip
  /// Network::set_transcoder takes.
  MessagePtr transcode(const MessagePtr& msg);

  /// What the memos saved: summaries encoded and decoded, by lookup
  /// outcome, and batches left in the decoded form.
  struct Stats {
    std::uint64_t encode_hits = 0;
    std::uint64_t encode_misses = 0;
    std::uint64_t decode_hits = 0;
    std::uint64_t decode_misses = 0;
    std::uint64_t decoded_batches = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  friend struct Envelope;  // the one parser and encoder (messages.cpp)

  /// Writes a pooled summary's bytes, encoding them on first sight.
  void encode_pooled(Writer& w,
                     const std::shared_ptr<const InterestSummary>& summary);
  /// Reads an address and returns its id, kNoAddr when never interned;
  /// its components are left in components_.
  AddrId find_address(Reader& r);
  AddrRef decode_addr_ref(Reader& r);
  /// Reads a summary and returns its pooled handle, or null when it has
  /// opaque predicates (`r` is then inside it).
  std::shared_ptr<const InterestSummary> decode_pooled(Reader& r);

  /// A memoized summary: its pooled handle and where its bytes lie in
  /// bytes_.
  struct Memo {
    std::shared_ptr<const InterestSummary> handle;
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
  };
  std::span<const std::uint8_t> bytes_of(const Memo& m) const {
    return {bytes_.data() + m.begin, m.size};
  }
  /// Appends `bytes` to bytes_ and returns the memo of `handle` there.
  Memo keep(std::span<const std::uint8_t> bytes,
            std::shared_ptr<const InterestSummary> handle);

  Interns* interns_;
  /// Every memoized summary's bytes, back to back.
  std::vector<std::uint8_t> bytes_;
  /// Encoded pooled summaries, found by handle through encoded_index_. A
  /// memo holds the handle, so its address names one value for the
  /// codec's whole life.
  std::vector<Memo> encoded_;
  FlatIndex encoded_index_;
  /// Decoded summaries, found by their bytes through decoded_index_.
  std::vector<Memo> decoded_;
  FlatIndex decoded_index_;
  std::vector<AddrComponent> components_;  ///< the last address read
  Writer buffer_;                          ///< transcode's bytes
  Stats stats_;
};

}  // namespace pmc::wire
