// Address interning: each distinct Address is registered once and hot code
// passes a dense 32-bit AddrId instead of copying component vectors.
//
// The motivation is memory layout, not hashing: a simulated group holds the
// same few thousand addresses in hundreds of thousands of view rows, peer
// lists and contact tables. Interned, each of those occurrences is 4 bytes
// in a flat array instead of a 24-byte std::vector header plus a heap
// allocation — and equality, ordering and Eq. 1 prefix math become integer
// arithmetic over two flat arenas:
//
//   * components are stored back-to-back in one arena (`comps_`), so an
//     address's components are a contiguous span recoverable for wire
//     encoding (the wire format keeps raw components; interning is purely a
//     process-local representation);
//   * every prefix ever seen gets a dense PrefixKey from an interned trie
//     (one node per key, found by its edge through a FlatIndex), and the
//     keys of all prefixes of an address are precomputed per id (`keys_`
//     arena). Two addresses share a length-l prefix iff their
//     l-th prefix keys are equal, so common_prefix_length is a linear scan
//     of integer compares with no component access at all.
//
// The table is append-only and runtime-scoped: one table per simulation
// (ChurnSim / ShardedSim / experiment Population own one), shared by every
// view, node and directory hosted on that runtime so ids are globally
// comparable there. Ids are assigned in first-intern order — NOT address
// order — so protocol code that needs the paper's deterministic "smallest
// address" criterion must rank via less()/compare(), never by raw id.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "addr/address.hpp"
#include "common/flat_index.hpp"

namespace pmc {

/// Dense handle of an interned Address. 32 bits bound the table at ~4G
/// distinct addresses — far above the simulator's process ceilings.
using AddrId = std::uint32_t;
inline constexpr AddrId kNoAddr = 0xffffffffU;

/// Dense handle of an interned prefix (PrefixKey 0 is the root prefix).
using PrefixKey = std::uint32_t;

class AddrInternTable {
 public:
  AddrInternTable() = default;

  AddrInternTable(const AddrInternTable&) = delete;
  AddrInternTable& operator=(const AddrInternTable&) = delete;

  /// Pre-sizes the arenas for `addresses` distinct addresses of depth
  /// `depth` (like Network::reserve_range: one up-front allocation
  /// instead of re-hashing mid-run).
  void reserve(std::size_t addresses, std::size_t depth);

  /// Registers `a` (and all its prefixes) and returns its id; idempotent.
  AddrId intern(const Address& a);

  /// The id of an already-interned address; kNoAddr when never interned.
  AddrId find(const Address& a) const { return find(a.components()); }
  /// Same, for an address given as its components (the wire codec looks
  /// decoded addresses up without building an Address).
  AddrId find(std::span<const AddrComponent> comps) const;

  /// Number of distinct addresses interned so far (ids are [0, size())).
  std::size_t size() const noexcept { return recs_.size(); }

  /// The full Address for wire encoding and display. The reference is
  /// stable for the table's lifetime.
  const Address& resolve(AddrId id) const {
    PMC_EXPECTS(id < addresses_.size());
    return addresses_[id];
  }

  std::size_t depth(AddrId id) const {
    PMC_EXPECTS(id < recs_.size());
    return recs_[id].depth;
  }

  AddrComponent component(AddrId id, std::size_t i) const {
    PMC_EXPECTS(id < recs_.size() && i < recs_[id].depth);
    return comps_[recs_[id].comp_begin + i];
  }

  /// The address's components as a contiguous span into the arena.
  std::span<const AddrComponent> components(AddrId id) const {
    PMC_EXPECTS(id < recs_.size());
    return {comps_.data() + recs_[id].comp_begin, recs_[id].depth};
  }

  /// Length of the longest common prefix — integer compares over the
  /// precomputed prefix keys, no component walk (Address::
  /// common_prefix_length's contract, tested equivalent in
  /// tests/intern_test.cpp).
  std::size_t common_prefix_length(AddrId a, AddrId b) const;

  /// Paper Eq. 1 distance d - i; precondition: same depth (like
  /// Address::distance).
  std::size_t distance(AddrId a, AddrId b) const;

  /// Lexicographic component order — the paper's "smallest address"
  /// delegate-election criterion. NOT id order (ids are first-intern
  /// order).
  bool less(AddrId a, AddrId b) const;

 private:
  struct Rec {
    std::uint32_t comp_begin = 0;  ///< offset into comps_
    std::uint32_t key_begin = 0;   ///< offset into keys_ (len-1 indexed)
    std::uint32_t depth = 0;
  };

  /// The trie node of a prefix: the edge (parent prefix key, last
  /// component) that leads to it, and the address it is the deepest prefix
  /// of (kNoAddr while no interned address ends there).
  struct TrieNode {
    PrefixKey parent = 0;
    AddrComponent component = 0;
    AddrId id = kNoAddr;
  };

  static std::uint64_t edge(PrefixKey parent, AddrComponent c) noexcept {
    return (static_cast<std::uint64_t>(parent) << 16) | c;
  }
  /// The edge leading to node `n`, the hash the trie indexes it by.
  std::uint64_t node_edge(std::uint32_t n) const noexcept {
    return edge(nodes_[n].parent, nodes_[n].component);
  }
  /// The child of `parent` along `c`, or 0 when the trie has no such edge.
  PrefixKey child(PrefixKey parent, AddrComponent c) const;

  std::vector<Rec> recs_;               // indexed by AddrId
  std::vector<AddrComponent> comps_;    // flat component arena
  std::vector<PrefixKey> keys_;         // flat prefix-key arena
  std::vector<Address> addresses_;      // resolve() storage
  /// Trie nodes, indexed by PrefixKey - 1 (0 is the root, which has no
  /// node); an address IS its deepest prefix, so the trie doubles as the
  /// intern index.
  std::vector<TrieNode> nodes_;
  /// Edge -> node number (PrefixKey - 1).
  FlatIndex trie_;
};

}  // namespace pmc
