// Open-addressing hash index over entries a caller stores itself.
//
// The interning tables (AddrInternTable's prefix trie, InternPool, the wire
// codec's summary memo) keep their entries in a vector, numbered 0, 1, 2, ...
// in insertion order, and need only "which entry equals this key?" and
// "add the next entry". FlatIndex answers the first with one flat array of
// 32-bit entry numbers probed linearly from a Fibonacci-hashed home slot,
// kept at most half full; the caller supplies equality and, when the array
// regrows, each entry's hash. There is no erase and no iteration, so hash
// order can never reach output (docs/DETERMINISM.md §4), and there are no
// per-entry heap nodes: a lookup reads one slot array and the caller's own
// entry.
#pragma once

#include <cstdint>
#include <vector>

namespace pmc {

class FlatIndex {
 public:
  static constexpr std::uint32_t npos = 0xffffffffU;

  /// The entry with this hash for which `same(entry)` holds, or npos.
  template <typename Same>
  std::uint32_t find(std::uint64_t hash, Same&& same) const {
    if (slots_.empty()) return npos;
    for (std::size_t s = home(hash);; s = (s + 1) & mask()) {
      const std::uint32_t entry = slots_[s];
      if (entry == npos || same(entry)) return entry;
    }
  }

  /// Records the next entry number (0, 1, 2, ... in add order) under
  /// `hash` and returns it. The entry must not be present (find() missed).
  /// `hash_of(e)` returns the hash entry e was added with; a regrowth
  /// re-places every earlier entry through it.
  template <typename HashOf>
  std::uint32_t add(std::uint64_t hash, HashOf&& hash_of) {
    if (2 * (size_ + 1) > slots_.size()) rehash(size_ + 1, hash_of);
    const auto entry = static_cast<std::uint32_t>(size_++);
    place(hash, entry);
    return entry;
  }

  /// Sizes the array so that `entries` entries leave it at most half
  /// full; never shrinks. `hash_of` as for add().
  template <typename HashOf>
  void reserve(std::size_t entries, HashOf&& hash_of) {
    if (2 * entries > slots_.size()) rehash(entries, hash_of);
  }

 private:
  std::size_t mask() const noexcept { return slots_.size() - 1; }
  /// Fibonacci hashing: the top bits of hash * 2^64/phi, so keys that
  /// differ only in high bits (a trie edge's parent) still spread.
  std::size_t home(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  void place(std::uint64_t hash, std::uint32_t entry) noexcept {
    std::size_t s = home(hash);
    while (slots_[s] != npos) s = (s + 1) & mask();
    slots_[s] = entry;
  }
  /// Re-places entries [0, size_) in a power-of-two array at least twice
  /// `entries` (and at least 16 slots).
  template <typename HashOf>
  void rehash(std::size_t entries, HashOf& hash_of) {
    std::size_t slots = 16;
    unsigned bits = 4;
    while (slots < 2 * entries) {
      slots *= 2;
      ++bits;
    }
    slots_.assign(slots, npos);
    shift_ = 64 - bits;
    for (std::size_t e = 0; e < size_; ++e)
      place(hash_of(static_cast<std::uint32_t>(e)),
            static_cast<std::uint32_t>(e));
  }

  std::vector<std::uint32_t> slots_;  ///< entry numbers; npos is empty
  std::size_t size_ = 0;              ///< entries added
  unsigned shift_ = 64;
};

}  // namespace pmc
