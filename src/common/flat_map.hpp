// Sorted-vector map for tables of a few entries.
//
// SyncNode keeps a handful of per-neighbor timestamps (last contact, grace
// windows, pending suspicions) keyed by AddrId, and an interest summary
// keeps one union per attribute name (usually one or two). A node-based map
// spends a heap node per entry; here the whole table is one contiguous
// vector of (key, value) pairs and a binary search — smaller than an
// unordered_map's bucket array alone at these sizes, and iterated in
// deterministic key order, as std::map is (the same `<` on the keys).
#pragma once

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

namespace pmc {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() noexcept { return entries_.begin(); }
  iterator end() noexcept { return entries_.end(); }
  const_iterator begin() const noexcept { return entries_.begin(); }
  const_iterator end() const noexcept { return entries_.end(); }

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }
  void clear() noexcept { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  iterator find(const K& key) {
    const auto it = lower_bound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  const_iterator find(const K& key) const {
    const auto it = lower_bound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  bool contains(const K& key) const { return find(key) != entries_.end(); }

  /// Inserts V(args...) under a missing key; a present key keeps its value,
  /// as std::map::try_emplace (and emplace) do. Returns the entry and
  /// whether it was inserted.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    const auto it = lower_bound(key);
    if (it != entries_.end() && it->first == key) return {it, false};
    return {entries_.emplace(it, std::piecewise_construct,
                             std::forward_as_tuple(key),
                             std::forward_as_tuple(std::forward<Args>(args)...)),
            true};
  }

  /// Inserts or overwrites; returns the entry's value slot.
  V& insert_or_assign(const K& key, V value) {
    const auto [it, inserted] = try_emplace(key, std::move(value));
    if (!inserted) it->second = std::move(value);
    return it->second;
  }

  /// operator[]-style access, default-constructing missing entries.
  V& operator[](const K& key) { return try_emplace(key).first->second; }

  bool erase(const K& key) {
    const auto it = find(key);
    if (it == entries_.end()) return false;
    entries_.erase(it);
    return true;
  }
  iterator erase(iterator it) { return entries_.erase(it); }

  friend bool operator==(const FlatMap&, const FlatMap&) = default;

 private:
  iterator lower_bound(const K& key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }
  const_iterator lower_bound(const K& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }

  std::vector<value_type> entries_;  // sorted by key, unique keys
};

}  // namespace pmc
