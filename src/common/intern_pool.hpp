// Content-addressed value pool: structurally equal values are stored once
// and shared via shared_ptr<const T>.
//
// The membership layer uses this for InterestSummary: anti-entropy converges
// every process in a subgroup onto structurally identical row summaries, so
// without pooling a group of n processes stores O(n * rows) copies of the
// same few hundred distinct summaries. Pooled, each row is one shared_ptr
// (8 bytes) and the distinct values exist once per simulation.
//
// Requires T to expose `std::uint64_t hash() const` consistent with its
// operator== (equal values must hash equal; collisions are resolved by deep
// equality). Pool entries are immutable once interned — the shared_ptr is
// const — so sharing is safe across processes on one runtime.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_index.hpp"

namespace pmc {

template <typename T>
class InternPool {
 public:
  InternPool() = default;

  InternPool(const InternPool&) = delete;
  InternPool& operator=(const InternPool&) = delete;

  /// Returns the pooled instance structurally equal to `value`, interning a
  /// copy (or the moved-from value) on first sight.
  std::shared_ptr<const T> intern(const T& value) {
    return intern_impl(value, [&] { return std::make_shared<const T>(value); });
  }
  std::shared_ptr<const T> intern(T&& value) {
    return intern_impl(value, [&] {
      return std::make_shared<const T>(std::move(value));
    });
  }
  /// Same for a value already behind a handle: a handle the pool handed out
  /// is found by identity, without a deep compare; on first sight the
  /// handle itself becomes the pooled instance (no copy).
  std::shared_ptr<const T> intern(const std::shared_ptr<const T>& handle) {
    return intern_impl(*handle, [&] { return handle; });
  }

  /// Distinct values interned so far.
  std::size_t size() const noexcept { return values_.size(); }

 private:
  template <typename MakeFn>
  std::shared_ptr<const T> intern_impl(const T& value, MakeFn make) {
    const std::uint64_t hash = value.hash();
    const std::uint32_t found = index_.find(hash, [&](std::uint32_t e) {
      return hashes_[e] == hash &&
             (values_[e].get() == &value || *values_[e] == value);
    });
    if (found != FlatIndex::npos) return values_[found];
    values_.push_back(make());
    hashes_.push_back(hash);
    index_.add(hash, [&](std::uint32_t e) { return hashes_[e]; });
    return values_.back();
  }

  /// The distinct values in first-intern order, their hashes, and the
  /// index that finds them by value.
  std::vector<std::shared_ptr<const T>> values_;
  std::vector<std::uint64_t> hashes_;
  FlatIndex index_;
};

}  // namespace pmc
