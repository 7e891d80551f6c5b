// Numeric intervals and disjoint interval sets.
//
// Interval sets are the workhorse of *interest regrouping* (paper Sec. 2.3):
// the union of many single-attribute range subscriptions (e.g. "c > 155.6",
// "10.0 < c < 220.0") collapses into a small sorted set of disjoint
// intervals, which both shrinks the delegate's view tables and makes
// matching a binary search instead of a linear scan over subscriptions.
#pragma once

#include <limits>
#include <string>
#include <vector>

namespace pmc {

/// A (possibly half-open, possibly unbounded) interval over doubles.
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;  ///< true: (lo, ...  false: [lo, ...
  bool hi_open = false;  ///< true: ..., hi)  false: ..., hi]

  static Interval at_least(double lo, bool open = false) {
    return {lo, std::numeric_limits<double>::infinity(), open, false};
  }
  static Interval at_most(double hi, bool open = false) {
    return {-std::numeric_limits<double>::infinity(), hi, false, open};
  }
  static Interval point(double x) { return {x, x, false, false}; }

  bool contains(double x) const noexcept {
    if (lo_open ? x <= lo : x < lo) return false;
    if (hi_open ? x >= hi : x > hi) return false;
    return true;
  }

  /// True when no double satisfies the interval.
  bool empty() const noexcept {
    if (lo > hi) return true;
    return lo == hi && (lo_open || hi_open);
  }

  /// Set intersection; may be empty.
  Interval intersect(const Interval& o) const noexcept;

  /// True iff this interval contains every point of o.
  bool covers(const Interval& o) const noexcept;

  /// True iff the union of the two intervals is a single interval
  /// (they overlap or touch at a shared closed endpoint).
  bool mergeable(const Interval& o) const noexcept;

  /// Union of two mergeable intervals. Precondition: mergeable(o).
  Interval merge(const Interval& o) const noexcept;

  friend bool operator==(const Interval&, const Interval&) = default;

  std::string to_string() const;
};

/// A set of pairwise disjoint, non-mergeable intervals kept sorted by lower
/// bound. Insertion unions; the canonical form makes equality structural.
class IntervalSet {
 public:
  IntervalSet() = default;
  explicit IntervalSet(Interval iv) { insert(iv); }

  void insert(Interval iv);
  void insert_all(const IntervalSet& o);

  bool contains(double x) const noexcept;
  bool empty() const noexcept { return ivs_.empty(); }
  std::size_t size() const noexcept { return ivs_.size(); }

  /// True iff every point of o is contained in this set.
  bool covers(const IntervalSet& o) const noexcept;
  bool covers(const Interval& o) const noexcept;

  /// Smallest single interval containing the whole set (for coarsening).
  /// Precondition: !empty().
  Interval bounding() const;

  const std::vector<Interval>& intervals() const noexcept { return ivs_; }

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

  std::string to_string() const;

 private:
  std::vector<Interval> ivs_;
};

}  // namespace pmc
