#include "filter/interval.hpp"

#include <algorithm>
#include <sstream>

#include "common/contract.hpp"

namespace pmc {

namespace {

/// Orders lower bounds: a closed bound at x precedes an open bound at x.
bool lo_less(double a_lo, bool a_open, double b_lo, bool b_open) {
  if (a_lo != b_lo) return a_lo < b_lo;
  return !a_open && b_open;
}

/// Orders upper bounds: an open bound at x precedes a closed bound at x.
bool hi_less(double a_hi, bool a_open, double b_hi, bool b_open) {
  if (a_hi != b_hi) return a_hi < b_hi;
  return a_open && !b_open;
}

}  // namespace

Interval Interval::intersect(const Interval& o) const noexcept {
  Interval r = *this;
  if (lo_less(r.lo, r.lo_open, o.lo, o.lo_open)) {
    r.lo = o.lo;
    r.lo_open = o.lo_open;
  }
  if (hi_less(o.hi, o.hi_open, r.hi, r.hi_open)) {
    r.hi = o.hi;
    r.hi_open = o.hi_open;
  }
  return r;
}

bool Interval::covers(const Interval& o) const noexcept {
  if (o.empty()) return true;
  if (empty()) return false;
  const bool lo_ok = !lo_less(o.lo, o.lo_open, lo, lo_open);
  const bool hi_ok = !hi_less(hi, hi_open, o.hi, o.hi_open);
  return lo_ok && hi_ok;
}

bool Interval::mergeable(const Interval& o) const noexcept {
  if (empty() || o.empty()) return true;
  // Sort so a starts no later than b.
  const Interval& a = lo_less(lo, lo_open, o.lo, o.lo_open) ? *this : o;
  const Interval& b = (&a == this) ? o : *this;
  // Disjoint iff a ends strictly before b starts with a gap: either
  // a.hi < b.lo, or a.hi == b.lo with both bounds open (the point escapes).
  if (a.hi < b.lo) return false;
  if (a.hi == b.lo && a.hi_open && b.lo_open) return false;
  return true;
}

Interval Interval::merge(const Interval& o) const noexcept {
  if (empty()) return o;
  if (o.empty()) return *this;
  Interval r = *this;
  if (lo_less(o.lo, o.lo_open, r.lo, r.lo_open)) {
    r.lo = o.lo;
    r.lo_open = o.lo_open;
  }
  if (hi_less(r.hi, r.hi_open, o.hi, o.hi_open)) {
    r.hi = o.hi;
    r.hi_open = o.hi_open;
  }
  return r;
}

std::string Interval::to_string() const {
  std::ostringstream os;
  os << (lo_open ? '(' : '[') << lo << ", " << hi << (hi_open ? ')' : ']');
  return os.str();
}

void IntervalSet::insert(Interval iv) {
  if (iv.empty()) return;
  // The intervals iv absorbs form one run: every interval before the run
  // ends before iv starts, and every one after it starts after iv ends.
  auto first = ivs_.begin();
  while (first != ivs_.end() && !iv.mergeable(*first) &&
         lo_less(first->lo, first->lo_open, iv.lo, iv.lo_open))
    ++first;
  auto last = first;
  for (; last != ivs_.end() && iv.mergeable(*last); ++last)
    iv = iv.merge(*last);
  if (first == last) {
    ivs_.insert(first, iv);
    return;
  }
  *first = iv;
  ivs_.erase(first + 1, last);
}

void IntervalSet::insert_all(const IntervalSet& o) {
  if (&o == this || o.ivs_.empty()) return;
  // One merge of the two sorted lists in lower-bound order, in place: this
  // set's intervals move to the back of the grown vector, and the union is
  // written from the front, never past the next one still to be read.
  const std::size_t n = ivs_.size(), m = o.ivs_.size();
  ivs_.resize(n + m);
  std::move_backward(ivs_.begin(), ivs_.begin() + static_cast<std::ptrdiff_t>(n),
                     ivs_.end());
  std::size_t mine = m, theirs = 0, out = 0;
  Interval acc;
  for (std::size_t k = 0; k < n + m; ++k) {
    const bool take_theirs =
        mine == n + m ||
        (theirs < m && !lo_less(ivs_[mine].lo, ivs_[mine].lo_open,
                                o.ivs_[theirs].lo, o.ivs_[theirs].lo_open));
    const Interval next = take_theirs ? o.ivs_[theirs++] : ivs_[mine++];
    if (k == 0) {
      acc = next;
    } else if (!acc.mergeable(next)) {
      ivs_[out++] = acc;
      acc = next;
    } else {
      // o's endpoint wins a tie, as inserting o's intervals one by one
      // makes it win (only +0.0 and -0.0 tie with different bits).
      acc = take_theirs ? next.merge(acc) : acc.merge(next);
    }
  }
  ivs_[out++] = acc;
  ivs_.resize(out);
}

bool IntervalSet::contains(double x) const noexcept {
  // Binary search on lower bounds, then check the candidate interval.
  auto it = std::upper_bound(
      ivs_.begin(), ivs_.end(), x,
      [](double v, const Interval& iv) { return v < iv.lo; });
  if (it == ivs_.begin()) return false;
  return std::prev(it)->contains(x);
}

bool IntervalSet::covers(const Interval& o) const noexcept {
  if (o.empty()) return true;
  // Canonical form: disjoint, non-mergeable intervals. A single interval o is
  // covered iff some one member covers it (a gap otherwise leaks a point).
  return std::any_of(ivs_.begin(), ivs_.end(),
                     [&](const Interval& iv) { return iv.covers(o); });
}

bool IntervalSet::covers(const IntervalSet& o) const noexcept {
  return std::all_of(o.ivs_.begin(), o.ivs_.end(),
                     [&](const Interval& iv) { return covers(iv); });
}

Interval IntervalSet::bounding() const {
  PMC_EXPECTS(!ivs_.empty());
  Interval r = ivs_.front();
  r.hi = ivs_.back().hi;
  r.hi_open = ivs_.back().hi_open;
  return r;
}

std::string IntervalSet::to_string() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < ivs_.size(); ++i) {
    if (i) os << " ∪ ";
    os << ivs_[i].to_string();
  }
  os << "}";
  return os.str();
}

}  // namespace pmc
