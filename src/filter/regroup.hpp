// Interest regrouping (paper Sec. 2.3).
//
// A line of a view table of depth i represents a whole subgroup; its
// interest column must match an event iff *some* process in the subgroup is
// interested — the union of the individual subscriptions. The paper requires
// the union to be computed "not just by simply forming a [disjunction] of the
// individual interests, but by reducing the complexity of the interests both
// in terms of memory space and in terms of evaluation time".
//
// InterestSummary does this in three tiers:
//   1. single-attribute numeric constraints are unioned into per-attribute
//      IntervalSets (binary-search matching, ranges merge away);
//   2. single-attribute string equalities are unioned into per-attribute
//      sorted string whitelists;
//   3. everything else is normalized into conjunctive clauses (DNF of at
//      most 64 clauses per predicate) with subsumption pruning, or kept as
//      an opaque predicate if the normalization would explode.
//
// A summary never produces a false negative (every event matching a merged
// subscription matches the summary). coarsen() trades precision for space —
// the "approximating the filters applied by delegates closer to the root"
// mechanism sketched in the paper's concluding remarks; a summary runs it
// itself once it holds more than 256 multi-attribute clauses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "filter/interval.hpp"
#include "filter/subscription.hpp"

namespace pmc {

/// A conjunction of per-attribute constraints: numeric interval and/or
/// string whitelist per attribute. An empty clause matches every event.
class Clause {
 public:
  void constrain_numeric(const std::string& attr, const Interval& iv);
  void constrain_string(const std::string& attr,
                        std::vector<std::string> allowed);

  bool match(const Event& e) const;

  /// True when no constraint can ever be satisfied.
  bool contradictory() const noexcept { return contradictory_; }
  /// True when there are no constraints at all (matches everything).
  bool unconstrained() const noexcept {
    return !contradictory_ && numeric_.empty() && strings_.empty();
  }

  /// True iff this clause matches every event the other matches
  /// (this is weaker-or-equal: every constraint here is implied by o's).
  bool subsumes(const Clause& o) const;

  std::size_t attribute_count() const noexcept {
    return numeric_.size() + strings_.size();
  }
  const FlatMap<std::string, Interval>& numeric() const noexcept {
    return numeric_;
  }
  const FlatMap<std::string, std::vector<std::string>>& strings()
      const noexcept {
    return strings_;
  }

  friend bool operator==(const Clause&, const Clause&) = default;

  std::string to_string() const;

 private:
  FlatMap<std::string, Interval> numeric_;
  FlatMap<std::string, std::vector<std::string>> strings_;  // sorted
  bool contradictory_ = false;
};

class InterestSummary {
 public:
  InterestSummary() = default;

  /// Summary of a single subscription.
  static InterestSummary from(const Subscription& sub);

  /// Union with another summary (set union of represented interests).
  void merge(const InterestSummary& other);

  /// No false negatives w.r.t. every merged subscription.
  bool match(const Event& e) const;

  bool is_wildcard() const noexcept { return wildcard_; }

  /// Replaces per-attribute interval sets by their bounding interval and
  /// multi-attribute clauses by their per-attribute projections. Cheaper to
  /// store and evaluate; strictly more permissive.
  void coarsen();

  /// Rough size measure: interval count + whitelist entries + clauses +
  /// opaque predicates (0 for a wildcard summary).
  std::size_t complexity() const noexcept;

  const FlatMap<std::string, IntervalSet>& numeric_unions() const noexcept {
    return numeric_;
  }
  const FlatMap<std::string, std::vector<std::string>>& string_unions()
      const noexcept {
    return strings_;
  }
  const std::vector<Clause>& clauses() const noexcept { return clauses_; }
  const std::vector<PredicatePtr>& opaque() const noexcept { return opaque_; }

  /// Rebuilds a summary from its parts — the wire codec's exact inverse of
  /// the accessors above. No simplification is re-run.
  static InterestSummary reassemble(
      bool wildcard, FlatMap<std::string, IntervalSet> numeric,
      FlatMap<std::string, std::vector<std::string>> strings,
      std::vector<Clause> clauses, std::vector<PredicatePtr> opaque);

  /// Structural equality (opaque predicates compare by pointer identity).
  friend bool operator==(const InterestSummary&, const InterestSummary&) =
      default;

  /// Structural FNV-1a hash consistent with operator== (equal summaries hash
  /// equal; opaque predicates hash by pointer identity, matching ==). Feeds
  /// InternPool<InterestSummary> content addressing.
  std::uint64_t hash() const noexcept;

  std::string to_string() const;

 private:
  void add_clause(Clause c);
  /// Adds the clause's first attribute, numeric before string, to the
  /// per-attribute unions: the projection that relaxes it.
  void fold_first_attribute(const Clause& c);
  void prune_subsumed();

  bool wildcard_ = false;
  FlatMap<std::string, IntervalSet> numeric_;                 // tier 1
  FlatMap<std::string, std::vector<std::string>> strings_;    // tier 2
  std::vector<Clause> clauses_;                                // tier 3
  std::vector<PredicatePtr> opaque_;                           // fallback
};

/// Appends the DNF clauses of a predicate to `out`; false when a
/// disjunction or a conjunction's product would exceed max_clauses or the
/// predicate contains non-normalizable parts (e.g. negation over a complex
/// subtree, string inequality), and `out` is then left partly written.
bool to_dnf(const Predicate& pred, std::size_t max_clauses,
            std::vector<Clause>& out);

}  // namespace pmc
