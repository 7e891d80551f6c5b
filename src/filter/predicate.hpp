// Predicate AST for content-based subscriptions.
//
// Grammar of interests supported (superset of the paper's Fig. 2 examples):
// comparisons of an attribute against an int/float/string constant, with
// conjunction, disjunction and negation. The absence of a constraint on an
// attribute is a wildcard (paper Sec. 2.3).
//
// Predicates are immutable and shared (shared_ptr<const Predicate>): view
// tables replicate the same interests many times across depths, and sharing
// keeps membership state small.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "event/event.hpp"

namespace pmc {

enum class CmpOp { Eq, Ne, Lt, Le, Gt, Ge };

std::string to_string(CmpOp op);

/// The single-comparison kernel behind Predicate::match: how an event value
/// relates to a subscription constant. Cross-kind (string vs numeric) values
/// are never equal, so only Ne holds across kinds; numeric comparisons are
/// done in double.
bool compare_values(const Value& event_value, CmpOp op, const Value& target);

class Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

class Predicate {
 public:
  enum class Kind { True, False, Compare, And, Or, Not };

  // -- Factories (the only way to build predicates) ------------------------
  static PredicatePtr wildcard();
  static PredicatePtr never();
  static PredicatePtr compare(std::string attr, CmpOp op, Value value);
  /// Conjunction; flattens nested Ands, folds constants.
  static PredicatePtr conj(std::vector<PredicatePtr> children);
  /// Disjunction; flattens nested Ors, folds constants.
  static PredicatePtr disj(std::vector<PredicatePtr> children);
  /// Logical negation. Double negation cancels and True/False fold, but a
  /// negated comparison stays a Not node: `!(a == v)` matches an event with
  /// no `a` attribute (the comparison is false, Not flips it) while the
  /// op-negated `a != v` does not — folding one into the other would change
  /// absent-attribute semantics.
  static PredicatePtr negation(PredicatePtr child);

  Kind kind() const noexcept { return kind_; }

  /// Matching semantics: a comparison on an attribute absent from the event
  /// is false (the event carries no evidence for it); Not flips the result.
  bool match(const Event& e) const;

  // -- Accessors (preconditions on kind) ------------------------------------
  const std::string& attr() const;        ///< kind() == Compare
  CmpOp op() const;                        ///< kind() == Compare
  const Value& value() const;              ///< kind() == Compare
  const std::vector<PredicatePtr>& children() const;  ///< And / Or
  const PredicatePtr& child() const;       ///< Not

  std::string to_string() const;

 private:
  explicit Predicate(Kind k) : kind_(k) {}

  Kind kind_;
  std::string attr_;
  CmpOp op_ = CmpOp::Eq;
  Value value_;
  std::vector<PredicatePtr> children_;
};

}  // namespace pmc
