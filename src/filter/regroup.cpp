#include "filter/regroup.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <sstream>

#include "common/contract.hpp"
#include "common/hash.hpp"

namespace pmc {

// ---------------------------------------------------------------------------
// Clause
// ---------------------------------------------------------------------------

void Clause::constrain_numeric(const std::string& attr, const Interval& iv) {
  auto [it, inserted] = numeric_.try_emplace(attr, iv);
  if (!inserted) it->second = it->second.intersect(iv);
  if (it->second.empty()) contradictory_ = true;
  // A numeric constraint and a string constraint on the same attribute can
  // never both hold (an attribute value has one kind).
  if (strings_.contains(attr)) contradictory_ = true;
}

void Clause::constrain_string(const std::string& attr,
                              std::vector<std::string> allowed) {
  std::sort(allowed.begin(), allowed.end());
  allowed.erase(std::unique(allowed.begin(), allowed.end()), allowed.end());
  // try_emplace moves `allowed` only when it inserts.
  const auto [it, inserted] = strings_.try_emplace(attr, std::move(allowed));
  if (!inserted) {
    std::vector<std::string> both;
    std::set_intersection(it->second.begin(), it->second.end(),
                          allowed.begin(), allowed.end(),
                          std::back_inserter(both));
    it->second = std::move(both);
  }
  if (it->second.empty()) contradictory_ = true;
  if (numeric_.contains(attr)) contradictory_ = true;
}

bool Clause::match(const Event& e) const {
  if (contradictory_) return false;
  for (const auto& [attr, iv] : numeric_) {
    const auto v = e.get(attr);
    if (!v || !v->is_numeric() || !iv.contains(v->as_double())) return false;
  }
  for (const auto& [attr, allowed] : strings_) {
    const auto v = e.get(attr);
    if (!v || v->kind() != ValueKind::String) return false;
    if (!std::binary_search(allowed.begin(), allowed.end(), v->as_string()))
      return false;
  }
  return true;
}

bool Clause::subsumes(const Clause& o) const {
  if (o.contradictory_) return true;
  if (contradictory_) return false;
  // Every constraint of *this must be implied by o's constraint on the same
  // attribute: o must constrain the attribute at least as tightly.
  for (const auto& [attr, iv] : numeric_) {
    const auto it = o.numeric_.find(attr);
    if (it == o.numeric_.end() || !iv.covers(it->second)) return false;
  }
  for (const auto& [attr, allowed] : strings_) {
    const auto it = o.strings_.find(attr);
    if (it == o.strings_.end()) return false;
    if (!std::includes(allowed.begin(), allowed.end(), it->second.begin(),
                       it->second.end()))
      return false;
  }
  return true;
}

std::string Clause::to_string() const {
  if (contradictory_) return "false";
  if (unconstrained()) return "true";
  std::ostringstream os;
  bool first = true;
  for (const auto& [attr, iv] : numeric_) {
    if (!first) os << " && ";
    first = false;
    os << attr << " in " << iv.to_string();
  }
  for (const auto& [attr, allowed] : strings_) {
    if (!first) os << " && ";
    first = false;
    os << attr << " in {";
    for (std::size_t i = 0; i < allowed.size(); ++i) {
      if (i) os << ", ";
      os << '"' << allowed[i] << '"';
    }
    os << "}";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// DNF conversion
// ---------------------------------------------------------------------------

namespace {

/// Interval for a single numeric comparison; nullopt when the comparison is
/// not interval-shaped (numeric Ne — union of two rays, handled by caller).
std::optional<Interval> comparison_interval(CmpOp op, double v) {
  switch (op) {
    case CmpOp::Eq: return Interval::point(v);
    case CmpOp::Lt: return Interval::at_most(v, /*open=*/true);
    case CmpOp::Le: return Interval::at_most(v, /*open=*/false);
    case CmpOp::Gt: return Interval::at_least(v, /*open=*/true);
    case CmpOp::Ge: return Interval::at_least(v, /*open=*/false);
    case CmpOp::Ne: return std::nullopt;
  }
  return std::nullopt;
}

/// Narrows `a` to the events `b` also matches.
void intersect_into(Clause& a, const Clause& b) {
  for (const auto& [attr, iv] : b.numeric()) a.constrain_numeric(attr, iv);
  for (const auto& [attr, allowed] : b.strings())
    a.constrain_string(attr, allowed);
}

bool is_numeric_ne(const Predicate& p) {
  return p.kind() == Predicate::Kind::Compare && p.op() == CmpOp::Ne &&
         p.value().kind() != ValueKind::String;
}

/// Narrows `c` by the comparison `cmp`, one clause's worth (not a numeric
/// !=); false when the comparison is not clause-representable.
bool constrain(Clause& c, const Predicate& cmp) {
  const auto& v = cmp.value();
  if (v.kind() != ValueKind::String) {
    c.constrain_numeric(cmp.attr(),
                        *comparison_interval(cmp.op(), v.as_double()));
    return true;
  }
  if (cmp.op() != CmpOp::Eq) return false;  // string !=, <, ...
  c.constrain_string(cmp.attr(), {v.as_string()});
  return true;
}

/// Replaces the clauses out[base, end) by their conjunction with `p`: the
/// product of the two DNFs, each clause of out[base, end) in turn with each
/// of p's, contradictions dropped. A comparison other than a numeric !=
/// is one clause, so it narrows the clauses in place; a disjunction or a
/// numeric != appends its DNF and the product follows it, then replaces
/// both. False when the product would exceed max_clauses or p has no DNF.
bool conjoin(const Predicate& p, std::size_t base, std::size_t max_clauses,
             std::vector<Clause>& out) {
  using Kind = Predicate::Kind;
  switch (p.kind()) {
    case Kind::True: return true;
    case Kind::False:
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(base), out.end());
      return true;
    case Kind::Not: return false;  // negation over a complex subtree
    case Kind::And:
      for (const auto& child : p.children()) {
        if (!conjoin(*child, base, max_clauses, out)) return false;
        if (out.size() == base) break;  // contradiction, short-circuit
      }
      return true;
    case Kind::Compare:
      if (!is_numeric_ne(p)) {
        std::size_t kept = base;
        for (std::size_t i = base; i < out.size(); ++i) {
          if (!constrain(out[i], p)) return false;
          if (out[i].contradictory()) continue;
          if (kept != i) out[kept] = std::move(out[i]);
          ++kept;
        }
        out.resize(kept);
        return true;
      }
      break;
    case Kind::Or: break;
  }
  const std::size_t mid = out.size();
  if (!to_dnf(p, max_clauses, out)) return false;
  const std::size_t end = out.size();
  for (std::size_t i = base; i < mid; ++i) {
    for (std::size_t j = mid; j < end; ++j) {
      // The last of p's clauses takes the clause itself, the others a copy.
      Clause c = j + 1 < end ? out[i] : std::move(out[i]);
      intersect_into(c, out[j]);
      if (c.contradictory()) continue;
      out.push_back(std::move(c));
      if (out.size() - end > max_clauses) return false;
    }
  }
  out.erase(out.begin() + static_cast<std::ptrdiff_t>(base),
            out.begin() + static_cast<std::ptrdiff_t>(end));
  return true;
}

}  // namespace

bool to_dnf(const Predicate& pred, std::size_t max_clauses,
            std::vector<Clause>& out) {
  using Kind = Predicate::Kind;
  if (is_numeric_ne(pred)) {
    // The union of two rays: two clauses.
    const double x = pred.value().as_double();
    out.emplace_back().constrain_numeric(pred.attr(),
                                         Interval::at_most(x, /*open=*/true));
    out.emplace_back().constrain_numeric(
        pred.attr(), Interval::at_least(x, /*open=*/true));
    return true;
  }
  switch (pred.kind()) {
    case Kind::Compare: return constrain(out.emplace_back(), pred);
    case Kind::Or: {
      const std::size_t base = out.size();
      for (const auto& child : pred.children()) {
        if (!to_dnf(*child, max_clauses, out)) return false;
        if (out.size() - base > max_clauses) return false;
      }
      return true;
    }
    default:
      // The conjunction of one unconstrained clause with the predicate.
      out.emplace_back();
      return conjoin(pred, out.size() - 1, max_clauses, out);
  }
}

// ---------------------------------------------------------------------------
// InterestSummary
// ---------------------------------------------------------------------------

namespace {

/// Clause budget before DNF conversion of one predicate gives up (the
/// predicate is then kept opaque).
constexpr std::size_t kMaxDnfClauses = 64;
/// Multi-attribute clause budget of a summary; exceeding it triggers an
/// automatic coarsen().
constexpr std::size_t kMaxClauses = 256;

/// Adds `allowed` to the sorted string whitelist `dst`.
void union_into(std::vector<std::string>& dst,
                const std::vector<std::string>& allowed) {
  std::vector<std::string> merged;
  std::set_union(dst.begin(), dst.end(), allowed.begin(), allowed.end(),
                 std::back_inserter(merged));
  dst = std::move(merged);
}

}  // namespace

InterestSummary InterestSummary::from(const Subscription& sub) {
  InterestSummary s;
  if (sub.is_wildcard()) {
    s.wildcard_ = true;
    return s;
  }
  std::vector<Clause> dnf;
  dnf.reserve(4);  // a range, a wrap-around range or a != in one block
  if (!to_dnf(*sub.predicate(), kMaxDnfClauses, dnf)) {
    s.opaque_.push_back(sub.predicate());
    return s;
  }
  for (auto& clause : dnf) s.add_clause(std::move(clause));
  s.prune_subsumed();
  return s;
}

void InterestSummary::add_clause(Clause c) {
  if (c.contradictory()) return;
  if (c.unconstrained()) {
    wildcard_ = true;
    return;
  }
  if (c.attribute_count() == 1) {
    // Tier 1/2: fold single-attribute clauses into per-attribute unions.
    fold_first_attribute(c);
    return;
  }
  clauses_.push_back(std::move(c));
  if (clauses_.size() > kMaxClauses) coarsen();
}

void InterestSummary::fold_first_attribute(const Clause& c) {
  if (!c.numeric().empty()) {
    const auto& [attr, iv] = *c.numeric().begin();
    numeric_[attr].insert(iv);
  } else if (!c.strings().empty()) {
    const auto& [attr, allowed] = *c.strings().begin();
    union_into(strings_[attr], allowed);
  }
}

void InterestSummary::merge(const InterestSummary& other) {
  if (other.wildcard_) wildcard_ = true;
  if (wildcard_) return;
  for (const auto& [attr, ivs] : other.numeric_) numeric_[attr].insert_all(ivs);
  for (const auto& [attr, allowed] : other.strings_)
    union_into(strings_[attr], allowed);
  for (const auto& c : other.clauses_) add_clause(c);
  opaque_.insert(opaque_.end(), other.opaque_.begin(), other.opaque_.end());
  prune_subsumed();
}

void InterestSummary::prune_subsumed() {
  if (wildcard_) return;
  // Drop multi-attribute clauses already implied by a tier-1/2 union or by
  // a weaker clause. Quadratic in clause count, which stays small by budget.
  std::vector<Clause> kept;
  for (std::size_t i = 0; i < clauses_.size(); ++i) {
    const Clause& c = clauses_[i];
    bool redundant = false;
    for (const auto& [attr, iv] : c.numeric()) {
      const auto it = numeric_.find(attr);
      if (it != numeric_.end() && it->second.covers(iv)) {
        redundant = true;  // the single-attribute union already matches
        break;
      }
    }
    if (!redundant) {
      for (std::size_t j = 0; j < clauses_.size() && !redundant; ++j) {
        if (j == i) continue;
        // Tie-break equal clauses by index so exactly one copy survives.
        if (clauses_[j].subsumes(c) &&
            !(c.subsumes(clauses_[j]) && i < j)) {
          redundant = true;
        }
      }
    }
    if (!redundant) kept.push_back(c);
  }
  clauses_ = std::move(kept);
}

bool InterestSummary::match(const Event& e) const {
  if (wildcard_) return true;
  for (const auto& [attr, ivs] : numeric_) {
    const auto v = e.get(attr);
    if (v && v->is_numeric() && ivs.contains(v->as_double())) return true;
  }
  for (const auto& [attr, allowed] : strings_) {
    const auto v = e.get(attr);
    if (v && v->kind() == ValueKind::String &&
        std::binary_search(allowed.begin(), allowed.end(), v->as_string()))
      return true;
  }
  for (const auto& c : clauses_)
    if (c.match(e)) return true;
  for (const auto& p : opaque_)
    if (p->match(e)) return true;
  return false;
}

void InterestSummary::coarsen() {
  if (wildcard_) return;
  // Relax each multi-attribute clause to the projection onto one of its
  // attributes: (b>3 && c<2) is implied by (b>3), so replacing the clause by
  // the projection can only add matches — never lose one.
  for (const auto& c : clauses_) fold_first_attribute(c);
  clauses_.clear();
  // Collapse each interval union to its bounding interval.
  for (auto& [attr, ivs] : numeric_) {
    if (ivs.size() > 1) ivs = IntervalSet(ivs.bounding());
  }
  prune_subsumed();
}

InterestSummary InterestSummary::reassemble(
    bool wildcard, FlatMap<std::string, IntervalSet> numeric,
    FlatMap<std::string, std::vector<std::string>> strings,
    std::vector<Clause> clauses, std::vector<PredicatePtr> opaque) {
  InterestSummary s;
  s.wildcard_ = wildcard;
  s.numeric_ = std::move(numeric);
  s.strings_ = std::move(strings);
  s.clauses_ = std::move(clauses);
  s.opaque_ = std::move(opaque);
  return s;
}

std::size_t InterestSummary::complexity() const noexcept {
  if (wildcard_) return 0;
  std::size_t n = clauses_.size() + opaque_.size();
  for (const auto& [attr, ivs] : numeric_) n += ivs.size();
  for (const auto& [attr, allowed] : strings_) n += allowed.size();
  return n;
}

namespace {

std::uint64_t hash_string(std::uint64_t h, const std::string& s) noexcept {
  h = fnv1a_u64(h, s.size());
  for (const char c : s) h = fnv1a_byte(h, static_cast<std::uint8_t>(c));
  return h;
}

std::uint64_t hash_interval(std::uint64_t h, const Interval& iv) noexcept {
  h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(iv.lo));
  h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(iv.hi));
  h = fnv1a_byte(h, static_cast<std::uint8_t>((iv.lo_open ? 1 : 0) |
                                              (iv.hi_open ? 2 : 0)));
  return h;
}

std::uint64_t hash_clause(std::uint64_t h, const Clause& c) noexcept {
  h = fnv1a_byte(h, c.contradictory() ? 1 : 0);
  h = fnv1a_u64(h, c.numeric().size());
  for (const auto& [attr, iv] : c.numeric()) {
    h = hash_string(h, attr);
    h = hash_interval(h, iv);
  }
  h = fnv1a_u64(h, c.strings().size());
  for (const auto& [attr, allowed] : c.strings()) {
    h = hash_string(h, attr);
    h = fnv1a_u64(h, allowed.size());
    for (const auto& s : allowed) h = hash_string(h, s);
  }
  return h;
}

}  // namespace

std::uint64_t InterestSummary::hash() const noexcept {
  std::uint64_t h = kFnv1aBasis;
  h = fnv1a_byte(h, wildcard_ ? 1 : 0);
  h = fnv1a_u64(h, numeric_.size());
  for (const auto& [attr, ivs] : numeric_) {
    h = hash_string(h, attr);
    h = fnv1a_u64(h, ivs.size());
    for (const auto& iv : ivs.intervals()) h = hash_interval(h, iv);
  }
  h = fnv1a_u64(h, strings_.size());
  for (const auto& [attr, allowed] : strings_) {
    h = hash_string(h, attr);
    h = fnv1a_u64(h, allowed.size());
    for (const auto& s : allowed) h = hash_string(h, s);
  }
  h = fnv1a_u64(h, clauses_.size());
  for (const auto& c : clauses_) h = hash_clause(h, c);
  h = fnv1a_u64(h, opaque_.size());
  for (const auto& p : opaque_)
    // detlint:allow(pointer-hash) pool-bucket hash only, consistent with pointer ==; never serialized or fingerprinted
    h = fnv1a_u64(h, reinterpret_cast<std::uintptr_t>(p.get()));
  return h;
}

std::string InterestSummary::to_string() const {
  if (wildcard_) return "*";
  std::ostringstream os;
  bool first = true;
  const auto sep = [&] {
    if (!first) os << " || ";
    first = false;
  };
  for (const auto& [attr, ivs] : numeric_) {
    sep();
    os << attr << " in " << ivs.to_string();
  }
  for (const auto& [attr, allowed] : strings_) {
    sep();
    os << attr << " in {";
    for (std::size_t i = 0; i < allowed.size(); ++i) {
      if (i) os << ", ";
      os << '"' << allowed[i] << '"';
    }
    os << "}";
  }
  for (const auto& c : clauses_) {
    sep();
    os << "(" << c.to_string() << ")";
  }
  for (const auto& p : opaque_) {
    sep();
    os << p->to_string();
  }
  if (first) os << "false";
  return os.str();
}

}  // namespace pmc
