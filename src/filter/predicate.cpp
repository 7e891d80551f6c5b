#include "filter/predicate.hpp"

#include <sstream>

#include "common/contract.hpp"

namespace pmc {

std::string to_string(CmpOp op) {
  switch (op) {
    case CmpOp::Eq: return "==";
    case CmpOp::Ne: return "!=";
    case CmpOp::Lt: return "<";
    case CmpOp::Le: return "<=";
    case CmpOp::Gt: return ">";
    case CmpOp::Ge: return ">=";
  }
  return "?";
}

PredicatePtr Predicate::wildcard() {
  struct Make : Predicate {
    Make() : Predicate(Kind::True) {}
  };
  static const PredicatePtr p = std::make_shared<Make>();
  return p;
}

PredicatePtr Predicate::never() {
  struct Make : Predicate {
    Make() : Predicate(Kind::False) {}
  };
  static const PredicatePtr p = std::make_shared<Make>();
  return p;
}

PredicatePtr Predicate::compare(std::string attr, CmpOp op, Value value) {
  PMC_EXPECTS(!attr.empty());
  struct Make : Predicate {
    Make() : Predicate(Kind::Compare) {}
  };
  auto p = std::make_shared<Make>();
  p->attr_ = std::move(attr);
  p->op_ = op;
  p->value_ = std::move(value);
  return p;
}

PredicatePtr Predicate::conj(std::vector<PredicatePtr> children) {
  std::vector<PredicatePtr> flat;
  for (auto& c : children) {
    PMC_EXPECTS(c != nullptr);
    if (c->kind() == Kind::True) continue;
    if (c->kind() == Kind::False) return never();
    if (c->kind() == Kind::And) {
      flat.insert(flat.end(), c->children_.begin(), c->children_.end());
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.empty()) return wildcard();
  if (flat.size() == 1) return flat.front();
  struct Make : Predicate {
    Make() : Predicate(Kind::And) {}
  };
  auto p = std::make_shared<Make>();
  p->children_ = std::move(flat);
  return p;
}

PredicatePtr Predicate::disj(std::vector<PredicatePtr> children) {
  std::vector<PredicatePtr> flat;
  for (auto& c : children) {
    PMC_EXPECTS(c != nullptr);
    if (c->kind() == Kind::False) continue;
    if (c->kind() == Kind::True) return wildcard();
    if (c->kind() == Kind::Or) {
      flat.insert(flat.end(), c->children_.begin(), c->children_.end());
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.empty()) return never();
  if (flat.size() == 1) return flat.front();
  struct Make : Predicate {
    Make() : Predicate(Kind::Or) {}
  };
  auto p = std::make_shared<Make>();
  p->children_ = std::move(flat);
  return p;
}

PredicatePtr Predicate::negation(PredicatePtr c) {
  PMC_EXPECTS(c != nullptr);
  switch (c->kind()) {
    case Kind::True: return never();
    case Kind::False: return wildcard();
    case Kind::Not: return c->child();
    default: break;
  }
  struct Make : Predicate {
    Make() : Predicate(Kind::Not) {}
  };
  auto p = std::make_shared<Make>();
  p->children_.push_back(std::move(c));
  return p;
}

bool compare_values(const Value& ev, CmpOp op, const Value& target) {
  const bool ev_str = ev.kind() == ValueKind::String;
  const bool tg_str = target.kind() == ValueKind::String;
  if (ev_str != tg_str) return op == CmpOp::Ne;  // cross-kind: never equal
  if (ev_str) {
    const auto& a = ev.as_string();
    const auto& b = target.as_string();
    switch (op) {
      case CmpOp::Eq: return a == b;
      case CmpOp::Ne: return a != b;
      case CmpOp::Lt: return a < b;
      case CmpOp::Le: return a <= b;
      case CmpOp::Gt: return a > b;
      case CmpOp::Ge: return a >= b;
    }
  } else {
    const double a = ev.as_double();
    const double b = target.as_double();
    switch (op) {
      case CmpOp::Eq: return a == b;
      case CmpOp::Ne: return a != b;
      case CmpOp::Lt: return a < b;
      case CmpOp::Le: return a <= b;
      case CmpOp::Gt: return a > b;
      case CmpOp::Ge: return a >= b;
    }
  }
  return false;  // unreachable
}

bool Predicate::match(const Event& e) const {
  switch (kind_) {
    case Kind::True: return true;
    case Kind::False: return false;
    case Kind::Compare: {
      const auto v = e.get(attr_);
      if (!v) return false;
      return compare_values(*v, op_, value_);
    }
    case Kind::And:
      for (const auto& c : children_)
        if (!c->match(e)) return false;
      return true;
    case Kind::Or:
      for (const auto& c : children_)
        if (c->match(e)) return true;
      return false;
    case Kind::Not: return !children_.front()->match(e);
  }
  return false;  // unreachable
}

const std::string& Predicate::attr() const {
  PMC_EXPECTS(kind_ == Kind::Compare);
  return attr_;
}

CmpOp Predicate::op() const {
  PMC_EXPECTS(kind_ == Kind::Compare);
  return op_;
}

const Value& Predicate::value() const {
  PMC_EXPECTS(kind_ == Kind::Compare);
  return value_;
}

const std::vector<PredicatePtr>& Predicate::children() const {
  PMC_EXPECTS(kind_ == Kind::And || kind_ == Kind::Or);
  return children_;
}

const PredicatePtr& Predicate::child() const {
  PMC_EXPECTS(kind_ == Kind::Not);
  return children_.front();
}

std::string Predicate::to_string() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::True: os << "true"; break;
    case Kind::False: os << "false"; break;
    case Kind::Compare:
      os << attr_ << " " << pmc::to_string(op_) << " " << value_.to_string();
      break;
    case Kind::And:
    case Kind::Or: {
      const char* sep = kind_ == Kind::And ? " && " : " || ";
      os << "(";
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i) os << sep;
        os << children_[i]->to_string();
      }
      os << ")";
      break;
    }
    case Kind::Not: os << "!(" << children_.front()->to_string() << ")"; break;
  }
  return os.str();
}

}  // namespace pmc
