#include "harness/workload.hpp"

#include <cmath>
#include <utility>

#include "common/contract.hpp"
#include "common/hash.hpp"

namespace pmc {

Subscription interval_subscription(double offset, double pd) {
  PMC_EXPECTS(pd >= 0.0 && pd <= 1.0);
  PMC_EXPECTS(offset >= 0.0 && offset < 1.0);
  if (pd >= 1.0) return Subscription();  // wildcard
  if (pd <= 0.0) return Subscription(Predicate::never());
  const double hi = offset + pd;
  if (hi <= 1.0) {
    // u >= offset && u < hi
    return Subscription(Predicate::conj(
        {Predicate::compare(kUniformAttr, CmpOp::Ge, Value(offset)),
         Predicate::compare(kUniformAttr, CmpOp::Lt, Value(hi))}));
  }
  // Wrap-around: [offset, 1) ∪ [0, hi-1).
  return Subscription(Predicate::disj(
      {Predicate::compare(kUniformAttr, CmpOp::Ge, Value(offset)),
       Predicate::compare(kUniformAttr, CmpOp::Lt, Value(hi - 1.0))}));
}

Member stable_member(const Address& address, double pd, std::uint64_t seed) {
  // FNV-1a over the components, salted with the seed, feeds a one-shot Rng:
  // fully specified, so the same (seed, address) pair yields the same
  // subscription on every platform.
  std::uint64_t h = kFnv1aBasis ^ seed;
  for (const auto c : address.components()) h = fnv1a_u64(h, c);
  // detlint:allow(rng-discipline) documented (seed, address) labeled stream — the fnv1a label IS the make_stream discipline, deployment-size independent
  Rng rng(h);
  return Member{address, interval_subscription(rng.next_double(), pd)};
}

std::vector<Member> uniform_interest_members(const AddressSpace& space,
                                             double pd, Rng& rng) {
  std::vector<Member> members;
  auto addresses = space.enumerate();
  members.reserve(addresses.size());
  for (auto& a : addresses) {
    members.push_back(
        Member{std::move(a), interval_subscription(rng.next_double(), pd)});
  }
  return members;
}

std::vector<Member> clustered_interest_members(const AddressSpace& space,
                                               double pd, double jitter,
                                               Rng& rng) {
  PMC_EXPECTS(jitter >= 0.0 && jitter <= 1.0);
  std::vector<Member> members;
  auto addresses = space.enumerate();
  members.reserve(addresses.size());
  if (addresses.empty()) return members;

  // Leaf subgroups get evenly spaced base offsets across [0, 1).
  const std::size_t leaf_len = space.depth() - 1;
  std::vector<Prefix> leaf_order;
  for (const auto& a : addresses) {
    const Prefix lp = a.prefix(leaf_len);
    if (leaf_order.empty() || !(leaf_order.back() == lp))
      leaf_order.push_back(lp);
  }
  const auto leaves = static_cast<double>(leaf_order.size());

  std::size_t leaf_idx = 0;
  for (auto& a : addresses) {
    if (!(a.prefix(leaf_len) == leaf_order[leaf_idx])) ++leaf_idx;
    const double base = static_cast<double>(leaf_idx) / leaves;
    double offset = base + (rng.next_double() - 0.5) * jitter;
    offset -= std::floor(offset);  // wrap into [0, 1)
    members.push_back(Member{std::move(a), interval_subscription(offset, pd)});
  }
  return members;
}

Event make_uniform_event(std::uint64_t publisher, std::uint64_t sequence,
                         Rng& rng) {
  return make_event_at(publisher, sequence, rng.next_double());
}

Event make_event_at(std::uint64_t publisher, std::uint64_t sequence,
                    double u) {
  Event e(EventId{publisher, sequence});
  e.with(kUniformAttr, Value(u));
  return e;
}

}  // namespace pmc
