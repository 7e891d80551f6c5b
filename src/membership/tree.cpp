#include "membership/tree.hpp"

#include <algorithm>

#include "common/contract.hpp"
#include "membership/election.hpp"

namespace pmc {

GroupTree::GroupTree(TreeConfig config, std::span<const Member> members,
                     Interns& interns, GroupTreeOptions options)
    : config_(config), interns_(&interns) {
  config_.validate();
  // The members in address order: the input itself when it already is in
  // that order (every enumerated population), else pointers into it,
  // sorted.
  std::vector<const Member*> sorted;
  if (!std::is_sorted(members.begin(), members.end(),
                      [](const Member& x, const Member& y) {
                        return x.address < y.address;
                      })) {
    sorted.reserve(members.size());
    for (const Member& m : members) sorted.push_back(&m);
    std::sort(sorted.begin(), sorted.end(),
              [](const Member* x, const Member* y) {
                return x->address < y->address;
              });
  }
  const auto member = [&](std::size_t i) -> const Member& {
    return sorted.empty() ? members[i] : *sorted[i];
  };
  for (std::size_t i = 0; i < members.size(); ++i) {
    PMC_EXPECTS(member(i).address.depth() == config_.depth);
    if (i > 0) PMC_EXPECTS(!(member(i).address == member(i - 1).address));
  }

  // The sorted members form one contiguous run per leaf subgroup (prefix
  // length d-1), and the runs come in prefix order: each run fills its leaf
  // table, one row per member in address order.
  const std::size_t leaf_len = config_.depth - 1;
  std::uint64_t version = 1;
  table(Prefix::root());  // exists even when the group is empty
  std::vector<Prefix> level;
  for (std::size_t begin = 0, end = 0; begin < members.size(); begin = end) {
    const Address& first = member(begin).address;
    end = begin + 1;
    while (end < members.size() &&
           member(end).address.common_prefix_length(first) >= leaf_len)
      ++end;
    level.push_back(first.prefix(leaf_len));
    DepthView& leaf = table(level.back());
    leaf.reserve(end - begin, end - begin);  // one delegate per leaf row
    for (std::size_t i = begin; i < end; ++i) {
      const Member& m = member(i);
      const AddrId id = interns_->addrs.intern(m.address);
      leaf.upsert_pooled(
          m.address.component(leaf_len), {&id, 1},
          interns_->summaries.intern(InterestSummary::from(m.subscription)),
          1, version++, true);
    }
  }

  // Then one level at a time, upward, so each table is complete before it
  // is compacted: every subgroup's table becomes its row in the parent's
  // table. A level is in prefix order (parents of a sorted level are
  // sorted), so version stamps never depend on hash-bucket layout.
  InterestSummary interests;
  std::vector<AddrId> candidates, delegates;
  for (std::size_t len = leaf_len; len >= 1; --len) {
    std::vector<Prefix> parents;
    for (const Prefix& p : level) {
      const std::uint64_t count = compact_subgroup(
          tables_.at(p), config_.redundancy, interests, candidates, delegates);
      // The row lives in the depth-len tables; near the root it may be
      // coarsened (Sec. 6) — sound (only over-approximates) but cheaper.
      if (len <= options.coarsen_depth_leq) interests.coarsen();
      Prefix parent = p.parent();
      table(parent).upsert_pooled(
          p.infix(), delegates,
          interns_->summaries.intern(std::move(interests)), count, version++,
          true);
      if (parents.empty() || !(parents.back() == parent))
        parents.push_back(std::move(parent));
    }
    level = std::move(parents);
  }
}

DepthView& GroupTree::table(const Prefix& p) {
  const auto [it, inserted] = tables_.try_emplace(p);
  if (inserted) it->second.bind(*interns_);
  return it->second;
}

const DepthView& GroupTree::view_at(const Prefix& prefix) const {
  PMC_EXPECTS(prefix.length() < config_.depth);
  const auto it = tables_.find(prefix);
  PMC_EXPECTS(it != tables_.end());
  return it->second;
}

std::vector<const DepthView*> GroupTree::tables_for(
    const Address& self) const {
  PMC_EXPECTS(self.depth() == config_.depth);
  std::vector<const DepthView*> tables;
  tables.reserve(config_.depth);
  for (std::size_t len = 0; len < config_.depth; ++len)
    tables.push_back(&view_at(self.prefix(len)));
  return tables;
}

MembershipView GroupTree::materialize_view(const Address& self) const {
  MembershipView mv(self, config_, *interns_);
  // Each table whole: both are bound to interns_, so the columns copy as
  // they are instead of regrowing row by row.
  for (std::size_t depth = 1; depth <= config_.depth; ++depth) {
    const auto it = tables_.find(self.prefix(depth - 1));
    if (it != tables_.end()) mv.view(depth) = it->second;
  }
  return mv;
}

}  // namespace pmc
