#include "membership/tree.hpp"

#include <algorithm>

#include "common/contract.hpp"

namespace pmc {

GroupTree::GroupTree(TreeConfig config, std::vector<Member> members,
                     Interns& interns, GroupTreeOptions options)
    : config_(config), options_(options), interns_(&interns) {
  config_.validate();
  std::sort(members.begin(), members.end(),
            [](const Member& x, const Member& y) {
              return x.address < y.address;
            });
  for (std::size_t i = 0; i < members.size(); ++i) {
    PMC_EXPECTS(members[i].address.depth() == config_.depth);
    if (i > 0) PMC_EXPECTS(!(members[i].address == members[i - 1].address));
  }

  // The sorted members form one contiguous run per leaf subgroup (prefix
  // length d-1): build every leaf from its run, then bubble the rows upward.
  // The runs live only here; the tree keeps no per-member copy.
  const std::size_t leaf_len = config_.depth - 1;
  std::vector<std::pair<Prefix, std::span<const Member>>> leaves;
  for (std::size_t begin = 0, end = 0; begin < members.size(); begin = end) {
    const Address& first = members[begin].address;
    end = begin + 1;
    while (end < members.size() &&
           members[end].address.common_prefix_length(first) >= leaf_len)
      ++end;
    leaves.emplace_back(first.prefix(leaf_len),
                        std::span(members).subspan(begin, end - begin));
    ensure_node(leaves.back().first);
  }
  // Ensure ancestor nodes exist (including the root even when empty).
  ensure_node(Prefix::root());
  for (const auto& leaf : leaves) {
    for (Prefix p = leaf.first; !p.is_root();) {
      p = p.parent();
      ensure_node(p);
    }
  }
  for (const auto& [prefix, run] : leaves) build_leaf(prefix, run);

  // Bubble rows upward one level at a time so each ancestor's aggregates are
  // recomputed exactly once. The map walk is a sorted materialization: each
  // level is put in prefix order before any row is pushed, so version stamps
  // and push order never depend on hash-bucket layout.
  std::vector<std::vector<const Prefix*>> by_length(config_.depth);
  // detlint:allow(iteration-order) sorted materialization — levels sorted below
  for (const auto& [prefix, n] : nodes_)
    by_length[prefix.length()].push_back(&prefix);
  for (auto& level : by_length)
    std::sort(level.begin(), level.end(),
              [](const Prefix* a, const Prefix* b) { return *a < *b; });
  for (std::size_t len = config_.depth - 1; len >= 1; --len) {
    for (const Prefix* p : by_length[len]) push_row_to_parent(*p);
    for (const Prefix* q : by_length[len - 1]) recompute_aggregates(node(*q));
  }
}

GroupTree::Node& GroupTree::node(const Prefix& p) {
  const auto it = nodes_.find(p);
  PMC_EXPECTS(it != nodes_.end());
  return it->second;
}

const GroupTree::Node& GroupTree::node(const Prefix& p) const {
  const auto it = nodes_.find(p);
  PMC_EXPECTS(it != nodes_.end());
  return it->second;
}

GroupTree::Node& GroupTree::ensure_node(const Prefix& p) {
  const auto [it, inserted] = nodes_.try_emplace(p);
  if (inserted) it->second.child_view.bind(*interns_);
  return it->second;
}

std::size_t GroupTree::process_count() const noexcept {
  const auto it = nodes_.find(Prefix::root());
  return it == nodes_.end()
             ? 0
             : static_cast<std::size_t>(it->second.process_count);
}

const DepthView& GroupTree::view_at(const Prefix& prefix) const {
  PMC_EXPECTS(prefix.length() < config_.depth);
  return node(prefix).child_view;
}

const DepthView& GroupTree::view_for(const Address& self,
                                     std::size_t depth) const {
  PMC_EXPECTS(depth >= 1 && depth <= config_.depth);
  return view_at(self.prefix(depth - 1));
}

std::vector<Address> GroupTree::delegates(const Prefix& prefix) const {
  std::vector<Address> out;
  for (const AddrId id : node(prefix).delegates)
    out.push_back(interns_->addrs.resolve(id));
  return out;
}

std::uint64_t GroupTree::represented(const Prefix& prefix) const {
  const auto it = nodes_.find(prefix);
  return it == nodes_.end() ? 0 : it->second.process_count;
}

const InterestSummary& GroupTree::summary(const Prefix& prefix) const {
  return node(prefix).summary;
}

MembershipView GroupTree::materialize_view(const Address& self) const {
  MembershipView mv(self, config_, *interns_);
  for (std::size_t depth = 1; depth <= config_.depth; ++depth) {
    const auto it = nodes_.find(self.prefix(depth - 1));
    if (it == nodes_.end()) continue;
    const DepthView& dv = it->second.child_view;
    for (std::size_t i = 0; i < dv.size(); ++i)
      mv.view(depth).upsert_pooled(dv.infix(i), dv.delegates(i),
                                   dv.interests_ptr(i), dv.process_count(i),
                                   dv.version(i), dv.alive(i));
  }
  return mv;
}

void GroupTree::build_leaf(const Prefix& leaf_prefix,
                           std::span<const Member> members) {
  PMC_EXPECTS(leaf_prefix.length() == config_.depth - 1);
  // Members arrive in address order (the constructor sorts them).
  Node& n = node(leaf_prefix);
  InterestSummary summary;
  candidate_scratch_.clear();
  for (const auto& m : members) {
    const AddrId id = interns_->addrs.intern(m.address);
    auto interests =
        interns_->summaries.intern(InterestSummary::from(m.subscription));
    summary.merge(*interests);
    n.child_view.upsert_pooled(m.address.component(config_.depth - 1),
                               {&id, 1}, std::move(interests), 1,
                               version_counter_++, true);
    candidate_scratch_.push_back(id);
  }
  n.summary = std::move(summary);
  n.process_count = members.size();
  elect_delegate_ids(candidate_scratch_, config_.redundancy, interns_->addrs,
                     n.delegates);
}

void GroupTree::push_row_to_parent(const Prefix& child) {
  PMC_EXPECTS(!child.is_root());
  Node& parent = node(child.parent());
  const Node& c = node(child);
  InterestSummary interests = c.summary;
  // The row lives in the depth-(parent length + 1) tables; near the root it
  // may be coarsened (Sec. 6) — sound (only over-approximates) but cheaper.
  if (child.length() <= options_.coarsen_depth_leq) interests.coarsen();
  parent.child_view.upsert_pooled(
      child.infix(), c.delegates,
      interns_->summaries.intern(std::move(interests)), c.process_count,
      version_counter_++, true);
}

void GroupTree::recompute_aggregates(Node& n) {
  n.process_count = n.child_view.total_processes();
  InterestSummary summary;
  candidate_scratch_.clear();
  const DepthView& dv = n.child_view;
  for (std::size_t i = 0; i < dv.size(); ++i) {
    if (!dv.alive(i)) continue;
    summary.merge(dv.interests(i));
    const auto ids = dv.delegates(i);
    candidate_scratch_.insert(candidate_scratch_.end(), ids.begin(),
                              ids.end());
  }
  n.summary = std::move(summary);
  // The R smallest addresses under a subgroup are among its children's
  // R-smallest (delegate sets), so electing from the union is exact.
  elect_delegate_ids(candidate_scratch_, config_.redundancy, interns_->addrs,
                     n.delegates);
}

}  // namespace pmc
