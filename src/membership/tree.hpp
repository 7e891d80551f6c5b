// GroupTree: the compound spanning tree of paper Sec. 2.
//
// Processes sharing a prefix of length i-1 form a subgroup of depth i; each
// populated subgroup elects R delegates that also populate the parent node.
// GroupTree keeps, per prefix, only the child view table: one ViewRow per
// populated child subgroup (its delegates, regrouped interests and process
// count). A subgroup's own row is compact_subgroup of its table
// (election.hpp), the same rule SyncNode recompacts live views with.
//
// The tree is built once, for a fixed population, and serves two roles:
//  * in the static figure harness, it is the membership all processes share
//    (one DepthView per subgroup, shared by reference — what every member of
//    that subgroup would hold in its own table);
//  * in the dynamic-membership path it is the founders' bootstrap source
//    (materialize_view). From then on each process knows the group only
//    through its own view tables, which anti-entropy keeps current.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "addr/address.hpp"
#include "filter/subscription.hpp"
#include "membership/config.hpp"
#include "membership/view.hpp"

namespace pmc {

struct Member {
  Address address;
  Subscription subscription;
};

/// Optional behaviours of the tree beyond the paper's core scheme.
struct GroupTreeOptions {
  /// Sec. 6's per-depth mechanism (2): "approximating the filters applied
  /// by delegates closer to the root to reduce computation". Rows in
  /// tables of depth <= this value carry *coarsened* interest summaries
  /// (bounding intervals / projections): cheaper to store and evaluate,
  /// never losing an interested process, at the cost of some extra
  /// uninterested subtrees being infected near the root. 0 disables.
  std::size_t coarsen_depth_leq = 0;
};

class GroupTree {
 public:
  /// Builds the tree for an initial population, in any order. Addresses
  /// must be unique and all of depth config.depth. The tree reads the
  /// members during construction only and keeps no copy of them. All views
  /// the tree hands out intern through `interns`, which must outlive the
  /// tree.
  GroupTree(TreeConfig config, std::span<const Member> members,
            Interns& interns, GroupTreeOptions options = {});

  /// Child view of the subgroup denoted by `prefix`
  /// (prefix length in [0, d-1]). This is the depth-(len+1) table of every
  /// process under that prefix.
  const DepthView& view_at(const Prefix& prefix) const;

  /// The d tables of process `self` (an address of depth d): depth i at
  /// index i-1, view_at(self.prefix(i-1)), as PmcastNode and TreecastNode
  /// take them.
  std::vector<const DepthView*> tables_for(const Address& self) const;

  /// Per-process membership knowledge (Eq. 2) as a standalone copy — the
  /// bootstrap a founding process receives.
  MembershipView materialize_view(const Address& self) const;

 private:
  /// The table of `p`, bound to the intern state; created empty if absent.
  DepthView& table(const Prefix& p);

  TreeConfig config_;
  Interns* interns_ = nullptr;
  std::unordered_map<Prefix, DepthView, PrefixHash> tables_;
};

}  // namespace pmc
