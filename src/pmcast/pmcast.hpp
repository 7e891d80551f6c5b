// Umbrella header: the public API of the pmcast library.
//
//   #include "pmcast/pmcast.hpp"
//
// Typical use (see examples/quickstart.cpp):
//   1. Describe the tree (TreeConfig) and build a GroupTree from
//      (Address, Subscription) members, or run SyncNodes for decentralized
//      membership.
//   2. Create a Runtime and one PmcastNode per process, given its d view
//      tables (GroupTree::tables_for, or MembershipView::tables_for of the
//      SyncNode's view) and an AddrId -> ProcessId Directory.
//   3. Call PmcastNode::pmcast(event); interested nodes get their deliver
//      handler invoked with high probability, uninterested nodes are left
//      alone with high probability.
#pragma once

#include "addr/address.hpp"
#include "addr/space.hpp"
#include "analysis/markov.hpp"
#include "analysis/rounds.hpp"
#include "analysis/tree_analysis.hpp"
#include "event/event.hpp"
#include "filter/regroup.hpp"
#include "filter/subscription.hpp"
#include "membership/sync.hpp"
#include "membership/tree.hpp"
#include "membership/view.hpp"
#include "pmcast/config.hpp"
#include "pmcast/node.hpp"
#include "sim/runtime.hpp"
