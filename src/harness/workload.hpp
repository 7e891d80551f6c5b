// Workload generators for the experiments.
//
// uniform_interest_members realizes the analysis model of paper Sec. 4.1 —
// "every process in the group is interested with a probability of p_d" —
// with *real* subscriptions: each process subscribes to a wrap-around
// interval of width p_d over a uniform attribute u in [0, 1). For an event
// with u drawn uniformly, each process matches independently with
// probability exactly p_d, while the full filter/regrouping machinery is
// exercised (interval subscriptions regroup into per-attribute interval
// unions in the delegates' tables).
//
// clustered_interest_members gives processes of nearby addresses correlated
// interests (each leaf subgroup is biased towards one region of the
// attribute space) — the favourable case for the tree's locality.
#pragma once

#include <vector>

#include "addr/space.hpp"
#include "common/rng.hpp"
#include "event/event.hpp"
#include "membership/tree.hpp"

namespace pmc {

/// Attribute name used by the generated subscriptions and events.
inline constexpr const char* kUniformAttr = "u";

/// One member per address of the space, each with an interval subscription
/// of width `pd` at a uniform random offset (wrap-around).
std::vector<Member> uniform_interest_members(const AddressSpace& space,
                                             double pd, Rng& rng);

/// Interval subscription of width `pd` starting at `offset` (wrap-around
/// across 1.0 becomes a disjunction of two intervals).
Subscription interval_subscription(double offset, double pd);

/// Member whose subscription depends only on (seed, address) — unlike a
/// shared sequential Rng, adding or removing *other* members never
/// re-shuffles this one's interests. The scenario engine derives every
/// slot's subscription this way so churn stays reproducible.
Member stable_member(const Address& address, double pd, std::uint64_t seed);

/// Members whose interests cluster per leaf subgroup: processes of leaf
/// subgroup k subscribe to an interval of width `pd` centered (with jitter)
/// on that subgroup's slice of [0, 1).
std::vector<Member> clustered_interest_members(const AddressSpace& space,
                                               double pd, double jitter,
                                               Rng& rng);

/// Event with attribute u uniform in [0, 1).
Event make_uniform_event(std::uint64_t publisher, std::uint64_t sequence,
                         Rng& rng);

/// Event with a fixed u (deterministic matching set).
Event make_event_at(std::uint64_t publisher, std::uint64_t sequence,
                    double u);

}  // namespace pmc
