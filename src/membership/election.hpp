// Deterministic delegate election and subgroup compaction (paper Sec.
// 2.2/2.3).
//
// All processes of a subgroup must agree on the same R delegates *without
// explicit agreement*, so the choice is a pure function of the member set:
// the R smallest addresses, the paper's default criterion. Sec. 2.3 also
// allows other criteria (e.g. preferring well-resourced processes), but no
// other rank could take effect here: the election every path runs orders
// candidates by AddrInternTable::less alone.
//
// compact_subgroup is the one rule for the row that describes a subgroup in
// its parent's table. GroupTree builds every upper row with it, and
// SyncNode recompacts its own rows with it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "addr/intern.hpp"
#include "filter/regroup.hpp"
#include "membership/view.hpp"

namespace pmc {

/// The R members with the smallest *addresses* (ids are first-intern
/// order, never a valid ranking), resolved through `table`; all members if
/// fewer than R. Writes into `out` (cleared first), smallest first, so the
/// recompaction hot path elects without allocating.
void elect_delegate_ids(std::span<const AddrId> members, std::size_t r,
                        const AddrInternTable& table,
                        std::vector<AddrId>& out);

/// Compacts a subgroup's own table into the row that describes the
/// subgroup in its parent's table: `interests` becomes the union of the
/// live rows' interests, merged in row order; `delegates` the R smallest
/// of the live rows' delegates (gathered in `candidates`). Returns the
/// live rows' summed process count, 0 when no row is live. Both vectors
/// are the caller's scratch, so a steady-state caller allocates nothing.
std::uint64_t compact_subgroup(const DepthView& table, std::size_t r,
                               InterestSummary& interests,
                               std::vector<AddrId>& candidates,
                               std::vector<AddrId>& delegates);

}  // namespace pmc
