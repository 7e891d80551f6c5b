#include "membership/election.hpp"

#include <algorithm>

#include "common/contract.hpp"

namespace pmc {

void elect_delegate_ids(std::span<const AddrId> members, std::size_t r,
                        const AddrInternTable& table,
                        std::vector<AddrId>& out) {
  PMC_EXPECTS(r >= 1);
  out.assign(members.begin(), members.end());
  const auto by_address = [&table](AddrId a, AddrId b) {
    return table.less(a, b);
  };
  if (out.size() > r) {
    std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(r),
                      out.end(), by_address);
    out.resize(r);
  } else {
    std::sort(out.begin(), out.end(), by_address);
  }
}

std::uint64_t compact_subgroup(const DepthView& table, std::size_t r,
                               InterestSummary& interests,
                               std::vector<AddrId>& candidates,
                               std::vector<AddrId>& delegates) {
  interests = InterestSummary();
  candidates.clear();
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (!table.alive(i)) continue;
    interests.merge(table.interests(i));
    const auto ids = table.delegates(i);
    candidates.insert(candidates.end(), ids.begin(), ids.end());
    count += table.process_count(i);
  }
  // The R smallest addresses under a subgroup are among its rows' R
  // smallest (their delegate lists), so electing from the union is exact.
  elect_delegate_ids(candidates, r, table.interns().addrs, delegates);
  return count;
}

}  // namespace pmc
