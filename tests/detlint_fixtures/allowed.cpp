// detlint fixture: contains real violations, each carrying an inline
// `detlint:allow` annotation with a justification. MUST pass when
// annotations are honored and MUST be flagged when they are ignored
// (--no-allowlist) — that asymmetry is what proves the escape hatch, and
// only the escape hatch, is doing the suppressing.
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fixture {

std::uint64_t tally(
    const std::unordered_map<std::uint64_t, std::uint64_t>& counts) {
  std::uint64_t sum = 0;
  // detlint:allow(iteration-order) commutative fold — addition erases order
  for (const auto& [key, value] : counts) sum += value;
  return sum;
}

std::size_t distinct(const std::vector<const int*>& items) {
  // detlint:allow(pointer-hash) counted only: never iterated, serialized or fingerprinted
  const std::unordered_set<const int*> seen(items.begin(), items.end());
  return seen.size();
}

std::size_t probe_count() {
  // detlint:allow(thread-confinement) fixture tally, single-threaded test harness only
  static std::size_t probes = 0;
  return ++probes;
}

}  // namespace fixture
